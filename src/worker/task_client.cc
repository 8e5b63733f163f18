#include "worker/task_client.h"

#include <pthread.h>

#include <chrono>
#include <utility>

#include "stats/metrics_registry.h"
#include "stats/trace.h"

namespace presto {

namespace {

Status HttpStatusToStatus(const HttpResponse& response) {
  std::string detail = response.body;
  if (auto body_or = Json::Parse(response.body); body_or.ok()) {
    if (const Json* error = body_or.value().Find("error");
        error != nullptr && error->is_string()) {
      detail = error->string_value();
    }
  }
  switch (response.status) {
    case 400:
      return Status::InvalidArgument(detail);
    case 404:
      return Status::NotFound(detail);
    case 409:
      return Status::Cancelled(detail);
    default:
      return Status::IOError("task http: status " +
                             std::to_string(response.status) + ": " + detail);
  }
}

}  // namespace

HttpTaskClient::HttpTaskClient(TaskSpec spec, Json create_request,
                               Options options)
    : spec_(std::move(spec)),
      task_id_(MakeTaskId(spec_.query_id, spec_.fragment_id,
                          spec_.task_index)),
      create_request_(std::move(create_request)),
      options_(options) {
  cached_.task_id = task_id_;
  cached_.stats.fragment_id = spec_.fragment_id;
  cached_.stats.task_index = spec_.task_index;
  cached_.stats.worker_id = spec_.worker_id;
}

HttpTaskClient::~HttpTaskClient() {
  stop_.store(true);
  if (poll_thread_.joinable()) poll_thread_.join();
}

Result<HttpResponse> HttpTaskClient::ControlRoundTrip(
    const HttpRequest& request) {
  // Called under control_mu_. Reconnect once on a stale keep-alive socket.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (control_conn_ == nullptr) {
      auto conn_or =
          ConnectToLoopback(options_.task_port, options_.io_timeout_micros);
      if (!conn_or.ok()) return conn_or.status();
      control_conn_ = std::move(conn_or).value();
    }
    Status write = control_conn_->WriteRequest(request);
    if (write.ok()) {
      auto response_or = control_conn_->ReadResponse();
      if (response_or.ok()) return response_or;
      control_conn_.reset();
      if (attempt == 1) return response_or.status();
    } else {
      control_conn_.reset();
      if (attempt == 1) return write;
    }
  }
  return Status::IOError("task http: unreachable");
}

Result<TaskStatusResponse> HttpTaskClient::ParseStatusResponse(
    const HttpResponse& response) {
  if (response.status != 200) return HttpStatusToStatus(response);
  PRESTO_ASSIGN_OR_RETURN(Json body, Json::Parse(response.body));
  return TaskStatusResponse::FromJson(body);
}

Result<TaskStatusResponse> HttpTaskClient::PostControl(const Json& body) {
  HttpRequest request;
  request.method = "POST";
  request.path = "/v1/task/" + task_id_;
  request.headers[kTraceHeader] = spec_.query_id;
  request.body = body.Serialize();
  PRESTO_ASSIGN_OR_RETURN(HttpResponse response, ControlRoundTrip(request));
  return ParseStatusResponse(response);
}

void HttpTaskClient::CacheStatus(const TaskStatusResponse& status) {
  // Mine the response for shipped trace spans first: even a late response
  // that loses the terminal-state race below still carries spans the
  // worker drained exactly once.
  MergeShippedTrace(status);
  std::lock_guard<std::mutex> lock(cache_mu_);
  // Never regress a terminal snapshot (a late control response racing the
  // poll thread's terminal status).
  if (IsTerminalTaskState(cached_.state) &&
      !IsTerminalTaskState(status.state)) {
    return;
  }
  cached_ = status;
}

void HttpTaskClient::MergeShippedTrace(const TaskStatusResponse& status) {
  if (options_.trace == nullptr || status.trace_now_nanos < 0) return;
  int64_t offset = 0;
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    if (!trace_offset_set_) {
      // First traced response: the worker's recorder epoch differs from
      // the coordinator's, so anchor "worker now" to "coordinator now".
      // The error is one-way network latency — microseconds on loopback,
      // far below span durations of interest.
      trace_offset_nanos_ =
          options_.trace->NowNanos() - status.trace_now_nanos;
      trace_offset_set_ = true;
    }
    offset = trace_offset_nanos_;
  }
  if (status.trace_dropped > 0) {
    options_.trace->AddDropped(status.trace_dropped);
    if (options_.trace_dropped != nullptr) {
      options_.trace_dropped->Increment(status.trace_dropped);
    }
  }
  if (status.trace_events.empty()) return;
  for (const auto& [pid, name] : status.trace_process_names) {
    options_.trace->SetProcessName(pid, name);
  }
  for (const auto& [key, name] : status.trace_thread_names) {
    options_.trace->SetThreadName(key.first, key.second, name);
  }
  for (const TraceEvent& event : status.trace_events) {
    TraceEvent rebased = event;
    rebased.start_nanos += offset;
    options_.trace->MergeEvent(std::move(rebased));
  }
  if (options_.trace_shipped != nullptr) {
    options_.trace_shipped->Increment(
        static_cast<int64_t>(status.trace_events.size()));
  }
}

Status HttpTaskClient::Launch(std::function<void(Status)> on_done) {
  on_done_ = std::move(on_done);
  TaskStatusResponse status;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    auto status_or = PostControl(create_request_);
    if (!status_or.ok()) {
      // A create that cannot reach (or be served by) the worker is a
      // worker-loss signal, not a query error — lets recovery retry the
      // replacement elsewhere when the chosen worker died in between.
      if (status_or.status().code() == StatusCode::kIOError) {
        worker_lost_.store(true);
      }
      return Status::IOError("task create failed on worker " +
                             std::to_string(spec_.worker_id) + ": " +
                             status_or.status().ToString());
    }
    status = std::move(status_or).value();
  }
  CacheStatus(status);
  launched_.store(true);
  poll_thread_ = std::thread([this] { PollLoop(); });
  return Status::OK();
}

std::optional<size_t> HttpTaskClient::SplitQueueSize(int node_id) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cached_.queued_splits.find(node_id);
  if (it == cached_.queued_splits.end()) return std::nullopt;
  int64_t pending = 0;
  if (auto p = pending_counts_.find(node_id); p != pending_counts_.end()) {
    pending = p->second;
  }
  return static_cast<size_t>(it->second + pending);
}

void HttpTaskClient::AddSplit(int node_id, const SplitPtr& split,
                              Connector* connector) {
  if (superseded_.load()) return;  // replacement generation owns the splits
  if (connector == nullptr) {
    std::lock_guard<std::mutex> lock(control_mu_);
    if (pending_error_.ok()) {
      pending_error_ = Status::Internal("no connector for split of node " +
                                        std::to_string(node_id));
    }
    return;
  }
  auto serialized_or = connector->SerializeSplit(*split);
  std::lock_guard<std::mutex> lock(control_mu_);
  if (!serialized_or.ok()) {
    if (pending_error_.ok()) pending_error_ = serialized_or.status();
    return;
  }
  pending_splits_[node_id].push_back(std::move(serialized_or).value());
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  ++pending_counts_[node_id];
}

void HttpTaskClient::NoMoreSplits(int node_id) {
  if (superseded_.load()) return;
  // Flush anything buffered for the node first so ordering holds.
  (void)FlushSplits();
  TaskUpdateRequest update;
  update.no_more_splits.push_back(node_id);
  std::lock_guard<std::mutex> lock(control_mu_);
  auto status_or = PostControl(update.ToJson());
  if (status_or.ok()) CacheStatus(status_or.value());
}

Status HttpTaskClient::FlushSplits() {
  if (superseded_.load()) return Status::OK();
  TaskUpdateRequest update;
  // control_mu_ stays held from the pending_splits_ move through the POST:
  // dropping it in between would let a concurrent NoMoreSplits (recovery
  // replay racing the split thread's flush) post the end-of-splits marker
  // first, and the worker would drop the splits arriving after it.
  std::lock_guard<std::mutex> lock(control_mu_);
  if (!pending_error_.ok()) {
    Status error = pending_error_;
    pending_error_ = Status::OK();
    return error;
  }
  if (pending_splits_.empty()) return Status::OK();
  update.splits = std::move(pending_splits_);
  pending_splits_.clear();
  auto status_or = PostControl(update.ToJson());
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    for (const auto& [node_id, splits] : update.splits) {
      pending_counts_[node_id] -=
          static_cast<int64_t>(splits.size());
    }
  }
  if (!status_or.ok()) {
    // A terminal/raced task swallows updates server-side; only transport
    // and protocol errors surface.
    return status_or.status();
  }
  CacheStatus(status_or.value());
  return Status::OK();
}

double HttpTaskClient::OutputUtilization() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cached_.output_utilization;
}

void HttpTaskClient::SetActiveWriters(int writers) {
  if (superseded_.load()) return;
  TaskUpdateRequest update;
  update.active_writers = writers;
  std::lock_guard<std::mutex> lock(control_mu_);
  auto status_or = PostControl(update.ToJson());
  if (status_or.ok()) CacheStatus(status_or.value());
}

TaskStats HttpTaskClient::CollectStats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cached_.stats;
}

int64_t HttpTaskClient::cpu_nanos() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cached_.cpu_nanos;
}

int64_t HttpTaskClient::peak_user_memory_bytes() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cached_.peak_user_memory_bytes;
}

int64_t HttpTaskClient::rows_out() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cached_.rows_out;
}

int64_t HttpTaskClient::completed_splits() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cached_.completed_splits();
}

int64_t HttpTaskClient::progress_age_micros() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cached_.progress_age_micros;
}

bool HttpTaskClient::worker_alive() const {
  if (worker_dead_.load()) return false;
  return options_.liveness == nullptr ||
         options_.liveness->IsAlive(spec_.worker_id);
}

void HttpTaskClient::Abort() {
  if (aborted_.exchange(true)) return;
  HttpRequest request;
  request.method = "DELETE";
  request.path = "/v1/task/" + task_id_ + "?abort=1";
  request.headers[kTraceHeader] = spec_.query_id;
  std::lock_guard<std::mutex> lock(control_mu_);
  // Best-effort (the poll loop converges), but parse a successful response:
  // the DELETE drains the worker recorder's remaining spans (ISSUE 10).
  auto response_or = ControlRoundTrip(request);
  if (response_or.ok()) {
    if (auto status_or = ParseStatusResponse(response_or.value());
        status_or.ok()) {
      CacheStatus(status_or.value());
    }
  }
}

void HttpTaskClient::ReleaseResources() {
  // on_done has fired; retire the worker-side entry (last task of the
  // query also drops its exchange state there). Best-effort: a dead
  // worker's entries die with its process.
  HttpRequest request;
  request.method = "DELETE";
  request.path = "/v1/task/" + task_id_;
  request.headers[kTraceHeader] = spec_.query_id;
  std::lock_guard<std::mutex> lock(control_mu_);
  // The retire DELETE's response carries the final trace flush (the worker
  // drains up to the full backlog cap into it) — parse it so cross-process
  // spans recorded after the last long-poll still reach the merged trace.
  auto response_or = ControlRoundTrip(request);
  if (response_or.ok()) {
    if (auto status_or = ParseStatusResponse(response_or.value());
        status_or.ok()) {
      CacheStatus(status_or.value());
    }
  }
}

void HttpTaskClient::FireDone(Status status) {
  std::call_once(done_once_, [this, &status] {
    if (on_done_) on_done_(std::move(status));
  });
}

void HttpTaskClient::PollLoop() {
  // Named so it does not inherit the name of the thread that launched it
  // (e.g. the query's control thread).
  pthread_setname_np(pthread_self(), "presto-taskpoll");
  int consecutive_failures = 0;
  std::unique_ptr<HttpConnection> conn;
  int64_t since = 0;
  while (!stop_.load()) {
    if (options_.liveness != nullptr &&
        options_.liveness->SeenHeartbeat(spec_.worker_id) &&
        !options_.liveness->IsAlive(spec_.worker_id)) {
      worker_dead_.store(true);
      worker_lost_.store(true);
      FireDone(Status::IOError(
          "worker " + std::to_string(spec_.worker_id) +
          " lost: missed heartbeats past liveness timeout; task " +
          task_id_ + " presumed dead"));
      return;
    }

    if (conn == nullptr) {
      auto conn_or =
          ConnectToLoopback(options_.task_port, options_.io_timeout_micros);
      if (!conn_or.ok()) {
        if (++consecutive_failures > options_.max_consecutive_failures) {
          if (!aborted_.load()) worker_lost_.store(true);
          FireDone(aborted_.load()
                       ? Status::Cancelled("task " + task_id_ + " aborted")
                       : Status::IOError("worker " +
                                         std::to_string(spec_.worker_id) +
                                         " unreachable: " +
                                         conn_or.status().message()));
          return;
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.retry_backoff_micros));
        continue;
      }
      conn = std::move(conn_or).value();
    }

    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      since = cached_.version;
    }
    HttpRequest request;
    request.method = "GET";
    request.path = "/v1/task/" + task_id_ + "/status?since=" +
                   std::to_string(since) +
                   "&wait=" + std::to_string(options_.poll_wait_micros);
    request.headers[kTraceHeader] = spec_.query_id;

    Status write = conn->WriteRequest(request);
    Result<HttpResponse> response_or =
        write.ok() ? conn->ReadResponse() : Result<HttpResponse>(write);
    if (!response_or.ok()) {
      conn.reset();
      if (++consecutive_failures > options_.max_consecutive_failures) {
        if (!aborted_.load()) worker_lost_.store(true);
        FireDone(aborted_.load()
                     ? Status::Cancelled("task " + task_id_ + " aborted")
                     : Status::IOError(
                           "worker " + std::to_string(spec_.worker_id) +
                           " unreachable polling task " + task_id_ + ": " +
                           response_or.status().message()));
        return;
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.retry_backoff_micros));
      continue;
    }
    consecutive_failures = 0;

    const HttpResponse& response = response_or.value();
    if (response.status == 404) {
      // Entry retired underneath us (e.g. an abort raced completion).
      FireDone(aborted_.load()
                   ? Status::Cancelled("task " + task_id_ + " aborted")
                   : Status::IOError("task " + task_id_ +
                                     " disappeared from worker"));
      return;
    }
    auto status_or = ParseStatusResponse(response);
    if (!status_or.ok()) {
      // Protocol-level failure (5xx fault injection, malformed body):
      // retry within the failure budget.
      conn.reset();
      if (++consecutive_failures > options_.max_consecutive_failures) {
        FireDone(status_or.status());
        return;
      }
      continue;
    }
    const TaskStatusResponse& status = status_or.value();
    CacheStatus(status);
    if (IsTerminalTaskState(status.state)) {
      switch (status.state) {
        case TaskState::kFinished:
          FireDone(Status::OK());
          break;
        case TaskState::kCanceled:
        case TaskState::kAborted:
          FireDone(status.error_code == StatusCode::kOk
                       ? Status::Cancelled("task " + task_id_ + " canceled")
                       : status.ToStatus());
          break;
        default:
          FireDone(status.error_code == StatusCode::kOk
                       ? Status::Internal("task " + task_id_ +
                                          " failed without error detail")
                       : status.ToStatus());
          break;
      }
      return;
    }
  }
  // Stopped externally without a terminal state (client destruction during
  // teardown): report cancellation so a pending waiter is not stranded.
  FireDone(Status::Cancelled("task " + task_id_ + " poll stopped"));
}

}  // namespace presto
