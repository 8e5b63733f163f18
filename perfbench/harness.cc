#include "harness.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "engine/reference_executor.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

// Sort key of a row over its non-double columns; doubles compared apart.
std::string ExactKey(const std::vector<presto::Value>& row) {
  std::string key;
  for (const auto& value : row) {
    if (!value.is_null() && value.type() == presto::TypeKind::kDouble) {
      key += "~|";
    } else {
      key += value.ToString() + "|";
    }
  }
  return key;
}

bool CloseEnough(const presto::Value& a, const presto::Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() != presto::TypeKind::kDouble ||
      b.type() != presto::TypeKind::kDouble) {
    return a.ToString() == b.ToString();
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  double scale = std::max({std::fabs(x), std::fabs(y), 1e-12});
  return std::fabs(x - y) <= 1e-9 * scale;
}

}  // namespace

bool RowsMatch(const Rows& got, const Rows& want) {
  if (presto::SameRowsIgnoringOrder(got, want)) return true;
  if (got.size() != want.size()) return false;
  auto sorted = [](const Rows& rows) {
    std::vector<std::pair<std::string, const std::vector<presto::Value>*>> out;
    for (const auto& row : rows) out.emplace_back(ExactKey(row), &row);
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      // Equal exact keys: order by the doubles so pairs line up.
      for (size_t i = 0; i < a.second->size(); ++i) {
        const auto& x = (*a.second)[i];
        const auto& y = (*b.second)[i];
        if (x.is_null() || y.is_null() ||
            x.type() != presto::TypeKind::kDouble) {
          continue;
        }
        if (x.AsDouble() != y.AsDouble()) return x.AsDouble() < y.AsDouble();
      }
      return false;
    });
    return out;
  };
  auto a = sorted(got);
  auto b = sorted(want);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first) return false;
    const auto& x = *a[i].second;
    const auto& y = *b[i].second;
    if (x.size() != y.size()) return false;
    for (size_t c = 0; c < x.size(); ++c) {
      if (!CloseEnough(x[c], y[c])) return false;
    }
  }
  return true;
}

ScopedSpan::ScopedSpan(TraceContext* trace, const char* name, int64_t query)
    : trace_(trace), name_(name), query_(query) {
  if (trace_ == nullptr) return;
  id_ = trace_->next_id++;
  parent_ = trace_->open;
  trace_->open = id_;
  start_nanos_ = trace_->recorder->NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  trace_->recorder->RecordSpan(
      "perfbench", name_, 0, trace_->tid, start_nanos_,
      trace_->recorder->NowNanos() - start_nanos_,
      {{"id", std::to_string(id_)},
       {"parent", std::to_string(parent_)},
       {"query", std::to_string(query_)}});
  trace_->open = parent_;
}

std::map<std::string, double> SelfTimes(
    const std::vector<presto::TraceEvent>& events) {
  auto arg = [](const presto::TraceEvent& event, const char* key) {
    for (const auto& [k, v] : event.args) {
      if (k == key) return std::atoll(v.c_str());
    }
    return -1LL;
  };
  // (tid, span id) -> summed duration of its direct children.
  std::map<std::pair<int64_t, long long>, int64_t> child_nanos;
  for (const presto::TraceEvent& event : events) {
    long long parent = arg(event, "parent");
    if (parent >= 0) child_nanos[{event.tid, parent}] += event.duration_nanos;
  }
  std::map<std::string, double> out;
  for (const presto::TraceEvent& event : events) {
    auto it = child_nanos.find({event.tid, arg(event, "id")});
    int64_t children = it != child_nanos.end() ? it->second : 0;
    out[event.name] +=
        static_cast<double>(event.duration_nanos - children) / 1e6;
  }
  return out;
}

Watchdog::Watchdog(int slots, int64_t hard_limit_nanos,
                   std::function<void()> on_abort)
    : hard_limit_nanos_(hard_limit_nanos), on_abort_(std::move(on_abort)) {
  for (int i = 0; i < slots; ++i) slots_.push_back(std::make_unique<Slot>());
  thread_ = std::thread([this] { Loop(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::Arm(int slot, presto::QueryExecution* execution,
                   int64_t deadline_nanos) {
  Slot& s = *slots_[static_cast<size_t>(slot)];
  std::lock_guard<std::mutex> lock(s.mu);
  s.execution = execution;
  s.deadline_nanos = deadline_nanos;
  s.fired = false;
}

bool Watchdog::Disarm(int slot) {
  Slot& s = *slots_[static_cast<size_t>(slot)];
  std::lock_guard<std::mutex> lock(s.mu);
  s.execution = nullptr;
  return s.fired;
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(5));
    int64_t now = NowNanos();
    if (now > hard_limit_nanos_) {
      std::fprintf(stderr, "prestobench: run overran its hard limit\n");
      if (on_abort_) on_abort_();
      std::_Exit(3);
    }
    for (auto& slot : slots_) {
      std::lock_guard<std::mutex> slot_lock(slot->mu);
      if (slot->execution != nullptr && !slot->fired &&
          now > slot->deadline_nanos) {
        slot->fired = true;
        slot->execution->Cancel(
            presto::Status::Cancelled("benchmark deadline exceeded"));
      }
    }
  }
}

Outcome RunQuery(presto::PrestoEngine& engine, const std::string& sql,
                 Watchdog& watchdog, int slot, int64_t deadline_nanos,
                 TraceContext* trace, int64_t query_seq) {
  Outcome outcome;
  outcome.start_nanos = NowNanos();
  presto::Result<presto::QueryResult> handle = [&] {
    ScopedSpan span(trace, "engine.execute", query_seq);
    return engine.Execute(sql);
  }();
  if (!handle.ok()) {
    outcome.end_nanos = NowNanos();
    outcome.error = handle.status().ToString();
    return outcome;
  }
  outcome.query_id = handle->query_id();
  watchdog.Arm(slot, &handle->execution(), deadline_nanos);
  presto::Status status = presto::Status::OK();
  auto append = [&](const presto::Page& page) {
    for (int64_t r = 0; r < page.num_rows(); ++r) {
      outcome.rows.push_back(page.GetRow(r));
    }
  };
  bool more = false;
  {
    ScopedSpan span(trace, "exec.first_page", query_seq);
    auto page = handle->Next();
    outcome.first_page_nanos = NowNanos();
    if (!page.ok()) {
      status = page.status();
    } else if (page->has_value()) {
      append(**page);
      more = true;
    }
  }
  if (more) {
    ScopedSpan span(trace, "exec.drain", query_seq);
    while (true) {
      auto page = handle->Next();
      if (!page.ok()) {
        status = page.status();
        break;
      }
      if (!page->has_value()) break;
      append(**page);
    }
  }
  if (status.ok()) status = handle->Wait();
  bool fired = watchdog.Disarm(slot);
  outcome.end_nanos = NowNanos();
  if (fired) {
    outcome.error = "deadline exceeded";
  } else if (!status.ok()) {
    outcome.error = status.ToString();
  } else {
    outcome.ok = true;
  }
  return outcome;
}

namespace {

// Leaves `out` zeroed when the process is gone.
void ReadProc(pid_t pid, ProcReading* out) {
  std::string base = "/proc/" + std::to_string(pid);
  DIR* dir = opendir((base + "/fd").c_str());
  if (dir == nullptr) return;
  int64_t fds = 0;
  while (struct dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++fds;
  }
  closedir(dir);
  std::ifstream status(base + "/status");
  if (!status) return;
  // Reading our own fd table counts opendir's descriptor too.
  out->fds = pid == getpid() ? fds - 1 : fds;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      out->threads = std::atoll(line.c_str() + 8);
    } else if (line.rfind("VmRSS:", 0) == 0) {
      out->rss_kb = std::atoll(line.c_str() + 6);
    }
  }
}

}  // namespace

ProcSampler::ProcSampler(std::vector<pid_t> worker_pids,
                         int64_t interval_nanos, std::function<double()> extra)
    : interval_nanos_(interval_nanos), extra_(std::move(extra)) {
  pids_.push_back(getpid());
  for (pid_t pid : worker_pids) pids_.push_back(pid);
}

ProcSampler::~ProcSampler() { Stop(); }

void ProcSampler::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!stop_) return;
  stop_ = false;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      TakeSample();
      lock.lock();
      cv_.wait_for(lock, std::chrono::nanoseconds(interval_nanos_),
                   [this] { return stop_; });
    }
  });
}

void ProcSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  TakeSample();
}

void ProcSampler::TakeSample() {
  Sample sample;
  sample.nanos = NowNanos();
  for (pid_t pid : pids_) {
    ProcReading reading;
    ReadProc(pid, &reading);
    sample.procs.push_back(reading);
  }
  if (extra_) sample.extra = extra_();
  samples_.push_back(std::move(sample));
}

double ProcSampler::PeakRssMb() const {
  int64_t peak = 0;
  for (const Sample& sample : samples_) {
    int64_t sum = 0;
    for (const ProcReading& reading : sample.procs) sum += reading.rss_kb;
    peak = std::max(peak, sum);
  }
  return static_cast<double>(peak) / 1024.0;
}

double ProcSampler::FdGrowthPerSecond(size_t index) const {
  if (samples_.size() < 2) return 0;
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  int64_t t0 = samples_.front().nanos;
  for (const Sample& sample : samples_) {
    double x = static_cast<double>(sample.nanos - t0) / 1e9;
    double y = static_cast<double>(sample.procs[index].fds);
    n += 1;
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  double denom = n * sxx - sx * sx;
  return denom > 0 ? (n * sxy - sx * sy) / denom : 0;
}

double ProcSampler::Median(size_t index, int64_t ProcReading::*field) const {
  std::vector<double> values;
  for (const Sample& sample : samples_) {
    values.push_back(static_cast<double>(sample.procs[index].*field));
  }
  return Quantile(values, 0.5);
}

double ProcSampler::Max(size_t index, int64_t ProcReading::*field) const {
  double out = 0;
  for (const Sample& sample : samples_) {
    out = std::max(out, static_cast<double>(sample.procs[index].*field));
  }
  return out;
}

}  // namespace perfbench
