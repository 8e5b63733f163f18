#include "exchange/http/http_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "common/fault_injection.h"

namespace presto {

namespace {
// Granularity at which idle connection threads and the accept loop observe
// the stop flag.
constexpr int64_t kPollMicros = 100'000;
}  // namespace

Status HttpServer::Start() {
  PRESTO_ASSIGN_OR_RETURN(listen_fd_, ListenOnLoopback(&port_));
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  {
    // Unblock connection threads parked in recv.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, connection] : connections_) connection.conn->Shutdown();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::map<uint64_t, Connection> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open.swap(connections_);
  }
  for (auto& [id, connection] : open) connection.thread.join();
  ReapFinished();
}

void HttpServer::ReapFinished() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(finished_);
  }
  for (auto& thread : finished) thread.join();
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load()) {
    ReapFinished();
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, static_cast<int>(kPollMicros / 1000));
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // timeout: re-check stopping_
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno != EINTR && errno != ECONNABORTED) {
        // Out of fds (EMFILE/ENFILE) or buffers: the connection stays
        // queued, and poll() would report it again at once. Back off one
        // poll interval, then retry — finished connections free fds.
        std::this_thread::sleep_for(std::chrono::microseconds(kPollMicros));
      }
      continue;
    }
    auto conn = std::make_shared<HttpConnection>(fd);
    (void)conn->SetRecvTimeout(kPollMicros);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load()) {
      conn->Shutdown();
      return;
    }
    // Registered under mu_ before the thread can reach its own exit path.
    uint64_t id = next_connection_id_++;
    Connection& connection = connections_[id];
    connection.conn = conn;
    connection.thread =
        std::thread([this, id, conn] { ServeConnection(id, conn); });
  }
}

void HttpServer::ServeConnection(uint64_t id,
                                 std::shared_ptr<HttpConnection> conn) {
  while (!stopping_.load()) {
    auto request = conn->ReadRequest();
    if (!request.ok()) {
      // A parse failure still gets a best-effort error response so a
      // confused client sees a protocol error, not a silent hangup; then
      // drop the connection (framing is lost). Size-cap violations get
      // their specific refusals: an oversized body is 413, an oversized
      // line or too many headers is 431. Closed/timed-out sockets just
      // drop.
      const std::string& message = request.status().message();
      if (message.find("closed") == std::string::npos &&
          message.find("timeout") == std::string::npos) {
        HttpResponse bad;
        if (request.status().code() == StatusCode::kResourceExhausted) {
          if (message.find("body") != std::string::npos) {
            bad.status = 413;
            bad.reason = "Payload Too Large";
          } else {
            bad.status = 431;
            bad.reason = "Request Header Fields Too Large";
          }
        } else {
          bad.status = 400;
          bad.reason = "Bad Request";
        }
        bad.body = message;
        (void)conn->WriteResponse(bad);
      }
      break;
    }
    if (!request->has_value()) continue;  // idle timeout: re-check stopping_
    HttpResponse response;
    Status fault = Status::OK();
    if (FaultInjection::Enabled()) {
      fault = FaultInjection::Instance().Hit("http.server_serve");
    }
    if (!fault.ok()) {
      response.status = 500;
      response.reason = "Internal Server Error";
      response.body = fault.message();
    } else if ((*request)->method.empty() || (*request)->path.empty() ||
               (*request)->path[0] != '/') {
      response.status = 400;
      response.reason = "Bad Request";
    } else {
      response = handler_(**request);
    }
    if (!conn->WriteResponse(response).ok()) break;
  }
  conn->Shutdown();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = connections_.find(id);
  // Stop() took the entry over and joins this thread itself.
  if (it == connections_.end()) return;
  finished_.push_back(std::move(it->second.thread));
  connections_.erase(it);
}

}  // namespace presto
