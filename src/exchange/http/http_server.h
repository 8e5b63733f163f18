#ifndef PRESTOCPP_EXCHANGE_HTTP_HTTP_SERVER_H_
#define PRESTOCPP_EXCHANGE_HTTP_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exchange/http/http_io.h"

namespace presto {

/// A small threaded HTTP/1.1 server over POSIX sockets: one accept loop plus
/// one keep-alive thread per connection. Built for the exchange transport —
/// localhost only, ephemeral port, handler-per-request — not for the open
/// internet. Connection threads poll a stop flag between requests (100 ms
/// receive timeout) so Stop() converges quickly even with idle clients. A
/// connection's fd and thread are released as soon as it ends, so a
/// long-lived server holds only its open connections.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(Handler handler) : handler_(std::move(handler)) {}
  ~HttpServer() { Stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:<ephemeral> and starts the accept loop.
  Status Start();

  /// Stops accepting, drops every connection, joins all threads. Idempotent.
  void Stop();

  int port() const { return port_; }

 private:
  struct Connection {
    std::shared_ptr<HttpConnection> conn;
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(uint64_t id, std::shared_ptr<HttpConnection> conn);
  /// Joins the threads of connections that ended.
  void ReapFinished();

  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex mu_;
  uint64_t next_connection_id_ = 0;
  /// Open connections by id. A connection thread that ends erases its
  /// entry (dropping the connection) and moves its own thread handle to
  /// finished_, which the accept loop joins.
  std::map<uint64_t, Connection> connections_;
  std::vector<std::thread> finished_;
};

}  // namespace presto

#endif  // PRESTOCPP_EXCHANGE_HTTP_HTTP_SERVER_H_
