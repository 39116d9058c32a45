#include "serve/line_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "serve/net.h"

namespace hk {

LineServer::LineServer(ServeCore& core) : core_(core) {
  telemetry::Registry& registry = telemetry::Registry::Get();
  tm_connections_ = registry.GetCounter("hk_serve_connections_total",
                                        "Protocol connections accepted by the listener");
  tm_protocol_errors_ = registry.GetCounter(
      "hk_serve_protocol_errors_total",
      "Connections that ended mid-request (truncated line) or on a socket error");
}

bool LineServer::Start(uint16_t port, std::string* err) {
  if (listen_fd_.load(std::memory_order_acquire) >= 0) {
    if (err != nullptr) {
      *err = "already started";
    }
    return false;
  }
  const int fd = ListenTcp(port, &port_, err);
  if (fd < 0) {
    return false;
  }
  stopping_.store(false, std::memory_order_release);
  listen_fd_.store(fd, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void LineServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd < 0) {
    return;
  }
  // shutdown() wakes the blocked accept(); the fd stays open until the
  // acceptor has joined so its number cannot be reused under the loop.
  ::shutdown(fd, SHUT_RDWR);
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  ::close(fd);
  std::vector<std::thread> clients;
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    for (const int fd : client_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
    clients.swap(clients_);
  }
  for (auto& t : clients) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void LineServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept4(listen_fd_.load(std::memory_order_acquire), nullptr, nullptr,
                             SOCK_CLOEXEC);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;  // listener fd gone
    }
    SetTcpNoDelay(fd);
    tm_connections_->Add();
    std::lock_guard<std::mutex> lock(clients_mu_);
    client_fds_.push_back(fd);
    clients_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void LineServer::ServeConnection(int fd) {
  std::string carry;
  std::string line;
  while (!stopping_.load(std::memory_order_acquire)) {
    const ReadLineStatus status = ReadLineEx(fd, &carry, &line);
    if (status != ReadLineStatus::kLine) {
      // A clean EOF is just a client leaving; a truncated line or a socket
      // error is a connection that died mid-request. Count the latter (the
      // daemon's own Stop() shutdown also surfaces as an error here -
      // stopping_ filters it out of the metric).
      if (status != ReadLineStatus::kEof && !stopping_.load(std::memory_order_acquire)) {
        tm_protocol_errors_->Add();
      }
      break;
    }
    if (line == "QUIT" || line == "quit") {
      WriteAll(fd, "OK bye\n", 7);
      break;
    }
    if (line == "SHUTDOWN" || line == "shutdown") {
      shutdown_requested_.store(true, std::memory_order_release);
      WriteAll(fd, "OK shutting down\n", 17);
      break;
    }
    const std::string response = core_.Execute(line);
    if (!WriteAll(fd, response.data(), response.size())) {
      break;
    }
  }
  {
    // Forget the fd before closing so Stop() never shutdown()s a number
    // the OS has already handed to someone else.
    std::lock_guard<std::mutex> lock(clients_mu_);
    for (auto it = client_fds_.begin(); it != client_fds_.end(); ++it) {
      if (*it == fd) {
        client_fds_.erase(it);
        break;
      }
    }
  }
  ::close(fd);
}

}  // namespace hk
