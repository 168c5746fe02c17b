#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace fedcl::net {

namespace {

// Disables Nagle: round messages are latency-sensitive request/reply
// pairs, and the big weight frames fill segments on their own.
void tune_socket(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpConn::~TcpConn() { close(); }

TcpConn::TcpConn(TcpConn&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpConn> TcpConn::connect(const std::string& host, int port,
                                 int timeout_ms) {
  using R = Result<TcpConn>;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return R::failure("invalid address '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return R::failure(std::string("socket: ") + std::strerror(errno));
  // Non-blocking connect so the timeout is ours, not the kernel's.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return R::failure("connect " + host + ":" + std::to_string(port) + ": " +
                      why);
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      ::close(fd);
      return R::failure("connect " + host + ":" + std::to_string(port) +
                        ": timeout");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return R::failure("connect " + host + ":" + std::to_string(port) + ": " +
                        std::strerror(err != 0 ? err : errno));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; every read polls first
  tune_socket(fd);
  return TcpConn(fd);
}

bool TcpConn::send_all(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t k = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    sent += static_cast<std::size_t>(k);
  }
  return true;
}

IoStatus TcpConn::recv_exact(void* dst, std::size_t n, int timeout_ms) {
  auto* p = static_cast<std::uint8_t*>(dst);
  std::size_t got = 0;
  while (got < n) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) return IoStatus::kTimeout;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    const ssize_t k = ::recv(fd_, p + got, n - got, 0);
    if (k < 0 && errno == EINTR) continue;
    if (k < 0) return IoStatus::kError;
    if (k == 0) return IoStatus::kClosed;
    got += static_cast<std::size_t>(k);
  }
  return IoStatus::kOk;
}

bool TcpConn::readable(int timeout_ms) const {
  pollfd pfd{fd_, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpListener> TcpListener::bind(int port, int backlog) {
  using R = Result<TcpListener>;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return R::failure(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return R::failure("bind 127.0.0.1:" + std::to_string(port) + ": " + why);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return R::failure("listen: " + why);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return R::failure("getsockname: " + why);
  }
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

TcpConn TcpListener::accept(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return TcpConn();
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return TcpConn();
  tune_socket(fd);
  return TcpConn(fd);
}

}  // namespace fedcl::net
