// Dependency-free TCP primitives for the multi-process serving path.
//
// Thin RAII wrappers over POSIX sockets, grown out of the
// `common/metrics_http` I/O plumbing: poll-based timeouts everywhere
// (no blocking call without a deadline), MSG_NOSIGNAL sends, and
// explicit status codes instead of errno spelunking at the call sites.
// All listeners bind the loopback interface by default — the serving
// path is a local multi-process deployment, not an internet service;
// transport *security* is SecureChannel's job one layer up (see
// docs/PROTOCOL.md §1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.h"

namespace fedcl::net {

// Outcome of a timed I/O step.
enum class IoStatus {
  kOk,       // the requested bytes moved
  kClosed,   // orderly shutdown by the peer
  kTimeout,  // deadline expired first
  kError,    // socket error (errno-level)
};

// One connected TCP stream. Move-only; the destructor closes the fd.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(int fd) : fd_(fd) {}
  ~TcpConn();
  TcpConn(TcpConn&& other) noexcept;
  TcpConn& operator=(TcpConn&& other) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  // Connects to host:port within timeout_ms (non-blocking connect +
  // poll). Fails with a reason, never throws.
  static Result<TcpConn> connect(const std::string& host, int port,
                                 int timeout_ms);

  bool valid() const { return fd_ >= 0; }
  void close();

  // Writes all n bytes (looping over partial sends). False on any
  // error; EPIPE is an error, not a signal (MSG_NOSIGNAL).
  bool send_all(const void* data, std::size_t n);

  // Reads exactly n bytes within timeout_ms, polling between chunks.
  // kTimeout leaves previously read bytes in dst (the caller treats a
  // partial message as a protocol error and closes).
  IoStatus recv_exact(void* dst, std::size_t n, int timeout_ms);

  // True when at least one byte is readable within timeout_ms.
  bool readable(int timeout_ms) const;

 private:
  int fd_ = -1;
};

// A listening socket on 127.0.0.1. Move-only.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds 127.0.0.1:port (0 picks an ephemeral port, resolved in
  // port()) and listens.
  static Result<TcpListener> bind(int port, int backlog = 16);

  bool valid() const { return fd_ >= 0; }
  int port() const { return port_; }
  void close();

  // Accepts one pending connection, waiting at most timeout_ms.
  // Returns an invalid conn when nothing arrived in time.
  TcpConn accept(int timeout_ms);

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace fedcl::net
