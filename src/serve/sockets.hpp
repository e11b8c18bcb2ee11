// Low-level socket helpers shared by both ends of the wire (listener.cpp,
// client.cpp), so the sides of the protocol cannot drift.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace dsf {

// Writes the whole buffer, riding out EINTR and partial writes. send() with
// MSG_NOSIGNAL instead of write(): a peer that hung up must yield EPIPE,
// not kill the process. A socket SO_SNDTIMEO (the server sets one per
// connection) surfaces as EAGAIN and fails the call — an unresponsive
// reader drops its connection instead of pinning the sender. On failure
// errno is left set for the caller.
inline bool SendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// SO_SNDTIMEO / SO_RCVTIMEO in milliseconds; ms <= 0 leaves the socket
// blocking without a deadline. A timed-out send()/recv() fails with EAGAIN.
inline void SetSendTimeout(int fd, int ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

inline void SetRecvTimeout(int fd, int ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

// Blocking TCP connect with an optional deadline (connect_timeout_ms <= 0
// means the OS default). The deadline matters to the router: a backend
// whose host is unreachable must fail the health check in bounded time,
// not after the kernel's multi-minute SYN retry schedule. Returns the
// connected fd (blocking mode) or throws std::runtime_error.
inline int ConnectTcp(const std::string& host, int port,
                      int connect_timeout_ms = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("invalid host address: " + host);
  }
  const auto fail = [&](const char* what) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + what +
                             (detail.empty() ? "" : " (" + detail + ")"));
  };
  if (connect_timeout_ms <= 0) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      fail("connect");
    }
    return fd;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (errno != EINPROGRESS) fail("connect");
    pollfd pfd{fd, POLLOUT, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, connect_timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready == 0) {
      errno = ETIMEDOUT;
      fail("connect timeout");
    }
    if (ready < 0) fail("poll");
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      errno = err != 0 ? err : errno;
      fail("connect");
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for the line protocol
  return fd;
}

}  // namespace dsf
