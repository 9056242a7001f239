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

#include "util/string_util.h"

namespace hosr::net {

namespace {

util::Status Errno(const char* what) {
  return util::Status::IoError(
      util::StrFormat("%s: %s", what, std::strerror(errno)));
}

bool IsTimeout(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

}  // namespace

void ScopedFd::reset(int fd) {
  if (fd_ >= 0) close(fd_);
  fd_ = fd;
}

util::StatusOr<uint32_t> ResolveIPv4(const std::string& host) {
  if (host.empty() || host == "localhost") {
    return static_cast<uint32_t>(htonl(INADDR_LOOPBACK));
  }
  struct in_addr addr;
  if (inet_pton(AF_INET, host.c_str(), &addr) == 1) {
    return static_cast<uint32_t>(addr.s_addr);
  }
  return util::Status::InvalidArgument(
      "cannot resolve host (dotted-quad IPv4 or \"localhost\" only): " +
      host);
}

util::StatusOr<int> ConnectTcp(const std::string& host, int port,
                               int connect_timeout_ms) {
  if (port <= 0 || port > 65535) {
    return util::Status::InvalidArgument(
        util::StrFormat("bad port: %d", port));
  }
  uint32_t ip = 0;
  HOSR_ASSIGN_OR_RETURN(ip, ResolveIPv4(host));

  ScopedFd fd(socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket()");

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ip;
  addr.sin_port = htons(static_cast<uint16_t>(port));

  // Non-blocking connect bounded by poll(), then back to blocking mode so
  // subsequent reads/writes obey SO_RCVTIMEO/SO_SNDTIMEO instead.
  const int flags = fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  int rc = connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return util::Status::Unavailable(util::StrFormat(
        "connect(%s:%d): %s", host.c_str(), port, std::strerror(errno)));
  }
  if (rc != 0) {
    struct pollfd pfd = {fd.get(), POLLOUT, 0};
    const int timeout = connect_timeout_ms > 0 ? connect_timeout_ms : -1;
    const int ready = poll(&pfd, 1, timeout);
    if (ready < 0) return Errno("poll(connect)");
    if (ready == 0) {
      return util::Status::DeadlineExceeded(util::StrFormat(
          "connect(%s:%d) timed out after %dms", host.c_str(), port,
          connect_timeout_ms));
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (so_error != 0) {
      return util::Status::Unavailable(util::StrFormat(
          "connect(%s:%d): %s", host.c_str(), port,
          std::strerror(so_error)));
    }
  }
  if (fcntl(fd.get(), F_SETFL, flags) < 0) return Errno("fcntl(restore)");

  // Request/response frames are tiny; batching them behind Nagle only adds
  // round-trip latency.
  const int one = 1;
  setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd.release();
}

namespace {

void SetTimevalOpt(int fd, int option, int timeout_ms) {
  struct timeval tv;
  if (timeout_ms <= 0) {
    tv.tv_sec = 0;
    tv.tv_usec = 0;  // zero timeval disables the bound
  } else {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
  }
  setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

}  // namespace

void SetRecvTimeoutMs(int fd, int timeout_ms) {
  SetTimevalOpt(fd, SO_RCVTIMEO, timeout_ms);
}

void SetSendTimeoutMs(int fd, int timeout_ms) {
  SetTimevalOpt(fd, SO_SNDTIMEO, timeout_ms);
}

util::Status SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                           MSG_NOSIGNAL
#else
                           0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsTimeout(errno)) {
        return util::Status::DeadlineExceeded("send timed out");
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return util::Status::Unavailable("connection closed by peer");
      }
      return Errno("send()");
    }
    if (n == 0) return util::Status::Unavailable("connection closed by peer");
    sent += static_cast<size_t>(n);
  }
  return util::Status::Ok();
}

util::StatusOr<bool> RecvExactOrClosed(int fd, void* buffer, size_t size) {
  char* out = static_cast<char*>(buffer);
  size_t received = 0;
  while (received < size) {
    const ssize_t n = recv(fd, out + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsTimeout(errno)) {
        return util::Status::DeadlineExceeded(util::StrFormat(
            "recv timed out after %zu of %zu bytes", received, size));
      }
      if (errno == ECONNRESET) {
        return util::Status::Unavailable("connection reset by peer");
      }
      return Errno("recv()");
    }
    if (n == 0) {
      if (received == 0) return false;  // clean close at a message boundary
      return util::Status::Unavailable(util::StrFormat(
          "connection closed mid-read (%zu of %zu bytes)", received, size));
    }
    received += static_cast<size_t>(n);
  }
  return true;
}

util::Status RecvExact(int fd, void* buffer, size_t size) {
  bool got = false;
  HOSR_ASSIGN_OR_RETURN(got, RecvExactOrClosed(fd, buffer, size));
  if (!got) return util::Status::Unavailable("connection closed by peer");
  return util::Status::Ok();
}

}  // namespace hosr::net
