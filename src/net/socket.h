#ifndef HOSR_NET_SOCKET_H_
#define HOSR_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/statusor.h"

namespace hosr::net {

// Low-level blocking-socket helpers shared by the hosr::net wire layer and
// the obs admin endpoint (docs/SERVING.md "Network serving"). All calls are
// plain POSIX sockets — no external dependencies — and every failure comes
// back as a util::Status:
//
//   DeadlineExceeded  the configured socket timeout expired mid-operation
//   Unavailable       the peer closed the connection
//   IoError           anything else the kernel reported
//
// Timeouts are per-operation (SO_RCVTIMEO / SO_SNDTIMEO), so a stalled or
// malicious peer can pin a thread for at most one timeout interval.

// Owns a file descriptor and closes it on destruction. Movable, not
// copyable; release() transfers ownership out.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Resolves `host` to an IPv4 address in network byte order. Accepts dotted
// quads ("10.0.0.7") and the literal "localhost"; anything else is
// InvalidArgument — deliberately no DNS, so a typo cannot stall a request
// thread on a resolver.
util::StatusOr<uint32_t> ResolveIPv4(const std::string& host);

// Connects to host:port with a bounded connect timeout (non-blocking
// connect + poll; the returned fd is back in blocking mode). The caller
// owns the fd.
util::StatusOr<int> ConnectTcp(const std::string& host, int port,
                               int connect_timeout_ms);

// Bounds a single recv()/send() on `fd`; 0 or negative disables the bound.
void SetRecvTimeoutMs(int fd, int timeout_ms);
void SetSendTimeoutMs(int fd, int timeout_ms);

// The send bound on every NetClient and NetServer socket.
inline constexpr int kWriteTimeoutMs = 10000;

// Writes all of `data`, retrying partial writes. SIGPIPE is suppressed
// (MSG_NOSIGNAL); a closed peer surfaces as Unavailable.
util::Status SendAll(int fd, std::string_view data);

// Reads exactly `size` bytes into `buffer`. A peer close mid-buffer is
// Unavailable ("connection closed"); a timeout is DeadlineExceeded.
util::Status RecvExact(int fd, void* buffer, size_t size);

// Like RecvExact, but a clean close before the FIRST byte returns false
// (the idle-connection end-of-stream case, not an error). A close after
// one or more bytes of `size` still fails with Unavailable.
util::StatusOr<bool> RecvExactOrClosed(int fd, void* buffer, size_t size);

}  // namespace hosr::net

#endif  // HOSR_NET_SOCKET_H_
