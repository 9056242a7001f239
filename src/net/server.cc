#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>

#include "fault/fault.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hosr::net {

namespace {

// Longest single blocking recv; bounds how long a worker takes to notice a
// drain while parked on a quiet persistent connection.
constexpr int kIdlePollMs = 100;
// Initial per-connection receive buffer: room for many request frames, so
// one recv takes whatever a pipelining client has sent.
constexpr size_t kRecvChunk = 4096;

std::string ErrorResponseFrame(const util::Status& status) {
  QueryResponse response;
  response.status_code = static_cast<uint32_t>(status.code());
  response.message = status.message();
  return EncodeFrame(FrameType::kQueryReply,
                           EncodeQueryResponse(response));
}

}  // namespace

NetServer::NetServer(Options options) : options_(options) {
  HOSR_CHECK(options_.manager != nullptr)
      << "NetServer needs a snapshot manager";
  HOSR_CHECK(options_.worker_threads > 0);
}

NetServer::~NetServer() { Stop(); }

util::Status NetServer::Start() {
  if (started_) {
    return util::Status::FailedPrecondition("net server already started");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError(
        util::StrFormat("socket(): %s", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      options_.bind_any ? htonl(INADDR_ANY) : htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::IoError(util::StrFormat(
        "bind(%s:%d): %s", options_.bind_any ? "0.0.0.0" : "127.0.0.1",
        options_.port, error.c_str()));
  }
  if (listen(listen_fd_, 64) != 0) {
    const std::string error = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::IoError(
        util::StrFormat("listen(): %s", error.c_str()));
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  &addr_len) != 0) {
    const std::string error = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::IoError(
        util::StrFormat("getsockname(): %s", error.c_str()));
  }
  port_ = ntohs(addr.sin_port);
  stopping_.store(false, std::memory_order_relaxed);

  workers_.reserve(static_cast<size_t>(options_.worker_threads));
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // Pool size next to net/worker_busy_us: utilization = busy-rate /
  // (workers * 1e6) straight off a /timeseriez window.
  HOSR_GAUGE("net/worker_threads")
      .Set(static_cast<double>(options_.worker_threads));
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  HOSR_LOG(Info) << "net server listening on "
                 << (options_.bind_any ? "0.0.0.0" : "127.0.0.1") << ":"
                 << port_;
  return util::Status::Ok();
}

void NetServer::Stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_relaxed);
  // Wake the blocked accept() so the acceptor can observe stopping_; new
  // connection attempts are refused from here on.
  shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  close(listen_fd_);
  listen_fd_ = -1;
  // Workers finish the frame they are serving (the answered-before-closed
  // guarantee), then exit without claiming queued connections. Taking the
  // queue mutex first closes the race with a worker between its predicate
  // check and going to sleep, which would otherwise miss this wakeup.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Accepted-but-never-claimed connections carry no in-flight requests;
  // tell them the server is gone with a clean wire status, then close.
  std::deque<std::pair<int, int64_t>> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    leftover.swap(pending_);
  }
  const std::string drain_frame = ErrorResponseFrame(
      util::Status::Unavailable("server draining"));
  for (const auto& [fd, enqueue_ns] : leftover) {
    SetSendTimeoutMs(fd, kWriteTimeoutMs);
    (void)SendAll(fd, drain_frame);
    close(fd);
  }
}

NetServer::Stats NetServer::GetStats() const {
  Stats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.delay_shed = delay_shed_.load(std::memory_order_relaxed);
  stats.breaker_rejected = breaker_rejected_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.read_timeouts = read_timeouts_.load(std::memory_order_relaxed);
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return stats;
}

void NetServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (errno == EINTR) continue;
      return;  // listener socket is gone
    }
    // Injected accept failures, accept-queue overload, and queue-delay
    // admission shed identically: one clean status frame on the wire, then
    // close — a remote client sees admission control, not a hang or a
    // reset.
    util::Status verdict = fault::Inject("net.accept");
    if (verdict.ok()) {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (pending_.empty()) {
        // Workers are keeping up right now: whatever wait the last storm
        // produced, this connection will not see it. Forget fast so a
        // stale estimate cannot shed the first request of a quiet period.
        queue_delay_.Decay();
      }
      if (options_.max_queue_delay_ms > 0.0 &&
          queue_delay_.value_ms() > options_.max_queue_delay_ms) {
        verdict = util::Status::ResourceExhausted(util::StrFormat(
            "queue delay %.1fms exceeds %.1fms bound",
            queue_delay_.value_ms(), options_.max_queue_delay_ms));
        delay_shed_.fetch_add(1, std::memory_order_relaxed);
        HOSR_COUNTER("net/delay_shed").Increment();
      } else if (pending_.size() >= options_.max_pending_conns) {
        verdict = util::Status::ResourceExhausted(util::StrFormat(
            "accept queue full (%zu connections pending)",
            pending_.size()));
      } else {
        pending_.emplace_back(fd, obs::NowNanos());
      }
    }
    if (!verdict.ok()) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      HOSR_COUNTER("net/shed").Increment();
      SetSendTimeoutMs(fd, kWriteTimeoutMs);
      (void)SendAll(fd, ErrorResponseFrame(verdict));
      close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    HOSR_COUNTER("net/connections").Increment();
    queue_cv_.notify_one();
  }
}

void NetServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) ||
               !pending_.empty();
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      const auto [claimed, enqueue_ns] = pending_.front();
      pending_.pop_front();
      fd = claimed;
      const double waited_ms =
          static_cast<double>(obs::NowNanos() - enqueue_ns) / 1e6;
      queue_delay_.Record(waited_ms);
      HOSR_GAUGE("net/queue_delay_ms").Set(queue_delay_.value_ms());
    }
    ServeConnection(fd);
    close(fd);
  }
}

void NetServer::ServeConnection(int fd) {
  // Each recv blocks for at most one slice, so an idle connection notices a
  // drain within kIdlePollMs and a partial frame its read timeout.
  const int slice_ms = options_.read_timeout_ms > 0
                           ? std::min(kIdlePollMs, options_.read_timeout_ms)
                           : kIdlePollMs;
  SetRecvTimeoutMs(fd, slice_ms);
  SetSendTimeoutMs(fd, kWriteTimeoutMs);
  // Received bytes not yet consumed are buffer[begin, end).
  std::vector<char> buffer(kRecvChunk);
  size_t begin = 0, end = 0;
  bool read_fault_drawn = false;  // net.read ran for the frame at `begin`
  int64_t last_recv_ns = 0;
  int64_t partial_since_ns = 0;   // arrival of the partial frame's first byte
  for (;;) {
    // Serve every complete frame already buffered, in order.
    while (begin < end) {
      // net.read faults fire once per frame, before it is consumed; the
      // stream position is then unknowable, so the injected status is
      // answered and the connection closed — the client sees a clean error,
      // never a desync.
      if (!read_fault_drawn) {
        read_fault_drawn = true;
        if (const util::Status injected = fault::Inject("net.read");
            !injected.ok()) {
          (void)WriteResponseFrame(fd, ErrorResponseFrame(injected));
          return;
        }
      }
      Frame frame;
      const auto used = TryDecodeFrame(
          std::string_view(buffer.data() + begin, end - begin), &frame);
      if (!used.ok()) {
        // Bad magic, version, size or CRC: the stream cannot resync.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        HOSR_COUNTER("net/protocol_errors").Increment();
        (void)WriteResponseFrame(fd, ErrorResponseFrame(used.status()));
        return;
      }
      if (used.value() == 0) break;  // the rest of the frame is in flight
      begin += used.value();
      read_fault_drawn = false;
      partial_since_ns = 0;
      if (!ServeFrame(fd, frame)) return;
    }
    if (begin == end) {
      begin = end = 0;
    } else if (partial_since_ns == 0) {
      partial_since_ns = last_recv_ns;
    }
    if (end == buffer.size()) {
      // Make room: drop consumed bytes, and grow for a frame larger than
      // the buffer (TryDecodeFrame bounds its size by kMaxPayload).
      std::memmove(buffer.data(), buffer.data() + begin, end - begin);
      end -= begin;
      begin = 0;
      if (end == buffer.size()) buffer.resize(2 * buffer.size());
    }

    // During a drain a connection takes only bytes that already arrived,
    // and finishes a frame it has started; an idle one closes.
    const bool idle = begin == end;
    const bool drain_now = idle && stopping_.load(std::memory_order_relaxed);
    const ssize_t n = recv(fd, buffer.data() + end, buffer.size() - end,
                           drain_now ? MSG_DONTWAIT : 0);
    if (n > 0) {
      end += static_cast<size_t>(n);
      last_recv_ns = obs::NowNanos();
      continue;
    }
    util::Status failure;
    if (n == 0) {
      if (idle) return;  // normal end of a persistent connection
      failure = util::Status::Unavailable(util::StrFormat(
          "connection closed mid-frame (%zu bytes buffered)", end - begin));
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (drain_now) return;
      if (idle) continue;
      if (options_.read_timeout_ms <= 0 ||
          obs::NowNanos() - partial_since_ns <
              int64_t{options_.read_timeout_ms} * 1000000) {
        continue;
      }
      // Slow-loris: the peer started a frame but never finished it within
      // read_timeout_ms; cut it off so the worker frees up.
      read_timeouts_.fetch_add(1, std::memory_order_relaxed);
      HOSR_COUNTER("net/read_timeouts").Increment();
      failure = util::Status::DeadlineExceeded(util::StrFormat(
          "frame not completed within %dms (%zu bytes buffered)",
          options_.read_timeout_ms, end - begin));
    } else if (errno == ECONNRESET) {
      failure = util::Status::Unavailable("connection reset by peer");
    } else {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      HOSR_COUNTER("net/protocol_errors").Increment();
      failure = util::Status::IoError(
          util::StrFormat("recv(): %s", std::strerror(errno)));
    }
    (void)WriteResponseFrame(fd, ErrorResponseFrame(failure));
    return;
  }
}

bool NetServer::WriteResponseFrame(int fd, const std::string& frame_bytes) {
  // net.write faults model a dead downstream link: nothing can be said to
  // the peer, so the connection just drops.
  if (!fault::Inject("net.write").ok()) return false;
  if (!SendAll(fd, frame_bytes).ok()) return false;
  bytes_written_.fetch_add(frame_bytes.size(), std::memory_order_relaxed);
  HOSR_COUNTER("net/bytes_written").Increment(frame_bytes.size());
  return true;
}

bool NetServer::ServeFrame(int fd, const Frame& frame) {
  bytes_read_.fetch_add(kFrameHeaderSize + frame.payload.size(),
                        std::memory_order_relaxed);
  HOSR_COUNTER("net/bytes_read")
      .Increment(kFrameHeaderSize + frame.payload.size());

  switch (static_cast<FrameType>(frame.type)) {
    case FrameType::kInfo: {
      const std::shared_ptr<const serve::ServingState> state =
          options_.manager->Acquire();
      const serve::InferenceEngine& engine = state->engine();
      ServerInfo info;
      info.num_users = engine.num_users();
      info.num_items = engine.num_items();
      info.dim = engine.dim();
      info.model_name = engine.snapshot().model_name;
      return WriteResponseFrame(
          fd, EncodeFrame(FrameType::kInfoReply,
                                EncodeServerInfo(info)));
    }
    case FrameType::kQuery:
      break;  // handled below
    default:
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      HOSR_COUNTER("net/protocol_errors").Increment();
      (void)WriteResponseFrame(
          fd, ErrorResponseFrame(util::Status::InvalidArgument(
                  util::StrFormat("unknown frame type %u", frame.type))));
      return false;
  }

  auto request = DecodeQueryRequest(frame.payload);
  if (!request.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    HOSR_COUNTER("net/protocol_errors").Increment();
    (void)WriteResponseFrame(fd, ErrorResponseFrame(request.status()));
    return false;
  }

  // This request's 1-based position in the server's request stream.
  const uint64_t request_number =
      requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  HOSR_COUNTER("net/requests").Increment();
  const int64_t begin_ns = obs::NowNanos();

  if (options_.breaker != nullptr && !options_.breaker->Admit()) {
    // Fast-fail without touching the backend; the connection stays open —
    // the peer got a clean answer, not a drop. Breaker rejections are NOT
    // reported as outcomes (they would pin the window at 100% failure).
    breaker_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (!WriteResponseFrame(
            fd, ErrorResponseFrame(util::Status::ResourceExhausted(
                    "circuit breaker open")))) {
      return false;
    }
    responses_.fetch_add(1, std::memory_order_relaxed);
    HOSR_COUNTER("net/responses").Increment();
    return true;
  }

  // The wire trace id scopes every span/exemplar this request produces —
  // and doubles as the fault token, so injected engine outcomes are a pure
  // function of the request stream, independent of which worker runs it.
  // Untraced requests draw their token from their own request number.
  const obs::ScopedRequestContext request_scope(
      obs::RequestContext{request->trace_id, request->user, request->k});
  const uint64_t token =
      request->trace_id != 0 ? request->trace_id : request_number;
  const serve::Deadline deadline =
      request->deadline_ms > 0
          ? std::chrono::steady_clock::now() +
                std::chrono::milliseconds(request->deadline_ms)
          : serve::kNoDeadline;

  serve::SnapshotManager::Served served = [&] {
    HOSR_TRACE_SPAN("net/request");
    return options_.manager->Serve(request->user, request->k, token,
                                   deadline);
  }();
  if (options_.breaker != nullptr) {
    options_.breaker->ReportOutcome(/*failed=*/!served.response.ok());
  }

  QueryResponse response;
  if (served.response.ok()) {
    response.status_code = static_cast<uint32_t>(util::StatusCode::kOk);
    if (served.from_cache) response.flags |= kResponseFromCache;
    if (served.response->degraded) response.flags |= kResponseDegraded;
    response.items = std::move(served.response->items);
    response.scores = std::move(served.response->scores);
  } else {
    response.status_code =
        static_cast<uint32_t>(served.response.status().code());
    response.message = served.response.status().message();
  }
  HOSR_HISTOGRAM("net/request_latency_ms")
      .Observe(static_cast<double>(obs::NowNanos() - begin_ns) / 1e6);
  // Cumulative worker-busy time across the pool; the timeseries recorder
  // turns it into a windowed utilization history for serving dashboards.
  HOSR_COUNTER("net/worker_busy_us")
      .Increment(
          static_cast<uint64_t>((obs::NowNanos() - begin_ns) / 1000));

  if (!WriteResponseFrame(
          fd, EncodeFrame(FrameType::kQueryReply,
                                EncodeQueryResponse(response)))) {
    return false;
  }
  responses_.fetch_add(1, std::memory_order_relaxed);
  HOSR_COUNTER("net/responses").Increment();
  return true;
}

}  // namespace hosr::net
