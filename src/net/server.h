#ifndef HOSR_NET_SERVER_H_
#define HOSR_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "serve/overload.h"
#include "serve/reload.h"
#include "util/status.h"

namespace hosr::net {

// TCP serving front end over the in-process inference stack: one acceptor
// thread plus a fixed worker pool speaking the hosr::net wire protocol
// (net/wire.h) on persistent connections. Each worker owns one connection
// at a time and serves its frames in order until the peer disconnects, a
// protocol error desynchronizes the stream, or the server drains — so the
// pool size bounds concurrently-served connections; further accepted
// connections wait FIFO in the pending queue.
//
// Request path: a kQuery frame's deadline_ms becomes an absolute deadline
// at decode time and the request runs under obs::ScopedRequestContext
// (trace_id from the wire) through SnapshotManager::Serve — result cache,
// then the active state's HardenedExecutor — the same pipeline the
// in-process replay drives, so network answers are bit-identical to
// InferenceEngine::TopKForUser. Response scores come from the serving
// state's ModelSnapshot::Score over the returned ids.
//
// Overload: when the pending queue is at max_pending_conns (or the
// net.accept fault point fires) the acceptor sheds the connection on the
// wire — one ResourceExhausted response frame, then close — so remote
// clients see admission control as a clean status. Two adaptive layers
// stack on top of that fixed bound (docs/ROBUSTNESS.md "Hot reload &
// overload control"):
//   - queue-delay admission: the acceptor tracks a QueueDelayEwma of how
//     long claimed connections actually waited for a worker; when the
//     smoothed wait exceeds max_queue_delay_ms, new connections shed at
//     the wire with ResourceExhausted *before* joining the queue — a
//     connection whose queue wait alone implies a deadline miss is
//     refused instead of slow-failed;
//   - circuit breaker: when Options::breaker is set, each query frame
//     passes CircuitBreaker::Admit() before executing; a rejected request
//     is answered ResourceExhausted on the wire (connection stays open)
//     and every executed request's outcome feeds the breaker window, so
//     a sustained failure storm trips it into fast-fail until half-open
//     probes prove the backend recovered.
//
// Hot swap: every frame acquires the manager's current ServingState (one
// atomic shared_ptr load) and serves entirely from that state's engine +
// executor; the manager's cache is keyed by the state's snapshot version.
// A snapshot swap between two frames of one connection is seamless — the
// in-flight frame finishes on the state it acquired.
//
// Graceful drain: Stop() refuses new accepts, completes (and answers)
// every request already read off a socket, lets each worker finish the
// frame it is parsing, then closes all connections and joins all threads.
// Stats().requests == Stats().responses after Stop() is the zero-dropped-
// in-flight guarantee the net_smoke test asserts.
//
// Fault points: net.accept (per accepted connection), net.read (per frame
// read; an injected status is answered on the wire and the connection
// closed) and net.write (per response write; an injected failure drops the
// connection) — all in the process-global fault::FaultRegistry.
class NetServer {
 public:
  struct Options {
    int port = 0;             // 0 = kernel-assigned ephemeral port
    bool bind_any = false;    // false: loopback only; true: 0.0.0.0
    int worker_threads = 4;   // concurrently served persistent connections
    // Accepted-but-unclaimed connections allowed to wait for a worker;
    // beyond this the acceptor sheds on the wire (ResourceExhausted).
    size_t max_pending_conns = 64;
    // Caps how long a worker waits for the REST of a frame once its first
    // byte arrived (the slow-loris bound); idle waits between frames poll in
    // short slices so drain stays responsive. Sends are bounded by
    // kWriteTimeoutMs.
    int read_timeout_ms = 30000;

    // The serving pipeline every frame runs through; required, borrowed,
    // must outlive the server.
    const serve::SnapshotManager* manager = nullptr;

    // Per-request circuit breaker; null disables. Borrowed.
    serve::CircuitBreaker* breaker = nullptr;

    // Queue-delay admission bound: when > 0 and the smoothed worker-claim
    // wait exceeds this many milliseconds, the acceptor sheds new
    // connections with ResourceExhausted. 0 disables.
    double max_queue_delay_ms = 0.0;
  };

  explicit NetServer(Options options);
  ~NetServer();  // Stop()s if still running

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds and starts the acceptor + workers.
  util::Status Start();

  // Graceful drain (see above). Idempotent; blocks until every in-flight
  // request has been answered and all threads joined.
  void Stop();

  // The bound port (resolves Options::port == 0); valid after Start().
  int port() const { return port_; }

  // Monotonic totals since Start(), also mirrored as net/* obs metrics.
  struct Stats {
    uint64_t accepted = 0;         // connections handed to the worker pool
    uint64_t shed = 0;             // connections refused with ResourceExhausted
    uint64_t delay_shed = 0;       // subset of shed: queue-delay admission
    uint64_t breaker_rejected = 0; // query frames fast-failed by the breaker
    uint64_t requests = 0;         // query frames fully read
    uint64_t responses = 0;        // response frames fully written
    uint64_t protocol_errors = 0;  // malformed frames / bad payloads
    uint64_t read_timeouts = 0;    // slow-loris reads cut off
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
  };
  Stats GetStats() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  // Serves one persistent connection until close/error/drain: one blocking
  // recv per wakeup into a per-connection buffer, then every complete frame
  // in the buffer, in order.
  void ServeConnection(int fd);
  // Executes and answers one decoded frame. Returns false when the
  // connection must close (protocol error, failed write).
  bool ServeFrame(int fd, const Frame& frame);
  bool WriteResponseFrame(int fd, const std::string& frame_bytes);

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  // (fd, enqueue nanos) — the timestamp feeds the queue-delay estimator
  // when a worker claims the connection.
  std::deque<std::pair<int, int64_t>> pending_;
  serve::QueueDelayEwma queue_delay_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> delay_shed_{0};
  std::atomic<uint64_t> breaker_rejected_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> read_timeouts_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace hosr::net

#endif  // HOSR_NET_SERVER_H_
