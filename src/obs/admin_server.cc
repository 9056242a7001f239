#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hosr::obs {

namespace {

// Handlers and the test client bound their socket reads so a stalled peer
// cannot pin a thread forever.
constexpr int kSocketTimeoutSeconds = 5;

// Concurrent in-flight responses.
constexpr size_t kHandlerThreads = 2;

void SetRecvTimeout(int fd) {
  struct timeval tv;
  tv.tv_sec = kSocketTimeoutSeconds;
  tv.tv_usec = 0;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                           MSG_NOSIGNAL
#else
                           0
#endif
    );
    if (n < 0 && errno == EINTR) continue;  // e.g. a SIGPROF sample landed
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// "key=value" lookup in an '&'-separated query string; empty when absent.
std::string_view QueryParam(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    if (pair.size() > key.size() + 1 &&
        pair.substr(0, key.size()) == key && pair[key.size()] == '=') {
      return pair.substr(key.size() + 1);
    }
    if (amp == std::string_view::npos) break;
    query = query.substr(amp + 1);
  }
  return {};
}

std::string_view ReasonPhrase(int status_code) {
  switch (status_code) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

}  // namespace

HealthTracker& HealthTracker::Global() {
  // Leaked: reported from request threads that may outlive static dtors.
  static HealthTracker* tracker = new HealthTracker;
  return *tracker;
}

void HealthTracker::ReportOutcome(bool failed) {
  (failed ? failed_ : ok_).fetch_add(1, std::memory_order_relaxed);
  const uint64_t total = ok_.load(std::memory_order_relaxed) +
                         failed_.load(std::memory_order_relaxed);
  if (total >= 2 * kWindow) {
    // Halve both counts so the rate forgets old traffic. The lock only
    // serializes the (rare) decay; reporting itself stays lock-free.
    std::lock_guard<std::mutex> lock(decay_mutex_);
    if (ok_.load(std::memory_order_relaxed) +
            failed_.load(std::memory_order_relaxed) >=
        2 * kWindow) {
      ok_.store(ok_.load(std::memory_order_relaxed) / 2,
                std::memory_order_relaxed);
      failed_.store(failed_.load(std::memory_order_relaxed) / 2,
                    std::memory_order_relaxed);
    }
  }
}

void HealthTracker::ReportReload(bool ok) {
  if (ok) {
    reload_reject_streak_.store(0, std::memory_order_relaxed);
  } else {
    reload_reject_streak_.fetch_add(1, std::memory_order_relaxed);
  }
}

double HealthTracker::FailureRate() const {
  const uint64_t failed = failed_.load(std::memory_order_relaxed);
  const uint64_t total = failed + ok_.load(std::memory_order_relaxed);
  if (total == 0) return 0.0;
  return static_cast<double>(failed) / static_cast<double>(total);
}

bool HealthTracker::healthy() const {
  if (reload_reject_streak_.load(std::memory_order_relaxed) >=
      kReloadDegradedStreak) {
    return false;
  }
  const uint64_t failed = failed_.load(std::memory_order_relaxed);
  const uint64_t total = failed + ok_.load(std::memory_order_relaxed);
  if (total < kMinSamples) return true;
  return static_cast<double>(failed) / static_cast<double>(total) <
         kDegradedThreshold;
}

void HealthTracker::ResetForTesting() {
  std::lock_guard<std::mutex> lock(decay_mutex_);
  ready_.store(false, std::memory_order_relaxed);
  ok_.store(0, std::memory_order_relaxed);
  failed_.store(0, std::memory_order_relaxed);
  reload_reject_streak_.store(0, std::memory_order_relaxed);
}

AdminServer::AdminServer(Options options) : options_(options) {}

AdminServer::~AdminServer() { Stop(); }

util::Status AdminServer::Start() {
  if (started_) {
    return util::Status::FailedPrecondition("admin server already started");
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
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::IoError(util::StrFormat(
        "bind(127.0.0.1:%d): %s", options_.port, error.c_str()));
  }
  if (listen(listen_fd_, 16) != 0) {
    const std::string error = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::IoError(
        util::StrFormat("listen(): %s", error.c_str()));
  }
  // Resolve the ephemeral port the kernel picked when Options::port == 0.
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
  start_ns_ = NowNanos();
  stopping_.store(false, std::memory_order_relaxed);

  handlers_.reserve(kHandlerThreads);
  for (size_t i = 0; i < kHandlerThreads; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  listener_ = std::thread([this] { ListenLoop(); });
  started_ = true;
  HOSR_LOG(Info) << "admin server listening on 127.0.0.1:" << port_;
  return util::Status::Ok();
}

void AdminServer::Stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_relaxed);
  // shutdown() wakes the blocked accept() so the listener can observe
  // stopping_; the fd itself is closed only after the thread exits.
  shutdown(listen_fd_, SHUT_RDWR);
  if (listener_.joinable()) listener_.join();
  close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (size_t i = 0; i < handlers_.size(); ++i) pending_.push_back(-1);
  }
  queue_cv_.notify_all();
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  handlers_.clear();
  // Drain connections accepted but never claimed by a handler.
  std::lock_guard<std::mutex> lock(queue_mutex_);
  for (const int fd : pending_) {
    if (fd >= 0) close(fd);
  }
  pending_.clear();
}

void AdminServer::SetVar(std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(vars_mutex_);
  vars_[std::string(key)] = std::string(value);
}

void AdminServer::SetReloadHandler(std::function<HttpResponse()> handler) {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  reload_handler_ = std::move(handler);
}

void AdminServer::ListenLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (errno == EINTR) continue;
      return;  // listener socket is gone; nothing left to accept
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void AdminServer::HandlerLoop() {
  for (;;) {
    int fd;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return !pending_.empty(); });
      fd = pending_.front();
      pending_.pop_front();
    }
    if (fd < 0) return;  // shutdown sentinel
    ServeConnection(fd);
    close(fd);
  }
}

HttpResponse AdminServer::HandlePath(std::string_view path) const {
  // Split off the query string: /metricsz?anything hits /metricsz; only
  // /tracez reads it (limit=N).
  std::string_view query_string;
  if (const size_t query = path.find('?'); query != std::string_view::npos) {
    query_string = path.substr(query + 1);
    path = path.substr(0, query);
  }
  HttpResponse response;
  response.status_code = 200;
  if (path == "/metricsz") {
    response.body = Registry::Global().ToJson();
  } else if (path == "/healthz") {
    HealthTracker& health = HealthTracker::Global();
    const bool healthy = health.healthy();
    if (!healthy) response.status_code = 503;
    response.body = util::StrFormat(
        "{\"status\": \"%s\", \"failure_rate\": %.4f, "
        "\"reload_reject_streak\": %llu}\n",
        healthy ? "ok" : "degraded", health.FailureRate(),
        static_cast<unsigned long long>(health.reload_reject_streak()));
  } else if (path == "/readyz") {
    const bool ready = HealthTracker::Global().ready();
    if (!ready) response.status_code = 503;
    response.body =
        util::StrFormat("{\"ready\": %s}\n", ready ? "true" : "false");
  } else if (path == "/varz") {
    std::string body = "{\n  \"vars\": {";
    {
      std::lock_guard<std::mutex> lock(vars_mutex_);
      bool first = true;
      for (const auto& [key, value] : vars_) {
        if (!first) body.push_back(',');
        first = false;
        body.append(util::StrFormat("\n    \"%s\": \"%s\"",
                                    JsonEscapeString(key).c_str(),
                                    JsonEscapeString(value).c_str()));
      }
    }
    body.append(util::StrFormat(
        "\n  },\n  \"uptime_s\": %.3f,\n  \"admin_port\": %d\n}\n",
        static_cast<double>(NowNanos() - start_ns_) / 1e9, port_));
    response.body = std::move(body);
  } else if (path == "/tracez") {
    // The full per-thread rings can hold tens of thousands of spans
    // (multi-MB JSON) — far too heavy to poll. Serve the newest slice;
    // /tracez?limit=N adjusts it.
    constexpr size_t kDefaultTracezSpans = 2048;
    size_t limit = kDefaultTracezSpans;
    if (const std::string value(QueryParam(query_string, "limit"));
        !value.empty()) {
      char* parse_end = nullptr;
      const unsigned long long parsed =
          std::strtoull(value.c_str(), &parse_end, 10);
      if (parse_end != value.c_str() && parsed > 0) {
        limit = static_cast<size_t>(parsed);
      }
    }
    response.body = SpansToJson(NewestSpans(limit));
  } else if (path == "/profilez") {
    // Samples this process's CPU for the bounded window and returns the
    // collapsed stacks. The sleep happens on this handler thread, so a
    // window occupies one of the pool's slots — CollectWindow makes
    // concurrent callers share the active window instead of serializing
    // full windows behind each other.
    double seconds = 1.0;
    if (const std::string value(QueryParam(query_string, "seconds"));
        !value.empty()) {
      char* parse_end = nullptr;
      const double parsed = std::strtod(value.c_str(), &parse_end);
      if (parse_end != value.c_str() && parsed > 0.0) seconds = parsed;
    }
    auto profile = Profiler::Global().CollectWindow(seconds);
    if (!profile.ok()) {
      response.status_code = 503;
      response.body = util::StrFormat(
          "{\"error\": \"%s\"}\n",
          JsonEscapeString(profile.status().ToString()).c_str());
    } else if (QueryParam(query_string, "format") == "summary") {
      response.body = profile.value().SummaryJson();
    } else {
      response.content_type = "text/plain";
      response.body = std::move(profile.value().collapsed);
    }
  } else if (path == "/timeseriez") {
    const std::string_view metric = QueryParam(query_string, "metric");
    size_t windows = 0;
    if (const std::string value(QueryParam(query_string, "windows"));
        !value.empty()) {
      char* parse_end = nullptr;
      const unsigned long long parsed =
          std::strtoull(value.c_str(), &parse_end, 10);
      if (parse_end != value.c_str()) windows = static_cast<size_t>(parsed);
    }
    response.body = TimeseriesRecorder::Global().ToJson(metric, windows);
  } else if (path == "/reloadz") {
    response.status_code = 405;
    response.body = "{\"error\": \"/reloadz requires POST\"}\n";
  } else {
    response.status_code = 404;
    response.body = util::StrFormat(
        "{\"error\": \"no such endpoint: %s\", \"endpoints\": "
        "[\"/metricsz\", \"/healthz\", \"/readyz\", \"/varz\", "
        "\"/tracez\", \"/profilez\", \"/timeseriez\", "
        "\"/reloadz (POST)\"]}\n",
        JsonEscapeString(path).c_str());
  }
  return response;
}

HttpResponse AdminServer::HandlePost(std::string_view path) const {
  if (const size_t query = path.find('?'); query != std::string_view::npos) {
    path = path.substr(0, query);
  }
  HttpResponse response;
  if (path != "/reloadz") {
    response.status_code = 404;
    response.body = util::StrFormat(
        "{\"error\": \"no such POST endpoint: %s\"}\n",
        JsonEscapeString(path).c_str());
    return response;
  }
  std::function<HttpResponse()> handler;
  {
    std::lock_guard<std::mutex> lock(reload_mutex_);
    handler = reload_handler_;
  }
  if (!handler) {
    response.status_code = 404;
    response.body = "{\"error\": \"reload is not enabled on this host\"}\n";
    return response;
  }
  // Runs on this handler thread: a slow snapshot load occupies an admin
  // handler, never a serving worker.
  return handler();
}

void AdminServer::ServeConnection(int fd) const {
  SetRecvTimeout(fd);
  // Read until the end of the request line; the rest of the headers are
  // irrelevant to a GET-only server and may still be in flight.
  std::string request;
  char buffer[1024];
  while (request.find('\n') == std::string::npos &&
         request.size() < 8 * 1024) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;  // e.g. a SIGPROF sample landed
    if (n <= 0) break;
    request.append(buffer, static_cast<size_t>(n));
  }
  const size_t line_end = request.find('\n');
  if (line_end == std::string::npos) return;  // torn request; just close

  HOSR_COUNTER("admin/requests").Increment();
  std::string_view line(request.data(), line_end);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  HttpResponse response;
  const size_t method_end = line.find(' ');
  const std::string_view method =
      method_end == std::string_view::npos ? std::string_view()
                                           : line.substr(0, method_end);
  if (method != "GET" && method != "POST") {
    response.status_code = 405;
    response.body = "{\"error\": \"only GET and POST are supported\"}\n";
  } else {
    std::string_view target = line.substr(method_end + 1);
    if (const size_t space = target.find(' ');
        space != std::string_view::npos) {
      target = target.substr(0, space);
    }
    response = method == "GET" ? HandlePath(target) : HandlePost(target);
  }
  if (response.status_code != 200) {
    HOSR_COUNTER("admin/request_errors").Increment();
  }

  const std::string header = util::StrFormat(
      "HTTP/1.0 %d %.*s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n"
      "\r\n",
      response.status_code,
      static_cast<int>(ReasonPhrase(response.status_code).size()),
      ReasonPhrase(response.status_code).data(),
      response.content_type.c_str(), response.body.size());
  if (SendAll(fd, header)) SendAll(fd, response.body);
}

namespace {

util::StatusOr<HttpResponse> AdminHttpRoundTrip(int port,
                                                const std::string& method,
                                                const std::string& path) {
  // The shared socket helpers bound every phase — connect, send, and each
  // recv — so a probe against a wedged or half-up server fails in bounded
  // time instead of pinning the calling thread.
  auto connected = net::ConnectTcp("127.0.0.1", port,
                                   /*connect_timeout_ms=*/
                                   kSocketTimeoutSeconds * 1000);
  if (!connected.ok()) return connected.status();
  net::ScopedFd fd(connected.value());
  net::SetRecvTimeoutMs(fd.get(), kSocketTimeoutSeconds * 1000);
  net::SetSendTimeoutMs(fd.get(), kSocketTimeoutSeconds * 1000);
  const std::string request = util::StrFormat(
      "%s %s HTTP/1.0\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n",
      method.c_str(), path.c_str());
  if (util::Status sent = net::SendAll(fd.get(), request); !sent.ok()) {
    return sent;
  }
  std::string raw;
  char buffer[4096];
  for (;;) {
    const ssize_t n = recv(fd.get(), buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;  // e.g. the caller is being profiled
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return util::Status::DeadlineExceeded(
            util::StrFormat("recv timed out after %ds",
                            kSocketTimeoutSeconds));
      }
      return util::Status::IoError(
          util::StrFormat("recv(): %s", std::strerror(errno)));
    }
    if (n == 0) break;  // HTTP/1.0: server closes after the body
    raw.append(buffer, static_cast<size_t>(n));
  }

  // "HTTP/1.0 <code> <reason>\r\n" headers "\r\n\r\n" body.
  const size_t status_start = raw.find(' ');
  if (status_start == std::string::npos) {
    return util::Status::DataLoss("malformed HTTP response: no status code");
  }
  HttpResponse response;
  response.status_code = std::atoi(raw.c_str() + status_start + 1);
  const size_t body_start = raw.find("\r\n\r\n");
  if (body_start == std::string::npos) {
    return util::Status::DataLoss("malformed HTTP response: no header end");
  }
  response.body = raw.substr(body_start + 4);
  return response;
}

}  // namespace

util::StatusOr<HttpResponse> AdminHttpGet(int port, const std::string& path) {
  return AdminHttpRoundTrip(port, "GET", path);
}

util::StatusOr<HttpResponse> AdminHttpPost(int port,
                                           const std::string& path) {
  return AdminHttpRoundTrip(port, "POST", path);
}

}  // namespace hosr::obs
