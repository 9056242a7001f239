#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "models/bpr_mf.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/stream.h"
#include "net/wire.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/hardened.h"
#include "serve/reload.h"
#include "serve/snapshot.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace hosr::net {
namespace {

// --- wire format -------------------------------------------------------------

TEST(WireTest, FrameRoundTrip) {
  const std::string payload = "hello frame";
  const std::string encoded = EncodeFrame(FrameType::kQuery, payload);
  ASSERT_EQ(encoded.size(), kFrameHeaderSize + payload.size());

  Frame frame;
  auto consumed = TryDecodeFrame(encoded, &frame);
  ASSERT_TRUE(consumed.ok()) << consumed.status();
  EXPECT_EQ(consumed.value(), encoded.size());
  EXPECT_EQ(frame.type, static_cast<uint16_t>(FrameType::kQuery));
  EXPECT_EQ(frame.payload, payload);
}

TEST(WireTest, EmptyPayloadRoundTrip) {
  const std::string encoded = EncodeFrame(FrameType::kInfo, {});
  Frame frame;
  auto consumed = TryDecodeFrame(encoded, &frame);
  ASSERT_TRUE(consumed.ok()) << consumed.status();
  EXPECT_EQ(consumed.value(), kFrameHeaderSize);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(WireTest, DecodeConsumesOnlyOneFrame) {
  const std::string two = EncodeFrame(FrameType::kQuery, "first") +
                          EncodeFrame(FrameType::kInfo, "second");
  Frame frame;
  auto consumed = TryDecodeFrame(two, &frame);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(frame.payload, "first");
  auto rest = TryDecodeFrame(
      std::string_view(two).substr(consumed.value()), &frame);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(frame.payload, "second");
}

// Every proper prefix of a valid frame must decode to "need more bytes" —
// never an error, never UB. This is the frame-level fuzz guarantee that
// makes incremental socket reads safe.
TEST(WireTest, EveryPrefixTruncationAsksForMore) {
  const std::string encoded =
      EncodeFrame(FrameType::kQuery, EncodeQueryRequest({7, 1, 10, 0, 0}));
  for (size_t len = 0; len < encoded.size(); ++len) {
    Frame frame;
    auto consumed =
        TryDecodeFrame(std::string_view(encoded).substr(0, len), &frame);
    ASSERT_TRUE(consumed.ok()) << "prefix " << len << ": "
                               << consumed.status();
    EXPECT_EQ(consumed.value(), 0u) << "prefix " << len;
  }
}

TEST(WireTest, BadMagicIsCleanError) {
  std::string encoded = EncodeFrame(FrameType::kQuery, "x");
  encoded[0] = 'Z';
  Frame frame;
  auto consumed = TryDecodeFrame(encoded, &frame);
  ASSERT_FALSE(consumed.ok());
  EXPECT_EQ(consumed.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(WireTest, BadVersionIsCleanError) {
  std::string encoded = EncodeFrame(FrameType::kQuery, "x");
  encoded[4] = static_cast<char>(0xEE);
  Frame frame;
  auto consumed = TryDecodeFrame(encoded, &frame);
  ASSERT_FALSE(consumed.ok());
  EXPECT_EQ(consumed.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(WireTest, OversizedLengthIsCleanErrorNotAllocation) {
  std::string encoded = EncodeFrame(FrameType::kQuery, "x");
  // Declare a payload far beyond kMaxPayload in the little-endian size field.
  encoded[8] = encoded[9] = encoded[10] = encoded[11] =
      static_cast<char>(0xFF);
  Frame frame;
  auto consumed = TryDecodeFrame(encoded, &frame);
  ASSERT_FALSE(consumed.ok());
  EXPECT_EQ(consumed.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(WireTest, CorruptedCrcIsCleanError) {
  std::string encoded = EncodeFrame(FrameType::kQuery, "payload bytes");
  encoded[encoded.size() - 1] ^= 0x01;  // flip one payload bit
  Frame frame;
  auto consumed = TryDecodeFrame(encoded, &frame);
  ASSERT_FALSE(consumed.ok());
  EXPECT_EQ(consumed.status().code(), util::StatusCode::kDataLoss);
}

TEST(WireTest, RandomGarbageNeverCrashes) {
  util::Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string garbage(rng.UniformInt(64) + 1, '\0');
    for (auto& c : garbage) {
      c = static_cast<char>(rng.UniformInt(256));
    }
    Frame frame;
    auto consumed = TryDecodeFrame(garbage, &frame);  // must not crash/UB
    if (consumed.ok()) {
      EXPECT_LE(consumed.value(), garbage.size());
    }
  }
}

TEST(WireTest, QueryRequestRoundTrip) {
  const QueryRequest request{0x1122334455667788ull, 42, 10, 250, 3};
  auto decoded = DecodeQueryRequest(EncodeQueryRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trace_id, request.trace_id);
  EXPECT_EQ(decoded->user, request.user);
  EXPECT_EQ(decoded->k, request.k);
  EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded->flags, request.flags);
}

TEST(WireTest, QueryRequestRejectsWrongSize) {
  std::string payload = EncodeQueryRequest({1, 2, 3, 4, 5});
  EXPECT_FALSE(DecodeQueryRequest(payload + "x").ok());
  payload.pop_back();
  EXPECT_FALSE(DecodeQueryRequest(payload).ok());
  EXPECT_FALSE(DecodeQueryRequest("").ok());
}

TEST(WireTest, QueryResponseRoundTrip) {
  QueryResponse response;
  response.status_code = 0;
  response.flags = kResponseFromCache | kResponseDegraded;
  response.items = {5, 1, 9};
  response.scores = {2.5f, 1.25f, -0.75f};
  response.message = "note";
  auto decoded = DecodeQueryResponse(EncodeQueryResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->flags, response.flags);
  EXPECT_EQ(decoded->items, response.items);
  EXPECT_EQ(decoded->scores, response.scores);
  EXPECT_EQ(decoded->message, response.message);
}

TEST(WireTest, QueryResponseRejectsDeclaredCountMismatch) {
  QueryResponse response;
  response.items = {1, 2, 3};
  response.scores = {1.0f, 2.0f, 3.0f};
  std::string payload = EncodeQueryResponse(response);
  payload.pop_back();  // declared item count no longer fits
  EXPECT_FALSE(DecodeQueryResponse(payload).ok());
}

TEST(WireTest, ServerInfoRoundTrip) {
  auto decoded = DecodeServerInfo(EncodeServerInfo({90, 120, 6, "BPR"}));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->num_users, 90u);
  EXPECT_EQ(decoded->num_items, 120u);
  EXPECT_EQ(decoded->dim, 6u);
  EXPECT_EQ(decoded->model_name, "BPR");
}

TEST(WireTest, ResponseStatusMapsCodes) {
  QueryResponse ok_response;
  EXPECT_TRUE(ResponseStatus(ok_response).ok());
  QueryResponse shed;
  shed.status_code =
      static_cast<uint32_t>(util::StatusCode::kResourceExhausted);
  shed.message = "queue full";
  const util::Status status = ResponseStatus(shed);
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  QueryResponse bogus;
  bogus.status_code = 0xDEAD;
  EXPECT_FALSE(ResponseStatus(bogus).ok());
}

// --- stream helpers ----------------------------------------------------------

TEST(StreamTest, SyntheticStreamIsDeterministic) {
  const auto a = SyntheticStream(100, 500, 10, 0.9, 42);
  const auto b = SyntheticStream(100, 500, 10, 0.9, 42);
  ASSERT_EQ(a.size(), 500u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_LT(a[i].user, 100u);
    EXPECT_EQ(a[i].k, 10u);
  }
  const auto c = SyntheticStream(100, 500, 10, 0.9, 43);
  bool any_different = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_different |= a[i].user != c[i].user;
  }
  EXPECT_TRUE(any_different);
}

TEST(StreamTest, OutcomesTallyAndSum) {
  Outcomes tally;
  tally.Count(serve::ServeResponse{{1, 2}, /*degraded=*/false, {}});
  tally.Count(serve::ServeResponse{{3}, /*degraded=*/true, {}});
  tally.CountStatus(util::Status::DeadlineExceeded("late"));
  tally.CountStatus(util::Status::ResourceExhausted("full"));
  tally.CountStatus(util::Status::Internal("boom"));
  EXPECT_EQ(tally.ok, 1u);
  EXPECT_EQ(tally.degraded, 1u);
  EXPECT_EQ(tally.deadline_exceeded, 1u);
  EXPECT_EQ(tally.shed, 1u);
  EXPECT_EQ(tally.error, 1u);
  EXPECT_EQ(tally.total(), 5u);

  Outcomes sum;
  sum += tally;
  sum += tally;
  EXPECT_EQ(sum.total(), 10u);
}

TEST(StreamTest, LatencySummaryPercentilesAreExact) {
  std::vector<int64_t> ns;
  for (int64_t i = 100; i >= 1; --i) ns.push_back(i * 1000);  // 1us..100us
  const LatencySummary summary = SummarizeLatencies(&ns);
  EXPECT_DOUBLE_EQ(summary.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(summary.p95_us, 95.0);
  EXPECT_DOUBLE_EQ(summary.p99_us, 99.0);
  EXPECT_DOUBLE_EQ(summary.mean_us, 50.5);
}

// --- live server -------------------------------------------------------------

// One tiny frozen model shared by every server test: deterministic factors
// (BprMf's init is seeded), no seen-item filtering, dim 6. The server
// serves it through a SnapshotManager over a saved copy (default
// HardenedOptions, no degraded fallback); `engine_` is the in-memory
// reference its answers are compared with.
class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Global().Disarm();
    models::BprMf::Config config;
    config.embedding_dim = 6;
    models::BprMf model(/*num_users=*/40, /*num_items=*/60, config);
    auto snapshot = serve::BuildSnapshot(model);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    // The pid keeps this suite and its forced-scalar rerun, which ctest
    // may run at the same time, off each other's files.
    path_ = (std::filesystem::temp_directory_path() /
             util::StrFormat("hosr_net_%d_%s", static_cast<int>(::getpid()),
                             ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()))
                .string();
    ASSERT_TRUE(serve::SaveSnapshot(*snapshot, path_).ok());
    engine_ = std::make_unique<serve::InferenceEngine>(
        std::move(snapshot).value());
    manager_ = MakeManager(/*cache=*/nullptr);
  }

  void TearDown() override {
    fault::FaultRegistry::Global().Disarm();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  std::unique_ptr<serve::SnapshotManager> MakeManager(
      serve::ResultCache* cache) {
    serve::SnapshotManager::Options options;
    options.path = path_;
    options.degraded_fallback = false;
    options.cache = cache;
    auto manager = serve::SnapshotManager::Create(std::move(options));
    HOSR_CHECK(manager.ok()) << manager.status();
    return std::move(manager).value();
  }

  NetServer::Options BaseOptions() {
    NetServer::Options options;
    options.manager = manager_.get();
    options.worker_threads = 2;
    return options;
  }

  std::string path_;
  std::unique_ptr<serve::InferenceEngine> engine_;
  std::unique_ptr<serve::SnapshotManager> manager_;
};

TEST_F(NetServerTest, QueryIsBitIdenticalToEngine) {
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  for (uint32_t user = 0; user < engine_->num_users(); ++user) {
    auto result = client->Query(user, 10, /*trace_id=*/user + 1);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->items, engine_->TopKForUser(user, 10)) << user;
    ASSERT_EQ(result->scores.size(), result->items.size());
    for (size_t i = 0; i < result->items.size(); ++i) {
      EXPECT_EQ(result->scores[i],
                engine_->snapshot().Score(user, result->items[i]));
    }
    EXPECT_FALSE(result->served_from_cache);
    EXPECT_FALSE(result->degraded);
  }
  server.Stop();
  const NetServer::Stats stats = server.GetStats();
  EXPECT_EQ(stats.requests, engine_->num_users());
  EXPECT_EQ(stats.responses, stats.requests);
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GT(stats.bytes_written, 0u);
}

TEST_F(NetServerTest, InfoReportsModelMetadata) {
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto info = client->Info();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->num_users, engine_->num_users());
  EXPECT_EQ(info->num_items, engine_->num_items());
  EXPECT_EQ(info->dim, engine_->dim());
  EXPECT_EQ(info->model_name, engine_->snapshot().model_name);
}

TEST_F(NetServerTest, SecondIdenticalQueryIsServedFromCache) {
  serve::ResultCache cache;
  const std::unique_ptr<serve::SnapshotManager> cached = MakeManager(&cache);
  NetServer::Options options = BaseOptions();
  options.manager = cached.get();
  NetServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto first = client->Query(3, 10);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->served_from_cache);
  auto second = client->Query(3, 10);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->served_from_cache);
  EXPECT_EQ(second->items, first->items);
  EXPECT_EQ(second->scores, first->scores);
  ASSERT_EQ(second->scores.size(), second->items.size());
  for (size_t i = 0; i < second->items.size(); ++i) {
    EXPECT_EQ(second->scores[i],
              engine_->snapshot().Score(3, second->items[i]));
  }
}

// One recv can carry several frames: the server answers every one, in
// order, before it reads again.
TEST_F(NetServerTest, TwoFramesInOneSendAreBothAnsweredInOrder) {
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto raw = ConnectTcp("127.0.0.1", server.port(), 1000);
  ASSERT_TRUE(raw.ok());
  ScopedFd fd(raw.value());
  SetRecvTimeoutMs(fd.get(), 5000);
  const std::string both =
      EncodeFrame(FrameType::kQuery, EncodeQueryRequest({1, 2, 10, 0, 0})) +
      EncodeFrame(FrameType::kQuery, EncodeQueryRequest({2, 5, 3, 0, 0}));
  ASSERT_TRUE(SendAll(fd.get(), both).ok());
  for (const auto& [user, k] : {std::pair<uint32_t, uint32_t>{2, 10},
                                std::pair<uint32_t, uint32_t>{5, 3}}) {
    auto reply = ReadFrame(fd.get());
    ASSERT_TRUE(reply.ok()) << reply.status();
    auto response = DecodeQueryResponse(reply->payload);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(ResponseStatus(*response).ok()) << ResponseStatus(*response);
    EXPECT_EQ(response->items, engine_->TopKForUser(user, k)) << user;
  }
  server.Stop();
  EXPECT_EQ(server.GetStats().requests, 2u);
  EXPECT_EQ(server.GetStats().responses, 2u);
}

// A frame whose bytes arrive in two sends is answered once it completes.
TEST_F(NetServerTest, FrameSplitOverTwoSendsIsAnswered) {
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto raw = ConnectTcp("127.0.0.1", server.port(), 1000);
  ASSERT_TRUE(raw.ok());
  ScopedFd fd(raw.value());
  SetRecvTimeoutMs(fd.get(), 5000);
  const std::string frame =
      EncodeFrame(FrameType::kQuery, EncodeQueryRequest({1, 7, 4, 0, 0}));
  const size_t cut = kFrameHeaderSize + 5;
  ASSERT_TRUE(SendAll(fd.get(), frame.substr(0, cut)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(SendAll(fd.get(), frame.substr(cut)).ok());
  auto reply = ReadFrame(fd.get());
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto response = DecodeQueryResponse(reply->payload);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(ResponseStatus(*response).ok()) << ResponseStatus(*response);
  EXPECT_EQ(response->items, engine_->TopKForUser(7, 4));
  server.Stop();
  EXPECT_EQ(server.GetStats().read_timeouts, 0u);
}

TEST_F(NetServerTest, ApplicationErrorKeepsConnectionOpen) {
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto bad = client->Query(/*user=*/9999, 10);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kOutOfRange);
  auto bad_k = client->Query(/*user=*/1, /*k=*/0);
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), util::StatusCode::kInvalidArgument);
  // Same connection still serves: a bad request is the client's problem,
  // not a protocol desync.
  auto good = client->Query(1, 5);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->items, engine_->TopKForUser(1, 5));
}

TEST_F(NetServerTest, GarbageBytesGetErrorThenServerStillServes) {
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto raw = ConnectTcp("127.0.0.1", server.port(), 1000);
  ASSERT_TRUE(raw.ok());
  {
    ScopedFd fd(raw.value());
    ASSERT_TRUE(SendAll(fd.get(), "this is not a frame at all!!").ok());
    // The server answers with an error response frame before closing.
    bool clean_eof = false;
    auto reply = ReadFrame(fd.get(), &clean_eof);
    ASSERT_TRUE(reply.ok()) << reply.status();
    auto response = DecodeQueryResponse(reply->payload);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(ResponseStatus(*response).ok());
    // ...and the connection is then closed. Closing with our unread
    // garbage still buffered makes the kernel send RST rather than FIN,
    // so both a clean EOF and a reset are valid here.
    char byte;
    auto closed = RecvExactOrClosed(fd.get(), &byte, 1);
    if (closed.ok()) {
      EXPECT_FALSE(closed.value());
    } else {
      EXPECT_EQ(closed.status().code(), util::StatusCode::kUnavailable)
          << closed.status();
    }
  }
  // A fresh, well-behaved client is unaffected.
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Query(0, 5).ok());
  server.Stop();
  EXPECT_GE(server.GetStats().protocol_errors, 1u);
}

TEST_F(NetServerTest, TruncatedFrameThenCloseIsSurvived) {
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  const std::string frame =
      EncodeFrame(FrameType::kQuery, EncodeQueryRequest({1, 1, 10, 0, 0}));
  // Drop the connection mid-frame at every split point; the server must
  // treat each as a dead peer, not crash, and keep serving.
  for (const size_t cut : {1ul, kFrameHeaderSize - 1, kFrameHeaderSize,
                           kFrameHeaderSize + 3}) {
    auto raw = ConnectTcp("127.0.0.1", server.port(), 1000);
    ASSERT_TRUE(raw.ok());
    ScopedFd fd(raw.value());
    ASSERT_TRUE(SendAll(fd.get(), frame.substr(0, cut)).ok());
  }
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Query(0, 5).ok());
}

TEST_F(NetServerTest, SlowLorisIsCutOffByReadTimeout) {
  NetServer::Options options = BaseOptions();
  options.read_timeout_ms = 150;  // the slow-loris bound under test
  NetServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto raw = ConnectTcp("127.0.0.1", server.port(), 1000);
  ASSERT_TRUE(raw.ok());
  ScopedFd fd(raw.value());
  const std::string frame =
      EncodeFrame(FrameType::kQuery, EncodeQueryRequest({1, 1, 10, 0, 0}));
  // Send the header, then stall: the worker is now blocked mid-frame and
  // must cut us off instead of waiting forever.
  ASSERT_TRUE(SendAll(fd.get(), frame.substr(0, kFrameHeaderSize)).ok());
  bool clean_eof = false;
  auto reply = ReadFrame(fd.get(), &clean_eof);
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto response = DecodeQueryResponse(reply->payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseStatus(*response).code(),
            util::StatusCode::kDeadlineExceeded);
  // The stalled connection never blocked the pool for other clients.
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Query(0, 5).ok());
  server.Stop();
  EXPECT_GE(server.GetStats().read_timeouts, 1u);
}

TEST_F(NetServerTest, WireDeadlinePropagatesIntoEngine) {
  // Delay-only fault (no code=): scoring sleeps 80ms but does not fail, so
  // the only way the request can miss is the wire deadline reaching the
  // engine's per-block checks.
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .Configure("engine.score:p=1:delay_ms=80", 1)
                  .ok());
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto late = client->Query(2, 10, /*trace_id=*/1, /*deadline_ms=*/20);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kDeadlineExceeded);
  // Without a wire deadline the same query rides out the delay and succeeds.
  auto patient = client->Query(2, 10, /*trace_id=*/2, /*deadline_ms=*/0);
  ASSERT_TRUE(patient.ok()) << patient.status();
  EXPECT_EQ(patient->items, engine_->TopKForUser(2, 10));
}

TEST_F(NetServerTest, ExpiredDeadlineFailsFastInExecutor) {
  // Unit-level check of the Execute(deadline) overload the server uses: an
  // already-expired deadline must fail fast without touching the engine.
  const auto expired =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  const auto state = manager_->Acquire();
  const serve::HardenedExecutor& executor = state->executor();
  auto response = executor.Execute(1, 10, /*token=*/1, expired);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kDeadlineExceeded);
  auto unbounded = executor.Execute(1, 10, /*token=*/2, serve::kNoDeadline);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status();
}

TEST_F(NetServerTest, DrainCompletesInFlightRequests) {
  // Hold the engine for 300ms per query so Stop() overlaps execution.
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .Configure("engine.score:p=1:delay_ms=300", 1)
                  .ok());
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  util::StatusOr<NetClient::QueryResult> result =
      util::Status::Internal("unset");
  std::thread requester([&] { result = client->Query(4, 10); });
  // Let the request reach the engine, then drain while it is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Stop();
  requester.join();
  // The guarantee under test: draining answered the in-flight request.
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->items, engine_->TopKForUser(4, 10));
  const NetServer::Stats stats = server.GetStats();
  EXPECT_EQ(stats.requests, stats.responses);
}

TEST_F(NetServerTest, OverloadShedsOnTheWire) {
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .Configure("engine.score:p=1:delay_ms=400", 1)
                  .ok());
  NetServer::Options options = BaseOptions();
  options.worker_threads = 1;
  options.max_pending_conns = 1;
  NetServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the only worker with a slow query...
  auto busy = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(busy.ok());
  std::thread busy_thread([&] { (void)busy->Query(1, 10); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // ...fill the one pending slot...
  auto waiting = ConnectTcp("127.0.0.1", server.port(), 1000);
  ASSERT_TRUE(waiting.ok());
  ScopedFd waiting_fd(waiting.value());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // ...and the next connection must be shed with a clean wire status.
  auto shed = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(shed.ok());
  auto result = shed->Query(2, 10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted)
      << result.status();
  busy_thread.join();
  server.Stop();
  EXPECT_GE(server.GetStats().shed, 1u);
}

TEST_F(NetServerTest, InjectedReadFaultAnswersCleanlyAndServerSurvives) {
  // Second frame served across the server draws the injected read fault.
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .Configure("net.read:once=2", 1)
                  .ok());
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Query(0, 5).ok());
  auto faulted = client->Query(1, 5);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), util::StatusCode::kUnavailable)
      << faulted.status();
  // The faulted connection was closed; a reconnect serves normally.
  ASSERT_TRUE(client->Reconnect().ok());
  auto recovered = client->Query(1, 5);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->items, engine_->TopKForUser(1, 5));
  server.Stop();
  EXPECT_EQ(server.GetStats().requests, server.GetStats().responses);
}

TEST_F(NetServerTest, InjectedWriteFaultDropsConnection) {
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .Configure("net.write:once=1", 1)
                  .ok());
  NetServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto dropped = client->Query(0, 5);
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), util::StatusCode::kUnavailable);
  ASSERT_TRUE(client->Reconnect().ok());
  EXPECT_TRUE(client->Query(0, 5).ok());
}

TEST_F(NetServerTest, ConcurrentClientsAllGetCorrectAnswers) {
  NetServer::Options options = BaseOptions();
  options.worker_threads = 4;
  NetServer server(options);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 4;
  constexpr uint32_t kPerClient = 25;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = NetClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures[c] = 1000;
        return;
      }
      for (uint32_t i = 0; i < kPerClient; ++i) {
        const uint32_t user = (c * 7 + i) % engine_->num_users();
        auto result = client->Query(user, 10);
        if (!result.ok() ||
            result->items != engine_->TopKForUser(user, 10)) {
          ++failures[c];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << c;
  server.Stop();
  const NetServer::Stats stats = server.GetStats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.responses, stats.requests);
}

}  // namespace
}  // namespace hosr::net
