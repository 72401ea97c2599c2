#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace congress::serve {
namespace {

Table SalesTable() {
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"amount", DataType::kDouble}})};
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(i % 2 == 0 ? "east" : "west"),
                             Value(static_cast<double>(i % 9 + 1))})
                    .ok());
  }
  return t;
}

SynopsisConfig SalesConfig() {
  SynopsisConfig config;
  config.grouping_columns = {"region"};
  config.sample_fraction = 0.2;
  config.seed = 7;
  config.incremental = true;
  return config;
}

constexpr char kSql[] =
    "SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region";

class AquaServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterTable("sales", SalesTable(), SalesConfig())
                    .ok());
  }
  AquaEngine engine_;
};

TEST_F(AquaServerTest, ServesAllThreeQueryModes) {
  AquaServer server(&engine_, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  Request approx;
  approx.sql = kSql;
  approx.mode = QueryMode::kApproximate;
  Response r = server.Submit(*session, approx).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.result.num_groups(), 2u);

  Request resilient;
  resilient.sql = kSql;
  resilient.mode = QueryMode::kResilient;
  r = server.Submit(*session, resilient).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.result.num_groups(), 2u);
  EXPECT_EQ(r.degradation.level, DegradationLevel::kNone);
  EXPECT_GT(r.epoch, 0u);

  Request exact;
  exact.sql = kSql;
  exact.mode = QueryMode::kExact;
  r = server.Submit(*session, exact).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.result.num_groups(), 2u);
  // Exact answers carry zero-width bounds.
  for (const ApproximateGroupRow& row : r.result.rows()) {
    for (double b : row.bounds) EXPECT_EQ(b, 0.0);
  }

  auto stats = server.session_stats(*session);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->submitted, 3u);
  EXPECT_EQ(stats->completed, 3u);
  EXPECT_EQ(stats->rejected, 0u);
  server.Stop();
  EXPECT_EQ(server.stats().completed, 3u);
}

TEST_F(AquaServerTest, SessionLifecycle) {
  ServeOptions options;
  options.max_sessions = 2;
  AquaServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());

  auto s1 = server.OpenSession();
  auto s2 = server.OpenSession();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  auto s3 = server.OpenSession();
  ASSERT_FALSE(s3.ok());
  EXPECT_EQ(s3.status().code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE(server.CloseSession(*s1).ok());
  EXPECT_FALSE(server.CloseSession(*s1).ok());
  EXPECT_TRUE(server.OpenSession().ok());

  // Submitting on a closed/unknown session is rejected, not queued.
  Request request;
  request.sql = kSql;
  Response r = server.Submit(*s1, request).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  server.Stop();
}

TEST_F(AquaServerTest, AdmissionControlRejectsWhenQueueFull) {
  ServeOptions options;
  options.max_queue_depth = 4;
  AquaServer server(&engine_, options);
  // No Start(): requests queue without executing, so the depth limit is
  // hit deterministically.
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  Request request;
  request.sql = kSql;
  std::vector<std::future<Response>> accepted;
  for (int i = 0; i < 4; ++i) {
    accepted.push_back(server.Submit(*session, request));
  }
  Response rejected = server.Submit(*session, request).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().queue_depth, 4u);
  auto stats = server.session_stats(*session);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rejected, 1u);

  // Starting drains the accepted backlog.
  ASSERT_TRUE(server.Start().ok());
  for (auto& future : accepted) {
    Response r = future.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
  server.Stop();
}

TEST_F(AquaServerTest, DeadlineExpiredInQueueSkipsExecution) {
  ServeOptions options;
  options.default_deadline = std::chrono::milliseconds(1);
  AquaServer server(&engine_, options);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  // Queued before Start with a 1ms budget: by the time a worker picks it
  // up the deadline is long gone.
  Request request;
  request.sql = kSql;
  request.mode = QueryMode::kResilient;
  auto future = server.Submit(*session, request);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(server.Start().ok());
  Response r = future.get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().deadline_expired, 1u);
  server.Stop();
}

TEST_F(AquaServerTest, ElapsedDeadlineInsertIsNeverExecuted) {
  // Regression guard for the deadline contract: a request whose relative
  // budget elapses while queued must resolve DeadlineExceeded and must
  // never execute — for a write that means zero rows ingested. Deadlines
  // are re-anchored on steady_clock at Submit, so this holds regardless
  // of wall-clock adjustments.
  AquaServer server(&engine_, ServeOptions{});
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  Request write;
  write.mode = QueryMode::kInsert;
  write.table = "sales";
  write.rows.push_back({Value("east"), Value(1.0)});
  write.deadline = std::chrono::milliseconds(1);
  auto future = server.Submit(*session, write);  // Queued: not started.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(server.Start().ok());
  Response r = future.get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().writes, 0u);
  EXPECT_EQ(server.stats().deadline_expired, 1u);
  server.Stop();
}

TEST_F(AquaServerTest, SubmitAsyncResolvesOnEveryPath) {
  AquaServer server(&engine_, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  // Normal execution path.
  std::promise<Response> executed;
  Request read;
  read.sql = kSql;
  server.SubmitAsync(*session, read,
                     [&](Response r) { executed.set_value(std::move(r)); });
  Response r = executed.get_future().get();
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();

  // Admission-rejection path (unknown session): the callback still runs.
  std::promise<Response> rejected;
  server.SubmitAsync(9999, read,
                     [&](Response resp) { rejected.set_value(std::move(resp)); });
  EXPECT_EQ(rejected.get_future().get().status.code(),
            StatusCode::kInvalidArgument);

  // Stop-drain path: queued behind Stop, resolved Unavailable.
  server.Stop();
  std::promise<Response> drained;
  server.SubmitAsync(*session, read,
                     [&](Response resp) { drained.set_value(std::move(resp)); });
  EXPECT_EQ(drained.get_future().get().status.code(),
            StatusCode::kUnavailable);
}

TEST_F(AquaServerTest, StopRacingSubmitsLeavesNoAbandonedFutures) {
  // Stop() races a pack of submitting threads (run under TSan in CI).
  // Every future must resolve — with an answer or Unavailable — and
  // submits landing after the stop must be rejected, not lost.
  ServeOptions options;
  options.num_threads = 3;
  options.max_queue_depth = 1024;
  options.max_write_queue_depth = 64;
  AquaServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> resolved{0};
  std::atomic<int> unresolved{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = server.OpenSession();
      if (!session.ok()) return;  // Stop won the race before open.
      for (int i = 0; i < kPerThread; ++i) {
        Request request;
        request.sql = kSql;
        request.mode =
            (t + i) % 2 == 0 ? QueryMode::kApproximate : QueryMode::kResilient;
        auto future = server.Submit(*session, request);
        if (future.wait_for(std::chrono::seconds(10)) ==
            std::future_status::ready) {
          Response resp = future.get();
          // Any definite status is fine; a hang is not.
          (void)resp;
          resolved++;
        } else {
          unresolved++;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(unresolved.load(), 0);
  EXPECT_EQ(resolved.load(), kThreads * kPerThread);

  // Late submits after the drain are definite rejections.
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  Request late;
  late.sql = kSql;
  EXPECT_EQ(server.Submit(*session, late).get().status.code(),
            StatusCode::kUnavailable);
}

TEST_F(AquaServerTest, StopFailsQueuedRequestsWithUnavailable) {
  AquaServer server(&engine_, ServeOptions{});
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  Request request;
  request.sql = kSql;
  auto queued = server.Submit(*session, request);
  server.Stop();  // Never started: the queued request is drained.
  Response r = queued.get();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);

  Response after = server.Submit(*session, request).get();
  EXPECT_EQ(after.status.code(), StatusCode::kUnavailable);
}

TEST_F(AquaServerTest, ConcurrentLoadAgainstLiveWriter) {
  ServeOptions options;
  options.num_threads = 3;
  options.max_queue_depth = 256;
  AquaServer server(&engine_, options);
  ASSERT_TRUE(server.Start().ok());
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  // A writer publishes new snapshots while the pool answers; every
  // response must come from a self-consistent snapshot (2 groups, ok).
  std::vector<std::future<Response>> futures;
  for (int round = 0; round < 10; ++round) {
    Request request;
    request.sql = kSql;
    request.mode =
        round % 2 == 0 ? QueryMode::kResilient : QueryMode::kApproximate;
    for (int q = 0; q < 4; ++q) {
      futures.push_back(server.Submit(*session, request));
    }
    ASSERT_TRUE(
        engine_.Insert("sales", {Value("east"), Value(1.0)}).ok());
    ASSERT_TRUE(engine_.Refresh("sales").ok());
  }
  uint64_t max_epoch = 0;
  for (auto& future : futures) {
    Response r = future.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.result.num_groups(), 2u);
    max_epoch = std::max(max_epoch, r.epoch);
  }
  EXPECT_LE(max_epoch, engine_.epoch());
  server.Stop();
  EXPECT_EQ(server.stats().completed, 40u);
  EXPECT_EQ(engine_.pinned_readers(), 0);
}

TEST_F(AquaServerTest, WriteRequestsStreamIntoTheEngine) {
  AquaServer server(&engine_, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  Request write;
  write.mode = QueryMode::kInsert;
  write.table = "sales";
  for (int i = 0; i < 40; ++i) {
    write.rows.push_back({Value("north"), Value(2.5)});
  }
  Response r = server.Submit(*session, write).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(server.stats().writes, 1u);

  // The batch is buffered, not yet published: queries still see 2 groups
  // until a Refresh publishes the next snapshot.
  ASSERT_TRUE(engine_.Refresh("sales").ok());
  Request read;
  read.sql = kSql;
  read.mode = QueryMode::kExact;
  r = server.Submit(*session, read).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.result.num_groups(), 3u);
  const auto north = r.result.Find({Value("north")});
  ASSERT_TRUE(north.has_value());
  EXPECT_DOUBLE_EQ(north->estimates[0], 100.0);  // 40 rows x 2.5.

  // A write against an unknown table fails the request, not the server.
  Request bad = write;
  bad.table = "nope";
  r = server.Submit(*session, bad).get();
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(server.stats().writes, 1u);
  server.Stop();
}

TEST_F(AquaServerTest, NaNGroupingCellInsertIsRefused) {
  // A write whose grouping cell is NaN is refused whole; the server keeps
  // serving, and the next Refresh publishes.
  Table levels{Schema({Field{"level", DataType::kDouble},
                       Field{"amount", DataType::kDouble}})};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        levels.AppendRow({Value(static_cast<double>(i % 4)), Value(1.0)})
            .ok());
  }
  SynopsisConfig config = SalesConfig();
  config.grouping_columns = {"level"};
  ASSERT_TRUE(engine_.RegisterTable("levels", std::move(levels), config).ok());
  AquaServer server(&engine_, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  Request write;
  write.mode = QueryMode::kInsert;
  write.table = "levels";
  write.rows.push_back({Value(1.0), Value(2.0)});
  write.rows.push_back({Value(std::nan("")), Value(2.0)});
  Response r = server.Submit(*session, write).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
      << r.status.ToString();
  EXPECT_EQ(server.stats().writes, 0u);

  ASSERT_TRUE(engine_.Refresh("levels").ok());
  Request read;
  read.sql = "SELECT level, COUNT(*) FROM levels GROUP BY level";
  read.mode = QueryMode::kExact;
  r = server.Submit(*session, read).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_EQ(r.result.num_groups(), 4u);
  for (size_t g = 0; g < r.result.num_groups(); ++g) {
    EXPECT_EQ(r.result.row(g).estimates[0], 25.0);
  }
  server.Stop();
}

TEST_F(AquaServerTest, ReadOnlyServerRejectsWritesAtAdmission) {
  const AquaEngine* read_only = &engine_;
  AquaServer server(read_only, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  Request write;
  write.mode = QueryMode::kInsert;
  write.table = "sales";
  write.rows.push_back({Value("north"), Value(1.0)});
  Response r = server.Submit(*session, write).get();
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.stats().writes, 0u);
  EXPECT_EQ(server.stats().rejected, 1u);

  // Reads still serve.
  Request read;
  read.sql = kSql;
  r = server.Submit(*session, read).get();
  EXPECT_TRUE(r.status.ok());
  server.Stop();
}

TEST_F(AquaServerTest, WriteQueueDepthIsSeparatelyBounded) {
  ServeOptions options;
  options.max_queue_depth = 64;
  options.max_write_queue_depth = 2;
  AquaServer server(&engine_, options);  // Not started: requests queue.
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());

  Request write;
  write.mode = QueryMode::kInsert;
  write.table = "sales";
  write.rows.push_back({Value("east"), Value(1.0)});
  auto w1 = server.Submit(*session, write);
  auto w2 = server.Submit(*session, write);
  auto w3 = server.Submit(*session, write);  // Over the write budget.
  Response rejected = w3.get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);

  // Reads are not crowded out by the full write lane.
  Request read;
  read.sql = kSql;
  auto r1 = server.Submit(*session, read);

  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(w1.get().status.ok());
  EXPECT_TRUE(w2.get().status.ok());
  EXPECT_TRUE(r1.get().status.ok());
  EXPECT_EQ(server.stats().writes, 2u);
  server.Stop();
}

}  // namespace
}  // namespace congress::serve
