#include "net/front_end.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "resilience/failpoint.h"

namespace congress::net {
namespace {

using std::chrono::milliseconds;

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

class TcpFrontEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        engine_.RegisterTable("sales", SalesTable(), SalesConfig()).ok());
    server_ = std::make_unique<serve::AquaServer>(&engine_,
                                                  serve::ServeOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (front_end_) front_end_->Stop();
    server_->Stop();
  }

  void StartFrontEnd(FrontEndOptions options = {}) {
    front_end_ = std::make_unique<TcpFrontEnd>(server_.get(), options);
    ASSERT_TRUE(front_end_->Start().ok());
  }

  /// Polls stats() until `pred` holds or ~2s pass.
  template <typename Pred>
  bool WaitForStats(Pred pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred(front_end_->stats())) return true;
      std::this_thread::sleep_for(milliseconds(5));
    }
    return pred(front_end_->stats());
  }

  AquaEngine engine_;
  std::unique_ptr<serve::AquaServer> server_;
  std::unique_ptr<TcpFrontEnd> front_end_;
};

TEST_F(TcpFrontEndTest, AnswersQueryOverLoopback) {
  StartFrontEnd();
  AquaClient client("127.0.0.1", front_end_->port(), ClientOptions{});
  auto response = client.Query(kSql);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  EXPECT_EQ(response->result.num_groups(), 2u);
  const FrontEndStats stats = front_end_->stats();
  EXPECT_EQ(stats.accepts, 1u);
  EXPECT_GE(stats.frames_in, 1u);
  EXPECT_GE(stats.frames_out, 1u);
}

TEST_F(TcpFrontEndTest, ConcurrentClientsEachGetTheirAnswer) {
  StartFrontEnd();
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, &ok] {
      AquaClient client("127.0.0.1", front_end_->port(), ClientOptions{});
      for (int j = 0; j < 5; ++j) {
        auto response = client.Query(kSql);
        if (response.ok() && response->status.ok() &&
            response->result.num_groups() == 2u) {
          ok++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * 5);
}

TEST_F(TcpFrontEndTest, PipelinedRequestsMatchByCorrelationId) {
  StartFrontEnd();
  auto socket = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(500));
  ASSERT_TRUE(socket.ok());
  // Write several requests back to back before reading anything.
  std::string frames;
  constexpr uint64_t kIds[] = {11, 22, 33};
  for (uint64_t id : kIds) {
    serve::Request request;
    request.sql = kSql;
    EncodeFrame(FrameType::kRequest, id, EncodeRequest(request), &frames);
  }
  size_t sent = 0;
  while (sent < frames.size()) {
    IoResult r = WriteSome(socket->fd(), frames.data() + sent,
                           frames.size() - sent);
    ASSERT_EQ(r.kind, IoResult::Kind::kOk);
    sent += r.bytes;
  }
  // Read three responses; correlation ids must all come back (order may
  // vary — the worker pool races).
  std::string buf;
  std::set<uint64_t> seen;
  while (seen.size() < 3) {
    char chunk[4096];
    ASSERT_TRUE(WaitReadable(socket->fd(), milliseconds(2000)));
    IoResult r = ReadSome(socket->fd(), chunk, sizeof(chunk));
    ASSERT_EQ(r.kind, IoResult::Kind::kOk);
    buf.append(chunk, r.bytes);
    while (buf.size() >= kFrameHeaderBytes) {
      auto header =
          DecodeFrameHeader(buf.data(), buf.size(), kDefaultMaxFrameBytes);
      ASSERT_TRUE(header.ok());
      if (buf.size() < kFrameHeaderBytes + header->payload_length) break;
      EXPECT_EQ(header->type, FrameType::kResponse);
      seen.insert(header->correlation_id);
      buf.erase(0, kFrameHeaderBytes + header->payload_length);
    }
  }
  EXPECT_EQ(seen, (std::set<uint64_t>{11, 22, 33}));
}

TEST_F(TcpFrontEndTest, PipelinedBurstBeyondInflightCapFullyDrains) {
  // Regression: frames parked behind the per-connection inflight cap
  // used to stay buffered forever (ConsumeFrames only ran on new bytes)
  // and the leftover was miscounted as a slowloris partial frame.
  FrontEndOptions options;
  options.max_inflight_per_connection = 2;
  options.frame_timeout = milliseconds(100);
  options.poll_interval = milliseconds(10);
  StartFrontEnd(options);
  auto socket = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(500));
  ASSERT_TRUE(socket.ok());
  constexpr uint64_t kCount = 8;
  std::string frames;
  for (uint64_t id = 1; id <= kCount; ++id) {
    serve::Request request;
    request.sql = kSql;
    EncodeFrame(FrameType::kRequest, id, EncodeRequest(request), &frames);
  }
  size_t sent = 0;
  while (sent < frames.size()) {
    IoResult r = WriteSome(socket->fd(), frames.data() + sent,
                           frames.size() - sent);
    ASSERT_EQ(r.kind, IoResult::Kind::kOk);
    sent += r.bytes;
  }
  std::string buf;
  std::set<uint64_t> seen;
  while (seen.size() < kCount) {
    ASSERT_TRUE(WaitReadable(socket->fd(), milliseconds(2000)));
    char chunk[4096];
    IoResult r = ReadSome(socket->fd(), chunk, sizeof(chunk));
    ASSERT_EQ(r.kind, IoResult::Kind::kOk)
        << "connection died with " << seen.size() << "/" << kCount
        << " responses";
    buf.append(chunk, r.bytes);
    while (buf.size() >= kFrameHeaderBytes) {
      auto header =
          DecodeFrameHeader(buf.data(), buf.size(), kDefaultMaxFrameBytes);
      ASSERT_TRUE(header.ok());
      if (buf.size() < kFrameHeaderBytes + header->payload_length) break;
      seen.insert(header->correlation_id);
      buf.erase(0, kFrameHeaderBytes + header->payload_length);
    }
  }
  EXPECT_EQ(seen.size(), kCount);
  // The legally pipelined burst must not trip the slowloris cutoff.
  EXPECT_EQ(front_end_->stats().slowloris_cutoff, 0u);
}

TEST_F(TcpFrontEndTest, WriteResetDuringInlineReplyClosesConnectionSafely) {
  // Regression: the eager flush inside QueueResponse can close the
  // connection (injected ECONNRESET here); ConsumeFrames then kept
  // using the freed Connection and its read buffer — a use-after-free
  // this test makes the sanitizer jobs walk right into.
  FrontEndOptions options;
  options.poll_interval = milliseconds(10);
  StartFrontEnd(options);
  auto socket = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(500));
  ASSERT_TRUE(socket.ok());
  // One CRC-valid frame with an undecodable body (reply flushed inline,
  // where the reset fires) followed by a valid request the closed
  // connection must never dispatch.
  std::string burst;
  std::string bad_body;
  bad_body.push_back('\x07');  // unknown QueryMode
  EncodeFrame(FrameType::kRequest, 5, bad_body, &burst);
  serve::Request request;
  request.sql = kSql;
  EncodeFrame(FrameType::kRequest, 6, EncodeRequest(request), &burst);
  // The server's reply is the first shim write; send the burst with raw
  // ::send so the armed failpoint cannot fire on this side.
  resilience::ScopedFailpoint reset("net/write_reset", uint64_t{1});
  size_t sent = 0;
  while (sent < burst.size()) {
    ssize_t n = ::send(socket->fd(), burst.data() + sent,
                       burst.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  ASSERT_TRUE(WaitForStats([](const FrontEndStats& s) {
    return s.resets >= 1 && s.connections_active == 0;
  }));
  EXPECT_GE(front_end_->stats().malformed_frames, 1u);
  // The front end survived and still serves well-behaved clients.
  AquaClient client("127.0.0.1", front_end_->port(), ClientOptions{});
  auto response = client.Query(kSql);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
}

TEST_F(TcpFrontEndTest, QueueExpiredInsertDoesNotPoisonIdempotencyCache) {
  // Regression: a tokened insert whose deadline expired while queued
  // (never executed) used to settle DeadlineExceeded into the
  // idempotency cache, so no retry with that token could ever run.
  // A not-yet-started server makes the queue expiry deterministic.
  serve::AquaServer cold(&engine_, serve::ServeOptions{});
  TcpFrontEnd fe(&cold, FrontEndOptions{});
  ASSERT_TRUE(fe.Start().ok());

  AquaClient client("127.0.0.1", fe.port(), ClientOptions{});
  serve::Request first;
  first.mode = serve::QueryMode::kInsert;
  first.table = "sales";
  first.rows = {{Value("east"), Value(2.0)}};
  first.idempotency_token = "expired-token";
  first.deadline = milliseconds(50);
  auto response = client.Call(first);
  // The client gives up on its 50ms budget (transport timeout or
  // DeadlineExceeded, timing decides which) — the insert never ran.
  ASSERT_TRUE(!response.ok() || !response->status.ok());
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_EQ(cold.stats().writes, 0u);
  ASSERT_TRUE(cold.Start().ok());

  // A fresh call with the SAME token must be allowed to execute once
  // the expired attempt settles (early retries may still piggyback on
  // the pending entry, hence the loop).
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(2);
  bool executed = false;
  while (std::chrono::steady_clock::now() < give_up) {
    auto retry = client.Insert("sales", {{Value("east"), Value(2.0)}},
                               "expired-token");
    if (retry.ok() && retry->status.ok()) {
      executed = true;
      break;
    }
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_TRUE(executed);
  EXPECT_EQ(cold.stats().writes, 1u);
  fe.Stop();
  cold.Stop();
}

TEST_F(TcpFrontEndTest, InsertIsDeduplicatedByIdempotencyToken) {
  StartFrontEnd();
  AquaClient client("127.0.0.1", front_end_->port(), ClientOptions{});
  const uint64_t writes_before = 0;
  std::vector<std::vector<Value>> rows = {{Value("east"), Value(4.0)}};
  auto first = client.Insert("sales", rows, "token-1");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->status.ok()) << first->status.ToString();
  auto second = client.Insert("sales", rows, "token-1");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->status.ok());
  EXPECT_EQ(front_end_->stats().idempotent_hits, 1u);
  EXPECT_EQ(server_->stats().writes, writes_before + 1);
}

TEST_F(TcpFrontEndTest, GarbageBytesCloseTheConnection) {
  StartFrontEnd();
  auto socket = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(500));
  ASSERT_TRUE(socket.ok());
  const std::string garbage(64, 'Z');
  WriteSome(socket->fd(), garbage.data(), garbage.size());
  ASSERT_TRUE(WaitForStats([](const FrontEndStats& s) {
    return s.malformed_frames >= 1 && s.connections_active == 0;
  }));
  // The front end is still healthy for well-behaved clients.
  AquaClient client("127.0.0.1", front_end_->port(), ClientOptions{});
  auto response = client.Query(kSql);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.ok());
}

TEST_F(TcpFrontEndTest, OversizeFrameIsRejectedBeforeBuffering) {
  FrontEndOptions options;
  options.max_frame_bytes = 1024;
  StartFrontEnd(options);
  auto socket = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(500));
  ASSERT_TRUE(socket.ok());
  // A header advertising 16MB; only the header is ever sent.
  std::string frame;
  EncodeFrame(FrameType::kRequest, 1, std::string(16u << 20, 'x'), &frame);
  frame.resize(kFrameHeaderBytes);
  WriteSome(socket->fd(), frame.data(), frame.size());
  ASSERT_TRUE(WaitForStats([](const FrontEndStats& s) {
    return s.oversize_frames == 1 && s.connections_active == 0;
  }));
}

TEST_F(TcpFrontEndTest, OversizeAnswerGetsOutOfRangeInsteadOfRetries) {
  // The frame limit bounds answers too. Both ends share a limit the
  // request fits in but the two-group answer does not: the front-end
  // must answer once with a definite OutOfRange, not send a frame the
  // client rejects as a protocol violation and retries.
  constexpr size_t kLimit = 120;
  FrontEndOptions options;
  options.max_frame_bytes = kLimit;
  StartFrontEnd(options);
  ClientOptions client_options;
  client_options.max_frame_bytes = kLimit;
  AquaClient client("127.0.0.1", front_end_->port(), client_options);
  auto response = client.Query(kSql);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kOutOfRange);
  const std::string& message = response->status.message();
  EXPECT_NE(message.find("exceeds frame limit 120"), std::string::npos)
      << message;
  EXPECT_EQ(client.stats().attempts, 1u);
  EXPECT_EQ(client.stats().transport_errors, 0u);
  EXPECT_EQ(server_->stats().completed, 1u);
  // The connection stays open and serves the next request.
  auto again = client.Query(kSql);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(client.stats().transport_errors, 0u);
  EXPECT_EQ(front_end_->stats().accepts, 1u);
}

TEST_F(TcpFrontEndTest, UndecodableBodyGetsErrorResponseAndKeepsConnection) {
  StartFrontEnd();
  // A correctly framed (CRC-valid) payload whose first byte is an
  // unknown QueryMode: the framing layer accepts it, the body codec
  // rejects it, and the connection must survive with an error response.
  auto socket = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(500));
  ASSERT_TRUE(socket.ok());
  std::string payload;
  payload.push_back('\x07');  // unknown QueryMode
  std::string frame;
  EncodeFrame(FrameType::kRequest, 77, payload, &frame);
  size_t sent = 0;
  while (sent < frame.size()) {
    IoResult r =
        WriteSome(socket->fd(), frame.data() + sent, frame.size() - sent);
    ASSERT_EQ(r.kind, IoResult::Kind::kOk);
    sent += r.bytes;
  }
  std::string buf;
  while (true) {
    ASSERT_TRUE(WaitReadable(socket->fd(), milliseconds(2000)));
    char chunk[4096];
    IoResult r = ReadSome(socket->fd(), chunk, sizeof(chunk));
    ASSERT_EQ(r.kind, IoResult::Kind::kOk);
    buf.append(chunk, r.bytes);
    if (buf.size() < kFrameHeaderBytes) continue;
    auto header =
        DecodeFrameHeader(buf.data(), buf.size(), kDefaultMaxFrameBytes);
    ASSERT_TRUE(header.ok());
    if (buf.size() < kFrameHeaderBytes + header->payload_length) continue;
    EXPECT_EQ(header->correlation_id, 77u);
    auto response = DecodeResponse(buf.data() + kFrameHeaderBytes,
                                   header->payload_length);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
    break;
  }
  // Same connection still serves a valid request.
  serve::Request request;
  request.sql = kSql;
  std::string good;
  EncodeFrame(FrameType::kRequest, 78, EncodeRequest(request), &good);
  sent = 0;
  while (sent < good.size()) {
    IoResult r =
        WriteSome(socket->fd(), good.data() + sent, good.size() - sent);
    ASSERT_EQ(r.kind, IoResult::Kind::kOk);
    sent += r.bytes;
  }
  ASSERT_TRUE(WaitReadable(socket->fd(), milliseconds(2000)));
  EXPECT_EQ(front_end_->stats().connections_active, 1u);
}

TEST_F(TcpFrontEndTest, SlowlorisPartialFrameIsCutOff) {
  FrontEndOptions options;
  options.frame_timeout = milliseconds(50);
  options.poll_interval = milliseconds(10);
  StartFrontEnd(options);
  auto socket = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(500));
  ASSERT_TRUE(socket.ok());
  // Half a header, then silence.
  serve::Request request;
  request.sql = kSql;
  std::string frame;
  EncodeFrame(FrameType::kRequest, 1, EncodeRequest(request), &frame);
  WriteSome(socket->fd(), frame.data(), kFrameHeaderBytes / 2);
  ASSERT_TRUE(WaitForStats([](const FrontEndStats& s) {
    return s.slowloris_cutoff == 1 && s.connections_active == 0;
  }));
}

TEST_F(TcpFrontEndTest, IdleConnectionsAreReaped) {
  FrontEndOptions options;
  options.idle_timeout = milliseconds(50);
  options.poll_interval = milliseconds(10);
  StartFrontEnd(options);
  auto socket = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(500));
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(WaitForStats(
      [](const FrontEndStats& s) { return s.accepts == 1; }));
  ASSERT_TRUE(WaitForStats([](const FrontEndStats& s) {
    return s.idle_reaped == 1 && s.connections_active == 0;
  }));
}

TEST_F(TcpFrontEndTest, ConnectionCapRejectsTheOverflowConnection) {
  FrontEndOptions options;
  options.max_connections = 2;
  options.poll_interval = milliseconds(10);
  StartFrontEnd(options);
  auto a = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(500));
  auto b = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(500));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(WaitForStats(
      [](const FrontEndStats& s) { return s.connections_active == 2; }));
  // The third connect lands in the backlog but is never accepted; the
  // cap holds.
  auto c = ConnectTo("127.0.0.1", front_end_->port(), milliseconds(200));
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_EQ(front_end_->stats().connections_active, 2u);
}

TEST_F(TcpFrontEndTest, StopResolvesEverythingAndClosesSessions) {
  StartFrontEnd();
  AquaClient client("127.0.0.1", front_end_->port(), ClientOptions{});
  auto response = client.Query(kSql);
  ASSERT_TRUE(response.ok());
  front_end_->Stop();
  EXPECT_EQ(front_end_->stats().connections_active, 0u);
  EXPECT_EQ(server_->stats().sessions_active, 0u);
  // Stop is idempotent.
  front_end_->Stop();
}

TEST_F(TcpFrontEndTest, RestartAfterStopServesAgain) {
  StartFrontEnd();
  front_end_->Stop();
  ASSERT_TRUE(front_end_->Start().ok());
  AquaClient client("127.0.0.1", front_end_->port(), ClientOptions{});
  auto response = client.Query(kSql);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.ok());
}

}  // namespace
}  // namespace congress::net
