#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "net/client.h"
#include "net/front_end.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/random.h"

namespace congress::net {
namespace {

/// Deterministic protocol fuzzer. Two layers:
///   * codec fuzzing — random blobs and mutated valid frames through the
///     header/body decoders; the only acceptable outcomes are OK or an
///     error Status (never a crash, hang, or over-read — ASan enforces
///     the last one);
///   * live fuzzing — the same hostile bytes thrown at a real loopback
///     front-end, which must stay up and keep answering well-formed
///     requests afterwards.
/// Seeds are fixed, so a failure reproduces from the test alone.

std::string RandomBlob(Random* rng, size_t max_len) {
  std::string blob(rng->UniformInt(max_len + 1), '\0');
  for (char& c : blob) {
    c = static_cast<char>(rng->UniformInt(256));
  }
  return blob;
}

serve::Request TemplateRequest(Random* rng) {
  serve::Request request;
  request.sql = "SELECT region, SUM(amount) FROM sales GROUP BY region";
  request.mode = static_cast<serve::QueryMode>(rng->UniformInt(4));
  request.table = "sales";
  request.deadline = std::chrono::milliseconds(rng->UniformInt(1000));
  if (rng->Bernoulli(0.5)) request.idempotency_token = "tok";
  const size_t rows = rng->UniformInt(4);
  for (size_t i = 0; i < rows; ++i) {
    request.rows.push_back(
        {Value(static_cast<int64_t>(rng->UniformInt(100))),
         Value(rng->NextDouble())});
  }
  return request;
}

/// Flip bits / truncate / extend a valid encoding.
std::string Mutate(Random* rng, std::string bytes) {
  const int mutations = 1 + static_cast<int>(rng->UniformInt(4));
  for (int m = 0; m < mutations; ++m) {
    switch (rng->UniformInt(3)) {
      case 0:  // bit flip
        if (!bytes.empty()) {
          bytes[rng->UniformInt(bytes.size())] ^=
              static_cast<char>(1 << rng->UniformInt(8));
        }
        break;
      case 1:  // truncate
        bytes.resize(rng->UniformInt(bytes.size() + 1));
        break;
      default:  // extend with junk
        bytes += RandomBlob(rng, 16);
        break;
    }
  }
  return bytes;
}

void FeedDecoders(const std::string& bytes) {
  auto header =
      DecodeFrameHeader(bytes.data(), bytes.size(), kDefaultMaxFrameBytes);
  if (header.ok() && bytes.size() >= kFrameHeaderBytes) {
    const size_t payload_len =
        std::min<size_t>(header->payload_length,
                         bytes.size() - kFrameHeaderBytes);
    (void)VerifyFramePayload(*header, bytes.data() + kFrameHeaderBytes,
                             payload_len);
  }
  (void)DecodeRequest(bytes.data(), bytes.size());
  (void)DecodeResponse(bytes.data(), bytes.size());
}

TEST(FrameFuzzTest, RandomBlobsNeverCrashTheDecoders) {
  Random rng(0xF00D);
  for (int i = 0; i < 2000; ++i) {
    FeedDecoders(RandomBlob(&rng, 512));
  }
}

TEST(FrameFuzzTest, MutatedValidFramesNeverCrashTheDecoders) {
  Random rng(0xBEEF);
  for (int i = 0; i < 2000; ++i) {
    serve::Request request = TemplateRequest(&rng);
    std::string frame;
    EncodeFrame(FrameType::kRequest, rng.NextUint64(),
                EncodeRequest(request), &frame);
    FeedDecoders(Mutate(&rng, frame));
  }
  for (int i = 0; i < 500; ++i) {
    serve::Response response;
    response.status = Status::OK();
    response.result = ApproximateResult(1, 1);
    const GroupKey key = {Value(static_cast<int64_t>(i))};
    std::span<double> numbers =
        response.result.Add(key, 0, GroupProvenance::kSampled);
    numbers[0] = 1.0;  // Estimate.
    numbers[1] = 0.1;  // Standard error.
    numbers[2] = 0.2;  // Bound.
    std::string frame;
    EncodeFrame(FrameType::kResponse, i, EncodeResponse(response), &frame);
    FeedDecoders(Mutate(&rng, frame));
  }
}

TEST(FrameFuzzTest, LiveFrontEndSurvivesHostileBytes) {
  Table t{Schema({Field{"region", DataType::kString},
                  Field{"amount", DataType::kDouble}})};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(i % 2 == 0 ? "east" : "west"), Value(1.0)}).ok());
  }
  SynopsisConfig config;
  config.grouping_columns = {"region"};
  config.sample_fraction = 0.5;
  config.seed = 3;
  config.incremental = true;
  AquaEngine engine;
  ASSERT_TRUE(engine.RegisterTable("sales", t, config).ok());
  serve::AquaServer server(&engine, serve::ServeOptions{});
  ASSERT_TRUE(server.Start().ok());
  FrontEndOptions options;
  options.max_frame_bytes = 64 * 1024;
  TcpFrontEnd front_end(&server, options);
  ASSERT_TRUE(front_end.Start().ok());

  Random rng(0xCAFE);
  for (int i = 0; i < 50; ++i) {
    auto socket =
        ConnectTo("127.0.0.1", front_end.port(), std::chrono::milliseconds(500));
    ASSERT_TRUE(socket.ok()) << socket.status().ToString();
    std::string bytes;
    if (rng.Bernoulli(0.5)) {
      serve::Request request = TemplateRequest(&rng);
      EncodeFrame(FrameType::kRequest, rng.NextUint64(),
                  EncodeRequest(request), &bytes);
      bytes = Mutate(&rng, bytes);
    } else {
      bytes = RandomBlob(&rng, 256);
    }
    size_t sent = 0;
    while (sent < bytes.size()) {
      IoResult r = WriteSome(socket->fd(), bytes.data() + sent,
                             bytes.size() - sent);
      if (r.kind != IoResult::Kind::kOk) break;  // Front end cut us off.
      sent += r.bytes;
    }
    // Half the time, vanish without closing politely.
    if (rng.Bernoulli(0.5)) socket->Close();
  }

  // The front end must still answer a well-formed request.
  AquaClient client("127.0.0.1", front_end.port(), ClientOptions{});
  auto response =
      client.Query("SELECT region, SUM(amount) FROM sales GROUP BY region");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok()) << response->status.ToString();

  front_end.Stop();
  EXPECT_EQ(front_end.stats().connections_active, 0u);
  server.Stop();
}

}  // namespace
}  // namespace congress::net
