#include "net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "resilience/wire.h"

namespace congress::net {
namespace {

serve::Request SampleRequest() {
  serve::Request request;
  request.sql = "SELECT region, SUM(amount) FROM sales GROUP BY region";
  request.mode = serve::QueryMode::kResilient;
  request.table = "sales";
  request.deadline = std::chrono::milliseconds(250);
  request.idempotency_token = "batch-42";
  request.rows = {{Value(int64_t{7}), Value(3.5), Value("east")},
                  {Value(int64_t{9}), Value(1.25), Value("west")}};
  return request;
}

serve::Response SampleResponse() {
  serve::Response response;
  response.status = Status::OK();
  response.degradation.level = DegradationLevel::kHouse;
  response.degradation.cause = "congress rung unavailable";
  response.degradation.bound_widening = 1.5;
  response.epoch = 12;
  response.queue_seconds = 0.001;
  response.exec_seconds = 0.025;
  response.result = ApproximateResult(1, 2);
  const GroupKey east = {Value("east")};
  std::span<double> numbers =
      response.result.Add(east, 250, GroupProvenance::kSampled);
  const double values[] = {123.5, 17.0, 2.5, 0.5, 4.9, 0.98};
  std::ranges::copy(values, numbers.begin());
  return response;
}

/// Lower-case hex of `bytes`, for pinning encodings as literals.
std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

/// A response whose three groups are keyed (int64, double, string),
/// including the -0.0 and NaN doubles, with two aggregates and every
/// provenance.
serve::Response GoldenResponse() {
  serve::Response response;
  response.status = Status::OK();
  response.degradation.level = DegradationLevel::kBasicCongress;
  response.degradation.cause = "golden";
  response.degradation.bound_widening = 1.25;
  response.epoch = 7;
  response.queue_seconds = 0.5;
  response.exec_seconds = 0.25;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const GroupKey keys[] = {{Value(int64_t{-3}), Value(-0.0), Value("a")},
                           {Value(int64_t{5}), Value(nan), Value("bc")},
                           {Value(int64_t{1} << 40), Value(2.5), Value("")}};
  const GroupProvenance provenance[] = {GroupProvenance::kSampled,
                                        GroupProvenance::kExact,
                                        GroupProvenance::kCombined};
  response.result = ApproximateResult(3, 2);
  for (int g = 0; g < 3; ++g) {
    const uint64_t support = 10u + static_cast<uint64_t>(g);
    std::span<double> numbers =
        response.result.Add(keys[g], support, provenance[g]);
    // Estimates, then standard errors, then bounds.
    const double values[] = {100.0 + g, -0.0, 1.5 * g, 0.125, 3.0 * g, 0.25};
    std::ranges::copy(values, numbers.begin());
  }
  return response;
}

TEST(WireTest, GoldenRequestFrameBytes) {
  std::string frame;
  EncodeFrame(FrameType::kRequest, 0x0102030405060708u,
              EncodeRequest(SampleRequest()), &frame);
  EXPECT_EQ(Hex(frame),
            "574e474301010000080706050403020199000000553d39cd013500000053454c"
            "45435420726567696f6e2c2053554d28616d6f756e74292046524f4d2073616c"
            "65732047524f555020425920726567696f6e0500000073616c65730800000062"
            "617463682d3432fa000000000000000200000003000000000700000000000000"
            "010000000000000c400204000000656173740300000000090000000000000001"
            "000000000000f43f020400000077657374");
}

TEST(WireTest, GoldenResponseFrameBytes) {
  std::string frame;
  EncodeFrame(FrameType::kResponse, 0x1122334455667788u,
              EncodeResponse(GoldenResponse()), &frame);
  EXPECT_EQ(Hex(frame),
            "574e47430102000088776655443322113f0100007d601b390000000000010600"
            "0000676f6c64656e000000000000f43f0700000000000000000000000000e03f"
            "000000000000d03f030000000300000000fdffffffffffffff01000000000000"
            "0080020100000061020000000000000000005940000000000000008000000000"
            "00000000000000000000c03f0000000000000000000000000000d03f0a000000"
            "00000000000300000000050000000000000001000000000000f87f0202000000"
            "62630200000000000000004059400000000000000080000000000000f83f0000"
            "00000000c03f0000000000000840000000000000d03f0b000000000000000103"
            "0000000000000000000100000100000000000004400200000000020000000000"
            "00000080594000000000000000800000000000000840000000000000c03f0000"
            "000000001840000000000000d03f0c0000000000000002");
  // Decoding the pinned frame and encoding it again gives it back.
  auto decoded = DecodeResponse(frame.data() + kFrameHeaderBytes,
                                frame.size() - kFrameHeaderBytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  std::string again;
  EncodeFrame(FrameType::kResponse, 0x1122334455667788u,
              EncodeResponse(*decoded), &again);
  EXPECT_EQ(again, frame);
}

TEST(WireTest, RequestRoundTrips) {
  const serve::Request request = SampleRequest();
  const std::string payload = EncodeRequest(request);
  auto decoded = DecodeRequest(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sql, request.sql);
  EXPECT_EQ(decoded->mode, request.mode);
  EXPECT_EQ(decoded->table, request.table);
  EXPECT_EQ(decoded->deadline, request.deadline);
  EXPECT_EQ(decoded->idempotency_token, request.idempotency_token);
  ASSERT_EQ(decoded->rows.size(), request.rows.size());
  EXPECT_EQ(decoded->rows[0], request.rows[0]);
  EXPECT_EQ(decoded->rows[1], request.rows[1]);
}

TEST(WireTest, HostileDeadlineIsClampedOnDecode) {
  // The deadline field is an untrusted uint64 of milliseconds; a value
  // near 2^62 must not survive decoding, or the server's
  // `enqueued + budget` time_point arithmetic overflows (UB).
  serve::Request request = SampleRequest();
  request.deadline = std::chrono::milliseconds(int64_t{1} << 62);
  const std::string payload = EncodeRequest(request);
  auto decoded = DecodeRequest(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->deadline.count(),
            static_cast<int64_t>(kMaxDeadlineMs));
  // A sane deadline is untouched.
  const std::string sane = EncodeRequest(SampleRequest());
  EXPECT_EQ(DecodeRequest(sane.data(), sane.size())->deadline,
            std::chrono::milliseconds(250));
}

TEST(WireTest, ResponseRoundTrips) {
  const serve::Response response = SampleResponse();
  const std::string payload = EncodeResponse(response);
  auto decoded = DecodeResponse(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status.code(), response.status.code());
  EXPECT_EQ(decoded->degradation.level, response.degradation.level);
  EXPECT_EQ(decoded->degradation.cause, response.degradation.cause);
  EXPECT_DOUBLE_EQ(decoded->degradation.bound_widening,
                   response.degradation.bound_widening);
  EXPECT_EQ(decoded->epoch, 12u);
  ASSERT_EQ(decoded->result.num_groups(), 1u);
  const ApproximateGroupRow row = decoded->result.row(0);
  const ApproximateGroupRow sent = response.result.row(0);
  EXPECT_TRUE(std::ranges::equal(row.key, sent.key));
  EXPECT_TRUE(std::ranges::equal(row.estimates, sent.estimates));
  EXPECT_TRUE(std::ranges::equal(row.std_errors, sent.std_errors));
  EXPECT_TRUE(std::ranges::equal(row.bounds, sent.bounds));
  EXPECT_EQ(row.support, 250u);
  EXPECT_EQ(row.provenance, GroupProvenance::kSampled);
}

TEST(WireTest, ErrorResponseRoundTripsStatus) {
  serve::Response response;
  response.status = Status::ResourceExhausted("queue full");
  const std::string payload = EncodeResponse(response);
  auto decoded = DecodeResponse(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->status.message(), "queue full");
}

TEST(WireTest, FrameHeaderRoundTrips) {
  std::string frame;
  EncodeFrame(FrameType::kRequest, 0xDEADBEEFCAFEF00Du, "hello", &frame);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 5);
  auto header =
      DecodeFrameHeader(frame.data(), frame.size(), kDefaultMaxFrameBytes);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, FrameType::kRequest);
  EXPECT_EQ(header->correlation_id, 0xDEADBEEFCAFEF00Du);
  EXPECT_EQ(header->payload_length, 5u);
  EXPECT_TRUE(
      VerifyFramePayload(*header, frame.data() + kFrameHeaderBytes, 5).ok());
}

TEST(WireTest, HeaderRejectsBadMagic) {
  std::string frame;
  EncodeFrame(FrameType::kRequest, 1, "x", &frame);
  frame[0] ^= 0xFF;
  auto header =
      DecodeFrameHeader(frame.data(), frame.size(), kDefaultMaxFrameBytes);
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, HeaderRejectsUnknownVersionTypeAndFlags) {
  std::string frame;
  EncodeFrame(FrameType::kRequest, 1, "x", &frame);
  std::string v = frame;
  v[4] = 99;  // version
  EXPECT_FALSE(DecodeFrameHeader(v.data(), v.size(), kDefaultMaxFrameBytes)
                   .ok());
  std::string t = frame;
  t[5] = 0;  // type
  EXPECT_FALSE(DecodeFrameHeader(t.data(), t.size(), kDefaultMaxFrameBytes)
                   .ok());
  std::string f = frame;
  f[6] = 1;  // flags
  EXPECT_FALSE(DecodeFrameHeader(f.data(), f.size(), kDefaultMaxFrameBytes)
                   .ok());
}

TEST(WireTest, HeaderRejectsOversizePayloadAsOutOfRange) {
  std::string big(100, 'x');
  std::string frame;
  EncodeFrame(FrameType::kRequest, 1, big, &frame);
  auto header = DecodeFrameHeader(frame.data(), frame.size(),
                                  /*max_frame_bytes=*/64);
  EXPECT_EQ(header.status().code(), StatusCode::kOutOfRange);
}

TEST(WireTest, CorruptPayloadFailsCrc) {
  std::string frame;
  EncodeFrame(FrameType::kResponse, 1, "payload-bytes", &frame);
  auto header =
      DecodeFrameHeader(frame.data(), frame.size(), kDefaultMaxFrameBytes);
  ASSERT_TRUE(header.ok());
  std::string payload = frame.substr(kFrameHeaderBytes);
  payload[3] ^= 0x01;
  EXPECT_FALSE(
      VerifyFramePayload(*header, payload.data(), payload.size()).ok());
}

TEST(WireTest, TruncatedRequestRejected) {
  const std::string payload = EncodeRequest(SampleRequest());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeRequest(payload.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "truncation at " << cut << " decoded";
  }
}

TEST(WireTest, TruncatedResponseRejected) {
  const std::string payload = EncodeResponse(SampleResponse());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeResponse(payload.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "truncation at " << cut << " decoded";
  }
}

TEST(WireTest, TrailingBytesRejected) {
  std::string payload = EncodeRequest(SampleRequest());
  payload.push_back('\0');
  EXPECT_FALSE(DecodeRequest(payload.data(), payload.size()).ok());
  std::string rpayload = EncodeResponse(SampleResponse());
  rpayload.push_back('\0');
  EXPECT_FALSE(DecodeResponse(rpayload.data(), rpayload.size()).ok());
}

TEST(WireTest, AppendedFramesEqualEncodedFrames) {
  std::string want = "prefix";
  EncodeFrame(FrameType::kRequest, 3, EncodeRequest(SampleRequest()), &want);
  EncodeFrame(FrameType::kResponse, 4, EncodeResponse(GoldenResponse()),
              &want);
  std::string got = "prefix";
  AppendRequestFrame(3, SampleRequest(), &got);
  const Status appended =
      AppendResponseFrame(4, GoldenResponse(), kDefaultMaxFrameBytes, &got);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(Hex(got), Hex(want));
}

TEST(WireTest, OversizeResponseIsRefusedUnwritten) {
  const serve::Response response = GoldenResponse();
  const size_t size = EncodeResponse(response).size();
  std::string out = "prefix";
  Status refused = AppendResponseFrame(1, response, size - 1, &out);
  EXPECT_EQ(refused.code(), StatusCode::kOutOfRange);
  const std::string want = "answer of " + std::to_string(size) +
                           " bytes exceeds frame limit " +
                           std::to_string(size - 1);
  EXPECT_EQ(refused.message(), want);
  EXPECT_EQ(out, "prefix");
  EXPECT_TRUE(AppendResponseFrame(1, response, size, &out).ok());
  EXPECT_EQ(out.size(), 6 + kFrameHeaderBytes + size);
}

/// One encoded group: `key`, then `num_aggs` aggregates' numbers, support
/// and provenance.
std::string GroupBytes(const GroupKey& key, uint32_t num_aggs) {
  namespace rw = ::congress::resilience::wire;
  std::string out;
  rw::PutU32(&out, static_cast<uint32_t>(key.size()));
  for (const Value& v : key) rw::PutValue(&out, v);
  rw::PutU32(&out, num_aggs);
  for (uint32_t i = 0; i < 3 * num_aggs; ++i) rw::PutDouble(&out, 1.0 + i);
  rw::PutU64(&out, 5);
  rw::PutU8(&out, static_cast<uint8_t>(GroupProvenance::kSampled));
  return out;
}

/// A response payload holding `groups`, each well-formed on its own.
std::string ResponseWithGroups(const std::vector<std::string>& groups) {
  namespace rw = ::congress::resilience::wire;
  std::string out = EncodeResponse(serve::Response{});
  out.resize(out.size() - 4);  // An answer without groups ends in its count.
  rw::PutU32(&out, static_cast<uint32_t>(groups.size()));
  for (const std::string& g : groups) out += g;
  return out;
}

StatusCode DecodeCode(const std::string& payload) {
  return DecodeResponse(payload.data(), payload.size()).status().code();
}

TEST(WireTest, ResponseGroupsMustShareKeyWidthAndAggregateCount) {
  const std::string first = GroupBytes({Value(int64_t{1})}, 2);
  const std::string second = GroupBytes({Value(int64_t{2})}, 2);
  const std::string same = ResponseWithGroups({first, second});
  auto decoded = DecodeResponse(same.data(), same.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->result.num_groups(), 2u);
  EXPECT_EQ(decoded->result.row(1).key[0], Value(int64_t{2}));
  EXPECT_EQ(decoded->result.row(1).bounds[1], 6.0);

  // The flat answer has one key width and one aggregate count.
  const std::string two_keys = GroupBytes({Value(int64_t{2}), Value("x")}, 2);
  EXPECT_EQ(DecodeCode(ResponseWithGroups({first, two_keys})),
            StatusCode::kInvalidArgument);
  const std::string three_aggs = GroupBytes({Value(int64_t{2})}, 3);
  EXPECT_EQ(DecodeCode(ResponseWithGroups({first, three_aggs})),
            StatusCode::kInvalidArgument);

  // Zero of each is one width like any other, and round-trips.
  const std::string bare_group = GroupBytes({}, 0);
  const std::string empty_groups = ResponseWithGroups({bare_group, bare_group});
  auto bare = DecodeResponse(empty_groups.data(), empty_groups.size());
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare->result.num_groups(), 2u);
  EXPECT_EQ(EncodeResponse(*bare), empty_groups);
}

TEST(WireTest, LyingCountsDoNotAllocate) {
  // A request claiming 2^31 rows in a 16-byte payload must be rejected
  // by plausibility before any resize.
  std::string payload;
  payload.push_back(0);  // mode
  // Three empty strings + deadline.
  for (int i = 0; i < 3; ++i) {
    payload.append(4, '\0');  // length 0
  }
  payload.append(8, '\0');                      // deadline
  payload.append({'\xFF', '\xFF', '\xFF', '\x7F'});  // num_rows = 2^31-1
  EXPECT_FALSE(DecodeRequest(payload.data(), payload.size()).ok());
}

}  // namespace
}  // namespace congress::net
