#include "net/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "resilience/wire.h"
#include "util/crc32c.h"

namespace congress::net {

namespace {

namespace rw = ::congress::resilience::wire;

static_assert(std::endian::native == std::endian::little,
              "the codec copies little-endian words as they lie in memory");

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed frame: " + what);
}

/// Guards a count field against a lying payload: a count that could not
/// possibly fit in the remaining bytes (at `min_bytes_each` apiece) is
/// rejected before any allocation sized by it.
bool PlausibleCount(const rw::Cursor& in, uint32_t count,
                    size_t min_bytes_each) {
  return static_cast<size_t>(count) <= in.remaining() / min_bytes_each;
}

/// Lays out little-endian fields. Given no buffer it only counts their
/// bytes: each encoder runs once that way to size its buffer exactly, and
/// once more to copy the fields in, so one function fixes both the size
/// and the bytes, and no write checks capacity or grows a buffer.
class Writer {
 public:
  explicit Writer(char* buffer) : buffer_(buffer) {}

  size_t size() const { return size_; }

  void U8(uint8_t v) { Bytes(&v, sizeof(v)); }
  void U32(uint32_t v) { Bytes(&v, sizeof(v)); }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double v) { Bytes(&v, sizeof(v)); }
  void Bytes(const void* data, size_t n) {
    // `data` may be null when n is 0.
    if (buffer_ != nullptr && n != 0) std::memcpy(buffer_ + size_, data, n);
    size_ += n;
  }
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  /// The encoding of rw::PutValue: a type tag, then the value.
  void Val(const Value& v) {
    U8(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case DataType::kInt64:
        U64(static_cast<uint64_t>(v.AsInt64()));
        break;
      case DataType::kDouble:
        Double(v.AsDouble());
        break;
      case DataType::kString:
        String(v.AsString());
        break;
    }
  }

 private:
  char* const buffer_;
  size_t size_ = 0;
};

void PutRequest(const serve::Request& request, Writer* out) {
  out->U8(static_cast<uint8_t>(request.mode));
  out->String(request.sql);
  out->String(request.table);
  out->String(request.idempotency_token);
  out->U64(static_cast<uint64_t>(request.deadline.count()));
  out->U32(static_cast<uint32_t>(request.rows.size()));
  for (const std::vector<Value>& row : request.rows) {
    out->U32(static_cast<uint32_t>(row.size()));
    for (const Value& v : row) out->Val(v);
  }
}

void PutResponse(const serve::Response& response, Writer* out) {
  out->U8(static_cast<uint8_t>(response.status.code()));
  out->String(response.status.message());
  out->U8(static_cast<uint8_t>(response.degradation.level));
  out->String(response.degradation.cause);
  out->Double(response.degradation.bound_widening);
  out->U64(response.epoch);
  out->Double(response.queue_seconds);
  out->Double(response.exec_seconds);
  const ApproximateResult& result = response.result;
  out->U32(static_cast<uint32_t>(result.num_groups()));
  const uint32_t key_width = static_cast<uint32_t>(result.key_width());
  const uint32_t num_aggs = static_cast<uint32_t>(result.num_aggregates());
  for (size_t i = 0; i < result.num_groups(); ++i) {
    const ApproximateGroupRow row = result.row(i);
    out->U32(key_width);
    for (const Value& v : row.key) out->Val(v);
    out->U32(num_aggs);
    // Estimates, standard errors and bounds lie in the answer in wire
    // order.
    const std::span<const double> numbers = result.row_numbers(i);
    out->Bytes(numbers.data(), numbers.size_bytes());
    out->U64(row.support);
    out->U8(static_cast<uint8_t>(row.provenance));
  }
}

template <typename Message>
size_t PayloadBytes(void (*put)(const Message&, Writer*),
                    const Message& message) {
  Writer counter(nullptr);
  put(message, &counter);
  return counter.size();
}

template <typename Message>
std::string EncodePayload(void (*put)(const Message&, Writer*),
                          const Message& message) {
  std::string out(PayloadBytes(put, message), '\0');
  Writer writer(out.data());
  put(message, &writer);
  return out;
}

/// Bytes of one response group besides its key values: key count,
/// aggregate count, three doubles per aggregate, support and provenance.
size_t GroupBytesBesidesKey(size_t num_aggs) { return 17 + 24 * num_aggs; }

void PutPayload(const std::string& payload, Writer* out) {
  out->Bytes(payload.data(), payload.size());
}

/// Appends one frame to `out`: the header, written in place ahead of the
/// `payload_size`-byte payload that `put` lays out straight into `out`.
template <typename Message>
void AppendFrame(FrameType type, uint64_t correlation_id,
                 void (*put)(const Message&, Writer*), const Message& message,
                 size_t payload_size, std::string* out) {
  const size_t start = out->size();
  out->resize(start + kFrameHeaderBytes + payload_size);
  char* header = out->data() + start;
  char* payload = header + kFrameHeaderBytes;
  Writer body(payload);
  put(message, &body);
  Writer fields(header);
  fields.U32(kWireMagic);
  fields.U8(kWireVersion);
  fields.U8(static_cast<uint8_t>(type));
  fields.U8(0);  // flags lo
  fields.U8(0);  // flags hi
  fields.U64(correlation_id);
  fields.U32(static_cast<uint32_t>(payload_size));
  fields.U32(MaskCrc32c(Crc32c(payload, payload_size)));
}

}  // namespace

void EncodeFrame(FrameType type, uint64_t correlation_id,
                 const std::string& payload, std::string* out) {
  AppendFrame(type, correlation_id, PutPayload, payload, payload.size(), out);
}

void AppendRequestFrame(uint64_t correlation_id, const serve::Request& request,
                        std::string* out) {
  AppendFrame(FrameType::kRequest, correlation_id, PutRequest, request,
              PayloadBytes(PutRequest, request), out);
}

Status AppendResponseFrame(uint64_t correlation_id,
                           const serve::Response& response,
                           size_t max_payload_bytes, std::string* out) {
  const size_t size = PayloadBytes(PutResponse, response);
  if (size > max_payload_bytes) {
    return Status::OutOfRange("answer of " + std::to_string(size) +
                              " bytes exceeds frame limit " +
                              std::to_string(max_payload_bytes));
  }
  AppendFrame(FrameType::kResponse, correlation_id, PutResponse, response,
              size, out);
  return Status::OK();
}

Result<FrameHeader> DecodeFrameHeader(const char* data, size_t size,
                                      size_t max_frame_bytes) {
  if (size < kFrameHeaderBytes) {
    return Malformed("header truncated");
  }
  rw::Cursor in(data, kFrameHeaderBytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint8_t flags_lo = 0;
  uint8_t flags_hi = 0;
  FrameHeader header;
  if (!in.GetU32(&magic) || !in.GetU8(&version) || !in.GetU8(&type) ||
      !in.GetU8(&flags_lo) || !in.GetU8(&flags_hi) ||
      !in.GetU64(&header.correlation_id) ||
      !in.GetU32(&header.payload_length) || !in.GetU32(&header.masked_crc)) {
    return Malformed("header truncated");
  }
  if (magic != kWireMagic) return Malformed("bad magic");
  if (version != kWireVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  if (type != static_cast<uint8_t>(FrameType::kRequest) &&
      type != static_cast<uint8_t>(FrameType::kResponse)) {
    return Malformed("unknown frame type " + std::to_string(type));
  }
  if (flags_lo != 0 || flags_hi != 0) return Malformed("nonzero flags");
  if (header.payload_length > max_frame_bytes) {
    // OutOfRange (not InvalidArgument) so callers can count oversize
    // frames separately from structural garbage.
    return Status::OutOfRange(
        "frame payload length " + std::to_string(header.payload_length) +
        " exceeds limit " + std::to_string(max_frame_bytes));
  }
  header.version = version;
  header.type = static_cast<FrameType>(type);
  return header;
}

Status VerifyFramePayload(const FrameHeader& header, const char* payload,
                          size_t size) {
  if (size != header.payload_length) {
    return Malformed("payload size mismatch");
  }
  if (MaskCrc32c(Crc32c(payload, size)) != header.masked_crc) {
    return Malformed("payload CRC mismatch");
  }
  return Status::OK();
}

std::string EncodeRequest(const serve::Request& request) {
  return EncodePayload(PutRequest, request);
}

Result<serve::Request> DecodeRequest(const char* payload, size_t size) {
  rw::Cursor in(payload, size);
  serve::Request request;
  uint8_t mode = 0;
  if (!in.GetU8(&mode)) return Malformed("request mode truncated");
  if (mode > static_cast<uint8_t>(serve::QueryMode::kInsert)) {
    return Malformed("unknown query mode " + std::to_string(mode));
  }
  request.mode = static_cast<serve::QueryMode>(mode);
  uint64_t deadline_ms = 0;
  if (!in.GetString(&request.sql) || !in.GetString(&request.table) ||
      !in.GetString(&request.idempotency_token) || !in.GetU64(&deadline_ms)) {
    return Malformed("request fields truncated");
  }
  request.deadline =
      std::chrono::milliseconds(std::min(deadline_ms, kMaxDeadlineMs));
  uint32_t num_rows = 0;
  if (!in.GetU32(&num_rows) || !PlausibleCount(in, num_rows, 4)) {
    return Malformed("request row count implausible");
  }
  request.rows.resize(num_rows);
  for (std::vector<Value>& row : request.rows) {
    uint32_t num_values = 0;
    if (!in.GetU32(&num_values) || !PlausibleCount(in, num_values, 1)) {
      return Malformed("request row truncated");
    }
    row.resize(num_values);
    for (Value& v : row) {
      if (!rw::GetValue(&in, &v)) return Malformed("request value truncated");
    }
  }
  if (in.remaining() != 0) return Malformed("trailing bytes after request");
  return request;
}

std::string EncodeResponse(const serve::Response& response) {
  return EncodePayload(PutResponse, response);
}

Result<serve::Response> DecodeResponse(const char* payload, size_t size) {
  rw::Cursor in(payload, size);
  serve::Response response;
  uint8_t code = 0;
  std::string message;
  if (!in.GetU8(&code) || !in.GetString(&message)) {
    return Malformed("response status truncated");
  }
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Malformed("unknown status code " + std::to_string(code));
  }
  response.status = Status(static_cast<StatusCode>(code), std::move(message));
  uint8_t level = 0;
  if (!in.GetU8(&level) || !in.GetString(&response.degradation.cause) ||
      !in.GetDouble(&response.degradation.bound_widening)) {
    return Malformed("response degradation truncated");
  }
  if (level > static_cast<uint8_t>(DegradationLevel::kExactRebuild)) {
    return Malformed("unknown degradation level " + std::to_string(level));
  }
  response.degradation.level = static_cast<DegradationLevel>(level);
  if (!in.GetU64(&response.epoch) ||
      !in.GetDouble(&response.queue_seconds) ||
      !in.GetDouble(&response.exec_seconds)) {
    return Malformed("response timing truncated");
  }
  uint32_t num_groups = 0;
  if (!in.GetU32(&num_groups) ||
      !PlausibleCount(in, num_groups, GroupBytesBesidesKey(0))) {
    return Malformed("response group count implausible");
  }
  // Every group of an answer has the same key width and aggregate count.
  // The first group's widths fix them, and bound the count once more,
  // before the answer is sized for all its groups.
  const size_t groups_bytes = in.remaining();
  ApproximateResult& result = response.result;
  GroupKey key;
  for (uint32_t g = 0; g < num_groups; ++g) {
    uint32_t key_width = 0;
    if (!in.GetU32(&key_width)) return Malformed("response group truncated");
    if (g == 0) {
      if (!PlausibleCount(in, key_width, 1)) {
        return Malformed("response group truncated");
      }
      key.resize(key_width);
    } else if (key_width != result.key_width()) {
      return Malformed("response groups differ in key width");
    }
    for (Value& v : key) {
      if (!rw::GetValue(&in, &v)) return Malformed("response group truncated");
    }
    uint32_t num_aggs = 0;
    if (!in.GetU32(&num_aggs)) return Malformed("response group truncated");
    if (g == 0) {
      // A key value takes at least 5 bytes (tag and string length).
      const size_t min_group_bytes =
          GroupBytesBesidesKey(num_aggs) + 5 * size_t{key_width};
      if (!PlausibleCount(in, num_aggs, 24) ||
          num_groups > groups_bytes / min_group_bytes) {
        return Malformed("response group count implausible");
      }
      result = ApproximateResult(key_width, num_aggs);
      result.Reserve(num_groups);
    } else if (num_aggs != result.num_aggregates()) {
      return Malformed("response groups differ in aggregate count");
    }
    const char* numbers = nullptr;
    uint64_t support = 0;
    uint8_t provenance = 0;
    if (!in.GetBytes(24 * size_t{num_aggs}, &numbers) || !in.GetU64(&support) ||
        !in.GetU8(&provenance) ||
        provenance > static_cast<uint8_t>(GroupProvenance::kCombined)) {
      return Malformed("response group truncated");
    }
    std::span<double> out =
        result.Add(key, support, static_cast<GroupProvenance>(provenance));
    if (!out.empty()) std::memcpy(out.data(), numbers, out.size_bytes());
  }
  if (in.remaining() != 0) return Malformed("trailing bytes after response");
  return response;
}

}  // namespace congress::net
