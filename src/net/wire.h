#ifndef CONGRESS_NET_WIRE_H_
#define CONGRESS_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/server.h"
#include "util/status.h"

namespace congress::net {

/// The framed wire protocol the TCP front-end speaks (format "CGNW01").
///
/// Every message is one frame: a fixed 24-byte header followed by a
/// payload whose integrity is covered by a masked CRC-32C (the same
/// Castagnoli polynomial and masking the snapshot format uses). The
/// header is deliberately dumb — magic, version, type, a correlation id
/// echoed from request to response, payload length, payload CRC — so a
/// reader can reject garbage before buffering anything expensive:
///
///   offset  size  field
///        0     4  magic 0x43474E57 ("CGNW" little-endian)
///        4     1  version (kWireVersion)
///        5     1  frame type (FrameType)
///        6     2  flags (must be zero in version 1)
///        8     8  correlation id (echoed verbatim in the response)
///       16     4  payload length (bytes; bounded by the reader's max)
///       20     4  masked CRC-32C of the payload bytes
///
/// Integers are little-endian throughout (resilience::wire primitives).
/// Deadlines travel as *relative* remaining-budget milliseconds, never
/// absolute timestamps: each process re-anchors the budget on its own
/// steady_clock, so wall-clock adjustments on either end cannot expire
/// (or resurrect) a request in flight.

inline constexpr uint32_t kWireMagic = 0x43474E57u;  // "WNGC" on disk: LE.
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 24;

/// Default ceiling on a single frame's payload. Connections advertising
/// more are cut off before any payload is buffered (hostile-input
/// hardening: a 4-byte header field must not allocate 4GB).
inline constexpr size_t kDefaultMaxFrameBytes = 4u << 20;

/// Ceiling on a decoded request deadline (4 hours). The wire field is an
/// untrusted uint64 of milliseconds; a hostile value near 2^62 would
/// overflow the steady_clock arithmetic in AquaServer::Enqueue
/// (`enqueued + budget` on the nanosecond rep), which is UB. Decoding
/// saturates here — any budget past a few hours is indistinguishable
/// from "no deadline" for an interactive AQP request anyway.
inline constexpr uint64_t kMaxDeadlineMs = 4ull * 60 * 60 * 1000;

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

struct FrameHeader {
  uint8_t version = kWireVersion;
  FrameType type = FrameType::kRequest;
  uint64_t correlation_id = 0;
  uint32_t payload_length = 0;
  uint32_t masked_crc = 0;
};

/// Serializes a header+payload into `out` (appends). The CRC is computed
/// here; callers never fill `masked_crc` themselves.
void EncodeFrame(FrameType type, uint64_t correlation_id,
                 const std::string& payload, std::string* out);

/// Appends a whole request frame to `out`: the payload is encoded in
/// place, straight into `out`, and its header written ahead of it. The
/// bytes equal EncodeFrame over EncodeRequest.
void AppendRequestFrame(uint64_t correlation_id, const serve::Request& request,
                        std::string* out);

/// Appends a whole response frame to `out` as AppendRequestFrame does. An
/// answer whose payload would exceed `max_payload_bytes` is not written:
/// OutOfRange ("answer of N bytes exceeds frame limit M"), `out` as it
/// was.
Status AppendResponseFrame(uint64_t correlation_id,
                           const serve::Response& response,
                           size_t max_payload_bytes, std::string* out);

/// Parses the fixed header from `data` (at least kFrameHeaderBytes).
/// Rejects bad magic, unknown version, unknown type, and nonzero flags
/// with InvalidArgument, and payloads over `max_frame_bytes` with
/// OutOfRange — all before the payload is read.
Result<FrameHeader> DecodeFrameHeader(const char* data, size_t size,
                                      size_t max_frame_bytes);

/// Verifies `payload` against the header's CRC.
Status VerifyFramePayload(const FrameHeader& header, const char* payload,
                          size_t size);

/// Request/response body codecs. Encoding never fails; it sizes the
/// payload exactly first and then copies little-endian words into it,
/// each group's estimates, standard errors and bounds as one block.
/// Decoding returns InvalidArgument on any structural violation
/// (truncation, bad enum tags, length lies, groups of one answer that
/// differ in key width or aggregate count) and never reads past the
/// payload; a response's groups are decoded straight into an answer
/// sized for all of them.
std::string EncodeRequest(const serve::Request& request);
Result<serve::Request> DecodeRequest(const char* payload, size_t size);

std::string EncodeResponse(const serve::Response& response);
Result<serve::Response> DecodeResponse(const char* payload, size_t size);

}  // namespace congress::net

#endif  // CONGRESS_NET_WIRE_H_
