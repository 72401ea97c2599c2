#include "net/client.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/metrics.h"

namespace congress::net {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::milliseconds RemainingMs(Clock::time_point deadline) {
  return std::max(std::chrono::milliseconds(0),
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now()));
}

}  // namespace

AquaClient::AquaClient(std::string host, uint16_t port, ClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      backoff_(options.backoff, options.seed) {}

AquaClient::~AquaClient() = default;

void AquaClient::Disconnect() { socket_.Close(); }

bool AquaClient::IsRetryable(const Status& status,
                             const serve::Request& request) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kResourceExhausted:
    case StatusCode::kIOError:
      break;
    default:
      // Deterministic failures (InvalidArgument, FailedPrecondition, ...)
      // would fail identically on retry; DeadlineExceeded means the
      // budget is gone either way.
      return false;
  }
  // An insert without an idempotency token must not be re-sent: the
  // failed attempt's outcome is unknown, and a second send could apply
  // the batch twice. With a token the front-end deduplicates.
  if (request.mode == serve::QueryMode::kInsert &&
      request.idempotency_token.empty()) {
    return false;
  }
  return true;
}

Status AquaClient::EnsureConnected() {
  if (socket_.valid()) return Status::OK();
  auto socket = ConnectTo(host_, port_, options_.connect_timeout);
  CONGRESS_RETURN_NOT_OK(socket.status());
  socket_ = std::move(*socket);
  stats_.reconnects++;
  CONGRESS_METRIC_INCR("net.client_reconnects", 1);
  return Status::OK();
}

Result<serve::Response> AquaClient::Call(const serve::Request& request) {
  const bool has_deadline = request.deadline.count() > 0;
  const Clock::time_point overall_deadline =
      has_deadline ? Clock::now() + request.deadline : Clock::time_point::max();

  backoff_.Reset();
  Status last = Status::Unavailable("no attempt made");
  for (size_t attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    if (attempt > 1) {
      stats_.retries++;
      CONGRESS_METRIC_INCR("net.client_retries", 1);
      auto delay = backoff_.NextDelay();
      if (has_deadline) {
        const auto budget = RemainingMs(overall_deadline);
        if (budget.count() <= 0) {
          return Status::DeadlineExceeded(
              "deadline exhausted after " + std::to_string(attempt - 1) +
              " attempt(s): " + last.message());
        }
        delay = std::min(delay, budget);
      }
      std::this_thread::sleep_for(delay);
    }
    stats_.attempts++;

    auto response = Attempt(request, overall_deadline, has_deadline);
    if (response.ok()) {
      // The server answered. Retry only retryable *server* rejections
      // (queue full, draining); anything else is the caller's answer.
      if (!IsRetryable(response->status, request) ||
          attempt == options_.max_attempts) {
        return response;
      }
      last = response->status;
      continue;
    }
    last = response.status();
    if (last.code() == StatusCode::kDeadlineExceeded ||
        !IsRetryable(last, request)) {
      return last;
    }
  }
  return last;
}

Result<serve::Response> AquaClient::Query(const std::string& sql) {
  serve::Request request;
  request.sql = sql;
  request.mode = serve::QueryMode::kApproximate;
  return Call(request);
}

Result<serve::Response> AquaClient::Insert(
    const std::string& table, std::vector<std::vector<Value>> rows,
    const std::string& idempotency_token) {
  serve::Request request;
  request.mode = serve::QueryMode::kInsert;
  request.table = table;
  request.rows = std::move(rows);
  request.idempotency_token = idempotency_token;
  return Call(request);
}

Result<serve::Response> AquaClient::Attempt(const serve::Request& request,
                                            Clock::time_point deadline,
                                            bool has_deadline) {
  Status connected = EnsureConnected();
  if (!connected.ok()) {
    stats_.transport_errors++;
    return connected;
  }

  // Re-anchor the deadline as a relative remaining budget for the wire.
  serve::Request wire_request = request;
  if (has_deadline) {
    wire_request.deadline = RemainingMs(deadline);
    if (wire_request.deadline.count() <= 0) {
      return Status::DeadlineExceeded("deadline exhausted before send");
    }
  }

  const uint64_t correlation_id = next_correlation_id_++;
  std::string frame;
  AppendRequestFrame(correlation_id, wire_request, &frame);

  Status sent = WriteFull(frame.data(), frame.size(), deadline);
  if (!sent.ok()) {
    stats_.transport_errors++;
    Disconnect();
    return sent;
  }

  char header_buf[kFrameHeaderBytes];
  Status read = ReadFull(header_buf, kFrameHeaderBytes, deadline);
  if (!read.ok()) {
    stats_.transport_errors++;
    Disconnect();
    return read;
  }
  auto header = DecodeFrameHeader(header_buf, kFrameHeaderBytes,
                                  options_.max_frame_bytes);
  if (!header.ok()) {
    // The stream is out of protocol; nothing on this connection can be
    // trusted any more.
    stats_.transport_errors++;
    Disconnect();
    return Status::Unavailable("protocol violation from server: " +
                               header.status().message());
  }
  std::string payload(header->payload_length, '\0');
  read = ReadFull(payload.data(), payload.size(), deadline);
  if (!read.ok()) {
    stats_.transport_errors++;
    Disconnect();
    return read;
  }
  Status crc = VerifyFramePayload(*header, payload.data(), payload.size());
  if (!crc.ok() || header->type != FrameType::kResponse ||
      header->correlation_id != correlation_id) {
    stats_.transport_errors++;
    Disconnect();
    return Status::Unavailable("protocol violation from server: " +
                               (crc.ok() ? std::string("frame mismatch")
                                         : crc.message()));
  }
  auto response = DecodeResponse(payload.data(), payload.size());
  if (!response.ok()) {
    stats_.transport_errors++;
    Disconnect();
    return Status::Unavailable("undecodable response: " +
                               response.status().message());
  }
  return response;
}

Status AquaClient::ReadFull(char* buf, size_t len, Clock::time_point deadline) {
  size_t done = 0;
  while (done < len) {
    const auto budget = std::min(
        options_.read_timeout,
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now()));
    if (budget.count() <= 0) {
      return Status::DeadlineExceeded("deadline exhausted mid-read");
    }
    IoResult r = ReadSome(socket_.fd(), buf + done, len - done);
    switch (r.kind) {
      case IoResult::Kind::kOk:
        done += r.bytes;
        continue;
      case IoResult::Kind::kWouldBlock:
        // Injected EAGAIN (or a genuinely slow server on a non-blocking
        // fd): wait for readability within the per-read timeout.
        if (!WaitReadable(socket_.fd(), budget)) {
          return Status::Unavailable("read timed out after " +
                                     std::to_string(budget.count()) + "ms");
        }
        continue;
      case IoResult::Kind::kEof:
        return Status::Unavailable("connection closed by server");
      case IoResult::Kind::kReset:
        return Status::Unavailable("connection reset");
      case IoResult::Kind::kError:
        return Status::IOError("read failed: errno " +
                               std::to_string(r.error));
    }
  }
  return Status::OK();
}

Status AquaClient::WriteFull(const char* buf, size_t len,
                             Clock::time_point deadline) {
  size_t done = 0;
  while (done < len) {
    const auto budget = std::min(
        options_.write_timeout,
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now()));
    if (budget.count() <= 0) {
      return Status::DeadlineExceeded("deadline exhausted mid-write");
    }
    IoResult r = WriteSome(socket_.fd(), buf + done, len - done);
    switch (r.kind) {
      case IoResult::Kind::kOk:
        done += r.bytes;
        continue;
      case IoResult::Kind::kWouldBlock:
        if (!WaitWritable(socket_.fd(), budget)) {
          return Status::Unavailable("write timed out after " +
                                     std::to_string(budget.count()) + "ms");
        }
        continue;
      case IoResult::Kind::kEof:
      case IoResult::Kind::kReset:
        return Status::Unavailable("connection reset");
      case IoResult::Kind::kError:
        return Status::IOError("write failed: errno " +
                               std::to_string(r.error));
    }
  }
  return Status::OK();
}

}  // namespace congress::net
