#include "net/front_end.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace congress::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kReadChunkBytes = 16 * 1024;

}  // namespace

void TcpFrontEnd::CompletionQueue::Push(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!closed) {
      items.push_back(std::move(completion));
      if (wake_fd >= 0) {
        const char byte = 1;
        (void)!::write(wake_fd, &byte, 1);
      }
    }
    // When closed, the response is dropped: the request still resolved
    // to a definite Status on the server side, there is just no
    // connection left to carry it.
  }
  outstanding.fetch_sub(1, std::memory_order_acq_rel);
}

void TcpFrontEnd::CompletionQueue::Wake() {
  std::lock_guard<std::mutex> lock(mu);
  if (wake_fd >= 0) {
    const char byte = 1;
    (void)!::write(wake_fd, &byte, 1);
  }
}

void TcpFrontEnd::CompletionQueue::Close() {
  std::lock_guard<std::mutex> lock(mu);
  closed = true;
  if (wake_fd >= 0) {
    ::close(wake_fd);
    wake_fd = -1;
  }
  items.clear();
}

TcpFrontEnd::CompletionQueue::~CompletionQueue() {
  if (wake_fd >= 0) ::close(wake_fd);
}

TcpFrontEnd::TcpFrontEnd(serve::AquaServer* server, FrontEndOptions options)
    : server_(server), options_(std::move(options)) {}

TcpFrontEnd::~TcpFrontEnd() { Stop(); }

Status TcpFrontEnd::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("front-end already started");
  }
  auto listener = Listen(options_.host, options_.port,
                         options_.listen_backlog);
  CONGRESS_RETURN_NOT_OK(listener.status());
  auto port = LocalPort(listener->fd());
  CONGRESS_RETURN_NOT_OK(port.status());

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IOError("pipe: wakeup channel creation failed");
  }
  wake_read_ = Socket(pipe_fds[0]);
  CONGRESS_RETURN_NOT_OK(SetNonBlocking(pipe_fds[0], true));
  CONGRESS_RETURN_NOT_OK(SetNonBlocking(pipe_fds[1], true));

  completions_ = std::make_shared<CompletionQueue>();
  completions_->wake_fd = pipe_fds[1];

  listener_ = std::move(*listener);
  port_ = *port;
  stopping_.store(false, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void TcpFrontEnd::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  completions_->Wake();
  if (loop_.joinable()) loop_.join();
  completions_->Close();
  started_.store(false, std::memory_order_release);
}

FrontEndStats TcpFrontEnd::stats() const {
  FrontEndStats stats;
  stats.accepts = accepts_.load(std::memory_order_relaxed);
  stats.rejected_connections =
      rejected_connections_.load(std::memory_order_relaxed);
  stats.resets = resets_.load(std::memory_order_relaxed);
  stats.malformed_frames = malformed_frames_.load(std::memory_order_relaxed);
  stats.oversize_frames = oversize_frames_.load(std::memory_order_relaxed);
  stats.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  stats.slowloris_cutoff = slowloris_cutoff_.load(std::memory_order_relaxed);
  stats.idempotent_hits = idempotent_hits_.load(std::memory_order_relaxed);
  stats.frames_in = frames_in_.load(std::memory_order_relaxed);
  stats.frames_out = frames_out_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  stats.connections_active =
      connections_active_.load(std::memory_order_relaxed);
  return stats;
}

void TcpFrontEnd::Loop() {
  bool draining = false;
  Clock::time_point drain_deadline{};

  std::vector<pollfd> pollfds;
  std::vector<uint64_t> poll_conn_ids;

  for (;;) {
    const Clock::time_point now = Clock::now();

    if (stopping_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_deadline = now + options_.drain_timeout;
      listener_.Close();
    }

    if (draining) {
      // Settle finished requests first: even if their connections are
      // gone, idempotency outcomes must land in the cache before the
      // loop decides it is idle.
      DrainCompletions();

      // Connections with nothing left to deliver can go now.
      std::vector<uint64_t> done;
      for (auto& [id, conn] : connections_) {
        if (conn.inflight == 0 && conn.write_off >= conn.write_buf.size()) {
          done.push_back(id);
        }
      }
      for (uint64_t id : done) CloseConnection(id);

      const bool idle =
          connections_.empty() &&
          completions_->outstanding.load(std::memory_order_acquire) == 0;
      if (idle || now >= drain_deadline) {
        // Push enqueues before it decrements `outstanding`, so once the
        // counter reads zero one more sweep observes every completion.
        DrainCompletions();
        std::vector<uint64_t> rest;
        rest.reserve(connections_.size());
        for (auto& [id, conn] : connections_) rest.push_back(id);
        for (uint64_t id : rest) CloseConnection(id);
        // Anything still pending past the bound is abandoned; a retry
        // after restart re-executes, which is the honest outcome when
        // the first execution was cut off mid-drain.
        pending_inserts_.clear();
        return;
      }
    } else {
      ReapStale(now);
    }

    pollfds.clear();
    poll_conn_ids.clear();
    pollfds.push_back({wake_read_.fd(), POLLIN, 0});
    const bool accepting =
        !draining && connections_.size() < options_.max_connections;
    if (listener_.valid()) {
      pollfds.push_back(
          {listener_.fd(), static_cast<short>(accepting ? POLLIN : 0), 0});
    }
    const size_t conns_base = pollfds.size();
    for (auto& [id, conn] : connections_) {
      short events = 0;
      const bool backpressured =
          conn.inflight >= options_.max_inflight_per_connection ||
          conn.write_buf.size() - conn.write_off >
              options_.max_buffered_response_bytes;
      if (!draining && !backpressured) events |= POLLIN;
      if (conn.write_off < conn.write_buf.size()) events |= POLLOUT;
      pollfds.push_back({conn.socket.fd(), events, 0});
      poll_conn_ids.push_back(id);
    }

    int timeout_ms = static_cast<int>(options_.poll_interval.count());
    if (draining) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              drain_deadline - now);
      timeout_ms = std::max(
          1, std::min(timeout_ms, static_cast<int>(remaining.count())));
    }
    const int ready =
        ::poll(pollfds.data(), pollfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) return;  // Poll itself broke; bail.

    // Drain the wake pipe and the completion queue first so responses
    // are in write buffers before we consider POLLOUT flushes.
    if (pollfds[0].revents & POLLIN) {
      char buf[256];
      while (true) {
        IoResult r = ReadSome(wake_read_.fd(), buf, sizeof(buf));
        if (r.kind != IoResult::Kind::kOk) break;
      }
    }
    DrainCompletions();

    // Backpressure may have cleared (completions lowered inflight, or a
    // POLLOUT flush will drain the write buffer below): complete frames
    // parked in read buffers are re-parsed here, because no new bytes
    // will arrive to trigger ReadReady for them. mid_frame distinguishes
    // a genuinely partial tail (nothing to parse until the peer sends
    // more) from parked complete frames.
    if (!draining) {
      std::vector<uint64_t> parked;
      for (auto& [id, conn] : connections_) {
        if (!conn.read_buf.empty() && !conn.mid_frame &&
            conn.inflight < options_.max_inflight_per_connection) {
          parked.push_back(id);
        }
      }
      for (uint64_t id : parked) {
        auto it = connections_.find(id);
        if (it == connections_.end()) continue;
        (void)ConsumeFrames(&it->second, now);
      }
    }

    if (listener_.valid() && pollfds.size() > 1 &&
        (pollfds[1].revents & POLLIN)) {
      AcceptReady(now);
    }

    for (size_t i = 0; i < poll_conn_ids.size(); ++i) {
      const uint64_t id = poll_conn_ids[i];
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // Closed this round.
      Connection* conn = &it->second;
      const short revents = pollfds[conns_base + i].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Flush whatever the peer can still take, then close.
        if (conn->write_off < conn->write_buf.size()) {
          (void)FlushWrites(conn);
        }
        resets_.fetch_add(1, std::memory_order_relaxed);
        CONGRESS_METRIC_INCR("net.resets", 1);
        CloseConnection(id);
        continue;
      }
      if (revents & POLLIN) {
        if (!ReadReady(conn, now)) continue;
      }
      if (revents & POLLOUT) {
        (void)FlushWrites(conn);
      }
    }
  }
}

void TcpFrontEnd::AcceptReady(Clock::time_point now) {
  // Accept everything pending; the loop is level-triggered so a
  // transient failpoint-injected failure just retries next round.
  for (;;) {
    if (connections_.size() >= options_.max_connections) return;
    auto accepted = AcceptConnection(listener_.fd());
    if (!accepted.ok()) return;
    accepts_.fetch_add(1, std::memory_order_relaxed);
    CONGRESS_METRIC_INCR("net.accepts", 1);
    auto session = server_->OpenSession();
    if (!session.ok()) {
      rejected_connections_.fetch_add(1, std::memory_order_relaxed);
      CONGRESS_METRIC_INCR("net.rejected_connections", 1);
      continue;  // Socket closes via RAII; peer sees a reset.
    }
    Connection conn;
    conn.id = next_connection_id_++;
    conn.socket = std::move(*accepted);
    conn.session = *session;
    conn.last_activity = now;
    connections_.emplace(conn.id, std::move(conn));
    connections_active_.store(connections_.size(),
                              std::memory_order_relaxed);
    CONGRESS_METRIC_SET("net.connections_active",
                        static_cast<double>(connections_.size()));
  }
}

bool TcpFrontEnd::ReadReady(Connection* conn, Clock::time_point now) {
  char chunk[kReadChunkBytes];
  for (;;) {
    IoResult r = ReadSome(conn->socket.fd(), chunk, sizeof(chunk));
    if (r.kind == IoResult::Kind::kOk) {
      conn->read_buf.append(chunk, r.bytes);
      bytes_in_.fetch_add(r.bytes, std::memory_order_relaxed);
      CONGRESS_METRIC_INCR("net.bytes_in", static_cast<int64_t>(r.bytes));
      conn->last_activity = now;
      if (!ConsumeFrames(conn, now)) return false;
      // A short read usually means the socket is drained; one more
      // loop iteration costs an EAGAIN, so only continue on full
      // chunks.
      if (r.bytes < sizeof(chunk)) return true;
      // Backpressure can flip mid-read burst; stop pulling then.
      if (conn->inflight >= options_.max_inflight_per_connection ||
          conn->write_buf.size() - conn->write_off >
              options_.max_buffered_response_bytes) {
        return true;
      }
      continue;
    }
    if (r.kind == IoResult::Kind::kWouldBlock) return true;
    if (r.kind == IoResult::Kind::kEof) {
      CloseConnection(conn->id);
      return false;
    }
    resets_.fetch_add(1, std::memory_order_relaxed);
    CONGRESS_METRIC_INCR("net.resets", 1);
    CloseConnection(conn->id);
    return false;
  }
}

bool TcpFrontEnd::ConsumeFrames(Connection* conn, Clock::time_point now) {
  size_t consumed = 0;
  // Distinguishes "stopped on an incomplete frame" (slowloris clock
  // applies) from "stopped on backpressure with complete frames still
  // buffered" (they are re-parsed when inflight drains, no clock).
  bool stalled_on_partial = false;
  const std::string& buf = conn->read_buf;
  while (conn->inflight < options_.max_inflight_per_connection) {
    const size_t available = buf.size() - consumed;
    if (available < kFrameHeaderBytes) {
      stalled_on_partial = available > 0;
      break;
    }
    auto header = DecodeFrameHeader(buf.data() + consumed, available,
                                    options_.max_frame_bytes);
    if (!header.ok()) {
      if (header.status().code() == StatusCode::kOutOfRange) {
        oversize_frames_.fetch_add(1, std::memory_order_relaxed);
        CONGRESS_METRIC_INCR("net.oversize_frames", 1);
      } else {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        CONGRESS_METRIC_INCR("net.malformed_frames", 1);
      }
      CloseConnection(conn->id);
      return false;
    }
    if (header->type != FrameType::kRequest) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      CONGRESS_METRIC_INCR("net.malformed_frames", 1);
      CloseConnection(conn->id);
      return false;
    }
    const size_t frame_size = kFrameHeaderBytes + header->payload_length;
    if (available < frame_size) {  // Partial frame; wait for more.
      stalled_on_partial = true;
      break;
    }

    const char* payload = buf.data() + consumed + kFrameHeaderBytes;
    Status crc = VerifyFramePayload(*header, payload, header->payload_length);
    if (!crc.ok()) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      CONGRESS_METRIC_INCR("net.malformed_frames", 1);
      CloseConnection(conn->id);
      return false;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    CONGRESS_METRIC_INCR("net.frames_in", 1);

    auto request = DecodeRequest(payload, header->payload_length);
    if (!request.ok()) {
      // The stream is still correctly framed (CRC passed), so the
      // connection survives; only this request is rejected.
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      CONGRESS_METRIC_INCR("net.malformed_frames", 1);
      serve::Response response;
      response.status = request.status();
      // A false return means the reply's eager flush failed and the
      // connection was already closed — `conn` (and `buf`) are gone.
      if (!QueueResponse(conn, header->correlation_id, response)) {
        return false;
      }
    } else {
      if (!DispatchRequest(conn, header->correlation_id,
                           std::move(*request))) {
        return false;
      }
    }
    consumed += frame_size;
  }

  if (consumed > 0) conn->read_buf.erase(0, consumed);
  const bool mid_frame = !conn->read_buf.empty() && stalled_on_partial;
  if (mid_frame && !conn->mid_frame) conn->frame_start = now;
  conn->mid_frame = mid_frame;
  return true;
}

bool TcpFrontEnd::DispatchRequest(Connection* conn, uint64_t correlation_id,
                                  serve::Request request) {
  // Tokened insert: execute at most once per token. A token with a
  // settled outcome answers from the cache; a token still executing
  // (the client retried before the first run finished) piggybacks on
  // that execution instead of starting a second one.
  if (request.mode == serve::QueryMode::kInsert &&
      !request.idempotency_token.empty()) {
    auto settled = insert_results_.find(request.idempotency_token);
    if (settled != insert_results_.end()) {
      idempotent_hits_.fetch_add(1, std::memory_order_relaxed);
      CONGRESS_METRIC_INCR("net.idempotent_hits", 1);
      serve::Response response;
      response.status = settled->second;
      return QueueResponse(conn, correlation_id, response);
    }
    auto [pending, first] = pending_inserts_.emplace(
        request.idempotency_token,
        std::vector<std::pair<uint64_t, uint64_t>>{});
    pending->second.emplace_back(conn->id, correlation_id);
    conn->inflight++;
    if (!first) {
      idempotent_hits_.fetch_add(1, std::memory_order_relaxed);
      CONGRESS_METRIC_INCR("net.idempotent_hits", 1);
      return true;  // The in-flight execution will answer this waiter too.
    }
  } else {
    conn->inflight++;
  }

  completions_->outstanding.fetch_add(1, std::memory_order_acq_rel);
  std::shared_ptr<CompletionQueue> queue = completions_;
  const uint64_t connection_id = conn->id;
  std::string token = request.mode == serve::QueryMode::kInsert
                          ? request.idempotency_token
                          : std::string();
  server_->SubmitAsync(
      conn->session, std::move(request),
      [queue, connection_id, correlation_id,
       token = std::move(token)](serve::Response response) {
        Completion completion;
        completion.connection_id = connection_id;
        completion.correlation_id = correlation_id;
        completion.idempotency_token = std::move(token);
        completion.response = std::move(response);
        queue->Push(std::move(completion));
      });
  return true;
}

bool TcpFrontEnd::QueueResponse(Connection* conn, uint64_t correlation_id,
                                const serve::Response& response) {
  Status fits = AppendResponseFrame(correlation_id, response,
                                    options_.max_frame_bytes, &conn->write_buf);
  if (!fits.ok()) {
    // The peer would refuse the oversize frame as a protocol violation
    // and retry the query; a definite OutOfRange answers it instead and
    // keeps the connection.
    serve::Response refusal;
    refusal.status = std::move(fits);
    (void)AppendResponseFrame(correlation_id, refusal,
                              std::numeric_limits<size_t>::max(),
                              &conn->write_buf);
  }
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  CONGRESS_METRIC_INCR("net.frames_out", 1);
  return FlushWrites(conn);
}

bool TcpFrontEnd::FlushWrites(Connection* conn) {
  while (conn->write_off < conn->write_buf.size()) {
    IoResult r = WriteSome(conn->socket.fd(),
                           conn->write_buf.data() + conn->write_off,
                           conn->write_buf.size() - conn->write_off);
    if (r.kind == IoResult::Kind::kOk) {
      conn->write_off += r.bytes;
      bytes_out_.fetch_add(r.bytes, std::memory_order_relaxed);
      CONGRESS_METRIC_INCR("net.bytes_out", static_cast<int64_t>(r.bytes));
      continue;
    }
    if (r.kind == IoResult::Kind::kWouldBlock) return true;
    resets_.fetch_add(1, std::memory_order_relaxed);
    CONGRESS_METRIC_INCR("net.resets", 1);
    CloseConnection(conn->id);
    return false;
  }
  if (conn->write_off == conn->write_buf.size()) {
    conn->write_buf.clear();
    conn->write_off = 0;
  }
  return true;
}

void TcpFrontEnd::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    batch.swap(completions_->items);
  }
  for (Completion& completion : batch) {
    if (!completion.idempotency_token.empty()) {
      // One execution answers every waiter that piggybacked on the
      // token, then the outcome settles into the bounded cache.
      RecordIdempotentInsert(completion.idempotency_token,
                             completion.response.status);
      auto pending = pending_inserts_.find(completion.idempotency_token);
      if (pending != pending_inserts_.end()) {
        for (const auto& [connection_id, correlation_id] : pending->second) {
          auto it = connections_.find(connection_id);
          if (it == connections_.end()) continue;  // Connection died first.
          it->second.inflight--;
          // A closed connection is fine here: each waiter re-looks its
          // connection up, nothing holds the pointer across iterations.
          (void)QueueResponse(&it->second, correlation_id,
                              completion.response);
        }
        pending_inserts_.erase(pending);
      }
      continue;
    }
    auto it = connections_.find(completion.connection_id);
    if (it == connections_.end()) continue;  // Connection died first.
    it->second.inflight--;
    (void)QueueResponse(&it->second, completion.correlation_id,
                        completion.response);
  }
}

void TcpFrontEnd::RecordIdempotentInsert(const std::string& token,
                                         const Status& status) {
  // Only settled outcomes are worth caching: an admission rejection
  // (queue full, server stopping) should be retried for real. The same
  // goes for a deadline that expired while the request sat in the queue
  // — the insert never executed, so a fresh call with the same token
  // must be allowed to run rather than be answered "expired" forever.
  if (status.code() == StatusCode::kResourceExhausted ||
      status.code() == StatusCode::kUnavailable ||
      status.code() == StatusCode::kDeadlineExceeded) {
    return;
  }
  auto [it, inserted] = insert_results_.emplace(token, status);
  if (!inserted) return;
  insert_order_.push_back(token);
  while (insert_order_.size() > options_.idempotency_cache_size) {
    insert_results_.erase(insert_order_.front());
    insert_order_.pop_front();
  }
}

void TcpFrontEnd::CloseConnection(uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  (void)server_->CloseSession(it->second.session);
  connections_.erase(it);
  connections_active_.store(connections_.size(), std::memory_order_relaxed);
  CONGRESS_METRIC_SET("net.connections_active",
                      static_cast<double>(connections_.size()));
}

void TcpFrontEnd::ReapStale(Clock::time_point now) {
  std::vector<uint64_t> reap_idle;
  std::vector<uint64_t> reap_slowloris;
  for (auto& [id, conn] : connections_) {
    if (conn.mid_frame && now - conn.frame_start >= options_.frame_timeout) {
      reap_slowloris.push_back(id);
      continue;
    }
    if (conn.inflight == 0 && conn.write_buf.empty() &&
        now - conn.last_activity >= options_.idle_timeout) {
      reap_idle.push_back(id);
    }
  }
  for (uint64_t id : reap_slowloris) {
    slowloris_cutoff_.fetch_add(1, std::memory_order_relaxed);
    CONGRESS_METRIC_INCR("net.slowloris_cutoff", 1);
    CloseConnection(id);
  }
  for (uint64_t id : reap_idle) {
    idle_reaped_.fetch_add(1, std::memory_order_relaxed);
    CONGRESS_METRIC_INCR("net.idle_reaped", 1);
    CloseConnection(id);
  }
}

}  // namespace congress::net
