#ifndef CONGRESS_NET_FRONT_END_H_
#define CONGRESS_NET_FRONT_END_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "serve/server.h"
#include "util/status.h"

namespace congress::net {

/// Knobs for the TCP front-end. Defaults are sized for tests; a real
/// deployment raises the connection and frame limits.
struct FrontEndOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back with port().
  uint16_t port = 0;
  size_t max_connections = 64;
  int listen_backlog = 64;
  /// Frames advertising a larger payload are rejected at the header,
  /// before any payload is buffered. The limit bounds outgoing frames
  /// too: an answer whose payload would exceed it is replied to with an
  /// OutOfRange status instead, on the same connection.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Backpressure: a connection whose un-flushed response bytes exceed
  /// this stops being read until the peer drains it.
  size_t max_buffered_response_bytes = 1u << 20;
  /// Backpressure: requests in flight per connection before reads pause.
  size_t max_inflight_per_connection = 16;
  /// Connections idle (no frames, nothing in flight) this long are
  /// reaped.
  std::chrono::milliseconds idle_timeout{30000};
  /// Slowloris cutoff: a partial frame must complete within this.
  std::chrono::milliseconds frame_timeout{5000};
  /// Stop() bound: in-flight requests get this long to resolve and
  /// flush; connections still open afterwards are closed anyway.
  std::chrono::milliseconds drain_timeout{5000};
  /// Upper bound on one poll() sleep (idle/slowloris checks run at
  /// least this often).
  std::chrono::milliseconds poll_interval{100};
  /// Completed kInsert idempotency tokens remembered for retry dedup.
  size_t idempotency_cache_size = 1024;
};

/// Counters mirrored into obs `net.*` metrics; all monotonic except
/// `connections_active`.
struct FrontEndStats {
  uint64_t accepts = 0;
  uint64_t rejected_connections = 0;
  uint64_t connections_active = 0;
  uint64_t resets = 0;
  uint64_t malformed_frames = 0;
  uint64_t oversize_frames = 0;
  uint64_t idle_reaped = 0;
  uint64_t slowloris_cutoff = 0;
  uint64_t idempotent_hits = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

/// The network half of "Aqua as a server": a single poll()-driven event
/// loop that accepts framed-protocol connections (net/wire.h), opens one
/// AquaServer session per connection, and dispatches each request frame
/// into the server's queue via SubmitAsync — so the loop never blocks on
/// query execution and the worker pool never touches a socket. Completed
/// responses come back through a self-pipe-woken completion queue and
/// are flushed under per-connection write buffering.
///
/// Robustness posture (every socket syscall runs through the
/// failpoint-instrumented shim in net/socket.h):
///   * hostile input — magic/version/flags/CRC violations and oversize
///     frames close the connection before payload buffering; a framed
///     but undecodable request body gets an InvalidArgument response;
///   * backpressure — reads pause while a connection has too many
///     requests in flight or too many un-flushed response bytes;
///   * reaping — idle connections and slowloris partial frames are cut;
///   * drain — Stop() resolves every dispatched request to a definite
///     Status and flushes what it can within `drain_timeout`, then
///     closes everything; late completions after the bound are dropped
///     safely (the completion queue outlives the loop via shared_ptr);
///   * insert idempotency — a kInsert carrying an idempotency token is
///     executed at most once per token; retries of a completed token are
///     answered from a bounded cache without re-executing.
///
/// Obs: net.accepts, net.rejected_connections, net.connections_active
/// (gauge), net.resets, net.malformed_frames, net.idle_reaped,
/// net.slowloris_cutoff, net.idempotent_hits, net.frames_{in,out},
/// net.bytes_{in,out}. All no-ops under CONGRESS_DISABLE_OBS.
///
/// The server must be Start()ed by the caller and must outlive the
/// front-end; its max_sessions should be at least max_connections.
class TcpFrontEnd {
 public:
  TcpFrontEnd(serve::AquaServer* server, FrontEndOptions options);
  ~TcpFrontEnd();

  TcpFrontEnd(const TcpFrontEnd&) = delete;
  TcpFrontEnd& operator=(const TcpFrontEnd&) = delete;

  /// Binds, listens, and spawns the event loop. Fails if already
  /// started or the address cannot be bound.
  Status Start();

  /// Drains and shuts down (see class comment). Idempotent.
  void Stop();

  /// The bound port (valid after Start(); resolves port 0 bindings).
  uint16_t port() const { return port_; }

  FrontEndStats stats() const;

 private:
  struct Completion {
    uint64_t connection_id = 0;
    uint64_t correlation_id = 0;
    std::string idempotency_token;
    serve::Response response;
  };

  /// Callback-to-loop handoff. Heap-shared so a worker thread finishing
  /// a request after Stop() writes into live memory regardless of the
  /// front-end's lifetime; `closed` flips when the loop stops draining.
  struct CompletionQueue {
    std::mutex mu;
    std::deque<Completion> items;
    int wake_fd = -1;
    bool closed = false;
    /// Requests dispatched into the server whose callback has not run
    /// yet. Lives here (not on the front-end) so late callbacks touch
    /// only queue-owned memory.
    std::atomic<uint64_t> outstanding{0};

    void Push(Completion completion);
    void Wake();
    void Close();
    ~CompletionQueue();
  };

  struct Connection {
    uint64_t id = 0;
    Socket socket;
    uint64_t session = 0;
    std::string read_buf;
    std::string write_buf;
    size_t write_off = 0;
    size_t inflight = 0;
    std::chrono::steady_clock::time_point last_activity;
    /// Set while read_buf holds a partial frame (slowloris clock).
    std::chrono::steady_clock::time_point frame_start;
    bool mid_frame = false;
  };

  void Loop();
  void AcceptReady(std::chrono::steady_clock::time_point now);
  /// Returns false when the connection died and was closed.
  bool ReadReady(Connection* conn, std::chrono::steady_clock::time_point now);
  bool FlushWrites(Connection* conn);
  /// Parses complete frames out of conn->read_buf and dispatches them.
  bool ConsumeFrames(Connection* conn,
                     std::chrono::steady_clock::time_point now);
  /// Every callee that can close the connection (the eager flush inside
  /// QueueResponse hits the socket) returns false when it did, so no
  /// caller keeps a dangling Connection*.
  bool DispatchRequest(Connection* conn, uint64_t correlation_id,
                       serve::Request request);
  bool QueueResponse(Connection* conn, uint64_t correlation_id,
                     const serve::Response& response);
  void DrainCompletions();
  void RecordIdempotentInsert(const std::string& token, const Status& status);
  void CloseConnection(uint64_t id);
  void ReapStale(std::chrono::steady_clock::time_point now);

  serve::AquaServer* const server_;
  const FrontEndOptions options_;

  Socket listener_;
  Socket wake_read_;
  uint16_t port_ = 0;
  std::thread loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  std::shared_ptr<CompletionQueue> completions_;

  /// Loop-thread-only state.
  uint64_t next_connection_id_ = 1;
  std::unordered_map<uint64_t, Connection> connections_;
  /// token -> final insert Status, bounded FIFO.
  std::unordered_map<std::string, Status> insert_results_;
  std::list<std::string> insert_order_;
  /// token -> requests awaiting the single in-flight execution of that
  /// token (as (connection id, correlation id) pairs). A retry arriving
  /// while the first execution is still running piggybacks here instead
  /// of executing again — the settled-result cache alone cannot close
  /// that window.
  std::unordered_map<std::string, std::vector<std::pair<uint64_t, uint64_t>>>
      pending_inserts_;

  // Counters (relaxed; read via stats()).
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> accepts_{0};
  std::atomic<uint64_t> rejected_connections_{0};
  std::atomic<uint64_t> resets_{0};
  std::atomic<uint64_t> malformed_frames_{0};
  std::atomic<uint64_t> oversize_frames_{0};
  std::atomic<uint64_t> idle_reaped_{0};
  std::atomic<uint64_t> slowloris_cutoff_{0};
  std::atomic<uint64_t> idempotent_hits_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
};

}  // namespace congress::net

#endif  // CONGRESS_NET_FRONT_END_H_
