#ifndef CONGRESS_SERVE_SERVER_H_
#define CONGRESS_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/aqua.h"
#include "util/status.h"

namespace congress::serve {

/// Knobs for the serving loop.
struct ServeOptions {
  /// Worker threads draining the request queue.
  size_t num_threads = 4;

  /// Admission control: requests queued beyond this depth are rejected
  /// immediately with ResourceExhausted instead of piling up latency.
  size_t max_queue_depth = 64;

  /// Separate admission budget for kInsert requests, so a write burst
  /// cannot crowd reads out of the shared queue (writes count against
  /// both limits; reads only against max_queue_depth).
  size_t max_write_queue_depth = 16;

  /// Open sessions beyond this are refused.
  size_t max_sessions = 256;

  /// Per-request deadline applied when the request does not carry its
  /// own; zero means unlimited.
  std::chrono::milliseconds default_deadline{0};
};

/// How a request wants its answer produced.
enum class QueryMode {
  kApproximate = 0,  ///< Synopsis answer with error bounds (Query).
  kResilient = 1,    ///< Degradation ladder, deadline-aware (QueryResilient).
  kExact = 2,        ///< Exact scan of the snapshot's base relation.
  kInsert = 3,       ///< Stream `rows` into `table` (InsertBatch).
};

struct Request {
  std::string sql;
  QueryMode mode = QueryMode::kApproximate;
  /// kInsert mode: target relation and the rows to ingest. The batch
  /// lands in the engine's sharded ingest buffer and becomes visible at
  /// the next Refresh; `sql` is ignored.
  std::string table;
  std::vector<std::vector<Value>> rows;
  /// Deadline budget for this request; zero uses the server default.
  /// The budget starts at Submit() — queueing time counts against it —
  /// and in kResilient mode the remaining budget is threaded into the
  /// degradation ladder. Always a *relative* duration, re-anchored on
  /// the receiving process's steady_clock: absolute (wall-clock)
  /// deadlines never cross an API or wire boundary, so clock
  /// adjustments cannot expire or resurrect a queued request.
  std::chrono::milliseconds deadline{0};
  /// kInsert mode: optional caller-chosen token identifying this batch.
  /// The network front-end deduplicates retried inserts by token, making
  /// retry-after-unknown-outcome safe; the server itself ignores it.
  std::string idempotency_token;
};

struct Response {
  Status status;
  /// The answer (exact answers arrive with zero-width bounds). Valid
  /// only when status.ok().
  ApproximateResult result;
  /// Which ladder rung answered (kResilient mode; kNone otherwise).
  DegradationReason degradation;
  /// Catalog epoch of the snapshot that served the answer (kResilient
  /// mode; 0 otherwise).
  uint64_t epoch = 0;
  double queue_seconds = 0.0;  ///< Time spent waiting for a worker.
  double exec_seconds = 0.0;   ///< Time spent executing.
};

/// Per-session accounting.
struct SessionStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
};

struct ServerStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t deadline_expired = 0;
  uint64_t writes = 0;  ///< kInsert requests executed successfully.
  size_t sessions_active = 0;
  size_t queue_depth = 0;
};

/// A minimal concurrent serving front-end over an AquaEngine: a bounded
/// thread pool drains a request queue; sessions provide admission
/// scoping and accounting; per-query deadlines feed the degradation
/// ladder. Read modes only ever use the engine's const paths — every
/// answer comes from one pinned snapshot — so they run concurrently with
/// any writer on the same engine. Constructed over a mutable engine the
/// server also admits kInsert requests, routing each batch through the
/// engine's lock-free sharded ingest (so writes never block reads on the
/// engine side either); constructed over a const engine it is read-only
/// and rejects writes at admission with FailedPrecondition.
///
/// Lifecycle: construct → Start() → OpenSession()/Submit()/CloseSession()
/// from any threads → Stop() (drains: queued requests fail Unavailable).
/// Submit() before Start() queues (nothing executes yet); this is how
/// tests exercise admission control deterministically.
///
/// Obs: `serve.sessions_active` (gauge), `serve.admission_rejected`,
/// `serve.requests`, `serve.deadline_expired` (counters), and
/// `serve.request_latency` (histogram over submit→response). All
/// compiled out under CONGRESS_DISABLE_OBS.
class AquaServer {
 public:
  /// Read-only server: kInsert requests are rejected at admission.
  AquaServer(const AquaEngine* engine, ServeOptions options);
  /// Read-write server: kInsert requests stream into the engine's
  /// sharded ingest buffer.
  AquaServer(AquaEngine* engine, ServeOptions options);
  ~AquaServer();

  AquaServer(const AquaServer&) = delete;
  AquaServer& operator=(const AquaServer&) = delete;

  /// Spawns the worker pool. Fails if already started.
  Status Start();

  /// Stops the workers and fails every still-queued request with
  /// Unavailable. Idempotent.
  void Stop();

  /// Opens a session; fails with ResourceExhausted at max_sessions.
  Result<uint64_t> OpenSession();

  /// Closes a session. In-flight requests finish normally; new Submits
  /// on the id are rejected.
  Status CloseSession(uint64_t session);

  /// Enqueues a request. The future always completes — with the answer,
  /// or with a Response whose status explains the rejection
  /// (ResourceExhausted on a full queue, InvalidArgument on an unknown
  /// session, DeadlineExceeded if the deadline passed while queued,
  /// Unavailable if the server stopped first).
  std::future<Response> Submit(uint64_t session, Request request);

  /// Callback form for event-loop callers (the TCP front-end) that must
  /// never block on a future. `done` is invoked exactly once with the
  /// Response: from a worker thread after execution, from this thread on
  /// admission rejection, or from whichever thread drains the queue on
  /// Stop(). The same always-resolves guarantee as Submit() holds.
  using ResponseCallback = std::function<void(Response)>;
  void SubmitAsync(uint64_t session, Request request, ResponseCallback done);

  ServerStats stats() const;
  Result<SessionStats> session_stats(uint64_t session) const;

 private:
  struct Pending {
    uint64_t session = 0;
    Request request;
    /// Exactly one of these resolves the request: the promise (Submit)
    /// or the callback (SubmitAsync).
    std::promise<Response> promise;
    ResponseCallback callback;
    std::chrono::steady_clock::time_point enqueued;
    /// max() when the request has no deadline: it never expires.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();

    void Resolve(Response response) {
      if (callback) {
        callback(std::move(response));
      } else {
        promise.set_value(std::move(response));
      }
    }
  };

  /// Shared admission path: validates the session, applies queue and
  /// write-lane limits, and either enqueues `pending` or resolves it
  /// immediately with the rejection.
  void Enqueue(uint64_t session, Pending pending);

  void WorkerLoop();
  Response Execute(const Pending& pending) const;

  const AquaEngine* engine_;
  /// Non-null only for the read-write constructor; the write path.
  AquaEngine* mutable_engine_ = nullptr;
  const ServeOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  /// kInsert entries currently in queue_ (admission bookkeeping).
  size_t queued_writes_ = 0;
  std::unordered_map<uint64_t, SessionStats> sessions_;
  uint64_t next_session_ = 1;
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Aggregate counters (relaxed; read via stats()).
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  mutable std::atomic<uint64_t> writes_{0};  // Bumped in const Execute().
};

}  // namespace congress::serve

#endif  // CONGRESS_SERVE_SERVER_H_
