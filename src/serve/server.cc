#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace congress::serve {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d)
      .count();
}

}  // namespace

AquaServer::AquaServer(const AquaEngine* engine, ServeOptions options)
    : engine_(engine), options_(std::move(options)) {}

AquaServer::AquaServer(AquaEngine* engine, ServeOptions options)
    : engine_(engine), mutable_engine_(engine), options_(std::move(options)) {}

AquaServer::~AquaServer() { Stop(); }

Status AquaServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::FailedPrecondition("server already started");
  started_ = true;
  stopping_ = false;
  const size_t threads = options_.num_threads == 0 ? 1 : options_.num_threads;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void AquaServer::Stop() {
  std::vector<std::thread> workers;
  std::deque<Pending> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    workers.swap(workers_);
    drained.swap(queue_);
    queued_writes_ = 0;
  }
  cv_.notify_all();
  for (std::thread& worker : workers) worker.join();
  for (Pending& pending : drained) {
    Response response;
    response.status = Status::Unavailable("server stopped before execution");
    pending.Resolve(std::move(response));
  }
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

Result<uint64_t> AquaServer::OpenSession() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= options_.max_sessions) {
    return Status::ResourceExhausted(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        ")");
  }
  const uint64_t id = next_session_++;
  sessions_.emplace(id, SessionStats{});
  CONGRESS_METRIC_SET("serve.sessions_active",
                      static_cast<double>(sessions_.size()));
  return id;
}

Status AquaServer::CloseSession(uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.erase(session) == 0) {
    return Status::NotFound("session " + std::to_string(session) +
                            " not open");
  }
  CONGRESS_METRIC_SET("serve.sessions_active",
                      static_cast<double>(sessions_.size()));
  return Status::OK();
}

std::future<Response> AquaServer::Submit(uint64_t session, Request request) {
  Pending pending;
  pending.request = std::move(request);
  std::future<Response> future = pending.promise.get_future();
  Enqueue(session, std::move(pending));
  return future;
}

void AquaServer::SubmitAsync(uint64_t session, Request request,
                             ResponseCallback done) {
  Pending pending;
  pending.request = std::move(request);
  pending.callback = std::move(done);
  Enqueue(session, std::move(pending));
}

void AquaServer::Enqueue(uint64_t session, Pending pending) {
  auto reject = [&](Status status) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    CONGRESS_METRIC_INCR("serve.admission_rejected", 1);
    Response response;
    response.status = std::move(status);
    pending.Resolve(std::move(response));
  };

  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    lock.unlock();
    reject(Status::Unavailable("server is stopping"));
    return;
  }
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    lock.unlock();
    reject(Status::InvalidArgument("session " + std::to_string(session) +
                                   " not open"));
    return;
  }
  it->second.submitted++;
  const bool is_write = pending.request.mode == QueryMode::kInsert;
  if (is_write && mutable_engine_ == nullptr) {
    it->second.rejected++;
    lock.unlock();
    reject(Status::FailedPrecondition(
        "server is read-only (constructed over a const engine)"));
    return;
  }
  if (queue_.size() >= options_.max_queue_depth) {
    it->second.rejected++;
    lock.unlock();
    reject(Status::ResourceExhausted(
        "request queue full (depth " +
        std::to_string(options_.max_queue_depth) + ")"));
    return;
  }
  if (is_write && queued_writes_ >= options_.max_write_queue_depth) {
    it->second.rejected++;
    lock.unlock();
    reject(Status::ResourceExhausted(
        "write queue full (depth " +
        std::to_string(options_.max_write_queue_depth) + ")"));
    return;
  }
  if (is_write) queued_writes_++;

  pending.session = session;
  pending.enqueued = Clock::now();
  std::chrono::milliseconds budget = pending.request.deadline;
  if (budget.count() == 0) budget = options_.default_deadline;
  if (budget.count() > 0) {
    // Saturate against absurd budgets (the wire layer already clamps
    // untrusted input, this guards in-process callers too): the
    // time_point addition below must never overflow the clock rep.
    constexpr std::chrono::milliseconds kMaxBudget{4ull * 60 * 60 * 1000};
    budget = std::min(budget, kMaxBudget);
    pending.deadline = pending.enqueued + budget;
  }
  queue_.push_back(std::move(pending));
  accepted_.fetch_add(1, std::memory_order_relaxed);
  CONGRESS_METRIC_INCR("serve.requests", 1);
  lock.unlock();
  cv_.notify_one();
}

void AquaServer::WorkerLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with nothing left to do.
      pending = std::move(queue_.front());
      queue_.pop_front();
      if (pending.request.mode == QueryMode::kInsert && queued_writes_ > 0) {
        queued_writes_--;
      }
    }

    Response response = Execute(pending);

    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = sessions_.find(pending.session);
      if (it != sessions_.end()) it->second.completed++;
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (response.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      CONGRESS_METRIC_INCR("serve.deadline_expired", 1);
    }
    CONGRESS_METRIC_RECORD_NANOS(
        "serve.request_latency",
        static_cast<uint64_t>((response.queue_seconds +
                               response.exec_seconds) *
                              1e9));
    pending.Resolve(std::move(response));
  }
}

Response AquaServer::Execute(const Pending& pending) const {
  Response response;
  const Clock::time_point start = Clock::now();
  response.queue_seconds = Seconds(start - pending.enqueued);

  // A request whose budget died in the queue is not worth executing.
  if (start >= pending.deadline) {
    response.status = Status::DeadlineExceeded(
        "deadline expired after " +
        std::to_string(response.queue_seconds) + "s in queue");
    return response;
  }

  switch (pending.request.mode) {
    case QueryMode::kApproximate: {
      auto result = engine_->Query(pending.request.sql);
      if (result.ok()) {
        response.result = std::move(result).value();
      } else {
        response.status = result.status();
      }
      break;
    }
    case QueryMode::kResilient: {
      auto answer =
          engine_->QueryResilient(pending.request.sql, pending.deadline);
      if (answer.ok()) {
        response.result = std::move(answer->result);
        response.degradation = std::move(answer->degradation);
        response.epoch = answer->epoch;
      } else {
        response.status = answer.status();
      }
      break;
    }
    case QueryMode::kExact: {
      auto exact = engine_->QueryExact(pending.request.sql);
      if (exact.ok()) {
        response.result = ExactAsApproximate(*exact);
      } else {
        response.status = exact.status();
      }
      break;
    }
    case QueryMode::kInsert: {
      if (mutable_engine_ == nullptr) {
        // Admission already rejects this; kept as a backstop.
        response.status = Status::FailedPrecondition(
            "server is read-only (constructed over a const engine)");
        break;
      }
      response.status = mutable_engine_->InsertBatch(pending.request.table,
                                                     pending.request.rows);
      if (response.status.ok()) {
        writes_.fetch_add(1, std::memory_order_relaxed);
        CONGRESS_METRIC_INCR("serve.writes", 1);
      }
      break;
    }
  }

  response.exec_seconds = Seconds(Clock::now() - start);
  return response;
}

ServerStats AquaServer::stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  stats.writes = writes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.sessions_active = sessions_.size();
  stats.queue_depth = queue_.size();
  return stats;
}

Result<SessionStats> AquaServer::session_stats(uint64_t session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Status::NotFound("session " + std::to_string(session) +
                            " not open");
  }
  return it->second;
}

}  // namespace congress::serve
