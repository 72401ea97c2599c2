#include "core/catalog.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace congress {

Result<ApproximateResult> ExecuteExactOnSnapshot(
    const AquaSnapshot& snapshot, const GroupByQuery& query) {
  if (snapshot.exact_rollups == nullptr) {
    return Status::FailedPrecondition(
        "table '" + snapshot.name +
        "' was restored from a checkpoint; base relation unavailable");
  }
  const ExecutorOptions options = snapshot.synopsis != nullptr
                                      ? snapshot.synopsis->config().execution
                                      : ExecutorOptions{};
  return snapshot.exact_rollups->Execute(query, options);
}

std::shared_ptr<const AquaSnapshot> CatalogVersion::Find(
    const std::string& name) const {
  auto it = snapshots_.find(name);
  return it == snapshots_.end() ? nullptr : it->second;
}

std::vector<std::string> CatalogVersion::Names() const {
  std::vector<std::string> names;
  names.reserve(snapshots_.size());
  for (const auto& [name, snapshot] : snapshots_) names.push_back(name);
  return names;
}

Catalog::Catalog()
    : current_(std::make_shared<const CatalogVersion>()),
      pinned_(std::make_shared<std::atomic<int64_t>>(0)) {}

namespace {

/// The control block behind a pinned snapshot: keeps the snapshot (and
/// transitively its tables/synopses) alive and decrements the catalog's
/// pinned-reader count when the last copy of the handle goes away.
struct PinHolder {
  std::shared_ptr<const AquaSnapshot> snapshot;
  std::shared_ptr<std::atomic<int64_t>> counter;

  PinHolder(std::shared_ptr<const AquaSnapshot> snap,
            std::shared_ptr<std::atomic<int64_t>> count)
      : snapshot(std::move(snap)), counter(std::move(count)) {
    counter->fetch_add(1, std::memory_order_acq_rel);
  }
  ~PinHolder() {
    const int64_t now =
        counter->fetch_sub(1, std::memory_order_acq_rel) - 1;
    (void)now;
    CONGRESS_METRIC_SET("catalog.pinned_readers",
                        static_cast<double>(now));
  }
  PinHolder(const PinHolder&) = delete;
  PinHolder& operator=(const PinHolder&) = delete;
};

}  // namespace

std::shared_ptr<const AquaSnapshot> Catalog::Pin(
    const std::string& name) const {
  std::shared_ptr<const AquaSnapshot> snapshot = Current()->Find(name);
  if (snapshot == nullptr) return nullptr;
  auto holder = std::make_shared<PinHolder>(std::move(snapshot), pinned_);
  CONGRESS_METRIC_SET(
      "catalog.pinned_readers",
      static_cast<double>(pinned_->load(std::memory_order_acquire)));
  // Aliasing handle: shares the holder's lifetime, points at the
  // snapshot, so callers use it as a plain shared_ptr<const AquaSnapshot>.
  return std::shared_ptr<const AquaSnapshot>(holder,
                                             holder->snapshot.get());
}

void Catalog::Install(std::shared_ptr<const CatalogVersion> next,
                      std::chrono::steady_clock::time_point start) {
  const uint64_t epoch = next->epoch();
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_.swap(next);
  }
  epoch_.store(epoch, std::memory_order_release);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  CONGRESS_METRIC_RECORD_NANOS(
      "catalog.swap_latency",
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
  CONGRESS_METRIC_SET("catalog.epoch", static_cast<double>(epoch));
}

Status Catalog::Publish(std::shared_ptr<AquaSnapshot> snapshot) {
  if (snapshot == nullptr || snapshot->synopsis == nullptr ||
      snapshot->table == nullptr || snapshot->name.empty()) {
    return Status::InvalidArgument(
        "catalog snapshot needs a name, a table, and a synopsis");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto start = std::chrono::steady_clock::now();
  auto next = std::make_shared<CatalogVersion>(*Current());
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  snapshot->epoch = epoch;
  next->epoch_ = epoch;
  const std::string name = snapshot->name;
  next->snapshots_[name] =
      std::shared_ptr<const AquaSnapshot>(std::move(snapshot));
  Install(std::move(next), start);
  CONGRESS_METRIC_INCR("catalog.published_snapshots", 1);
  return Status::OK();
}

Status Catalog::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const CatalogVersion> current = Current();
  if (current->Find(name) == nullptr) {
    return Status::NotFound("table '" + name + "' not registered");
  }
  const auto start = std::chrono::steady_clock::now();
  auto next = std::make_shared<CatalogVersion>(*current);
  next->epoch_ = epoch_.load(std::memory_order_relaxed) + 1;
  next->snapshots_.erase(name);
  Install(std::move(next), start);
  return Status::OK();
}

}  // namespace congress
