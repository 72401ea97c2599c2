#include "sampling/maintenance.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "obs/metrics.h"
#include "resilience/failpoint.h"
#include "sampling/reservoir.h"

namespace congress {

Status ValidateRow(const Schema& schema,
                   const std::vector<size_t>& grouping_columns,
                   const std::vector<Value>& row) {
  if (row.size() != schema.num_fields()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].type() != schema.field(i).type) {
      return Status::InvalidArgument("row type mismatch in column " +
                                     std::to_string(i));
    }
  }
  // As GroupCensus::Build: a NaN orders against nothing, so its stratum
  // could never be found again.
  for (size_t c : grouping_columns) {
    if (c < row.size() && row[c].is_double() && std::isnan(row[c].AsDouble())) {
      return Status::InvalidArgument(
          "grouping column '" + schema.field(c).name +
          "' holds NaN, which cannot stratify a sample");
    }
  }
  return Status::OK();
}

namespace {

using RowValues = std::vector<Value>;

/// Offer wrapper that also counts reservoir swaps (an admission that
/// displaced a resident tuple) into the maintenance metrics.
template <typename T>
bool OfferCounted(ReservoirSampler<T>* reservoir, T item, Random* rng) {
  const bool was_full = reservoir->size() >= reservoir->capacity();
  const bool admitted = reservoir->Offer(std::move(item), rng);
  if (was_full && admitted) {
    CONGRESS_METRIC_INCR("maintenance.reservoir_swaps", 1);
  }
  return admitted;
}

/// ShrinkTo wrapper that counts lazy evictions.
template <typename T>
void ShrinkCounted(ReservoirSampler<T>* reservoir, size_t target,
                   Random* rng) {
  const size_t before = reservoir->size();
  reservoir->ShrinkTo(target, rng);
  if (before > reservoir->size()) {
    CONGRESS_METRIC_INCR("maintenance.reservoir_evictions",
                         before - reservoir->size());
  }
}

GroupKey KeyOfRow(const RowValues& row,
                  const std::vector<size_t>& grouping_columns) {
  GroupKey key;
  key.reserve(grouping_columns.size());
  for (size_t c : grouping_columns) key.push_back(row[c]);
  return key;
}

// ---------------------------------------------------------------------------
// House
// ---------------------------------------------------------------------------

class HouseMaintainer final : public SampleMaintainer {
 public:
  HouseMaintainer(Schema schema, std::vector<size_t> grouping_columns,
                  uint64_t x, uint64_t seed)
      : schema_(std::move(schema)),
        grouping_columns_(std::move(grouping_columns)),
        reservoir_(static_cast<size_t>(x)),
        rng_(seed) {}

  Status Insert(const RowValues& row) override {
    CONGRESS_FAILPOINT("maintenance/insert");
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema_, grouping_columns_, row));
    return Apply(row, KeyOfRow(row, grouping_columns_));
  }

  Status InsertWithKey(const RowValues& row, const GroupKey& key) override {
    CONGRESS_FAILPOINT("maintenance/insert");
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema_, grouping_columns_, row));
    return Apply(row, key);
  }

  Result<StratifiedSample> Snapshot() override {
    CONGRESS_FAILPOINT("maintenance/snapshot");
    StratifiedSample sample(schema_, grouping_columns_);
    for (const auto& [key, n] : populations_) {
      CONGRESS_RETURN_NOT_OK(sample.DeclareStratum(key, n));
    }
    for (const RowValues& row : reservoir_.items()) {
      CONGRESS_RETURN_NOT_OK(sample.AppendRowValues(row));
    }
    return sample;
  }

  uint64_t tuples_seen() const override { return reservoir_.seen(); }
  size_t current_sample_size() const override { return reservoir_.size(); }

 private:
  Status Apply(const RowValues& row, const GroupKey& key) {
    CONGRESS_METRIC_INCR("maintenance.inserts", 1);
    populations_[key] += 1;
    OfferCounted(&reservoir_, row, &rng_);
    return Status::OK();
  }

  Schema schema_;
  std::vector<size_t> grouping_columns_;
  ReservoirSampler<RowValues> reservoir_;
  std::unordered_map<GroupKey, uint64_t, GroupKeyHash> populations_;
  Random rng_;
};

// ---------------------------------------------------------------------------
// Senate
// ---------------------------------------------------------------------------

class SenateMaintainer final : public SampleMaintainer {
 public:
  SenateMaintainer(Schema schema, std::vector<size_t> grouping_columns,
                   uint64_t x, uint64_t seed)
      : schema_(std::move(schema)),
        grouping_columns_(std::move(grouping_columns)),
        x_(x),
        rng_(seed) {}

  Status Insert(const RowValues& row) override {
    CONGRESS_FAILPOINT("maintenance/insert");
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema_, grouping_columns_, row));
    return Apply(row, KeyOfRow(row, grouping_columns_));
  }

  Status InsertWithKey(const RowValues& row, const GroupKey& key) override {
    CONGRESS_FAILPOINT("maintenance/insert");
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema_, grouping_columns_, row));
    return Apply(row, key);
  }

  Status Apply(const RowValues& row, GroupKey key) {
    CONGRESS_METRIC_INCR("maintenance.inserts", 1);
    ++seen_;
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      // New group: start a fresh per-group reservoir and lower the shared
      // target to X/(m+1). Existing reservoirs shrink lazily on their
      // next touch (and at snapshot), per Section 6.
      it = groups_
               .emplace(std::move(key),
                        GroupState{ReservoirSampler<RowValues>(0), 0})
               .first;
      target_ = PerGroupTarget();
    }
    GroupState& state = it->second;
    state.population += 1;
    ShrinkCounted(&state.reservoir, target_, &rng_);  // Lazy eviction.
    OfferCounted(&state.reservoir, row, &rng_);
    return Status::OK();
  }

  Result<StratifiedSample> Snapshot() override {
    CONGRESS_FAILPOINT("maintenance/snapshot");
    StratifiedSample sample(schema_, grouping_columns_);
    for (auto& [key, state] : groups_) {
      ShrinkCounted(&state.reservoir, target_, &rng_);
      CONGRESS_RETURN_NOT_OK(sample.DeclareStratum(key, state.population));
    }
    for (auto& [key, state] : groups_) {
      for (const RowValues& row : state.reservoir.items()) {
        CONGRESS_RETURN_NOT_OK(sample.AppendRowValues(row));
      }
    }
    return sample;
  }

  uint64_t tuples_seen() const override { return seen_; }

  size_t current_sample_size() const override {
    size_t total = 0;
    for (const auto& [key, state] : groups_) total += state.reservoir.size();
    return total;
  }

 private:
  struct GroupState {
    ReservoirSampler<RowValues> reservoir;
    uint64_t population;
  };

  size_t PerGroupTarget() const {
    if (groups_.empty()) return static_cast<size_t>(x_);
    return static_cast<size_t>(std::max<uint64_t>(
        1, x_ / static_cast<uint64_t>(groups_.size())));
  }

  Schema schema_;
  std::vector<size_t> grouping_columns_;
  uint64_t x_;
  size_t target_ = 0;
  uint64_t seen_ = 0;
  std::unordered_map<GroupKey, GroupState, GroupKeyHash> groups_;
  Random rng_;
};

// ---------------------------------------------------------------------------
// Basic Congress (Section 6, steps 1-4; Theorem 6.1)
// ---------------------------------------------------------------------------

class BasicCongressMaintainer final : public SampleMaintainer {
 public:
  BasicCongressMaintainer(Schema schema, std::vector<size_t> grouping_columns,
                          uint64_t y, uint64_t seed)
      : schema_(std::move(schema)),
        grouping_columns_(std::move(grouping_columns)),
        reservoir_(static_cast<size_t>(y)),
        y_(y),
        rng_(seed) {}

  Status Insert(const RowValues& row) override {
    CONGRESS_FAILPOINT("maintenance/insert");
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema_, grouping_columns_, row));
    return Apply(row, KeyOfRow(row, grouping_columns_));
  }

  Status InsertWithKey(const RowValues& row, const GroupKey& key) override {
    CONGRESS_FAILPOINT("maintenance/insert");
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema_, grouping_columns_, row));
    return Apply(row, key);
  }

  Status Apply(const RowValues& row, GroupKey key) {
    CONGRESS_METRIC_INCR("maintenance.inserts", 1);
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      it = groups_.emplace(std::move(key), GroupState{}).first;
      // A new group lowers the Senate-side target Y/m for everyone;
      // deltas are trimmed lazily whenever they are next touched.
    }
    GroupState& g = it->second;
    g.population += 1;

    bool had_eviction = false;
    RowValues evicted;
    bool selected =
        reservoir_.OfferTracked(row, &rng_, &had_eviction, &evicted);
    if (had_eviction) CONGRESS_METRIC_INCR("maintenance.reservoir_swaps", 1);

    if (!selected) {
      // Step 1 (common case) and step 4: if the group was still smaller
      // than the per-group target before this tuple arrived, keep the
      // tuple in its delta so tiny groups retain every tuple.
      if (static_cast<double>(g.population) <= Target()) {
        TrimDelta(it->first, &g);
        g.delta.push_back(row);
      }
      return Status::OK();
    }

    if (had_eviction) {
      GroupKey evicted_key_check = KeyOfRow(evicted, grouping_columns_);
      if (evicted_key_check == it->first) {
        // Step 2: same-group swap within the reservoir; x_g unchanged.
        return Status::OK();
      }
    }

    g.in_reservoir += 1;
    // The freshly admitted tuple raised x_g; the delta invariant
    // |delta_g| = max(0, target - x_g) may now require one eviction
    // (step 3, first half).
    TrimDelta(it->first, &g);

    if (!had_eviction) return Status::OK();
    GroupKey evicted_key = KeyOfRow(evicted, grouping_columns_);
    // Step 3, second half: the victim's group lost a reservoir slot; if
    // it is now under target, the evicted tuple refills its delta (it is
    // a uniform random pick from that group's reservoir membership).
    auto vit = groups_.find(evicted_key);
    assert(vit != groups_.end());
    GroupState& v = vit->second;
    v.in_reservoir -= 1;
    if (static_cast<double>(v.in_reservoir) < Target()) {
      TrimDelta(evicted_key, &v);
      if (static_cast<double>(v.in_reservoir + v.delta.size()) < Target()) {
        v.delta.push_back(std::move(evicted));
      }
    }
    return Status::OK();
  }

  Result<StratifiedSample> Snapshot() override {
    CONGRESS_FAILPOINT("maintenance/snapshot");
    // Final lazy trim of every delta, then emit reservoir + deltas.
    for (auto& [key, g] : groups_) TrimDelta(key, &g);

    StratifiedSample sample(schema_, grouping_columns_);
    for (const auto& [key, g] : groups_) {
      CONGRESS_RETURN_NOT_OK(sample.DeclareStratum(key, g.population));
    }
    for (const RowValues& row : reservoir_.items()) {
      CONGRESS_RETURN_NOT_OK(sample.AppendRowValues(row));
    }
    for (const auto& [key, g] : groups_) {
      for (const RowValues& row : g.delta) {
        CONGRESS_RETURN_NOT_OK(sample.AppendRowValues(row));
      }
    }
    return sample;
  }

  uint64_t tuples_seen() const override { return reservoir_.seen(); }

  size_t current_sample_size() const override {
    size_t total = reservoir_.size();
    for (const auto& [key, g] : groups_) total += g.delta.size();
    return total;
  }

 private:
  struct GroupState {
    uint64_t population = 0;
    uint64_t in_reservoir = 0;  // x_g.
    std::vector<RowValues> delta;
  };

  double Target() const {
    return static_cast<double>(y_) /
           static_cast<double>(std::max<size_t>(1, groups_.size()));
  }

  /// Enforces |delta_g| <= max(0, ceil(target) - x_g) by uniform random
  /// eviction (valid per Theorem 6.1: uniformity is preserved under
  /// random eviction without insertion).
  void TrimDelta(const GroupKey& key, GroupState* g) {
    (void)key;
    double want =
        std::max(0.0, std::ceil(Target()) -
                          static_cast<double>(g->in_reservoir));
    size_t limit = static_cast<size_t>(want);
    while (g->delta.size() > limit) {
      size_t victim = static_cast<size_t>(rng_.UniformInt(g->delta.size()));
      g->delta[victim] = std::move(g->delta.back());
      g->delta.pop_back();
      CONGRESS_METRIC_INCR("maintenance.delta_evictions", 1);
    }
  }

  Schema schema_;
  std::vector<size_t> grouping_columns_;
  ReservoirSampler<RowValues> reservoir_;
  uint64_t y_;
  std::unordered_map<GroupKey, GroupState, GroupKeyHash> groups_;
  Random rng_;
};

// ---------------------------------------------------------------------------
// Congress, target-tracking variant (generalized BasicCongress deltas)
// ---------------------------------------------------------------------------

class CongressTargetMaintainer final : public SampleMaintainer {
 public:
  CongressTargetMaintainer(Schema schema,
                           std::vector<size_t> grouping_columns, uint64_t y,
                           uint64_t seed)
      : schema_(std::move(schema)),
        grouping_columns_(std::move(grouping_columns)),
        y_(y),
        rng_(seed) {
    arity_ = grouping_columns_.size();
    subset_counts_.resize(size_t{1} << arity_);
  }

  Status Insert(const RowValues& row) override {
    CONGRESS_FAILPOINT("maintenance/insert");
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema_, grouping_columns_, row));
    return Apply(row, KeyOfRow(row, grouping_columns_));
  }

  Status InsertWithKey(const RowValues& row, const GroupKey& key) override {
    CONGRESS_FAILPOINT("maintenance/insert");
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema_, grouping_columns_, row));
    return Apply(row, key);
  }

  Status Apply(const RowValues& row, GroupKey key) {
    CONGRESS_METRIC_INCR("maintenance.inserts", 1);
    ++seen_;
    for (size_t mask = 0; mask < subset_counts_.size(); ++mask) {
      subset_counts_[mask][Project(key, mask)] += 1;
    }
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      it = groups_
               .emplace(std::move(key),
                        GroupState{ReservoirSampler<RowValues>(0), 0})
               .first;
    }
    GroupState& g = it->second;
    g.population += 1;
    // Lazy target refresh on touch: Eq. 4 maximum over all groupings.
    size_t target = CurrentTarget(it->first);
    ShrinkCounted(&g.reservoir, target, &rng_);
    OfferCounted(&g.reservoir, row, &rng_);
    return Status::OK();
  }

  Result<StratifiedSample> Snapshot() override {
    CONGRESS_FAILPOINT("maintenance/snapshot");
    StratifiedSample sample(schema_, grouping_columns_);
    for (auto& [key, g] : groups_) {
      ShrinkCounted(&g.reservoir, CurrentTarget(key), &rng_);
      CONGRESS_RETURN_NOT_OK(sample.DeclareStratum(key, g.population));
    }
    for (auto& [key, g] : groups_) {
      for (const RowValues& row : g.reservoir.items()) {
        CONGRESS_RETURN_NOT_OK(sample.AppendRowValues(row));
      }
    }
    return sample;
  }

  uint64_t tuples_seen() const override { return seen_; }

  size_t current_sample_size() const override {
    size_t total = 0;
    for (const auto& [key, g] : groups_) total += g.reservoir.size();
    return total;
  }

 private:
  struct GroupState {
    ReservoirSampler<RowValues> reservoir;
    uint64_t population;
  };

  GroupKey Project(const GroupKey& key, size_t mask) const {
    GroupKey proj;
    for (size_t pos = 0; pos < arity_; ++pos) {
      if (mask & (size_t{1} << pos)) proj.push_back(key[pos]);
    }
    return proj;
  }

  /// s_g = max over T of (Y / m_T) * (n_g / n_h), rounded up so small
  /// groups keep at least one tuple.
  size_t CurrentTarget(const GroupKey& key) const {
    const auto& finest = subset_counts_.back();
    auto fit = finest.find(key);
    double n_g = fit != finest.end() ? static_cast<double>(fit->second) : 0.0;
    double best = 0.0;
    for (size_t mask = 0; mask < subset_counts_.size(); ++mask) {
      const auto& counts = subset_counts_[mask];
      auto it = counts.find(Project(key, mask));
      if (it == counts.end()) continue;
      double m_t = static_cast<double>(counts.size());
      double n_h = static_cast<double>(it->second);
      best = std::max(best,
                      (static_cast<double>(y_) / m_t) * (n_g / n_h));
    }
    return static_cast<size_t>(std::ceil(best));
  }

  Schema schema_;
  std::vector<size_t> grouping_columns_;
  uint64_t y_;
  size_t arity_ = 0;
  uint64_t seen_ = 0;
  // subset_counts_[mask maps projected key -> count; the last mask
  // (all bits) is the finest grouping, i.e. n_g.
  std::vector<std::unordered_map<GroupKey, uint64_t, GroupKeyHash>>
      subset_counts_;
  std::unordered_map<GroupKey, GroupState, GroupKeyHash> groups_;
  Random rng_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Congress (Eq. 8 + [GM98]-style probability decay)
// ---------------------------------------------------------------------------

struct CongressMaintainer::Impl {
  struct StoredRow {
    RowValues values;
    double admit_p;  // Probability with which the row currently survives.
  };

  struct GroupState {
    uint64_t population = 0;  // n_g at the finest grouping.
    std::vector<StoredRow> rows;
  };

  Impl(Schema schema_in, std::vector<size_t> grouping_columns_in, uint64_t y_in,
       uint64_t seed)
      : schema(std::move(schema_in)),
        grouping_columns(std::move(grouping_columns_in)),
        y(y_in),
        rng(seed) {
    arity = grouping_columns.size();
    subset_counts.resize(size_t{1} << arity);
  }

  /// Current Eq.-8 inclusion probability for finest group `key`:
  /// max over T of Y / (m_T * n_{proj_T(key)}), clamped to 1.
  double InclusionProbability(const GroupKey& key) const {
    double best = 0.0;
    for (size_t mask = 0; mask < subset_counts.size(); ++mask) {
      const auto& counts = subset_counts[mask];
      GroupKey proj = Project(key, mask);
      auto it = counts.find(proj);
      assert(it != counts.end());
      double m_t = static_cast<double>(counts.size());
      double n_h = static_cast<double>(it->second);
      best = std::max(best, static_cast<double>(y) / (m_t * n_h));
    }
    return std::min(1.0, best);
  }

  GroupKey Project(const GroupKey& key, size_t mask) const {
    GroupKey proj;
    for (size_t pos = 0; pos < arity; ++pos) {
      if (mask & (size_t{1} << pos)) proj.push_back(key[pos]);
    }
    return proj;
  }

  /// Thins the stored rows of one group down to probability `p_now`
  /// (keep each row with probability p_now / admit_p). Exact because
  /// Bernoulli thinning composes multiplicatively.
  void ThinGroup(GroupState* g, double p_now) {
    size_t write = 0;
    uint64_t decayed = 0;
    for (size_t i = 0; i < g->rows.size(); ++i) {
      StoredRow& row = g->rows[i];
      bool keep = true;
      if (row.admit_p > p_now) {
        keep = rng.Bernoulli(p_now / row.admit_p);
        row.admit_p = p_now;
        ++decayed;
      }
      if (keep) {
        if (write != i) g->rows[write] = std::move(g->rows[i]);
        ++write;
      }
    }
    if (decayed > 0) {
      CONGRESS_METRIC_INCR("maintenance.bernoulli_decays", decayed);
    }
    if (write < g->rows.size()) {
      CONGRESS_METRIC_INCR("maintenance.bernoulli_evictions",
                           g->rows.size() - write);
    }
    g->rows.resize(write);
  }

  Status Insert(const RowValues& row) {
    CONGRESS_FAILPOINT("maintenance/insert");
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema, grouping_columns, row));
    return Apply(row, KeyOfRow(row, grouping_columns));
  }

  Status InsertWithKey(const RowValues& row, const GroupKey& key) {
    CONGRESS_FAILPOINT("maintenance/insert");
    CONGRESS_RETURN_NOT_OK(ValidateRow(schema, grouping_columns, row));
    return Apply(row, key);
  }

  Status Apply(const RowValues& row, const GroupKey& key) {
    CONGRESS_METRIC_INCR("maintenance.inserts", 1);
    ++seen;
    for (size_t mask = 0; mask < subset_counts.size(); ++mask) {
      subset_counts[mask][Project(key, mask)] += 1;
    }
    GroupState& g = groups[key];
    g.population += 1;

    double p_now = InclusionProbability(key);
    // Bound memory: if the group's retained rows drifted far above the
    // current expectation, thin them now; otherwise defer to snapshot.
    double expected = p_now * static_cast<double>(g.population);
    if (g.rows.size() > 16 && static_cast<double>(g.rows.size()) >
                                  2.0 * expected + 16.0) {
      ThinGroup(&g, p_now);
    }
    if (rng.Bernoulli(p_now)) {
      g.rows.push_back(StoredRow{row, p_now});
    }
    return Status::OK();
  }

  Result<StratifiedSample> SnapshotImpl(double extra_thin) {
    CONGRESS_FAILPOINT("maintenance/snapshot");
    StratifiedSample sample(schema, grouping_columns);
    for (auto& [key, g] : groups) {
      double p_now = InclusionProbability(key) * extra_thin;
      ThinGroup(&g, p_now);
      CONGRESS_RETURN_NOT_OK(sample.DeclareStratum(key, g.population));
    }
    for (auto& [key, g] : groups) {
      for (const StoredRow& row : g.rows) {
        CONGRESS_RETURN_NOT_OK(sample.AppendRowValues(row.values));
      }
    }
    return sample;
  }

  size_t CurrentSize() const {
    size_t total = 0;
    for (const auto& [key, g] : groups) total += g.rows.size();
    return total;
  }

  Schema schema;
  std::vector<size_t> grouping_columns;
  uint64_t y;
  size_t arity = 0;
  uint64_t seen = 0;
  std::vector<std::unordered_map<GroupKey, uint64_t, GroupKeyHash>>
      subset_counts;
  std::unordered_map<GroupKey, GroupState, GroupKeyHash> groups;
  Random rng;
};

CongressMaintainer::CongressMaintainer(Schema base_schema,
                                       std::vector<size_t> grouping_columns,
                                       uint64_t y, uint64_t seed)
    : impl_(std::make_unique<Impl>(std::move(base_schema),
                                   std::move(grouping_columns), y, seed)) {}

CongressMaintainer::~CongressMaintainer() = default;

Status CongressMaintainer::Insert(const std::vector<Value>& row) {
  return impl_->Insert(row);
}

Status CongressMaintainer::InsertWithKey(const std::vector<Value>& row,
                                         const GroupKey& key) {
  return impl_->InsertWithKey(row, key);
}

Result<StratifiedSample> CongressMaintainer::Snapshot() {
  return impl_->SnapshotImpl(1.0);
}

Result<StratifiedSample> CongressMaintainer::SnapshotScaledTo(uint64_t x) {
  // First thin everything to the current Eq.-8 probabilities to learn the
  // realized pre-scaling size, then thin uniformly to expected size x.
  auto full = impl_->SnapshotImpl(1.0);
  if (!full.ok()) return full.status();
  size_t realized = full->num_rows();
  if (realized <= x) return full;
  double ratio = static_cast<double>(x) / static_cast<double>(realized);
  return impl_->SnapshotImpl(ratio);
}

uint64_t CongressMaintainer::tuples_seen() const { return impl_->seen; }

size_t CongressMaintainer::current_sample_size() const {
  return impl_->CurrentSize();
}

std::unique_ptr<SampleMaintainer> MakeHouseMaintainer(
    Schema base_schema, std::vector<size_t> grouping_columns, uint64_t x,
    uint64_t seed) {
  return std::make_unique<HouseMaintainer>(std::move(base_schema),
                                           std::move(grouping_columns), x,
                                           seed);
}

std::unique_ptr<SampleMaintainer> MakeSenateMaintainer(
    Schema base_schema, std::vector<size_t> grouping_columns, uint64_t x,
    uint64_t seed) {
  return std::make_unique<SenateMaintainer>(std::move(base_schema),
                                            std::move(grouping_columns), x,
                                            seed);
}

std::unique_ptr<SampleMaintainer> MakeBasicCongressMaintainer(
    Schema base_schema, std::vector<size_t> grouping_columns, uint64_t y,
    uint64_t seed) {
  return std::make_unique<BasicCongressMaintainer>(
      std::move(base_schema), std::move(grouping_columns), y, seed);
}

std::unique_ptr<SampleMaintainer> MakeCongressMaintainer(
    Schema base_schema, std::vector<size_t> grouping_columns, uint64_t y,
    uint64_t seed) {
  return std::make_unique<CongressMaintainer>(std::move(base_schema),
                                              std::move(grouping_columns), y,
                                              seed);
}

std::unique_ptr<SampleMaintainer> MakeCongressTargetMaintainer(
    Schema base_schema, std::vector<size_t> grouping_columns, uint64_t y,
    uint64_t seed) {
  return std::make_unique<CongressTargetMaintainer>(
      std::move(base_schema), std::move(grouping_columns), y, seed);
}

std::unique_ptr<SampleMaintainer> MakeMaintainer(
    AllocationStrategy strategy, Schema base_schema,
    std::vector<size_t> grouping_columns, uint64_t x, uint64_t seed) {
  switch (strategy) {
    case AllocationStrategy::kHouse:
      return MakeHouseMaintainer(std::move(base_schema),
                                 std::move(grouping_columns), x, seed);
    case AllocationStrategy::kSenate:
      return MakeSenateMaintainer(std::move(base_schema),
                                  std::move(grouping_columns), x, seed);
    case AllocationStrategy::kBasicCongress:
      return MakeBasicCongressMaintainer(std::move(base_schema),
                                         std::move(grouping_columns), x,
                                         seed);
    case AllocationStrategy::kCongress:
      return MakeCongressMaintainer(std::move(base_schema),
                                    std::move(grouping_columns), x, seed);
  }
  return nullptr;
}

Result<StratifiedSample> MaterializeSnapshot(SampleMaintainer* maintainer,
                                             uint64_t target_sample_size) {
  auto* congress = dynamic_cast<CongressMaintainer*>(maintainer);
  return congress != nullptr ? congress->SnapshotScaledTo(target_sample_size)
                             : maintainer->Snapshot();
}

Result<StratifiedSample> BuildSampleOnePass(
    const Table& table, const std::vector<size_t>& grouping_columns,
    AllocationStrategy strategy, uint64_t sample_size, uint64_t seed) {
  std::unique_ptr<SampleMaintainer> maintainer =
      MakeMaintainer(strategy, table.schema(), grouping_columns, sample_size,
                     seed);
  std::vector<Value> row;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    row.clear();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(table.GetValue(r, c));
    }
    CONGRESS_RETURN_NOT_OK(maintainer->Insert(row));
  }
  return MaterializeSnapshot(maintainer.get(), sample_size);
}

}  // namespace congress
