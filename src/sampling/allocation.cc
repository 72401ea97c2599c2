#include "sampling/allocation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "obs/scope.h"

namespace congress {

const char* AllocationStrategyToString(AllocationStrategy strategy) {
  switch (strategy) {
    case AllocationStrategy::kHouse:
      return "House";
    case AllocationStrategy::kSenate:
      return "Senate";
    case AllocationStrategy::kBasicCongress:
      return "BasicCongress";
    case AllocationStrategy::kCongress:
      return "Congress";
  }
  return "Unknown";
}

GroupStatistics GroupStatistics::Compute(const Table& table,
                                         const std::vector<size_t>& group_columns,
                                         const ExecutorOptions& options) {
  auto census = GroupCensus::Build(table, group_columns, options);
  if (!census.ok()) return GroupStatistics{};
  return std::move(census->stats);
}

Result<GroupStatistics> GroupStatistics::FromCounts(
    std::vector<std::pair<GroupKey, uint64_t>> counts) {
  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  GroupStatistics stats;
  for (auto& [key, count] : counts) {
    if (count == 0) {
      return Status::InvalidArgument("group " + GroupKeyToString(key) +
                                     " has zero count");
    }
    if (!stats.keys_.empty() && stats.keys_.back() == key) {
      return Status::InvalidArgument("duplicate group key " +
                                     GroupKeyToString(key));
    }
    if (!stats.keys_.empty() && key.size() != stats.keys_.back().size()) {
      return Status::InvalidArgument("group keys have mixed arity");
    }
    stats.total_ += count;
    stats.keys_.push_back(std::move(key));
    stats.counts_.push_back(count);
  }
  return stats;
}

Result<size_t> GroupStatistics::IndexOf(const GroupKey& key) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || !(*it == key)) {
    return Status::NotFound("group " + GroupKeyToString(key) + " not present");
  }
  return static_cast<size_t>(it - keys_.begin());
}

Result<GroupCensus> GroupCensus::Build(const Table& table,
                                       const std::vector<size_t>& group_columns,
                                       const ExecutorOptions& options) {
  CONGRESS_SPAN(census_span, options.scope, "census");
  auto index = GroupIndex::Build(table, group_columns,
                                 options.WithScope(census_span.scope()));
  if (!index.ok()) return index.status();
  // A NaN orders against nothing, so it would break the sort below (and
  // with it every stratum lookup). Every NaN cell is in some group's key.
  for (const GroupKey& key : index->keys()) {
    for (size_t c = 0; c < key.size(); ++c) {
      if (key[c].is_double() && std::isnan(key[c].AsDouble())) {
        return Status::InvalidArgument(
            "grouping column '" +
            table.schema().field(group_columns[c]).name +
            "' holds NaN, which cannot stratify a sample");
      }
    }
  }
  std::vector<std::pair<GroupKey, uint64_t>> pairs;
  pairs.reserve(index->num_groups());
  for (size_t g = 0; g < index->num_groups(); ++g) {
    pairs.emplace_back(index->keys()[g], index->counts()[g]);
  }
  auto stats = GroupStatistics::FromCounts(std::move(pairs));
  if (!stats.ok()) return stats.status();
  // Resolve each distinct group against the statistics once, so no
  // consumer maps rows to strata by key.
  std::vector<size_t> position(index->num_groups());
  for (size_t g = 0; g < index->num_groups(); ++g) {
    auto idx = stats->IndexOf(index->keys()[g]);
    if (!idx.ok()) {
      return Status::InvalidArgument("table contains group " +
                                     GroupKeyToString(index->keys()[g]) +
                                     " absent from statistics");
    }
    position[g] = *idx;
  }
  return GroupCensus(
      std::make_shared<const GroupIndex>(std::move(index).value()),
      std::move(stats).value(), std::move(position));
}

Status GroupCensus::CheckTable(const Table& table) const {
  if (index == nullptr || index->num_rows() != table.num_rows()) {
    return Status::InvalidArgument("census does not describe this table");
  }
  return Status::OK();
}

double Allocation::Total() const {
  return std::accumulate(expected_sizes.begin(), expected_sizes.end(), 0.0);
}

namespace {

/// Caps each expected size at the group population and re-divides the
/// surplus among uncapped groups in proportion to their shares, until
/// stable. Keeps allocations feasible when X/m exceeds a small group's
/// size (paper footnote 12).
void CapAtPopulations(const GroupStatistics& stats,
                      std::vector<double>* sizes) {
  const auto& counts = stats.counts();
  for (int iter = 0; iter < 64; ++iter) {
    double surplus = 0.0;
    double uncapped_weight = 0.0;
    for (size_t i = 0; i < sizes->size(); ++i) {
      double cap = static_cast<double>(counts[i]);
      if ((*sizes)[i] > cap) {
        surplus += (*sizes)[i] - cap;
        (*sizes)[i] = cap;
      } else if ((*sizes)[i] < cap) {
        uncapped_weight += (*sizes)[i];
      }
    }
    if (surplus < 1e-9 || uncapped_weight < 1e-12) break;
    for (size_t i = 0; i < sizes->size(); ++i) {
      double cap = static_cast<double>(counts[i]);
      if ((*sizes)[i] < cap) {
        (*sizes)[i] += surplus * (*sizes)[i] / uncapped_weight;
      }
    }
  }
  // Final clamp in case the loop hit its iteration bound.
  for (size_t i = 0; i < sizes->size(); ++i) {
    (*sizes)[i] = std::min((*sizes)[i], static_cast<double>(counts[i]));
  }
}

}  // namespace

Allocation AllocateHouse(const GroupStatistics& stats, double sample_size) {
  Allocation alloc;
  alloc.expected_sizes.reserve(stats.num_groups());
  const double total = static_cast<double>(stats.total_tuples());
  for (uint64_t n_g : stats.counts()) {
    alloc.expected_sizes.push_back(sample_size * static_cast<double>(n_g) /
                                   total);
  }
  return alloc;
}

Allocation AllocateSenate(const GroupStatistics& stats, double sample_size) {
  Allocation alloc;
  const double m = static_cast<double>(stats.num_groups());
  alloc.expected_sizes.assign(stats.num_groups(), sample_size / m);
  CapAtPopulations(stats, &alloc.expected_sizes);
  return alloc;
}

Allocation AllocateBasicCongress(const GroupStatistics& stats,
                                 double sample_size) {
  const double total = static_cast<double>(stats.total_tuples());
  const double m = static_cast<double>(stats.num_groups());
  Allocation alloc;
  alloc.expected_sizes.reserve(stats.num_groups());
  double denom = 0.0;
  for (uint64_t n_g : stats.counts()) {
    denom += std::max(static_cast<double>(n_g) / total, 1.0 / m);
  }
  alloc.scale_down_factor = 1.0 / denom;
  for (uint64_t n_g : stats.counts()) {
    double share = std::max(static_cast<double>(n_g) / total, 1.0 / m);
    alloc.expected_sizes.push_back(sample_size * share / denom);
  }
  CapAtPopulations(stats, &alloc.expected_sizes);
  return alloc;
}

std::vector<double> GroupingWeightVector(const GroupStatistics& stats,
                                         const std::vector<size_t>& grouping) {
  // Project every finest group onto the sub-grouping T and total the
  // counts per projected super-group h.
  std::unordered_map<GroupKey, uint64_t, GroupKeyHash> super_counts;
  std::vector<GroupKey> projected(stats.num_groups());
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    GroupKey proj;
    proj.reserve(grouping.size());
    for (size_t pos : grouping) proj.push_back(stats.keys()[i][pos]);
    super_counts[proj] += stats.counts()[i];
    projected[i] = std::move(proj);
  }
  const double m_t = static_cast<double>(super_counts.size());
  // Weight of subgroup g under T: (1/m_T) * n_g / n_h   (Eq. 4 with X=1).
  std::vector<double> weights(stats.num_groups());
  for (size_t i = 0; i < stats.num_groups(); ++i) {
    double n_h = static_cast<double>(super_counts[projected[i]]);
    weights[i] =
        (1.0 / m_t) * static_cast<double>(stats.counts()[i]) / n_h;
  }
  return weights;
}

Result<Allocation> AllocateFromWeightVectors(
    const GroupStatistics& stats, double sample_size,
    const std::vector<std::vector<double>>& weight_vectors) {
  if (weight_vectors.empty()) {
    return Status::InvalidArgument("no weight vectors given");
  }
  std::vector<double> max_share(stats.num_groups(), 0.0);
  for (const auto& wv : weight_vectors) {
    if (wv.size() != stats.num_groups()) {
      return Status::InvalidArgument(
          "weight vector size " + std::to_string(wv.size()) +
          " does not match group count " +
          std::to_string(stats.num_groups()));
    }
    double sum = std::accumulate(wv.begin(), wv.end(), 0.0);
    if (sum <= 0.0) {
      return Status::InvalidArgument("weight vector sums to zero");
    }
    for (size_t i = 0; i < wv.size(); ++i) {
      if (wv[i] < 0.0) {
        return Status::InvalidArgument("negative weight");
      }
      max_share[i] = std::max(max_share[i], wv[i] / sum);
    }
  }
  double denom = std::accumulate(max_share.begin(), max_share.end(), 0.0);
  Allocation alloc;
  alloc.scale_down_factor = 1.0 / denom;
  alloc.expected_sizes.reserve(stats.num_groups());
  for (double share : max_share) {
    alloc.expected_sizes.push_back(sample_size * share / denom);
  }
  CapAtPopulations(stats, &alloc.expected_sizes);
  return alloc;
}

Result<Allocation> AllocateCongressOverGroupings(
    const GroupStatistics& stats, double sample_size,
    const std::vector<std::vector<size_t>>& groupings) {
  if (groupings.empty()) {
    return Status::InvalidArgument("no groupings given");
  }
  const size_t arity = stats.num_grouping_attributes();
  std::vector<std::vector<double>> weight_vectors;
  weight_vectors.reserve(groupings.size());
  for (const auto& grouping : groupings) {
    for (size_t pos : grouping) {
      if (pos >= arity) {
        return Status::InvalidArgument(
            "grouping attribute position " + std::to_string(pos) +
            " out of range for arity " + std::to_string(arity));
      }
    }
    weight_vectors.push_back(GroupingWeightVector(stats, grouping));
  }
  return AllocateFromWeightVectors(stats, sample_size, weight_vectors);
}

std::vector<std::vector<size_t>> AllSubGroupings(size_t arity) {
  std::vector<std::vector<size_t>> groupings;
  groupings.reserve(size_t{1} << arity);
  for (size_t mask = 0; mask < (size_t{1} << arity); ++mask) {
    std::vector<size_t> grouping;
    for (size_t pos = 0; pos < arity; ++pos) {
      if (mask & (size_t{1} << pos)) grouping.push_back(pos);
    }
    groupings.push_back(std::move(grouping));
  }
  return groupings;
}

Allocation AllocateCongress(const GroupStatistics& stats, double sample_size) {
  auto result = AllocateCongressOverGroupings(
      stats, sample_size, AllSubGroupings(stats.num_grouping_attributes()));
#ifdef CONGRESS_PROP_SELFTEST
  // Deliberate off-by-one so the property harness can prove its oracles
  // catch real allocation bugs (the Eq.-6 total no longer equals X).
  if (result.ok() && !result->expected_sizes.empty()) {
    result->expected_sizes[0] += 1.0;
  }
#endif
  // Positions 0..arity-1 are in range by construction, so this only fires
  // on internal invariant violations; degrade to an empty allocation
  // instead of dereferencing an error Result in release builds.
  return std::move(result).value_or(Allocation{});
}

Allocation Allocate(AllocationStrategy strategy, const GroupStatistics& stats,
                    double sample_size) {
  switch (strategy) {
    case AllocationStrategy::kHouse:
      return AllocateHouse(stats, sample_size);
    case AllocationStrategy::kSenate:
      return AllocateSenate(stats, sample_size);
    case AllocationStrategy::kBasicCongress:
      return AllocateBasicCongress(stats, sample_size);
    case AllocationStrategy::kCongress:
      return AllocateCongress(stats, sample_size);
  }
  return AllocateCongress(stats, sample_size);
}

Result<Allocation> AllocateWithPreferences(
    const GroupStatistics& stats, double sample_size,
    const std::vector<std::pair<std::vector<size_t>, double>>& preferences) {
  if (preferences.empty()) {
    return Status::InvalidArgument("no preferences given");
  }
  std::vector<std::vector<double>> weight_vectors;
  weight_vectors.reserve(preferences.size());
  for (const auto& [grouping, r_h] : preferences) {
    if (r_h < 0.0) {
      return Status::InvalidArgument("negative preference weight");
    }
    if (r_h == 0.0) continue;
    std::vector<double> wv = GroupingWeightVector(stats, grouping);
    // Section 4.7: SampleSize(g) = max over h of X * r_h * n_g / n_h.
    // GroupingWeightVector already divides by m_T; multiply it back out and
    // apply the preference so each super-group h receives weight r_h.
    std::unordered_map<GroupKey, uint64_t, GroupKeyHash> super_counts;
    for (size_t i = 0; i < stats.num_groups(); ++i) {
      GroupKey proj;
      for (size_t pos : grouping) proj.push_back(stats.keys()[i][pos]);
      super_counts[proj] += stats.counts()[i];
    }
    double m_t = static_cast<double>(super_counts.size());
    for (double& w : wv) w *= m_t * r_h;
    weight_vectors.push_back(std::move(wv));
  }
  if (weight_vectors.empty()) {
    return Status::InvalidArgument("all preference weights are zero");
  }
  // Do NOT renormalize each vector to 1 here: relative preference sizes
  // across groupings matter. AllocateFromWeightVectors normalizes each
  // vector, which would erase them, so fold everything into one combined
  // max-vector first.
  std::vector<double> combined(stats.num_groups(), 0.0);
  for (const auto& wv : weight_vectors) {
    for (size_t i = 0; i < wv.size(); ++i) {
      combined[i] = std::max(combined[i], wv[i]);
    }
  }
  return AllocateFromWeightVectors(stats, sample_size, {combined});
}

std::vector<uint64_t> RoundAllocation(const GroupStatistics& stats,
                                      const Allocation& allocation) {
  const size_t m = stats.num_groups();
  assert(allocation.expected_sizes.size() == m);
  const uint64_t target = static_cast<uint64_t>(
      std::llround(std::min(allocation.Total(),
                            static_cast<double>(stats.total_tuples()))));

  std::vector<uint64_t> sizes(m, 0);
  std::vector<double> ideal = allocation.expected_sizes;
  // Cap ideals at populations (defensive; strategies already cap).
  for (size_t i = 0; i < m; ++i) {
    ideal[i] = std::min(ideal[i], static_cast<double>(stats.counts()[i]));
  }

  uint64_t assigned = 0;
  std::vector<std::pair<double, size_t>> remainders;
  remainders.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    uint64_t base = static_cast<uint64_t>(ideal[i]);
    sizes[i] = base;
    assigned += base;
    remainders.emplace_back(ideal[i] - static_cast<double>(base), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  // Hand out leftover units by largest remainder, skipping full groups;
  // cycle until the target is met or every group is full.
  size_t cursor = 0;
  size_t stall = 0;
  while (assigned < target && stall < m) {
    size_t i = remainders[cursor % m].second;
    if (sizes[i] < stats.counts()[i]) {
      sizes[i] += 1;
      assigned += 1;
      stall = 0;
    } else {
      ++stall;
    }
    ++cursor;
  }
  return sizes;
}

}  // namespace congress
