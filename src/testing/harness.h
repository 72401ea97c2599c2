#ifndef CONGRESS_TESTING_HARNESS_H_
#define CONGRESS_TESTING_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testing/datagen.h"
#include "testing/query_gen.h"
#include "tpcd/lineitem.h"
#include "util/status.h"

namespace congress::testing {

/// One named workload regime the property runner iterates over. A config
/// plus a seed is a complete, reproducible test case:
///   prop_runner --seed=S --config=NAME
struct PropConfig {
  std::string name;
  std::string description;

  /// Synthetic regime (default) or the TPC-D lineitem generator.
  bool use_lineitem = false;
  SyntheticSpec spec;             ///< Used when !use_lineitem; seed overridden.
  tpcd::LineitemConfig lineitem;  ///< Used when use_lineitem; seed overridden.

  QueryGenConfig querygen;
  /// Expected sample size as a fraction of the table.
  double sample_fraction = 0.10;
  /// Random queries drawn per (config, seed) case; strategies rotate so
  /// four queries cover all four allocation strategies.
  size_t queries_per_seed = 4;
  /// Run the crash-recovery oracles (checkpoint → inject fault → recover
  /// → compare against an uninterrupted run) instead of the query
  /// oracles. All four allocation strategies are exercised.
  bool crash_recovery = false;

  /// Run the concurrent snapshot-consistency oracle (reader threads vs a
  /// publishing writer on one AquaEngine) instead of the query oracles.
  /// All four allocation strategies are exercised; run it under TSan to
  /// prove the catalog's reader path race-free.
  bool concurrent = false;

  /// Run the sharded-ingest oracle (shard-count bit invariance,
  /// concurrent-producer tear and serial-replay checks, engine publish
  /// invariance) instead of the query oracles.
  /// All four allocation strategies are exercised; run it under TSan to
  /// prove the chunk-queue claim/publish/reclaim protocol race-free.
  bool sharded_ingest = false;

  /// Run the network chaos oracle (retrying AquaClients vs a live framed
  /// TCP front-end with failpoint-injected socket weather) instead of the
  /// query oracles. One strategy (Congress) bounds runtime; run it under
  /// TSan to prove the event loop / completion queue / worker pool share
  /// no unsynchronized state.
  bool net_chaos = false;

  /// Run the planner budget-coverage experiment (stat_validator.h) instead
  /// of the query oracles: seeded Zipf tables answered through
  /// planner::Planner under a ladder of WITHIN budgets, each (run, group,
  /// aggregate) a Bernoulli coverage trial validated one-sided-binomially
  /// per tier, per group-size decile, and per delivered plan kind. All
  /// four allocation strategies are exercised.
  bool planner = false;
};

/// The built-in regimes: uniform, Zipf-skewed, null-heavy, singleton-rich,
/// single-column, and TPC-D lineitem. Every default config exercises all
/// four allocation strategies and all four rewrite strategies.
const std::vector<PropConfig>& DefaultConfigs();

/// Looks up a built-in config by name.
Result<PropConfig> FindConfig(const std::string& name);

/// A reproducible oracle failure: which oracle tripped, on what, the
/// one-line repro command, and a minimized CSV dump of a table that still
/// triggers it.
struct PropFailure {
  std::string config;
  uint64_t seed = 0;
  std::string oracle;
  std::string detail;
  std::string repro;       ///< "prop_runner --seed=S --config=NAME"
  std::string table_dump;  ///< Minimized table as CSV (possibly truncated).

  std::string ToString() const;
};

/// Runs every differential oracle for one (config, seed) case. On the
/// first failure, returns its status and (if `failure` is non-null) fills
/// in the repro command and a minimized table dump; the minimizer shrinks
/// the synthetic spec (fewer rows, columns, special strata) as long as
/// the same oracle keeps failing.
Status RunPropCase(const PropConfig& config, uint64_t seed,
                   PropFailure* failure);

}  // namespace congress::testing

#endif  // CONGRESS_TESTING_HARNESS_H_
