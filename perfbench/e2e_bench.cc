// End-to-end benchmark of the serving path: AquaClient -> framed TCP ->
// TcpFrontEnd -> AquaServer queue -> parse/bind -> synopsis, planner or
// exact scan -> response encode -> back to the client.
//
//   e2e_bench --workload approx|exact|budget --seed N --seconds S --trace 0|1
//
// The seed makes every input: the lineitem table and the pool of group-by
// queries. Set-up (register the table, which builds the synopsis fleet;
// start the server and the TCP front-end; one round trip per client) is
// timed several times and its median reported. Then kClients closed-loop
// clients, one connection each, send queries drawn from the pool for S
// seconds while kWorkers server threads answer them.
//
// Every distinct query's answer is checked once against a reference that
// this file computes with its own scan of the table; every later answer
// must then be bit-identical to the checked one.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// breakdown instead: the codec stages are re-timed around each request on
// the client thread, queue and execution times come from the server's
// response, and parse, route (pin + bind) and answer are replayed in a
// quiet pass after the loop. `socket_us` is what the end-to-end time leaves
// once the measured stages are taken out: socket I/O and the front-end's
// event loop.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/aqua.h"
#include "core/degradation.h"
#include "engine/executor.h"
#include "net/client.h"
#include "net/front_end.h"
#include "net/wire.h"
#include "planner/planner.h"
#include "serve/server.h"
#include "sql/parser.h"
#include "tpcd/lineitem.h"

namespace congress::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr char kTable[] = "lineitem";
constexpr uint64_t kTuples = 200'000;
constexpr uint64_t kGroups = 1000;
constexpr double kSampleFraction = 0.05;
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
// Set-up rounds before and after the measured loop; spreading them over
// the run keeps their median from riding one burst of machine noise.
constexpr int kSetupsBefore = 4;
constexpr int kSetupsAfter = 3;
// The budgeted workload's promise: WITHIN 35% CONFIDENCE 90%. The
// planner then answers single-column groupings from the synopsis (their
// predicted error is 11-16%) and finer groupings exactly, far enough from
// the threshold that the split does not depend on the seed.
constexpr double kBudgetError = 0.35;
constexpr double kBudgetConfidence = 0.90;
// Share of (group, aggregate) cells whose truth must lie inside the
// reported bound. The bounds are Chebyshev at 90%, so real coverage is
// far higher; this only catches broken estimates.
constexpr double kMinCoverage = 0.80;
// Wall-clock cap on the trace run's quiet replay pass.
constexpr double kReplaySeconds = 2.0;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

enum class Mode { kApprox, kExact, kBudget };

struct Options {
  Mode mode = Mode::kApprox;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      if (value == "approx") {
        options->mode = Mode::kApprox;
      } else if (value == "exact") {
        options->mode = Mode::kExact;
      } else if (value == "budget") {
        options->mode = Mode::kBudget;
      } else {
        return false;
      }
      have_workload = true;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options->seconds > 0.0;
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds;
}

struct Aggregate {
  AggregateKind kind = AggregateKind::kCount;
  size_t column = 0;  // Ignored for COUNT(*).
};

struct QuerySpec {
  std::vector<size_t> group_columns;
  std::vector<Aggregate> aggregates;
  bool ranged = false;
  int64_t lo = 0;  // Inclusive l_id range when `ranged`.
  int64_t hi = 0;
  serve::Request request;
};

using GroupValues = std::vector<int64_t>;
/// Exact answer of one query: group key -> aggregate values.
using Truth = std::map<GroupValues, std::vector<double>>;

/// The query pool: every non-empty subset of the three grouping columns,
/// times two aggregate lists, with and without an l_id range predicate.
/// The seed picks only where each range starts, so the pool's cost
/// barely moves between seeds.
std::vector<QuerySpec> MakePool(const Table& table, Mode mode,
                                std::mt19937_64* rng) {
  const std::vector<size_t> grouping = tpcd::LineitemGroupingColumns();
  const std::vector<std::vector<Aggregate>> aggregate_lists = {
      {{AggregateKind::kSum, tpcd::kLQuantity}, {AggregateKind::kCount, 0}},
      {{AggregateKind::kAvg, tpcd::kLExtendedPrice},
       {AggregateKind::kSum, tpcd::kLExtendedPrice}}};
  const std::vector<int64_t>& ids = table.Int64Column(tpcd::kLId);
  const auto [min_id, max_id] = std::minmax_element(ids.begin(), ids.end());
  const int64_t span = *max_id - *min_id + 1;
  auto name = [&](size_t column) { return table.schema().field(column).name; };

  std::vector<QuerySpec> pool;
  for (unsigned mask = 1; mask < (1u << grouping.size()); ++mask) {
    for (const auto& aggregates : aggregate_lists) {
      for (bool ranged : {false, true}) {
        QuerySpec spec;
        for (size_t i = 0; i < grouping.size(); ++i) {
          if (mask & (1u << i)) spec.group_columns.push_back(grouping[i]);
        }
        spec.aggregates = aggregates;
        std::string keys;
        for (size_t column : spec.group_columns) {
          keys += (keys.empty() ? "" : ", ") + name(column);
        }
        std::string sql = "SELECT " + keys;
        for (const Aggregate& agg : spec.aggregates) {
          sql += std::string(", ") + AggregateKindToString(agg.kind) + "(" +
                 (agg.kind == AggregateKind::kCount ? "*" : name(agg.column)) +
                 ")";
        }
        sql += std::string(" FROM ") + kTable;
        if (ranged) {
          // 60% of the rows, anywhere in the id range. The width is fixed
          // because a query's cost grows with the rows it keeps.
          const int64_t width = span * 60 / 100;
          spec.ranged = true;
          spec.lo = *min_id + static_cast<int64_t>((*rng)() %
                                                   (span - width + 1));
          spec.hi = spec.lo + width - 1;
          sql += " WHERE " + name(tpcd::kLId) + " BETWEEN " +
                 std::to_string(spec.lo) + " AND " + std::to_string(spec.hi);
        }
        sql += " GROUP BY " + keys;
        if (mode == Mode::kBudget) {
          sql += " WITHIN " + std::to_string(kBudgetError * 100) +
                 "% CONFIDENCE " + std::to_string(kBudgetConfidence * 100) +
                 "%";
        }
        spec.request.sql = std::move(sql);
        spec.request.mode = mode == Mode::kExact ? serve::QueryMode::kExact
                                                 : serve::QueryMode::kApproximate;
        pool.push_back(std::move(spec));
      }
    }
  }
  return pool;
}

/// One grouping column mapped to dense codes: `values[code]` is the
/// column value, `rows[r]` the code of row r.
struct ColumnCodes {
  std::vector<int64_t> values;
  std::vector<uint32_t> rows;
};

/// Dense codes for every column of the table, indexed by column (filled
/// for the grouping columns only).
std::vector<ColumnCodes> EncodeGroupingColumns(const Table& table) {
  std::vector<ColumnCodes> columns(table.num_columns());
  for (size_t column : tpcd::LineitemGroupingColumns()) {
    const std::vector<int64_t>& values = table.Int64Column(column);
    std::map<int64_t, uint32_t> dense;
    for (int64_t v : values) dense.emplace(v, 0);
    ColumnCodes& codes = columns[column];
    for (auto& [value, code] : dense) {
      code = static_cast<uint32_t>(codes.values.size());
      codes.values.push_back(value);
    }
    codes.rows.reserve(values.size());
    for (int64_t v : values) codes.rows.push_back(dense[v]);
  }
  return columns;
}

/// Reference answer from a plain scan of the table over dense group
/// codes, independent of the engine's kernels.
Truth ComputeTruth(const Table& table, const std::vector<ColumnCodes>& coded,
                   const QuerySpec& spec) {
  const size_t rows = table.num_rows();
  std::vector<const ColumnCodes*> codes;
  for (size_t column : spec.group_columns) codes.push_back(&coded[column]);
  size_t cells = 1;
  for (const ColumnCodes* c : codes) cells *= c->values.size();

  const size_t num_aggs = spec.aggregates.size();
  std::vector<double> sums(cells * num_aggs, 0.0);
  std::vector<uint64_t> counts(cells, 0);
  const std::vector<int64_t>& ids = table.Int64Column(tpcd::kLId);
  for (size_t r = 0; r < rows; ++r) {
    if (spec.ranged && (ids[r] < spec.lo || ids[r] > spec.hi)) continue;
    size_t cell = 0;
    for (size_t c = 0; c < codes.size(); ++c) {
      cell = cell * codes[c]->values.size() + codes[c]->rows[r];
    }
    counts[cell] += 1;
    for (size_t a = 0; a < num_aggs; ++a) {
      const Aggregate& agg = spec.aggregates[a];
      if (agg.kind != AggregateKind::kCount) {
        sums[cell * num_aggs + a] += table.DoubleColumn(agg.column)[r];
      }
    }
  }

  Truth truth;
  for (size_t cell = 0; cell < cells; ++cell) {
    if (counts[cell] == 0) continue;
    GroupValues key(codes.size());
    size_t rest = cell;
    for (size_t c = codes.size(); c-- > 0;) {
      key[c] = codes[c]->values[rest % codes[c]->values.size()];
      rest /= codes[c]->values.size();
    }
    std::vector<double> values(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      const double count = static_cast<double>(counts[cell]);
      const double sum = sums[cell * num_aggs + a];
      switch (spec.aggregates[a].kind) {
        case AggregateKind::kCount: values[a] = count; break;
        case AggregateKind::kAvg: values[a] = sum / count; break;
        default: values[a] = sum; break;
      }
    }
    truth.emplace(std::move(key), std::move(values));
  }
  return truth;
}

bool Close(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

/// Coverage tally across every checked answer of an approximate workload.
struct Coverage {
  uint64_t cells = 0;
  uint64_t covered = 0;
};

/// Checks one answer against its reference. Exact answers (and groups an
/// approximate plan answered exactly) must match; sampled estimates must
/// name real groups and carry finite bounds, and the budgeted workload's
/// bounds must keep the promised relative error.
bool CheckAnswer(Mode mode, const QuerySpec& spec, const Truth& truth,
                 const ApproximateResult& answer, Coverage* coverage,
                 std::string* error) {
  if (mode == Mode::kExact && answer.num_groups() != truth.size()) {
    *error = "exact answer has " + std::to_string(answer.num_groups()) +
             " groups, reference " + std::to_string(truth.size());
    return false;
  }
  const size_t num_aggs = spec.aggregates.size();
  for (const ApproximateGroupRow& row : answer.rows()) {
    GroupValues key;
    for (const Value& v : row.key) {
      if (!v.is_int64()) {
        *error = "non-integer group key";
        return false;
      }
      key.push_back(v.AsInt64());
    }
    auto it = truth.find(key);
    if (it == truth.end() || row.estimates.size() != num_aggs ||
        row.bounds.size() != num_aggs) {
      *error = "answer row does not match any reference group";
      return false;
    }
    const bool exact = mode == Mode::kExact ||
                       row.provenance == GroupProvenance::kExact;
    for (size_t a = 0; a < num_aggs; ++a) {
      const double est = row.estimates[a];
      const double bound = row.bounds[a];
      const double want = it->second[a];
      if (exact) {
        if (!Close(est, want)) {
          *error = "exact value " + std::to_string(est) + " != reference " +
                   std::to_string(want);
          return false;
        }
        continue;
      }
      if (!std::isfinite(est) || !std::isfinite(bound) || bound < 0.0) {
        *error = "non-finite estimate or bound";
        return false;
      }
      if (mode == Mode::kBudget &&
          bound > kBudgetError * std::max(std::fabs(est), 1e-9) *
                      (1.0 + 1e-9)) {
        *error = "bound breaks the WITHIN promise";
        return false;
      }
      coverage->cells += 1;
      if (std::fabs(est - want) <= bound + 1e-9 * std::max(1.0, std::fabs(want))) {
        coverage->covered += 1;
      }
    }
  }
  return true;
}

/// Order-sensitive digest of an answer: repeated answers to one query
/// from one snapshot must be bit-identical.
uint64_t Fingerprint(const ApproximateResult& answer) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(answer.num_groups());
  for (const ApproximateGroupRow& row : answer.rows()) {
    for (const Value& v : row.key) mix(v.Hash());
    for (double d : row.estimates) mix_double(d);
    for (double d : row.bounds) mix_double(d);
  }
  return h;
}

/// One running serving stack. Members are declared in dependency order;
/// Shutdown() stops the front-end before the server it feeds.
struct Stack {
  std::unique_ptr<AquaEngine> engine;
  std::unique_ptr<serve::AquaServer> server;
  std::unique_ptr<net::TcpFrontEnd> front_end;
  std::vector<std::unique_ptr<net::AquaClient>> clients;

  void Shutdown() {
    clients.clear();
    if (front_end != nullptr) front_end->Stop();
    if (server != nullptr) server->Stop();
  }
  ~Stack() { Shutdown(); }
};

/// Brings up engine, server, front-end and clients, ending with one round
/// trip per client so every connection is open and served.
Status SetUp(Table table, uint64_t seed, const serve::Request& first,
             Stack* stack) {
  SynopsisConfig config;
  config.grouping_columns = tpcd::LineitemGroupingColumnNames();
  config.sample_fraction = kSampleFraction;
  config.fleet_histogram = true;
  config.fleet_wavelet = true;
  config.seed = seed;
  stack->engine = std::make_unique<AquaEngine>();
  CONGRESS_RETURN_NOT_OK(
      stack->engine->RegisterTable(kTable, std::move(table), config));

  serve::ServeOptions serve_options;
  serve_options.num_threads = kWorkers;
  const AquaEngine* read_only = stack->engine.get();
  stack->server = std::make_unique<serve::AquaServer>(read_only, serve_options);
  CONGRESS_RETURN_NOT_OK(stack->server->Start());

  stack->front_end = std::make_unique<net::TcpFrontEnd>(
      stack->server.get(), net::FrontEndOptions{});
  CONGRESS_RETURN_NOT_OK(stack->front_end->Start());

  for (size_t c = 0; c < kClients; ++c) {
    net::ClientOptions client_options;
    client_options.seed = seed + c;
    stack->clients.push_back(std::make_unique<net::AquaClient>(
        "127.0.0.1", stack->front_end->port(), client_options));
    auto response = stack->clients.back()->Call(first);
    if (!response.ok()) return response.status();
    if (!response->status.ok()) return response->status;
  }
  return Status::OK();
}

/// Per-request stage times (seconds) and sizes, summed per client thread.
struct TraceSums {
  double e2e = 0.0;
  double client_encode = 0.0;
  double server_decode = 0.0;
  double queue = 0.0;
  double exec = 0.0;
  double response_encode = 0.0;
  double client_decode = 0.0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;

  void Add(const TraceSums& o) {
    e2e += o.e2e;
    client_encode += o.client_encode;
    server_decode += o.server_decode;
    queue += o.queue;
    exec += o.exec;
    response_encode += o.response_encode;
    client_decode += o.client_decode;
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
  }
};

/// Re-times, on the client thread, the wire work both ends did for one
/// request: the client's request encode, the front-end's request decode,
/// the front-end's response encode and the client's response decode.
/// Returns false if a codec fails to round-trip what it just encoded.
bool TraceCodecs(const serve::Request& request,
                 const serve::Response& response, TraceSums* sums) {
  auto t0 = Clock::now();
  std::string frame;
  net::EncodeFrame(net::FrameType::kRequest, 1, net::EncodeRequest(request),
                   &frame);
  auto t1 = Clock::now();
  auto header = net::DecodeFrameHeader(frame.data(), frame.size(),
                                       net::kDefaultMaxFrameBytes);
  const char* payload = frame.data() + net::kFrameHeaderBytes;
  const size_t payload_size = frame.size() - net::kFrameHeaderBytes;
  bool ok = header.ok() &&
            net::VerifyFramePayload(*header, payload, payload_size).ok() &&
            net::DecodeRequest(payload, payload_size).ok();
  auto t2 = Clock::now();
  std::string reply;
  net::EncodeFrame(net::FrameType::kResponse, 1,
                   net::EncodeResponse(response), &reply);
  auto t3 = Clock::now();
  auto reply_header = net::DecodeFrameHeader(reply.data(), reply.size(),
                                             net::kDefaultMaxFrameBytes);
  const char* reply_payload = reply.data() + net::kFrameHeaderBytes;
  const size_t reply_size = reply.size() - net::kFrameHeaderBytes;
  ok = ok && reply_header.ok() &&
       net::VerifyFramePayload(*reply_header, reply_payload, reply_size).ok() &&
       net::DecodeResponse(reply_payload, reply_size).ok();
  auto t4 = Clock::now();
  sums->client_encode += Seconds(t1 - t0);
  sums->server_decode += Seconds(t2 - t1);
  sums->response_encode += Seconds(t3 - t2);
  sums->client_decode += Seconds(t4 - t3);
  sums->request_bytes += static_cast<double>(frame.size());
  sums->response_bytes += static_cast<double>(reply.size());
  sums->queue += response.queue_seconds;
  sums->exec += response.exec_seconds;
  return ok;
}

struct ClientLog {
  std::vector<double> latencies;  // Seconds, successful calls only.
  std::vector<uint64_t> per_query;  // Requests sent, by pool index.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  Clock::time_point finished;
  TraceSums trace;
};

void RunClient(net::AquaClient* client, const std::vector<QuerySpec>& pool,
               const std::vector<uint64_t>& expected, uint64_t seed,
               Clock::time_point end, bool trace, ClientLog* log) {
  // Each client walks the pool in freshly shuffled rounds, so every run
  // sends the same query mix. Latency has one mode per grouping arity
  // (1, 2 or 3 columns); a round holds 12 queries of each, which puts the
  // median in the middle of the two-column mode instead of at the edge
  // between two modes, where it would jump from run to run.
  std::mt19937_64 rng(seed);
  std::vector<size_t> order;
  for (size_t q = 0; q < pool.size(); ++q) {
    const size_t copies = pool[q].group_columns.size() == 3 ? 3 : 1;
    order.insert(order.end(), copies, q);
  }
  size_t next = order.size();
  log->per_query.assign(pool.size(), 0);
  log->latencies.reserve(1 << 16);
  while (Clock::now() < end) {
    if (next == order.size()) {
      std::shuffle(order.begin(), order.end(), rng);
      next = 0;
    }
    const size_t q = order[next++];
    const auto start = Clock::now();
    auto response = client->Call(pool[q].request);
    const double latency = Seconds(Clock::now() - start);
    log->attempted += 1;
    log->per_query[q] += 1;
    if (!response.ok() || !response->status.ok()) {
      log->failed += 1;
      continue;
    }
    log->latencies.push_back(latency);
    if (Fingerprint(response->result) != expected[q]) log->mismatched += 1;
    if (trace) {
      log->trace.e2e += latency;
      if (!TraceCodecs(pool[q].request, *response, &log->trace)) {
        log->mismatched += 1;
      }
    }
  }
  log->finished = Clock::now();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted vector.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

/// Median replay times (seconds) of the in-process stages for one query.
struct ReplayTimes {
  double parse = 0.0;
  double route = 0.0;
  double answer = 0.0;
  double escalations = 0.0;
  double exact_plan = 0.0;  // 1 when the answer came from an exact scan.
};

/// Replays parse, route (pin + bind) and answer for one query exactly as
/// the server's worker runs them for this workload's request mode.
Result<ReplayTimes> Replay(const AquaEngine& engine, Mode mode,
                           const QuerySpec& spec, int reps) {
  std::vector<double> parse, route, answer;
  ReplayTimes times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    auto statement = sql::ParseSelect(spec.request.sql);
    if (!statement.ok()) return statement.status();
    const auto t1 = Clock::now();
    auto snapshot = engine.GetSnapshot(statement->table);
    if (!snapshot.ok()) return snapshot.status();
    auto query = sql::Bind(*statement, (*snapshot)->table->schema());
    if (!query.ok()) return query.status();
    const auto t2 = Clock::now();
    size_t groups = 0;
    if (mode == Mode::kExact) {
      auto exact = ExecuteExact(*(*snapshot)->table, *query);
      if (!exact.ok()) return exact.status();
      groups = ExactAsApproximate(*exact).num_groups();
      times.exact_plan = 1.0;
    } else if (mode == Mode::kBudget) {
      planner::Planner planner;
      auto planned = planner.Run(**snapshot, *query);
      if (!planned.ok()) return planned.status();
      groups = planned->result.num_groups();
      times.escalations = static_cast<double>(planned->report.escalations);
      times.exact_plan =
          planned->report.chosen.kind == planner::PlanKind::kExact ? 1.0 : 0.0;
    } else {
      auto approx = (*snapshot)->synopsis->Answer(*query);
      if (!approx.ok()) return approx.status();
      groups = approx->num_groups();
    }
    const auto t3 = Clock::now();
    if (groups == 0) return Status::Internal("replay produced no groups");
    parse.push_back(Seconds(t1 - t0));
    route.push_back(Seconds(t2 - t1));
    answer.push_back(Seconds(t3 - t2));
  }
  times.parse = Median(parse);
  times.route = Median(route);
  times.answer = Median(answer);
  return times;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Run(const Options& options) {
  std::mt19937_64 rng(options.seed);
  tpcd::LineitemConfig data_config;
  data_config.num_tuples = kTuples;
  data_config.num_groups = kGroups;
  data_config.seed = rng();
  auto data = tpcd::GenerateLineitem(data_config);
  if (!data.ok()) {
    std::fprintf(stderr, "datagen: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const Table& table = data->table;
  const std::vector<QuerySpec> pool = MakePool(table, options.mode, &rng);
  const std::vector<ColumnCodes> coded = EncodeGroupingColumns(table);
  std::vector<Truth> truths;
  for (const QuerySpec& spec : pool) {
    truths.push_back(ComputeTruth(table, coded, spec));
  }
  const uint64_t synopsis_seed = rng();

  // Set-up, several times: every round but the last one before the loop
  // is torn down again.
  std::vector<double> setup_seconds;
  auto set_up = [&]() -> std::unique_ptr<Stack> {
    auto stack = std::make_unique<Stack>();
    Table copy = table;
    const auto start = Clock::now();
    Status st =
        SetUp(std::move(copy), synopsis_seed, pool[0].request, stack.get());
    setup_seconds.push_back(Seconds(Clock::now() - start));
    if (!st.ok()) {
      std::fprintf(stderr, "set-up: %s\n", st.ToString().c_str());
      return nullptr;
    }
    return stack;
  };
  std::unique_ptr<Stack> stack;
  for (int round = 0; round < kSetupsBefore; ++round) {
    stack = nullptr;
    stack = set_up();
    if (stack == nullptr) return 1;
  }

  // Check each distinct query once against its reference and record the
  // digest every later answer must reproduce.
  bool correct = true;
  uint64_t failed = 0;
  Coverage coverage;
  std::vector<uint64_t> expected(pool.size(), 0);
  for (size_t q = 0; q < pool.size(); ++q) {
    auto response = stack->clients[0]->Call(pool[q].request);
    if (!response.ok() || !response->status.ok()) {
      std::fprintf(stderr, "query %zu failed: %s\n", q,
                   (response.ok() ? response->status : response.status())
                       .ToString().c_str());
      failed += 1;
      correct = false;
      continue;
    }
    std::string error;
    if (!CheckAnswer(options.mode, pool[q], truths[q], response->result,
                     &coverage, &error)) {
      std::fprintf(stderr, "query %zu wrong: %s\n  %s\n", q, error.c_str(),
                   pool[q].request.sql.c_str());
      correct = false;
    }
    expected[q] = Fingerprint(response->result);
  }
  if (options.mode != Mode::kExact && coverage.cells > 0) {
    const double share = static_cast<double>(coverage.covered) /
                         static_cast<double>(coverage.cells);
    std::printf("bound coverage: %.4f of %" PRIu64 " cells\n", share,
                coverage.cells);
    if (share < kMinCoverage) correct = false;
  }

  // The measured closed loop.
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> threads;
  const auto begin = Clock::now();
  const auto end = begin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(options.seconds));
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, stack->clients[c].get(), std::cref(pool),
                         std::cref(expected), options.seed * 7919 + c, end,
                         options.trace, &logs[c]);
  }
  for (std::thread& t : threads) t.join();

  std::vector<double> latencies;
  std::vector<uint64_t> per_query(pool.size(), 0);
  uint64_t attempted = 0;
  uint64_t mismatched = 0;
  auto finished = begin;
  TraceSums trace;
  for (const ClientLog& log : logs) {
    latencies.insert(latencies.end(), log.latencies.begin(),
                     log.latencies.end());
    for (size_t q = 0; q < pool.size(); ++q) per_query[q] += log.per_query[q];
    attempted += log.attempted;
    failed += log.failed;
    mismatched += log.mismatched;
    finished = std::max(finished, log.finished);
    trace.Add(log.trace);
  }
  if (mismatched > 0) {
    std::fprintf(stderr, "%" PRIu64 " answers differed from the checked one\n",
                 mismatched);
    correct = false;
  }
  if (latencies.empty()) {
    std::fprintf(stderr, "no request completed\n");
    return 1;
  }
  std::sort(latencies.begin(), latencies.end());
  const double n = static_cast<double>(latencies.size());
  std::printf("%zu requests in %.3f s from %zu clients, %zu server workers\n",
              latencies.size(), Seconds(finished - begin), kClients, kWorkers);

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"p50_ms", Percentile(latencies, 0.50) * 1e3, "ms"},
        {"p95_ms", Percentile(latencies, 0.95) * 1e3, "ms"},
        {"throughput_qps", n / Seconds(finished - begin), "1/s"},
    };
  } else {
    // Quiet replay of the in-process stages, weighted by how often the
    // loop sent each query.
    const int reps = std::clamp(
        static_cast<int>(kReplaySeconds * n /
                         std::max(trace.exec, 1e-9) /
                         static_cast<double>(pool.size())),
        3, 50);
    double parse = 0.0, route = 0.0, answer = 0.0, escalations = 0.0,
           exact_plans = 0.0;
    for (size_t q = 0; q < pool.size(); ++q) {
      if (per_query[q] == 0) continue;
      auto times = Replay(*stack->engine, options.mode, pool[q], reps);
      if (!times.ok()) {
        std::fprintf(stderr, "replay: %s\n", times.status().ToString().c_str());
        return 1;
      }
      const double w = static_cast<double>(per_query[q]);
      parse += w * times->parse;
      route += w * times->route;
      answer += w * times->answer;
      escalations += w * times->escalations;
      exact_plans += w * times->exact_plan;
    }
    const double sent = static_cast<double>(attempted);
    const double us = 1e6 / n;
    const double socket = trace.e2e - trace.client_encode -
                          trace.server_decode - trace.queue - trace.exec -
                          trace.response_encode - trace.client_decode;
    metrics = {
        {"e2e_us", trace.e2e * us, "us"},
        {"client_encode_us", trace.client_encode * us, "us"},
        {"server_decode_us", trace.server_decode * us, "us"},
        {"queue_us", trace.queue * us, "us"},
        {"exec_us", trace.exec * us, "us"},
        {"parse_us", parse / sent * 1e6, "us"},
        {"route_us", route / sent * 1e6, "us"},
        {"answer_us", answer / sent * 1e6, "us"},
        {"response_encode_us", trace.response_encode * us, "us"},
        {"client_decode_us", trace.client_decode * us, "us"},
        {"socket_us", socket * us, "us"},
        {"request_bytes", trace.request_bytes / n, "B"},
        {"response_bytes", trace.response_bytes / n, "B"},
        {"escalations_per_query", escalations / sent, "count"},
        {"exact_plan_share", exact_plans / sent, "ratio"},
    };
  }
  if (!options.trace) {
    stack = nullptr;
    for (int round = 0; round < kSetupsAfter; ++round) {
      if (set_up() == nullptr) return 1;
    }
    metrics.push_back({"setup_s", Median(setup_seconds), "s"});
  }
  for (const Metric& m : metrics) {
    std::printf("  %-22s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace congress::perfbench

int main(int argc, char** argv) {
  congress::perfbench::Options options;
  if (!congress::perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload approx|exact|budget --seed N "
                 "--seconds S [--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  return congress::perfbench::Run(options);
}
