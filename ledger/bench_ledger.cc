// Ledger workload runner: one benchmark workload per process, driven by
// ledger.py (see README.md in this directory).
//
//   bench_ledger --workload NAME --seed S --generate FILE [--smoke]
//   bench_ledger --workload NAME --seed S --graph FILE --seconds T
//                [--smoke] [--self-test] [--trace FILE]
//
// --generate writes the workload's seeded data graph as a binary edge list;
// every other mode only loads that file, so input generation is never part
// of a measurement. Without --trace the process measures the end-to-end
// numbers: repeated set-up, one warm-up query, then timed queries for T
// seconds, each checked against the serial oracle. With --trace it runs the
// per-layer probes instead: steady_clock spans around direct calls into
// each module's public functions, written as Chrome trace-event JSON. The
// spans live here, outside the library; the engine itself reads no clock.
// Either mode prints exactly one JSON object on stdout.
//
// Exit codes: 0 success (the JSON reports any incorrect query), 2 bad
// usage or a refused configuration (assertions compiled in, or a fault
// plan in the environment — both would confound the timings).

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/plan_advisor.h"
#include "core/strategy.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "graph/intersect.h"
#include "graph/io.h"
#include "graph/node_order.h"
#include "graph/subgraph.h"
#include "mapreduce/codec.h"
#include "mapreduce/job.h"
#include "mapreduce/policy_spec.h"
#include "serial/matcher.h"
#include "serial/triangles.h"
#include "shares/cost_expression.h"
#include "shares/share_optimizer.h"
#include "util/hashing.h"
#include "util/parse.h"

#ifndef SMR_LEDGER_BUILD_TYPE
#define SMR_LEDGER_BUILD_TYPE "unknown"
#endif

namespace smr {
namespace {

using Clock = std::chrono::steady_clock;

enum class Family { kErdosRenyi, kPreferentialAttachment };

/// Nodes, and edges (Erdős–Rényi) or edges per new node (preferential
/// attachment).
struct GraphSize {
  NodeId nodes;
  size_t size;
};

/// One benchmark workload. Why each exists is recorded in README.md and
/// BENCHMARK.json; the smoke sizes keep the same code paths (the spill
/// workload's smoke budget still spills) at a few milliseconds per query.
struct Workload {
  const char* name;
  bool square;  // pattern: the square, else the triangle
  Family family;
  GraphSize full;
  GraphSize smoke;
  const char* strategy;
  const char* budget;
  const char* smoke_budget;
  const char* backend;
};

constexpr Workload kWorkloads[] = {
    {"tworound-er", false, Family::kErdosRenyi, {20000, 200000}, {400, 3000},
     "tworound", "0", "0", "thread"},
    {"ordered-er-spill", false, Family::kErdosRenyi, {20000, 200000},
     {400, 3000}, "orderedbucket:12", "8M", "16K", "thread"},
    {"ordered-er-process", false, Family::kErdosRenyi, {20000, 200000},
     {400, 3000}, "orderedbucket:12", "0", "0", "process:2"},
    {"square-pa", true, Family::kPreferentialAttachment, {2000, 8}, {200, 4},
     "auto:256", "0", "0", "thread"},
};

/// Two engine workers per workload, which leaves half of a 4-vCPU host to
/// the coordinator and everything else. Per-process medians of the spill
/// workload ranged 16% at two workers against 33% at four (README.md).
constexpr const char* kThreads = "2";

/// Set-up is timed repeatedly per process and reported as a median: at
/// least kMinSetups times and for about kSetupSeconds, so that millisecond
/// set-ups (the square workload loads in under one) still pool enough
/// samples, but never more than kMaxSetups times.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 200;
constexpr double kSetupSeconds = 0.25;

/// Reducer budget for the traced planner and shares-optimizer probes (the
/// square workload's auto:256).
constexpr double kPlanBudget = 256;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "bench_ledger: %s\n", message.c_str());
  std::exit(2);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU of this process and of every reaped child (the
/// process backend's workers are reaped at the end of each round).
double CpuSeconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage usage {};
    getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                        usage.ru_stime.tv_usec);
  }
  return total;
}

/// High-water resident set in MB (ru_maxrss is KiB on Linux).
double PeakRssMb(int who) {
  struct rusage usage {};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    model.erase(model.find_last_not_of(' ') + 1);
    if (!model.empty()) return model;
  }
#endif
  return "unknown";
}

// --------------------------------------------------------------------------
// Minimal JSON writing (flat objects of numbers, strings, and arrays).
// --------------------------------------------------------------------------

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Number(values[i]);
  }
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += Quote(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, Number(value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  std::string Build() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Banner(uint64_t seed) {
  return JsonObject()
      .Num("seed", static_cast<double>(seed))
      .Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("cpu", CpuModel())
      .Str("simd", SimdLevelName(ActiveSimdLevel()))
      .Str("compiler", __VERSION__)
      .Str("build_type", SMR_LEDGER_BUILD_TYPE)
      .Build();
}

// --------------------------------------------------------------------------
// Workload set-up and queries
// --------------------------------------------------------------------------

ExecutionPolicy PolicyFor(const Workload& workload, bool smoke) {
  return PolicyFromSpecs(kThreads, "partition", "auto", "on",
                         smoke ? workload.smoke_budget : workload.budget,
                         workload.backend);
}

/// Everything a query needs, built from the graph file: the timed set-up.
/// The query points into the members, so the object never moves.
class Prepared {
 public:
  Prepared(const Workload& workload, const std::string& graph_path,
           uint64_t seed, bool smoke)
      : pattern_(workload.square ? SampleGraph::Square()
                                 : SampleGraph::Triangle()),
        graph_(LoadGraphFile(graph_path)),
        cqs_(CqsForSample(pattern_)),
        query_(EnumerationQuery::Undirected(pattern_, graph_)) {
    query_.WithStrategy(workload.strategy)
        .WithSeed(seed)
        .WithPolicy(PolicyFor(workload, smoke));
    query_.cqs = &cqs_;
  }

  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;

  const SampleGraph& pattern() const { return pattern_; }
  const Graph& graph() const { return graph_; }
  const EnumerationQuery& query() const { return query_; }

 private:
  SampleGraph pattern_;
  Graph graph_;
  std::vector<ConjunctiveQuery> cqs_;
  EnumerationQuery query_;
};

/// One query through StrategyRegistry::Run, timed from outside.
struct QueryRun {
  bool threw = false;
  uint64_t instances = 0;
  double wall_s = 0;
  double cpu_s = 0;
  EnumerationResult result;
};

QueryRun RunQuery(const Prepared& prepared) {
  EnumerationQuery query = prepared.query();
  CountingSink sink;
  query.sink = &sink;
  QueryRun run;
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  try {
    run.result = StrategyRegistry::Global().Run(query);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_ledger: query threw: %s\n", error.what());
    run.threw = true;
    return run;
  }
  run.wall_s = SecondsSince(start);
  run.cpu_s = CpuSeconds() - cpu_start;
  // A sink that saw a different total than the result reports is as wrong
  // as a wrong total.
  run.instances = sink.count() == run.result.instances ? sink.count()
                                                       : ~uint64_t{0};
  return run;
}

/// Serial ground truth: the degree-ordered triangle kernel or the
/// backtracking matcher.
uint64_t Oracle(const Prepared& prepared, CostCounter* cost) {
  if (prepared.pattern().num_vars() == 3) {
    return EnumerateTriangles(prepared.graph(),
                              NodeOrder::ByDegree(prepared.graph()), nullptr,
                              cost);
  }
  return EnumerateInstances(prepared.pattern(), prepared.graph(), nullptr,
                            cost);
}

/// Checks every query against the oracle and the first query's JobMetrics
/// (the engine's determinism contract); returns the failure count.
int CountFailures(const std::vector<QueryRun>& runs, uint64_t oracle) {
  const JobMetrics* reference = nullptr;
  int failed = 0;
  for (const QueryRun& run : runs) {
    if (run.threw) {
      ++failed;
      continue;
    }
    if (reference == nullptr) reference = &run.result.job;
    if (run.instances != oracle || !(run.result.job == *reference)) ++failed;
  }
  return failed;
}

uint64_t ReduceOps(const JobMetrics& job) {
  uint64_t total = 0;
  for (const JobRoundMetrics& round : job.rounds) {
    total += round.metrics.reduce_cost.Total();
  }
  return total;
}

const QueryRun* FirstSuccess(const std::vector<QueryRun>& runs) {
  for (const QueryRun& run : runs) {
    if (!run.threw) return &run;
  }
  return nullptr;
}

/// True while one more step of `last` seconds ends nearer to `seconds`
/// than stopping now: the loop's time is `seconds` on average, never more
/// than half a step over or under.
bool KeepGoing(Clock::time_point start, double last, double seconds) {
  return SecondsSince(start) + last / 2 < seconds;
}

/// Warm-up plus timed queries for about `seconds` (at least one).
/// `timed` receives the post-warm-up runs; every run lands in `all`.
void QueryLoop(const Prepared& prepared, double seconds,
               std::vector<QueryRun>* all, std::vector<size_t>* timed) {
  all->push_back(RunQuery(prepared));
  const Clock::time_point start = Clock::now();
  do {
    timed->push_back(all->size());
    all->push_back(RunQuery(prepared));
  } while (KeepGoing(start, all->back().wall_s, seconds));
}

int RunEndToEnd(const Workload& workload, const std::string& graph_path,
                uint64_t seed, double seconds, bool smoke, bool self_test) {
  std::vector<double> setup_s;
  std::optional<Prepared> prepared;
  const double setup_budget = std::min(kSetupSeconds, seconds);
  double setup_total = 0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < setup_budget && setup_s.size() < kMaxSetups)) {
    prepared.reset();
    const Clock::time_point start = Clock::now();
    prepared.emplace(workload, graph_path, seed, smoke);
    setup_s.push_back(SecondsSince(start));
    setup_total += setup_s.back();
  }

  std::vector<QueryRun> runs;
  std::vector<size_t> timed;
  QueryLoop(*prepared, seconds, &runs, &timed);
  const double peak_rss_mb = PeakRssMb(RUSAGE_SELF);

  CostCounter serial_cost;
  const uint64_t oracle =
      Oracle(*prepared, &serial_cost) + (self_test ? 1 : 0);
  const int failed = CountFailures(runs, oracle);
  std::vector<double> query_s;
  std::vector<double> cpu_s;
  for (const size_t i : timed) {
    if (runs[i].threw) continue;
    query_s.push_back(runs[i].wall_s);
    cpu_s.push_back(runs[i].cpu_s);
  }
  const QueryRun* first = FirstSuccess(runs);
  const JobMetrics job = first != nullptr ? first->result.job : JobMetrics{};

  std::printf(
      "%s\n",
      JsonObject()
          .Raw("banner", Banner(seed))
          .Str("resolved", first != nullptr
                               ? first->result.resolved_spec.ToSpec()
                               : "")
          .Num("nodes", prepared->graph().num_nodes())
          .Num("edges", static_cast<double>(prepared->graph().num_edges()))
          .Num("attempted", static_cast<double>(runs.size()))
          .Num("failed", failed)
          .Num("oracle", static_cast<double>(oracle))
          .Raw("setup_s", Array(setup_s))
          .Raw("query_s", Array(query_s))
          .Raw("cpu_s", Array(cpu_s))
          .Num("peak_rss_mb", peak_rss_mb)
          .Num("kv_pairs", static_cast<double>(job.TotalCommunication()))
          .Num("reduce_ops", static_cast<double>(ReduceOps(job)))
          .Num("serial_ops", static_cast<double>(serial_cost.Total()))
          .Build()
          .c_str());
  return 0;
}

// --------------------------------------------------------------------------
// Traced run: per-layer probes
// --------------------------------------------------------------------------

/// In-memory Chrome trace: complete ("X") spans and counter ("C") events,
/// each tagged with its layer as the category. Written once, at the end.
class Trace {
 public:
  /// Runs `fn` inside a span; returns its duration in seconds.
  template <typename Fn>
  double Span(const char* name, const char* layer, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    events_.push_back(JsonObject()
                          .Str("name", name)
                          .Str("cat", layer)
                          .Str("ph", "X")
                          .Num("ts", Micros(start))
                          .Num("dur", Micros(end) - Micros(start))
                          .Num("pid", 1)
                          .Num("tid", 1)
                          .Build());
    return std::chrono::duration<double>(end - start).count();
  }

  void Counter(const char* name, const char* layer, double value) {
    events_.push_back(JsonObject()
                          .Str("name", name)
                          .Str("cat", layer)
                          .Str("ph", "C")
                          .Num("ts", Micros(Clock::now()))
                          .Num("pid", 1)
                          .Raw("args", JsonObject().Num("value", value).Build())
                          .Build());
  }

  void Write(const std::string& path, const std::string& banner) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) Die("cannot write trace file " + path);
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                      "\"traceEvents\":[\n", banner.c_str());
    for (size_t i = 0; i < events_.size(); ++i) {
      std::fprintf(out, "%s%s\n", events_[i].c_str(),
                   i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    if (std::fclose(out) != 0) Die("cannot write trace file " + path);
  }

 private:
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<std::string> events_;
};

/// Per-layer metric values with their units, in report order.
class LayerMetrics {
 public:
  void Add(const char* name, double value, const char* unit) {
    json_.Raw(name, JsonObject().Num("value", value).Str("unit", unit).Build());
  }
  std::string Build() const { return json_.Build(); }

 private:
  JsonObject json_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// Replays each round's pair count and key space through a bench-owned
/// RoundSpec<Edge, Edge> whose reducers do nothing, under the workload's
/// policy: the shuffle's cost (map emission, scatter, grouping, spill or
/// wire transport) without the strategy's reducer kernels.
void ReplayShuffle(const JobMetrics& job, const Graph& graph,
                   const ExecutionPolicy& policy) {
  const std::vector<Edge>& edges = graph.edges();
  if (edges.empty()) return;
  JobDriver driver(policy);
  for (const JobRoundMetrics& round : job.rounds) {
    const uint64_t pairs = round.metrics.key_value_pairs;
    const uint64_t key_space = round.metrics.key_space;
    const size_t m = edges.size();
    RoundSpec<Edge, Edge> spec;
    spec.name = "replay-" + round.name;
    spec.key_space = key_space;
    spec.emissions_per_input =
        static_cast<double>(pairs) / static_cast<double>(m);
    const Edge* base = edges.data();
    spec.mapper = [pairs, key_space, m, base](const Edge& edge,
                                              Emitter<Edge>* out) {
      // Input i emits pairs [i*P/m, (i+1)*P/m): exactly P pairs in total.
      const auto i = static_cast<unsigned __int128>(&edge - base);
      const auto lo = static_cast<uint64_t>(i * pairs / m);
      const auto hi = static_cast<uint64_t>((i + 1) * pairs / m);
      for (uint64_t j = lo; j < hi; ++j) {
        const uint64_t key = SplitMix64(j);
        out->Emit(key_space > 0 ? key % key_space : key, edge);
      }
    };
    spec.reducer = [](uint64_t, std::span<const Edge>, ReduceContext*) {};
    driver.RunRound(spec, std::span<const Edge>(edges), nullptr);
  }
}

/// Encodes and decodes `pairs` key/edge frames with RecordCodec<Edge> in
/// 64K-pair batches; returns false if a decode disagrees with its encode.
bool CodecProbe(const Graph& graph, uint64_t pairs, double* encode_s,
                double* decode_s, uint64_t* bytes) {
  constexpr uint64_t kBatch = 1 << 16;
  const std::vector<Edge>& edges = graph.edges();
  std::vector<unsigned char> buffer;
  buffer.reserve(kBatch * RecordCodec<Edge>::kMaxFrameSize);
  *encode_s = *decode_s = 0;
  *bytes = 0;
  for (uint64_t begin = 0; begin < pairs; begin += kBatch) {
    const uint64_t end = std::min(pairs, begin + kBatch);
    buffer.clear();
    Clock::time_point start = Clock::now();
    for (uint64_t j = begin; j < end; ++j) {
      RecordCodec<Edge>::EncodePair(SplitMix64(j) >> 40,
                                    edges[j % edges.size()], &buffer);
    }
    *encode_s += SecondsSince(start);
    *bytes += buffer.size();
    start = Clock::now();
    size_t offset = 0;
    uint64_t decoded = 0;
    uint64_t key_sum = 0;
    while (offset < buffer.size()) {
      uint64_t key = 0;
      Edge value;
      size_t consumed = 0;
      if (RecordCodec<Edge>::DecodePair(buffer.data() + offset,
                                        buffer.size() - offset, &key, &value,
                                        &consumed) != DecodeStatus::kOk) {
        return false;
      }
      key_sum += key + value.first;
      offset += consumed;
      ++decoded;
    }
    *decode_s += SecondsSince(start);
    uint64_t expected_sum = 0;
    for (uint64_t j = begin; j < end; ++j) {
      expected_sum += (SplitMix64(j) >> 40) + edges[j % edges.size()].first;
    }
    if (decoded != end - begin || key_sum != expected_sum) return false;
  }
  return true;
}

int RunTraced(const Workload& workload, const std::string& graph_path,
              uint64_t seed, double seconds, bool smoke, bool self_test,
              const std::string& trace_path) {
  Trace trace;
  LayerMetrics layers;
  bool probes_ok = true;

  // graph, cq, core + shares: set-up layers, each timed by itself.
  std::optional<Graph> loaded;
  const double load_s = trace.Span("graph.load", "graph", [&] {
    loaded.emplace(LoadGraphFile(graph_path));
  });
  const SampleGraph pattern =
      workload.square ? SampleGraph::Square() : SampleGraph::Triangle();
  std::vector<ConjunctiveQuery> cqs;
  const double cq_s = trace.Span("cq.generate", "cq",
                                 [&] { cqs = CqsForSample(pattern); });
  const double plan_s = trace.Span("core.plan", "core", [&] {
    PlanInputs inputs;
    inputs.k = kPlanBudget;
    inputs.nodes = loaded->num_nodes();
    inputs.edges = loaded->num_edges();
    inputs.wedges = CountOrderedWedges(*loaded);
    inputs.counting_only = true;
    PlanEnumeration(pattern, inputs);
  });
  const double shares_s = trace.Span("shares.optimize", "shares", [&] {
    OptimizeShares(CostExpression::ForCqSet(cqs), kPlanBudget);
  });
  loaded.reset();

  // Queries, alternating untraced and traced, so the tracing overhead is
  // measured on the same process, warm state, and graph.
  const Prepared prepared(workload, graph_path, seed, smoke);
  std::vector<QueryRun> runs;
  runs.push_back(RunQuery(prepared));
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  const Clock::time_point start = Clock::now();
  do {
    runs.push_back(RunQuery(prepared));
    if (!runs.back().threw) untraced_s.push_back(runs.back().wall_s);
    trace.Span("engine.query", "engine",
               [&] { runs.push_back(RunQuery(prepared)); });
    if (!runs.back().threw) traced_s.push_back(runs.back().wall_s);
  } while (KeepGoing(start, 2 * runs.back().wall_s, seconds));
  const double child_rss_mb = PeakRssMb(RUSAGE_CHILDREN);

  // serial: the oracle, with its operation count.
  CostCounter serial_cost;
  uint64_t oracle = 0;
  const double serial_s = trace.Span("serial.enumerate", "serial", [&] {
    oracle = Oracle(prepared, &serial_cost);
  });
  if (self_test) ++oracle;
  const int failed = CountFailures(runs, oracle);

  const Graph& graph = prepared.graph();
  const double subgraph_s = trace.Span("graph.subgraph_build", "graph", [&] {
    if (BuildSubgraph(graph.edges()).graph.num_edges() != graph.num_edges()) {
      probes_ok = false;
    }
  });
  const uint64_t triangles = CountTriangles(graph);
  const double intersect_s = trace.Span("graph.intersect", "graph", [&] {
    uint64_t common = 0;
    for (const auto& [u, v] : graph.edges()) {
      common += IntersectCount(graph.Neighbors(u), graph.Neighbors(v));
    }
    // Every triangle closes each of its three edges once.
    if (common != 3 * triangles) probes_ok = false;
  });

  // Every query's JobMetrics equal the first's (CountFailures checks it).
  const QueryRun* first = FirstSuccess(runs);
  const JobMetrics job = first != nullptr ? first->result.job : JobMetrics{};
  const double shuffle_s = trace.Span("engine.shuffle", "engine", [&] {
    ReplayShuffle(job, graph, PolicyFor(workload, smoke));
  });
  double encode_s = 0;
  double decode_s = 0;
  uint64_t codec_bytes = 0;
  const uint64_t kv_pairs = job.TotalCommunication();
  trace.Span("codec.roundtrip", "codec", [&] {
    if (!CodecProbe(graph, kv_pairs, &encode_s, &decode_s, &codec_bytes)) {
      probes_ok = false;
    }
  });

  // Counters off the first query's result.
  ShuffleStats sum;
  uint64_t max_reducer_input = 0;
  double skew = 0;
  uint64_t process_workers = 0;
  for (const JobRoundMetrics& round : job.rounds) {
    const ShuffleStats& s = round.metrics.shuffle;
    sum.pairs_shipped += s.pairs_shipped;
    sum.shuffle_bytes += s.shuffle_bytes;
    sum.counting_partitions += s.counting_partitions;
    sum.sorted_partitions += s.sorted_partitions;
    sum.pages_spilled += s.pages_spilled;
    sum.bytes_spilled += s.bytes_spilled;
    sum.spill_files += s.spill_files;
    sum.map_bytes_on_wire += s.map_bytes_on_wire;
    sum.reduce_bytes_on_wire += s.reduce_bytes_on_wire;
    sum.worker_retries += s.worker_retries;
    sum.frames_discarded += s.frames_discarded;
    sum.deadline_kills += s.deadline_kills;
    sum.pool_threads_spawned += s.pool_threads_spawned;
    sum.pool_tasks_reused += s.pool_tasks_reused;
    process_workers = std::max(process_workers, s.process_workers);
    max_reducer_input =
        std::max(max_reducer_input, round.metrics.max_reducer_input);
    skew = std::max(skew, round.metrics.SkewRatio());
  }
  const double m = static_cast<double>(std::max<size_t>(1, graph.num_edges()));
  const double pairs = static_cast<double>(std::max<uint64_t>(1, kv_pairs));
  const double query_s = Median(traced_s);
  const double untraced_query_s = Median(untraced_s);
  const uint64_t budget = PolicyFor(workload, smoke).shuffle_budget_bytes;
  const uint64_t reduce_ops = ReduceOps(job);

  layers.Add("graph.load_s", load_s, "s");
  layers.Add("graph.subgraph_build_s", subgraph_s, "s");
  layers.Add("graph.intersect_s", intersect_s, "s");
  layers.Add("cq.generate_s", cq_s, "s");
  layers.Add("cq.count", static_cast<double>(cqs.size()), "count");
  layers.Add("core.plan_s", plan_s, "s");
  layers.Add("shares.optimize_s", shares_s, "s");
  layers.Add("serial.enumerate_s", serial_s, "s");
  layers.Add("serial.ops", static_cast<double>(serial_cost.Total()), "ops");
  layers.Add("engine.reduce_ops", static_cast<double>(reduce_ops), "ops");
  layers.Add("engine.query_s", query_s, "s");
  layers.Add("engine.rounds", static_cast<double>(job.rounds.size()), "count");
  layers.Add("engine.kv_pairs", static_cast<double>(kv_pairs), "pairs");
  layers.Add("engine.pairs_shipped", static_cast<double>(sum.pairs_shipped),
             "pairs");
  layers.Add("engine.shuffle_bytes", static_cast<double>(sum.shuffle_bytes),
             "bytes");
  layers.Add("engine.reducers_used",
             static_cast<double>(job.MaxRoundReducers()), "count");
  layers.Add("engine.max_reducer_input",
             static_cast<double>(max_reducer_input), "pairs");
  layers.Add("engine.skew", skew, "ratio");
  layers.Add("engine.counting_partitions",
             static_cast<double>(sum.counting_partitions), "count");
  layers.Add("engine.sorted_partitions",
             static_cast<double>(sum.sorted_partitions), "count");
  layers.Add("engine.shuffle_s", shuffle_s, "s");
  layers.Add("engine.shuffle_share", query_s > 0 ? shuffle_s / query_s : 0,
             "ratio");
  layers.Add("pool.threads_spawned",
             static_cast<double>(sum.pool_threads_spawned), "count");
  layers.Add("pool.tasks_reused", static_cast<double>(sum.pool_tasks_reused),
             "count");
  layers.Add("spill.pages", static_cast<double>(sum.pages_spilled), "count");
  layers.Add("spill.bytes", static_cast<double>(sum.bytes_spilled), "bytes");
  layers.Add("spill.files", static_cast<double>(sum.spill_files), "count");
  layers.Add("spill.bytes_over_budget",
             budget > 0 ? static_cast<double>(sum.bytes_spilled) /
                              static_cast<double>(budget)
                        : 0,
             "ratio");
  layers.Add("codec.encode_ns_per_pair", 1e9 * encode_s / pairs, "ns");
  layers.Add("codec.decode_ns_per_pair", 1e9 * decode_s / pairs, "ns");
  layers.Add("codec.bytes_per_pair", static_cast<double>(codec_bytes) / pairs,
             "bytes");
  const double wire = static_cast<double>(sum.map_bytes_on_wire +
                                          sum.reduce_bytes_on_wire);
  layers.Add("process.workers", static_cast<double>(process_workers), "count");
  layers.Add("process.map_wire_bytes",
             static_cast<double>(sum.map_bytes_on_wire), "bytes");
  layers.Add("process.reduce_wire_bytes",
             static_cast<double>(sum.reduce_bytes_on_wire), "bytes");
  layers.Add("process.wire_bytes_per_edge", wire / m, "bytes/edge");
  layers.Add("process.wire_vs_model",
             static_cast<double>(sum.map_bytes_on_wire) /
                 (pairs * CostCalibration::kModeledBytesPerPair),
             "ratio");
  layers.Add("process.worker_retries", static_cast<double>(sum.worker_retries),
             "count");
  layers.Add("process.frames_discarded",
             static_cast<double>(sum.frames_discarded), "count");
  layers.Add("process.deadline_kills", static_cast<double>(sum.deadline_kills),
             "count");
  layers.Add("process.child_peak_rss_mb", child_rss_mb, "MB");
  layers.Add("trace.overhead",
             untraced_query_s > 0 ? query_s / untraced_query_s - 1 : 0,
             "ratio");

  // Counter events give the counter-only layers their place in the trace.
  trace.Counter("pool.threads_spawned", "thread_pool",
                static_cast<double>(sum.pool_threads_spawned));
  trace.Counter("spill.bytes", "spill",
                static_cast<double>(sum.bytes_spilled));
  trace.Counter("process.wire_bytes", "process", wire);
  trace.Counter("trace.overhead", "bench",
                untraced_query_s > 0 ? query_s / untraced_query_s - 1 : 0);
  const std::string banner = Banner(seed);
  trace.Write(trace_path, banner);

  std::printf("%s\n",
              JsonObject()
                  .Raw("banner", banner)
                  .Str("resolved", first != nullptr
                                       ? first->result.resolved_spec.ToSpec()
                                       : "")
                  .Num("attempted", static_cast<double>(runs.size()))
                  .Num("failed", failed + (probes_ok ? 0 : 1))
                  .Num("oracle", static_cast<double>(oracle))
                  .Raw("layers", layers.Build())
                  .Build()
                  .c_str());
  return 0;
}

// --------------------------------------------------------------------------
// Input generation and the command line
// --------------------------------------------------------------------------

void Generate(const Workload& workload, uint64_t seed, bool smoke,
              const std::string& path) {
  const GraphSize size = smoke ? workload.smoke : workload.full;
  const Graph graph =
      workload.family == Family::kErdosRenyi
          ? ErdosRenyi(size.nodes, size.size, seed)
          : PreferentialAttachment(size.nodes, static_cast<int>(size.size),
                                   seed);
  WriteBinaryEdgeListFile(graph, path);
  std::printf("%s\n",
              JsonObject()
                  .Num("nodes", graph.num_nodes())
                  .Num("edges", static_cast<double>(graph.num_edges()))
                  .Build()
                  .c_str());
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  Die("refusing to run: built without NDEBUG (assertions distort timings); "
      "configure with -DCMAKE_BUILD_TYPE=Release");
#endif
  const char* fault_plan = std::getenv("SMR_FAULT_PLAN");
  if (fault_plan != nullptr && fault_plan[0] != '\0') {
    Die("refusing to run: SMR_FAULT_PLAN is set, and injected faults would "
        "confound the timings");
  }

  const Workload* workload = nullptr;
  std::optional<uint64_t> seed;
  std::string generate_path;
  std::string graph_path;
  std::string trace_path;
  double seconds = 0;
  bool smoke = false;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = next();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) workload = &w;
      }
      if (workload == nullptr) Die("unknown workload '" + name + "'");
    } else if (arg == "--seed") {
      seed = ParseUint64(next());
      if (!seed) Die("--seed needs an unsigned integer");
    } else if (arg == "--generate") {
      generate_path = next();
    } else if (arg == "--graph") {
      graph_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--seconds") {
      const std::optional<double> value = ParseDouble(next());
      if (!value || *value < 0 || *value > 3600) {
        Die("--seconds needs a number in [0, 3600]");
      }
      seconds = *value;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      Die("unknown flag '" + arg + "'");
    }
  }
  if (workload == nullptr || !seed) Die("--workload and --seed are required");
  if (!generate_path.empty()) {
    Generate(*workload, *seed, smoke, generate_path);
    return 0;
  }
  if (graph_path.empty()) Die("--graph or --generate is required");
  if (!trace_path.empty()) {
    return RunTraced(*workload, graph_path, *seed, seconds, smoke, self_test,
                     trace_path);
  }
  return RunEndToEnd(*workload, graph_path, *seed, seconds, smoke, self_test);
}

}  // namespace
}  // namespace smr

int main(int argc, char** argv) {
  try {
    return smr::Main(argc, argv);
  } catch (const std::exception& error) {
    smr::Die(error.what());
  }
}
