// The repository benchmark: four closed-loop workloads driven through the
// public entry points of graph/, congest/, decomp/, expander/ and apps/.
//
//   ldd-grid                 build_edt_decomposition on the 1024^2 and 1023^2
//                            grids, pooled and serial
//   mds-grid                 approx_min_dominating_set on the 64^2 grid
//   route-serve              FlatRoutingTables on the 512^2 grid, batch and
//                            single-query serving
//   expander-gather-certify  expander_split + gather_random_walks on the
//                            apexed 65,535-cycle, then the expander
//                            decomposition of a planar triangulation and
//                            certify_parts
//
// Every output is checked; a failed check counts one failed operation and
// never stops the run. `--trace 0` prints the end-to-end metrics, `--trace 1`
// the per-layer metrics from a separate traced run (spans in Chrome
// trace-event JSON). perfbench/run.py builds this file and is the command to
// run; README.md in this directory documents the workloads and metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/compact_routing.hpp"
#include "apps/domination.hpp"
#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "decomp/clustering.hpp"
#include "decomp/edt.hpp"
#include "decomp/expander_decomp.hpp"
#include "decomp/heavy_stars.hpp"
#include "expander/rw_routing.hpp"
#include "expander/split.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "graph/weighted.hpp"
#include "perfbench_build_info.hpp"
#include "util/rng.hpp"

namespace {

using namespace mfd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names; selftest.py checks
// that every run prints exactly these.

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"solve_s", "s"},
    {"solve_1t_s", "s"},       {"qps", "queries/s"},
    {"lookup_p50_us", "us"},   {"lookup_p99_us", "us"},
    {"rounds", "count"},       {"messages", "count"},
    {"cut_fraction", "ratio"}, {"max_diameter", "hops"},
    {"mds_ratio", "ratio"},    {"route_hops_mean", "hops"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.induced_subgraph_s", "s"},
    {"congest.pool_run_us", "us"},
    {"congest.pool_speedup", "x"},
    {"congest.peak_congestion", "count"},
    {"decomp.edt_s", "s"},
    {"decomp.cluster_graph_build_s", "s"},
    {"decomp.heavy_stars_s", "s"},
    {"decomp.heavy_stars_1t_s", "s"},
    {"decomp.evaluate_s", "s"},
    {"decomp.iterations_even", "count"},
    {"decomp.iterations_odd", "count"},
    {"decomp.merges", "count"},
    {"decomp.clusters", "count"},
    {"decomp.self_s", "s"},
    {"expander.split_s", "s"},
    {"expander.gather_s", "s"},
    {"expander.walk_rounds", "count"},
    {"expander.seed_tries", "count"},
    {"expander.delivered_fraction", "ratio"},
    {"expander.certify_s", "s"},
    {"expander.certified_share", "ratio"},
    {"expander.max_certified_n", "count"},
    {"expander.state_bytes_peak", "bytes"},
    {"expander.self_s", "s"},
    {"apps.ladder_solve_ms", "ms"},
    {"apps.tier_forest", "count"},
    {"apps.tier_tw_dp", "count"},
    {"apps.tier_bb", "count"},
    {"apps.tier_greedy", "count"},
    {"apps.bb_nodes", "count"},
    {"apps.bb_exact_share", "ratio"},
    {"apps.max_width_dp", "count"},
    {"apps.scheme_build_s", "s"},
    {"apps.flatten_s", "s"},
    {"apps.table_bytes", "bytes"},
    {"apps.serve_ns_per_hop", "ns"},
    {"apps.self_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
    {"failed_fraction", "ratio"},
};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

// Layers whose calls run inside the timed loop; graph and congest calls run
// only in set-up and probes, so they have no per-repetition self time.
const char* const kLoopLayers[] = {"decomp", "expander", "apps"};

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     // self-test sizes
  bool corrupt = false;  // self-test: damage one output per operation
  std::string trace_out;
  std::string stamp = "{}";  // host fingerprint JSON from run.py
};

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        o.trace = val != "0";
      } else if (key == "--size") {
        if (val != "full" && val != "tiny") return false;
        o.tiny = val == "tiny";
      } else if (key == "--corrupt") {
        o.corrupt = val != "0";
      } else if (key == "--trace-out") {
        o.trace_out = val;
      } else if (key == "--stamp") {
        o.stamp = val;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", key.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(), val.c_str());
      return false;
    }
  }
  if (!(o.seconds > 0.0)) return false;
  return !o.workload.empty();
}

// ---------------------------------------------------------------------------
// Tracing: one span per call into a layer, recorded from this file only.
// Spans live in memory and are written as Chrome trace-event JSON when the
// run ends. Every Span times its call whether or not tracing is on; the
// traced run differs only in recording the span.

struct SpanRecord {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int rep = -1;  // repetition id within its phase
  const char* phase = "";  // "setup", "loop", "lookup" or "probe"
};

struct Tracer {
  bool enabled = false;
  int rep = -1;
  const char* phase = "setup";
  Clock::time_point origin = Clock::now();
  std::vector<SpanRecord> spans;
  std::vector<int> open;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin)
        .count();
  }
};

Tracer g_trace;

class Span {
 public:
  Span(const char* layer, std::string name) : start_(Clock::now()) {
    if (!g_trace.enabled) return;
    id_ = static_cast<int>(g_trace.spans.size());
    SpanRecord r;
    r.name = std::move(name);
    r.layer = layer;
    r.start_ns = g_trace.now_ns();
    r.parent = g_trace.open.empty() ? -1 : g_trace.open.back();
    r.rep = g_trace.rep;
    r.phase = g_trace.phase;
    g_trace.spans.push_back(std::move(r));
    g_trace.open.push_back(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  /// Close the span (idempotent) and return its duration in seconds.
  double stop() {
    if (!stopped_) {
      stopped_ = true;
      elapsed_ = seconds_since(start_);
      if (id_ >= 0) {
        g_trace.spans[static_cast<std::size_t>(id_)].end_ns = g_trace.now_ns();
        g_trace.open.pop_back();
      }
    }
    return elapsed_;
  }

 private:
  Clock::time_point start_;
  int id_ = -1;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double span_seconds(const SpanRecord& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

/// Median over the repetitions of `phase` of the summed duration of the
/// spans `match` selects (0 when none ran).
double per_rep_median(const std::string& phase,
                      const std::function<bool(const SpanRecord&)>& match) {
  std::map<int, double> per_rep;
  for (const SpanRecord& s : g_trace.spans) {
    if (phase == s.phase && match(s)) per_rep[s.rep] += span_seconds(s);
  }
  std::vector<double> v;
  for (const auto& [rep, secs] : per_rep) v.push_back(secs);
  return median(v);
}

/// Median over traced loop repetitions of the spans named `name`.
double span_seconds_per_rep(const std::string& name) {
  return per_rep_median("loop", [&](const SpanRecord& s) { return s.name == name; });
}

/// Self time per layer: each span's duration minus the part its child spans
/// cover (children run nested on the same thread, so they do not overlap),
/// summed per traced loop repetition, median over repetitions.
std::map<std::string, double> layer_self_seconds() {
  const std::size_t n = g_trace.spans.size();
  std::vector<double> child_cover(n, 0.0);
  for (const SpanRecord& s : g_trace.spans) {
    if (s.parent >= 0) {
      child_cover[static_cast<std::size_t>(s.parent)] += span_seconds(s);
    }
  }
  std::map<std::string, std::map<int, double>> per_layer_rep;
  std::map<int, bool> reps;
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = g_trace.spans[i];
    if (std::string(s.phase) != "loop") continue;
    reps[s.rep] = true;
    per_layer_rep[s.layer][s.rep] += span_seconds(s) - child_cover[i];
  }
  std::map<std::string, double> out;
  for (const char* layer : kLoopLayers) {
    std::vector<double> v;
    for (const auto& [rep, unused] : reps) v.push_back(per_layer_rep[layer][rep]);
    out[layer] = median(v);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::string& stamp) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << stamp
    << ", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < g_trace.spans.size(); ++i) {
    const SpanRecord& s = g_trace.spans[i];
    char ts[64], dur[64];
    std::snprintf(ts, sizeof(ts), "%.3f", static_cast<double>(s.start_ns) / 1e3);
    std::snprintf(dur, sizeof(dur), "%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    f << (i == 0 ? "" : ",\n") << "{\"name\": \"" << json_escape(s.name)
      << "\", \"cat\": \"" << s.layer << "\", \"ph\": \"X\", \"ts\": " << ts
      << ", \"dur\": " << dur << ", \"pid\": 1, \"tid\": 1, \"args\": {\"span\": "
      << i << ", \"parent\": " << s.parent << ", \"phase\": \"" << s.phase
      << "\", \"rep\": " << s.rep << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Results and checks.

/// One checked operation: every require() that fails marks it failed.
struct OpCheck {
  std::string context;
  std::string why;  // first failed requirement, empty when ok
  void require(bool ok, const std::string& what) {
    if (!ok && why.empty()) why = what;
  }
  bool ok() const { return why.empty(); }
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;  // raw timing samples

  void record(const OpCheck& c) {
    ++attempted;
    if (!c.ok()) {
      ++failed;
      if (failed <= 5) {
        std::fprintf(stderr, "check failed [%s]: %s\n", c.context.c_str(),
                     c.why.c_str());
      }
    }
  }
  void record_many(std::int64_t ops, std::int64_t bad, const std::string& context,
                   const std::string& why) {
    attempted += ops;
    failed += bad;
    if (bad > 0) {
      std::fprintf(stderr, "check failed [%s]: %lld x %s\n", context.c_str(),
                   static_cast<long long>(bad), why.c_str());
    }
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Run `fn` as one checked operation; an exception counts as a failure.
void guarded(Report& rep, const std::string& context,
             const std::function<void(OpCheck&)>& fn) {
  OpCheck c{context, ""};
  try {
    fn(c);
  } catch (const std::exception& e) {
    c.require(false, std::string("exception: ") + e.what());
  }
  rep.record(c);
}

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int pool_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(4, hw));
}

/// Closed loop: run `rep(i)` until the next repetition would overrun the
/// time box (at least one always runs). After each repetition the loop also
/// times its share of at least 10 chunks of `chunk_size` single-call
/// lookups, appending each chunk to `chunks`. Spreading the chunks over the
/// loop makes the lookups sample the same stretch of host time as the
/// solves; a shared host's speed can shift over seconds. A run with too few
/// repetitions tops up the chunks at the end.
void closed_loop(double seconds, int chunk_size,
                 std::vector<std::vector<double>>& chunks,
                 const std::function<void(int)>& rep,
                 const std::function<void(int, std::vector<double>&)>& lookups) {
  constexpr int kMinChunks = 10;
  const auto lookup_chunk = [&] {
    chunks.emplace_back();
    lookups(chunk_size, chunks.back());
  };
  const Clock::time_point t0 = Clock::now();
  int reps = 0;
  for (;;) {
    g_trace.rep = reps;
    g_trace.phase = "loop";
    rep(reps);
    ++reps;
    const double per_rep = seconds_since(t0) / reps;
    const int expected_reps =
        std::max(1, static_cast<int>(std::floor(seconds / per_rep)));
    g_trace.phase = "lookup";
    for (int i = 0; i < (kMinChunks + expected_reps - 1) / expected_reps; ++i) {
      lookup_chunk();
    }
    const double elapsed = seconds_since(t0);
    if (elapsed + elapsed / reps > seconds) break;
  }
  g_trace.rep = -1;
  while (static_cast<int>(chunks.size()) < kMinChunks) lookup_chunk();
  g_trace.phase = "probe";
}

/// Repeat set-up `times` times; returns the median set-up time. The last
/// repetition's products are what the workload keeps.
double repeated_setup(int times, const std::function<void()>& setup) {
  std::vector<double> t;
  for (int i = 0; i < times; ++i) {
    g_trace.phase = "setup";
    g_trace.rep = i;
    const Clock::time_point t0 = Clock::now();
    setup();
    t.push_back(seconds_since(t0));
  }
  g_trace.phase = "loop";
  return median(t);
}

// ---------------------------------------------------------------------------
// Independent output checks (recomputed here, not read from the library).

/// Partition + connectivity + cut budget of a clustering, recomputed with
/// one restricted BFS labeling and one edge scan.
void check_clustering(OpCheck& c, const Graph& g, const decomp::Clustering& cl,
                      double eps) {
  c.require(decomp::is_valid_partition(g, cl), "clustering is not a partition");
  if (!c.ok()) return;
  const int n = g.n();
  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  std::vector<int> stack;
  int pieces = 0;
  for (int s = 0; s < n; ++s) {
    if (comp[s] >= 0) continue;
    ++pieces;
    comp[s] = s;
    stack.assign(1, s);
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int w : g.neighbors(u)) {
        if (comp[w] < 0 && cl.cluster[w] == cl.cluster[u]) {
          comp[w] = s;
          stack.push_back(w);
        }
      }
    }
  }
  std::vector<char> used(static_cast<std::size_t>(cl.k), 0);
  for (int v = 0; v < n; ++v) used[cl.cluster[v]] = 1;
  c.require(std::count(used.begin(), used.end(), 1) == cl.k && pieces == cl.k,
            "a cluster is disconnected or empty");
  std::int64_t cut = 0;
  for (int u = 0; u < n; ++u) {
    for (int w : g.neighbors(u)) {
      if (u < w && cl.cluster[u] != cl.cluster[w]) ++cut;
    }
  }
  c.require(static_cast<double>(cut) <= eps * static_cast<double>(g.m()),
            "cut fraction exceeds eps");
}

void check_audit(OpCheck& c, const congest::Runtime& rt, std::int64_t arcs,
                 const char* what) {
  const congest::AuditResult a = rt.audit(arcs);
  c.require(a.ok, std::string(what) + " audit: " + a.violation);
}

bool dominates(const Graph& g, const std::vector<int>& set) {
  std::vector<char> in(static_cast<std::size_t>(g.n()), 0);
  for (int v : set) {
    if (v < 0 || v >= g.n()) return false;
    in[v] = 1;
  }
  for (int v = 0; v < g.n(); ++v) {
    bool ok = in[v] != 0;
    for (int w : g.neighbors(v)) ok = ok || in[w] != 0;
    if (!ok) return false;
  }
  return true;
}

/// Self-test damage: move vertex 0 into the cluster of the last vertex,
/// which on a grid lies in the opposite corner (a disconnected cluster).
void corrupt_clustering(decomp::Clustering& cl) {
  if (cl.cluster.size() > 1) cl.cluster[0] = cl.cluster.back();
}

// ---------------------------------------------------------------------------
// Lookups and layer probes shared by several workloads.

/// The decomposition lookup: one intra-cluster eccentricity query (the BFS
/// evaluate_clustering and the LDD re-measure run per probed vertex), timed
/// one call at a time on one thread from seeded vertices.
void cluster_lookups(const Graph& g, const decomp::Clustering& cl, int count,
                     Rng& rng, std::vector<double>& us, std::int64_t& hops) {
  std::vector<int> dist(static_cast<std::size_t>(g.n()), -1), frontier, next;
  std::vector<int> members;
  for (int i = 0; i < count; ++i) {
    const int v = rng.uniform_int(0, g.n() - 1);
    Span s("decomp", "decomp.cluster_ecc");
    hops += decomp::detail::cluster_ecc(g, cl.cluster, v, dist, frontier, next)
                .first;
    us.push_back(s.stop() * 1e6);
    // Reset the touched entries: re-walk the cluster from v (not timed).
    members.assign(1, v);
    dist[v] = -1;
    for (std::size_t j = 0; j < members.size(); ++j) {
      for (int w : g.neighbors(members[j])) {
        if (dist[w] >= 0) {
          dist[w] = -1;
          members.push_back(w);
        }
      }
    }
  }
}

/// Median wall time of an empty ShardPool::run of one task per thread.
double pool_run_us(congest::ShardPool& pool) {
  std::vector<double> us;
  for (int i = 0; i < 400; ++i) {
    Span s("congest", "congest.pool_run");
    pool.run(pool.threads(), [](int, int) {});
    us.push_back(s.stop() * 1e6);
  }
  return median(us);
}

/// Replay the first contraction iteration's cluster graph (every vertex its
/// own cluster, unit weights) and time its WeightedGraph build and one
/// heavy-stars pass pooled and serial.
void replay_first_iteration(const Graph& g, congest::ShardPool& pool,
                            std::map<std::string, double>& layer) {
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(g.m()));
  for (int u = 0; u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u < v) edges.push_back({u, v, 1});
    }
  }
  Span build("decomp", "decomp.cluster_graph_build");
  const WeightedGraph cg(g.n(), std::move(edges));
  layer["decomp.cluster_graph_build_s"] += build.stop();
  {
    Span s("decomp", "decomp.heavy_stars");
    const decomp::HeavyStarsResult hs = decomp::heavy_stars(cg, &pool);
    layer["decomp.heavy_stars_s"] += s.stop();
    (void)hs;
  }
  {
    Span s("decomp", "decomp.heavy_stars_1t");
    const decomp::HeavyStarsResult hs = decomp::heavy_stars(cg, nullptr);
    layer["decomp.heavy_stars_1t_s"] += s.stop();
    (void)hs;
  }
}

double time_evaluate(const Graph& g, const decomp::Clustering& cl) {
  Span s("decomp", "decomp.evaluate_clustering");
  const decomp::ClusterQuality q = decomp::evaluate_clustering(g, cl);
  (void)q;
  return s.stop();
}

double time_induced_subgraphs(const Graph& g, const decomp::Clustering& cl) {
  std::vector<std::vector<int>> members(static_cast<std::size_t>(cl.k));
  for (int v = 0; v < g.n(); ++v) members[cl.cluster[v]].push_back(v);
  Span s("graph", "graph.induced_subgraph(all clusters)");
  for (const std::vector<int>& m : members) {
    const InducedSubgraph sub = induced_subgraph(g, m);
    (void)sub;
  }
  return s.stop();
}

/// What every workload hands to the common metric emitter.
struct Outcome {
  double setup_s = 0.0;
  std::vector<double> solve, solve_1t;  // per-repetition samples, seconds
  double qps = 0.0;
  std::vector<std::vector<double>> lookup_chunks;  // timed lookups, us
  std::int64_t lookup_hops = 0;
  std::int64_t rounds = 0, messages = 0;
  double cut_fraction = 0.0;
  int max_diameter = 0;
  double mds_ratio = 1.0;
  std::vector<double> solve_traced, solve_untraced;  // trace mode only
  std::map<std::string, double> layer;               // per-layer values
};

/// Alternate the pooled and serial variants' order across repetitions so
/// slow host phases hit both equally.
void run_pair(int rep, const std::function<void()>& pooled,
              const std::function<void()>& serial) {
  if (rep % 2 == 0) {
    pooled();
    serial();
  } else {
    serial();
    pooled();
  }
}

/// In trace mode even repetitions are traced and odd ones are not, so the
/// difference of their solve_s medians is the tracing overhead.
void set_rep_tracing(const Options& o, int rep) {
  g_trace.enabled = o.trace && rep % 2 == 0;
}

/// Record one pooled solve time, also under traced or untraced.
void record_solve(Outcome& out, double seconds) {
  out.solve.push_back(seconds);
  (g_trace.enabled ? out.solve_traced : out.solve_untraced).push_back(seconds);
}

// ---------------------------------------------------------------------------
// ldd-grid

void workload_ldd_grid(const Options& o, congest::ShardPool& pool, Report& rep,
                       Outcome& out) {
  const double eps = 0.3;
  const std::vector<int> sides =
      o.tiny ? std::vector<int>{32, 31} : std::vector<int>{1024, 1023};
  std::vector<Graph> grids(sides.size());
  out.setup_s = repeated_setup(5, [&] {
    for (std::size_t i = 0; i < sides.size(); ++i) {
      Span s("graph", "graph.grid_graph");
      grids[i] = grid_graph(sides[i], sides[i]);
    }
  });

  std::vector<decomp::EdtDecomposition> last(sides.size()), last_1t(sides.size());
  const auto one_pass = [&](bool pooled) {
    double secs = 0.0;
    for (std::size_t i = 0; i < sides.size(); ++i) {
      const Graph& g = grids[i];
      decomp::EdtParams p;
      if (pooled) {
        p.pool = &pool;
        p.threads = pool.threads();
      }
      decomp::EdtDecomposition d;
      {
        Span s("decomp", pooled ? "decomp.build_edt_decomposition"
                                : "decomp.build_edt_decomposition_1t");
        d = decomp::build_edt_decomposition(g, eps, p);
        secs += s.stop();
      }
      guarded(rep, "ldd-grid side " + std::to_string(sides[i]), [&](OpCheck& c) {
        if (o.corrupt) corrupt_clustering(d.clustering);
        check_clustering(c, g, d.clustering, eps);
        check_audit(c, d.ledger, 2 * g.m(), "edt ledger");
      });
      (pooled ? last : last_1t)[i] = std::move(d);
    }
    return secs;
  };
  Rng probe_rng(o.seed);
  const auto lookups = [&](int count, std::vector<double>& us) {
    const int per_grid = count / static_cast<int>(sides.size());
    for (std::size_t i = 0; i < sides.size(); ++i) {
      cluster_lookups(grids[i], last[i].clustering,
                      i == 0 ? count - per_grid * (static_cast<int>(sides.size()) - 1)
                             : per_grid,
                      probe_rng, us, out.lookup_hops);
    }
  };
  closed_loop(o.seconds, o.tiny ? 100 : 1000, out.lookup_chunks, [&](int r) {
    set_rep_tracing(o, r);
    Span whole("bench", "rep");
    run_pair(
        r,
        [&] {
          record_solve(out, one_pass(true));
        },
        [&] { out.solve_1t.push_back(one_pass(false)); });
    guarded(rep, "ldd-grid pooled == serial", [&](OpCheck& c) {
      for (std::size_t i = 0; i < sides.size(); ++i) {
        c.require(last[i].clustering.cluster == last_1t[i].clustering.cluster &&
                      last[i].ledger.total() == last_1t[i].ledger.total() &&
                      last[i].ledger.total_messages() ==
                          last_1t[i].ledger.total_messages(),
                  "pooled decomposition differs from serial");
      }
    });
  }, lookups);
  g_trace.enabled = o.trace;

  for (std::size_t i = 0; i < sides.size(); ++i) {
    const decomp::EdtDecomposition& d = last[i];
    out.rounds += d.ledger.total();
    out.messages += d.ledger.total_messages();
    out.cut_fraction = std::max(out.cut_fraction, d.quality.eps_fraction);
    out.max_diameter = std::max(out.max_diameter, d.quality.max_diameter);
  }

  if (!o.trace) return;
  auto& L = out.layer;
  L["decomp.edt_s"] = span_seconds_per_rep("decomp.build_edt_decomposition");
  for (std::size_t i = 0; i < sides.size(); ++i) {
    const decomp::EdtDecomposition& d = last[i];
    L[sides[i] % 2 == 0 ? "decomp.iterations_even" : "decomp.iterations_odd"] +=
        d.iterations;
    L["decomp.merges"] += d.merges;
    L["decomp.clusters"] += d.clustering.k;
    L["congest.peak_congestion"] = std::max<double>(
        L["congest.peak_congestion"], static_cast<double>(d.ledger.peak_congestion()));
    replay_first_iteration(grids[i], pool, L);
    L["decomp.evaluate_s"] += time_evaluate(grids[i], d.clustering);
  }
}

// ---------------------------------------------------------------------------
// mds-grid

void workload_mds_grid(const Options& o, congest::ShardPool& pool, Report& rep,
                       Outcome& out) {
  const double eps = 0.4;
  const int alpha = 3;
  const int side = o.tiny ? 16 : 64;
  // Grid domination number, closed form for sides >= 16 (Goncalves et al.).
  const double gamma = std::floor((side + 2.0) * (side + 2.0) / 5.0) - 4.0;

  Graph g;
  decomp::EdtDecomposition dec;  // the solver's decomposition, for lookups
  double eps_star = 0.0;
  out.setup_s = repeated_setup(9, [&] {
    {
      Span s("graph", "graph.grid_graph");
      g = grid_graph(side, side);
    }
    eps_star = apps::detail::clamp_eps_star(eps / (alpha * (g.max_degree() + 1.0)));
    Span s("decomp", "decomp.build_edt_decomposition(eps*)");
    dec = decomp::build_edt_decomposition(g, eps_star);
  });
  guarded(rep, "mds-grid decomposition", [&](OpCheck& c) {
    check_clustering(c, g, dec.clustering, eps_star);
    check_audit(c, dec.ledger, 2 * g.m(), "edt ledger");
  });

  apps::MdsSolution pooled_sol, serial_sol;
  const auto check = [&](const apps::MdsSolution& sol, bool pooled) {
    guarded(rep, pooled ? "mds-grid pooled" : "mds-grid serial", [&](OpCheck& c) {
      std::vector<int> d = sol.vertices;
      if (o.corrupt) {
        // Drop every dominator of vertex 0: it is then undominated.
        d.erase(std::remove_if(d.begin(), d.end(),
                               [&](int v) {
                                 return v == 0 || g.has_edge(0, v);
                               }),
                d.end());
      }
      c.require(dominates(g, d), "set does not dominate the graph");
      check_audit(c, sol.stats.runtime, 2 * g.m(), "solver runtime");
      c.require(sol.eps_star == eps_star, "eps* differs from the set-up's");
    });
  };
  Rng probe_rng(o.seed);
  const auto lookups = [&](int count, std::vector<double>& us) {
    cluster_lookups(g, dec.clustering, count, probe_rng, us, out.lookup_hops);
  };
  closed_loop(o.seconds, o.tiny ? 100 : 1000, out.lookup_chunks, [&](int r) {
    set_rep_tracing(o, r);
    Span whole("bench", "rep");
    run_pair(
        r,
        [&] {
          Span s("apps", "apps.approx_min_dominating_set");
          pooled_sol = apps::approx_min_dominating_set(g, eps, alpha, &pool);
          record_solve(out, s.stop());
          check(pooled_sol, true);
        },
        [&] {
          Span s("apps", "apps.approx_min_dominating_set_1t");
          serial_sol = apps::approx_min_dominating_set(g, eps, alpha);
          out.solve_1t.push_back(s.stop());
          check(serial_sol, false);
        });
    guarded(rep, "mds-grid pooled == serial", [&](OpCheck& c) {
      c.require(pooled_sol.vertices == serial_sol.vertices &&
                    pooled_sol.stats.total_rounds == serial_sol.stats.total_rounds,
                "pooled solution differs from serial");
    });
  }, lookups);
  g_trace.enabled = o.trace;

  out.mds_ratio = static_cast<double>(pooled_sol.vertices.size()) / gamma;
  out.rounds = pooled_sol.stats.total_rounds;
  out.messages = pooled_sol.stats.runtime.total_messages();
  out.cut_fraction = dec.quality.eps_fraction;
  out.max_diameter = dec.quality.max_diameter;

  if (!o.trace) return;
  auto& L = out.layer;
  const congest::SolverStats& st = pooled_sol.stats;
  L["apps.ladder_solve_ms"] = st.solve_ms;
  L["apps.tier_forest"] = static_cast<double>(st.tier_forest);
  L["apps.tier_tw_dp"] = static_cast<double>(st.tier_tw_dp);
  L["apps.tier_bb"] = static_cast<double>(st.tier_bb);
  L["apps.tier_greedy"] = static_cast<double>(st.tier_greedy);
  L["apps.bb_nodes"] = static_cast<double>(st.bb_nodes);
  L["apps.bb_exact_share"] =
      st.bb_runs == 0 ? 0.0
                      : static_cast<double>(st.bb_exact_runs) /
                            static_cast<double>(st.bb_runs);
  L["apps.max_width_dp"] = st.max_width_dp;
  L["congest.peak_congestion"] = static_cast<double>(st.runtime.peak_congestion());
  // The decomposition share of a solve: the same EDT call, replayed.
  {
    Span s("decomp", "decomp.build_edt_decomposition(eps*)");
    const decomp::EdtDecomposition d = decomp::build_edt_decomposition(g, eps_star);
    L["decomp.edt_s"] = s.stop();
    L["decomp.iterations_even"] = d.iterations;
    L["decomp.merges"] = d.merges;
    L["decomp.clusters"] = d.clustering.k;
  }
  L["graph.induced_subgraph_s"] = time_induced_subgraphs(g, dec.clustering);
  replay_first_iteration(g, pool, L);
  L["decomp.evaluate_s"] = time_evaluate(g, dec.clustering);
}

// ---------------------------------------------------------------------------
// route-serve

std::vector<std::pair<int, int>> uniform_queries(int n, int count, Rng& rng) {
  std::vector<std::pair<int, int>> q(static_cast<std::size_t>(count));
  for (auto& [s, t] : q) {
    s = rng.uniform_int(0, n - 1);
    t = rng.uniform_int(0, n - 1);
  }
  return q;
}

void workload_route_serve(const Options& o, congest::ShardPool& pool,
                          Report& rep, Outcome& out) {
  const double eps = 0.3;
  const int side = o.tiny ? 32 : 512;
  const int batch = o.tiny ? 500 : 100000;
  const int equivalence_sample = o.tiny ? 200 : 1000;
  Graph g;
  decomp::EdtDecomposition dec;
  apps::RoutingScheme scheme;
  apps::FlatRoutingTables tables;
  // Set-up: input generation, table build, flatten, and the flat-vs-pointer
  // equivalence check on a seeded query sample.
  out.setup_s = repeated_setup(3, [&] {
    {
      Span s("graph", "graph.grid_graph");
      g = grid_graph(side, side);
    }
    {
      Span s("decomp", "decomp.build_edt_decomposition");
      decomp::EdtParams p;
      p.pool = &pool;
      p.threads = pool.threads();
      dec = decomp::build_edt_decomposition(g, eps, p);
    }
    {
      Span s("apps", "apps.build_routing_scheme");
      scheme = apps::build_routing_scheme(g, dec.clustering);
    }
    {
      Span s("apps", "apps.flatten_routing_scheme");
      tables = apps::flatten_routing_scheme(scheme);
    }
    Rng rng(o.seed ^ 0x5eedULL);
    const auto sample = uniform_queries(g.n(), equivalence_sample, rng);
    std::vector<int> ref_path, flat_path;
    std::int64_t bad = 0;
    Span s("apps", "apps.route_equivalence_check");
    for (const auto& [u, v] : sample) {
      ref_path.clear();
      flat_path.clear();
      const int a = apps::route_hops(scheme, u, v, &ref_path);
      const int b = apps::flat_route_hops(tables, u, v, &flat_path);
      if (a < 0 || a != b || ref_path != flat_path) ++bad;
    }
    rep.record_many(static_cast<std::int64_t>(sample.size()), bad,
                    "route-serve equivalence", "flat route differs from route_hops");
  });
  guarded(rep, "route-serve decomposition", [&](OpCheck& c) {
    check_clustering(c, g, dec.clustering, eps);
    check_audit(c, dec.ledger, 2 * g.m(), "edt ledger");
  });

  Rng qrng(o.seed);
  std::vector<int> pooled_hops, serial_hops;
  std::int64_t served_hops = 0;
  double pooled_total_s = 0.0;
  std::vector<double> batch_qps;
  // Single-thread lookups, each timed on its own; every tenth is checked
  // against the pointer-walk reference.
  Rng lookup_rng(o.seed ^ 0x100cULL);
  const auto lookups = [&](int count, std::vector<double>& us) {
    const auto queries = uniform_queries(g.n(), count, lookup_rng);
    std::int64_t bad = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto [u, v] = queries[i];
      Span s("apps", "apps.flat_route_hops");
      const int h = apps::flat_route_hops(tables, u, v);
      us.push_back(s.stop() * 1e6);
      out.lookup_hops += std::max(h, 0);
      if (h < 0 || (i % 10 == 0 && h != apps::route_hops(scheme, u, v))) ++bad;
    }
    rep.record_many(static_cast<std::int64_t>(queries.size()), bad,
                    "route-serve lookups", "lookup differs from route_hops");
  };
  closed_loop(o.seconds, o.tiny ? 100 : 1000, out.lookup_chunks, [&](int r) {
    set_rep_tracing(o, r);
    const auto queries = uniform_queries(g.n(), batch, qrng);
    Span whole("bench", "rep");
    run_pair(
        r,
        [&] {
          Span s("apps", "apps.serve_route_queries");
          apps::serve_route_queries(tables, queries, pooled_hops, &pool);
          const double t = s.stop();
          record_solve(out, t);
          batch_qps.push_back(static_cast<double>(batch) / t);
          pooled_total_s += t;
        },
        [&] {
          Span s("apps", "apps.serve_route_queries_1t");
          apps::serve_route_queries(tables, queries, serial_hops, nullptr);
          out.solve_1t.push_back(s.stop());
        });
    if (o.corrupt && !pooled_hops.empty()) pooled_hops[0] += 1;
    // Every served query must be delivered and agree between the pooled and
    // serial passes; a seeded sample is re-routed through the reference.
    std::int64_t bad = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const bool sampled = i % 1024 == 0;
      if (pooled_hops[i] < 0 || pooled_hops[i] != serial_hops[i] ||
          (sampled && apps::route_hops(scheme, queries[i].first,
                                       queries[i].second) != pooled_hops[i])) {
        ++bad;
      }
      served_hops += std::max(pooled_hops[i], 0);
    }
    rep.record_many(static_cast<std::int64_t>(queries.size()), bad,
                    "route-serve batch", "undelivered or mismatched query");
  }, lookups);
  g_trace.enabled = o.trace;

  out.qps = median(batch_qps);
  out.rounds = dec.ledger.total();
  out.messages = dec.ledger.total_messages();
  out.cut_fraction = dec.quality.eps_fraction;
  out.max_diameter = dec.quality.max_diameter;

  if (!o.trace) return;
  auto& L = out.layer;
  const auto setup_span = [](const char* name) {
    return per_rep_median("setup", [name](const SpanRecord& s) {
      return s.name == name;
    });
  };
  L["apps.scheme_build_s"] = setup_span("apps.build_routing_scheme");
  L["apps.flatten_s"] = setup_span("apps.flatten_routing_scheme");
  L["apps.table_bytes"] = static_cast<double>(tables.table_bytes());
  L["apps.serve_ns_per_hop"] =
      served_hops == 0 ? 0.0
                       : pooled_total_s * 1e9 / static_cast<double>(served_hops);
  L["decomp.edt_s"] = setup_span("decomp.build_edt_decomposition");
  L["decomp.iterations_even"] = dec.iterations;
  L["decomp.merges"] = dec.merges;
  L["decomp.clusters"] = dec.clustering.k;
  L["congest.peak_congestion"] = static_cast<double>(dec.ledger.peak_congestion());
  replay_first_iteration(g, pool, L);
  L["decomp.evaluate_s"] = time_evaluate(g, dec.clustering);
}

// ---------------------------------------------------------------------------
// expander-gather-certify

void workload_expander(const Options& o, congest::ShardPool& pool, Report& rep,
                       Outcome& out) {
#ifdef M_ARENA_MAX
  // One malloc arena (set before any pool worker allocates). This
  // workload's resident set is small, and with glibc's per-thread arenas
  // which worker freed which certify buffer decided how much stayed
  // resident: peak RSS ranged from 30.6 to 45.6 MB over ten identical runs.
  // The other workloads keep the default, because one arena serialises the
  // allocations of mds-grid's pooled branch-and-bound.
  mallopt(M_ARENA_MAX, 1);
#endif
  const int cycle = o.tiny ? 2047 : 65535;
  const int planar_n = o.tiny ? 256 : 2048;
  const double f = 0.05;
  const double decomp_eps = 0.5;
  Graph wheel, planar;
  out.setup_s = repeated_setup(9, [&] {
    {
      Span s("graph", "graph.add_apex(cycle_graph)");
      wheel = add_apex(cycle_graph(cycle));
    }
    // One fixed triangulation: the instance bench_expander_decomp's
    // certify-scaling section certifies (its default seed 4, plus one).
    // Random triangulations differ widely in max degree, hence in the phi
    // target, cut and cluster sizes, so a per-seed graph would turn input
    // variation into run-to-run spread. The seed drives the split and the
    // lookup probes instead.
    Span s("graph", "graph.random_maximal_planar");
    Rng rng(5);
    planar = random_maximal_planar(planar_n, rng);
  });
  const int apex = cycle;

  expander::PhiCertParams pc;
  // As in bench_expander_decomp's certify-scaling section: a low matching
  // target saturates the flows, so the game certifies instead of searching
  // for a cut that is not there.
  pc.game.phi_target = 0.02;

  struct Pass {
    std::int64_t rounds = 0, messages = 0;
    expander::RwResult rw;
    decomp::ExpanderDecomp ed;
    decomp::PartCertifyReport cert;
    int parts = 0;
  };
  Pass pooled_pass, serial_pass;
  const auto run_pass = [&](bool pooled, Pass& p) {
    const char* tag = pooled ? "" : "_1t";
    double secs = 0.0;
    Rng rng(o.seed + 1);
    expander::ExpanderSplit sp;
    {
      Span s("expander", std::string("expander.expander_split") + tag);
      sp = expander::expander_split(wheel, rng);
      secs += s.stop();
    }
    {
      Span s("expander", std::string("expander.gather_random_walks") + tag);
      p.rw = expander::gather_random_walks(sp, apex, f);
      secs += s.stop();
    }
    {
      Span s("decomp", std::string("decomp.expander_decomposition_minor_free") + tag);
      p.ed = decomp::expander_decomposition_minor_free(planar, decomp_eps);
      secs += s.stop();
    }
    std::vector<std::vector<int>> members(static_cast<std::size_t>(p.ed.clustering.k));
    for (int v = 0; v < planar.n(); ++v) {
      members[p.ed.clustering.cluster[v]].push_back(v);
    }
    {
      Span s("expander", std::string("expander.certify_parts") + tag);
      p.cert = decomp::certify_parts(planar, members, pc, pooled ? &pool : nullptr);
      secs += s.stop();
    }
    p.parts = static_cast<int>(members.size());
    p.rounds = sp.ledger.total() + p.rw.ledger.total() + p.ed.ledger.total() +
               p.cert.ledger.total();
    p.messages = sp.ledger.total_messages() + p.rw.ledger.total_messages() +
                 p.ed.ledger.total_messages() + p.cert.ledger.total_messages();
    guarded(rep, std::string("expander-gather-certify") + tag, [&](OpCheck& c) {
      if (o.corrupt) sp.parts.cluster[0] = sp.parts.k;
      c.require(decomp::is_valid_partition(sp.g, sp.parts),
                "split is not a partition");
      c.require(p.rw.delivered_fraction >= 1.0 - f, "walk delivery below 1 - f");
      c.require(p.cert.ok, "certify_parts: " + p.cert.violation);
      c.require(decomp::is_valid_partition(planar, p.ed.clustering),
                "expander decomposition is not a partition");
      check_audit(c, sp.ledger, 2 * wheel.m(), "split ledger");
      check_audit(c, p.rw.ledger, 2 * wheel.m(), "walk ledger");
      check_audit(c, p.ed.ledger, 2 * planar.m(), "decomposition ledger");
      check_audit(c, p.cert.ledger, 2 * planar.m(), "certify ledger");
    });
    return secs;
  };
  Rng probe_rng(o.seed);
  const auto lookups = [&](int count, std::vector<double>& us) {
    cluster_lookups(planar, pooled_pass.ed.clustering, count, probe_rng, us,
                    out.lookup_hops);
  };
  closed_loop(o.seconds, o.tiny ? 100 : 1000, out.lookup_chunks, [&](int r) {
    set_rep_tracing(o, r);
    Span whole("bench", "rep");
    run_pair(
        r,
        [&] {
          record_solve(out, run_pass(true, pooled_pass));
        },
        [&] { out.solve_1t.push_back(run_pass(false, serial_pass)); });
    guarded(rep, "expander pooled == serial", [&](OpCheck& c) {
      const auto& a = pooled_pass.cert;
      const auto& b = serial_pass.cert;
      c.require(a.clusters_certified == b.clusters_certified &&
                    a.min_phi_lower == b.min_phi_lower &&
                    a.state_bytes_peak == b.state_bytes_peak &&
                    a.ledger.total() == b.ledger.total() &&
                    pooled_pass.rw.route == serial_pass.rw.route,
                "pooled certify or walks differ from serial");
    });
  }, lookups);
  g_trace.enabled = o.trace;

  const Pass& p = pooled_pass;
  out.rounds = p.rounds;
  out.messages = p.messages;
  const decomp::ClusterQuality q = decomp::evaluate_clustering(planar, p.ed.clustering);
  out.cut_fraction = q.eps_fraction;
  out.max_diameter = q.max_diameter;

  if (!o.trace) return;
  auto& L = out.layer;
  L["expander.split_s"] = span_seconds_per_rep("expander.expander_split");
  L["expander.gather_s"] = span_seconds_per_rep("expander.gather_random_walks");
  L["expander.certify_s"] = span_seconds_per_rep("expander.certify_parts");
  L["expander.walk_rounds"] = static_cast<double>(p.rw.rounds);
  L["expander.seed_tries"] = static_cast<double>(p.rw.schedule.seed_tries);
  L["expander.delivered_fraction"] = p.rw.delivered_fraction;
  L["expander.certified_share"] =
      p.parts == 0 ? 0.0 : static_cast<double>(p.cert.clusters_certified) / p.parts;
  L["expander.max_certified_n"] = p.cert.max_certified_cluster;
  L["expander.state_bytes_peak"] = static_cast<double>(p.cert.state_bytes_peak);
  L["congest.peak_congestion"] = static_cast<double>(std::max(
      {p.rw.ledger.peak_congestion(), p.ed.ledger.peak_congestion(),
       p.cert.ledger.peak_congestion()}));
  L["graph.induced_subgraph_s"] = time_induced_subgraphs(planar, p.ed.clustering);
  replay_first_iteration(planar, pool, L);
  L["decomp.evaluate_s"] = time_evaluate(planar, p.ed.clustering);
}

// ---------------------------------------------------------------------------

template <std::size_t N>
void emit_json_metrics(const Report& rep, const MetricSpec (&specs)[N],
                       std::ostream& os) {
  os << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : specs) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", rep.metrics.at(m.name));
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_options(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] [--corrupt 0|1] "
                 "[--trace-out FILE] [--stamp JSON]\n");
    return 2;
  }
  const std::map<std::string,
                 std::function<void(const Options&, congest::ShardPool&,
                                    Report&, Outcome&)>>
      workloads = {{"ldd-grid", workload_ldd_grid},
                   {"mds-grid", workload_mds_grid},
                   {"route-serve", workload_route_serve},
                   {"expander-gather-certify", workload_expander}};
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }

  g_trace.enabled = o.trace;
  congest::ShardPool pool(pool_threads());
  Report rep;
  Outcome out;
  it->second(o, pool, rep, out);
  const double pool_us = o.trace ? pool_run_us(pool) : 0.0;
  g_trace.enabled = false;

  std::size_t lookups = 0;
  for (const std::vector<double>& chunk : out.lookup_chunks) {
    lookups += chunk.size();
  }
  const double solve = median(out.solve);
  const double solve_1t = median(out.solve_1t);
  if (!o.trace) {
    rep.set("setup_s", out.setup_s);
    rep.set("solve_s", solve);
    rep.set("solve_1t_s", solve_1t);
    // Route-serve counts served queries; the other workloads count whole
    // solves of the pooled closed loop.
    rep.set("qps", out.qps > 0.0 ? out.qps : (solve > 0.0 ? 1.0 / solve : 0.0));
    // Per-chunk percentiles, median over the chunks: one contended stretch
    // of host time moves one chunk, not the run's figure.
    std::vector<double> p50, p99;
    for (const std::vector<double>& chunk : out.lookup_chunks) {
      p50.push_back(percentile(chunk, 50.0));
      p99.push_back(percentile(chunk, 99.0));
    }
    rep.set("lookup_p50_us", median(p50));
    rep.set("lookup_p99_us", median(p99));
    rep.set("rounds", static_cast<double>(out.rounds));
    rep.set("messages", static_cast<double>(out.messages));
    rep.set("cut_fraction", out.cut_fraction);
    rep.set("max_diameter", out.max_diameter);
    rep.set("mds_ratio", out.mds_ratio);
    rep.set("route_hops_mean", lookups == 0
                                   ? 0.0
                                   : static_cast<double>(out.lookup_hops) /
                                         static_cast<double>(lookups));
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.samples["solve_s"] = out.solve;
    rep.samples["solve_1t_s"] = out.solve_1t;
  } else {
    for (const MetricSpec& m : kPerLayer) rep.set(m.name, 0.0);
    for (const auto& [name, value] : out.layer) rep.set(name, value);
    rep.set("graph.generate_s",
            per_rep_median("setup", [](const SpanRecord& s) {
              return s.layer == "graph";
            }));
    rep.set("congest.pool_run_us", pool_us);
    rep.set("congest.pool_speedup", solve > 0.0 ? solve_1t / solve : 0.0);
    for (const auto& [layer, secs] : layer_self_seconds()) {
      rep.set(layer + ".self_s", secs);
    }
    rep.set("trace.overhead_s",
            out.solve_untraced.empty()
                ? 0.0
                : median(out.solve_traced) - median(out.solve_untraced));
    rep.set("trace.spans", static_cast<double>(g_trace.spans.size()));
    rep.samples["solve_s_traced"] = out.solve_traced;
    rep.samples["solve_s_untraced"] = out.solve_untraced;
  }
  rep.set("failed_fraction",
          rep.attempted == 0 ? 0.0
                             : static_cast<double>(rep.failed) /
                                   static_cast<double>(rep.attempted));

  // Fingerprint line: host stamp from run.py plus what only the build knows.
  std::ostringstream fp;
  fp << "{\"fingerprint\": {\"host\": " << o.stamp << ", \"compiler\": \""
     << json_escape(kCompiler) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"cxx_flags\": \""
     << json_escape(PERFBENCH_CXX_FLAGS) << "\", \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ", \"pool_threads\": "
     << pool.threads() << ", \"workload\": \"" << o.workload
     << "\", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
     << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"size\": \""
     << (o.tiny ? "tiny" : "full")
     << "\", \"lookups\": " << lookups << ", \"lookup_chunks\": "
     << out.lookup_chunks.size() << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : rep.samples) {
    fp << (first ? "" : ", ") << "\"" << name << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", values[i]);
      fp << (i == 0 ? "" : ", ") << buf;
    }
    fp << "]";
    first = false;
  }
  fp << "}}}";
  std::printf("%s\n", fp.str().c_str());

  if (o.trace && !o.trace_out.empty() &&
      !write_chrome_trace(o.trace_out, fp.str())) {
    std::fprintf(stderr, "cannot write trace file %s\n", o.trace_out.c_str());
    return 1;
  }
  if (o.trace) {
    emit_json_metrics(rep, kPerLayer, std::cout);
  } else {
    emit_json_metrics(rep, kEndToEnd, std::cout);
  }
  return 0;
}
