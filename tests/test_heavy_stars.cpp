// Heavy-stars (Lemma 4.2/4.3) and local-LDD (Theorem 1.1 pipeline)
// invariants:
//   * captured weight clears the 1/(8α) floor on weighted trees and grids
//     (α = 1 for trees, 2 for grids) across weight regimes and seeds,
//   * marked trees never exceed depth 4 (the implementation stays <= 2),
//   * star labels are consistent with kept_parent and captured_weight
//     matches the marked edges,
//   * heavy_stars and ldd_minor_free_local are deterministic, and the local
//     pipeline's whole outcome (clusters, every ledger entry, counters,
//     quality) is pinned to golden values (ldd_local_outcome_pinned),
//   * the in-place cluster-graph contraction reproduces the edge-list
//     WeightedGraph arc for arc (cluster_graph_contraction_matches_edge_list),
//   * the local pipeline meets its hard ε cut budget with strong diameter
//     <= 2 * ecc_cap and connected clusters, while charging rounds that
//     do not scale with the graph diameter (sub-√n on grids).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congest/shard.hpp"
#include "decomp/heavy_stars.hpp"
#include "decomp/ldd_local.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "test_main.hpp"

using namespace mfd;
using namespace mfd::decomp;
using mfd::bench::make_family;

namespace {

WeightedGraph weighted_copy(const Graph& g, Rng* rng) {
  std::vector<WeightedEdge> edges;
  for (const auto& [u, v] : g.edges()) {
    const std::int64_t w =
        rng == nullptr ? 1
                       : 1 + static_cast<std::int64_t>(rng->next_below(100));
    edges.push_back({u, v, w});
  }
  return WeightedGraph(g.n(), std::move(edges));
}

void check_star_consistency(const WeightedGraph& g, const HeavyStarsResult& hs,
                            const std::string& ctx) {
  CHECK_MSG(hs.max_marked_depth <= 4, ctx + ": Lemma 4.3 depth");
  // Every vertex's star is the top of its kept_parent chain, and the
  // captured weight equals the sum over marked edges.
  std::int64_t marked = 0;
  for (int v = 0; v < g.n(); ++v) {
    const int p = hs.kept_parent[v];
    if (p >= 0) {
      CHECK_MSG(hs.star[v] == hs.star[p], ctx + ": star label mismatch");
      std::int64_t w = 0;
      for (const auto& a : g.arcs(v)) {
        if (a.to == p) w = a.w;
      }
      CHECK_MSG(w > 0, ctx + ": kept edge not in graph");
      marked += w;
    } else {
      CHECK_MSG(hs.star[v] == v, ctx + ": root labels itself");
    }
  }
  CHECK_MSG(marked == hs.captured_weight, ctx + ": captured accounting");
  CHECK_MSG(hs.cv_rounds > 0 && hs.rounds > hs.cv_rounds, ctx + ": rounds");
}

void run_capture_floor(const std::string& fam, int alpha) {
  for (int seed : {3, 11, 42}) {
    Rng rng(seed);
    const Graph g = make_family(fam, 1200, rng);
    for (const bool weighted : {false, true}) {
      const std::string ctx = fam + "/seed=" + std::to_string(seed) +
                              (weighted ? "/rand" : "/unit");
      Rng wrng(seed + 7);
      const WeightedGraph cg = weighted_copy(g, weighted ? &wrng : nullptr);
      const HeavyStarsResult hs = heavy_stars(cg);
      check_star_consistency(cg, hs, ctx);
      const double frac = static_cast<double>(hs.captured_weight) /
                          static_cast<double>(hs.total_weight);
      CHECK_MSG(frac >= 1.0 / (8.0 * alpha),
                ctx + ": capture " + Table::num(frac, 3));
    }
  }
}

}  // namespace

TEST_CASE(heavy_stars_capture_floor_tree) { run_capture_floor("tree", 1); }
TEST_CASE(heavy_stars_capture_floor_grid) { run_capture_floor("grid", 2); }

TEST_CASE(heavy_stars_deterministic) {
  Rng r1(9), r2(9);
  const Graph a = make_family("planar", 800, r1);
  const Graph b = make_family("planar", 800, r2);
  Rng w1(13), w2(13);
  const HeavyStarsResult ha = heavy_stars(weighted_copy(a, &w1));
  const HeavyStarsResult hb = heavy_stars(weighted_copy(b, &w2));
  CHECK(ha.star == hb.star);
  CHECK(ha.captured_weight == hb.captured_weight);
  CHECK(ha.cv_rounds == hb.cv_rounds);
}

TEST_CASE(heavy_stars_two_vertices) {
  // Mutual picks form the 2-cycle; the single edge must be captured.
  const WeightedGraph g(2, {{0, 1, 7}});
  const HeavyStarsResult hs = heavy_stars(g);
  CHECK(hs.captured_weight == 7);
  CHECK(hs.total_weight == 7);
  CHECK(hs.star[0] == hs.star[1]);
  CHECK(hs.stars == 1);
  CHECK(hs.max_marked_depth == 1);
}

TEST_CASE(ldd_local_budget_and_diameter) {
  Rng rng(23);
  for (const char* fam : {"grid", "tree"}) {
    const Graph g = make_family(fam, 2048, rng);
    for (double eps : {0.2, 0.4}) {
      const std::string ctx =
          std::string(fam) + "/eps=" + Table::num(eps, 1);
      const LocalLdd d = ldd_minor_free_local(g, eps);
      CHECK_MSG(is_valid_partition(g, d.clustering), ctx);
      CHECK_MSG(d.quality.clusters_connected, ctx + ": connectivity");
      CHECK_MSG(d.quality.eps_fraction <= eps + 1e-12, ctx + ": budget");
      CHECK_MSG(d.quality.max_diameter <= 2 * d.ecc_cap_final,
                ctx + ": diameter vs guard");
      CHECK_MSG(d.iterations >= 1, ctx);
      CHECK_MSG(d.cv_rounds_total > 0, ctx);
    }
  }
}

TEST_CASE(ldd_local_rounds_diameter_free) {
  // The whole point of the pipeline: construction rounds must not grow like
  // the √n graph diameter. 16x more grid vertices, near-identical rounds.
  Rng rng(3);
  const Graph small = make_family("grid", 1024, rng);
  const Graph large = make_family("grid", 16384, rng);
  const LocalLdd ds = ldd_minor_free_local(small, 0.3);
  const LocalLdd dl = ldd_minor_free_local(large, 0.3);
  CHECK_MSG(dl.ledger.total() <= 2 * ds.ledger.total() + 64,
            "rounds grew: " + std::to_string(ds.ledger.total()) + " -> " +
                std::to_string(dl.ledger.total()));
  CHECK(dl.ledger.total() < 128);  // far under sqrt(16384) = 128
}

TEST_CASE(ldd_local_deterministic) {
  Rng r1(37), r2(37);
  const Graph a = make_family("planar", 1024, r1);
  const Graph b = make_family("planar", 1024, r2);
  const LocalLdd da = ldd_minor_free_local(a, 0.3);
  const LocalLdd db = ldd_minor_free_local(b, 0.3);
  CHECK(da.clustering.cluster == db.clustering.cluster);
  CHECK(da.ledger.total() == db.ledger.total());
  CHECK(da.iterations == db.iterations);
}

namespace {

// FNV-1a over a byte stream; the pins below hash the cluster vector and the
// ledger with it.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) byte(static_cast<unsigned char>(x >> (8 * b)));
  }
  void str(const std::string& s) {
    for (char ch : s) byte(static_cast<unsigned char>(ch));
    byte(0);
  }
};

std::uint64_t cluster_hash(const std::vector<int>& cluster) {
  Fnv1a f;
  for (int c : cluster) f.u64(static_cast<std::uint32_t>(c));
  return f.h;
}

// Every entry in order: phase name, rounds, messages, max_congestion.
std::uint64_t ledger_hash(const congest::Runtime& ledger) {
  Fnv1a f;
  for (const congest::RoundCharge& e : ledger.entries()) {
    f.str(e.phase);
    f.u64(static_cast<std::uint64_t>(e.rounds));
    f.u64(static_cast<std::uint64_t>(e.messages));
    f.u64(static_cast<std::uint64_t>(e.max_congestion));
  }
  return f.h;
}

struct PinnedLdd {
  const char* family;
  double eps;
  std::uint64_t cluster_fnv;
  std::uint64_t ledger_fnv;
  std::int64_t ledger_entries;
  std::int64_t ledger_rounds;
  std::int64_t ledger_messages;
  int iterations;
  int merges;
  int cv_rounds_total;
  int ecc_cap_final;
  std::int64_t cut_edges;
  int k;
  std::uint64_t eps_fraction_bits;  // IEEE-754 bits of quality.eps_fraction
  int max_diameter;
  int max_cluster_size;
  bool clusters_connected;
};

Graph pinned_family(const std::string& name) {
  if (name == "grid64") return grid_graph(64, 64);
  if (name == "grid63") return grid_graph(63, 63);  // odd side: stalls once
  if (name == "torus40") return torus_graph(40, 40);
  return add_apex(cycle_graph(2047));  // "apex2047": one vertex of degree n-1
}

// Golden outcomes of ldd_minor_free_local (default params), captured from
// the engine that rebuilt the cluster graph from G every iteration.
const PinnedLdd kPinnedLdd[] = {
    {"grid64", 0.25, 0x79b893e643091db5ULL, 0x4c1aa4cc6593226fULL,
     20, 87, 220012, 4, 3831, 33,
     16, 1955, 265, 0x3fcf082082082082ULL, 10, 31, true},
    {"grid64", 0.3, 0x2f4e6adbc7100d9dULL, 0x8b3a9d0cdf632b03ULL,
     20, 81, 219448, 4, 3822, 33,
     14, 1990, 274, 0x3fcf965965965966ULL, 10, 24, true},
    {"grid63", 0.25, 0x7273a749392113a3ULL, 0x29a030ad90f81946ULL,
     45, 249, 301724, 9, 3821, 78,
     32, 1857, 148, 0x3fce6d522ff9b549ULL, 25, 86, true},
    {"grid63", 0.3, 0xdf8f5c9bd4f6a66bULL, 0x35d587209912e6edULL,
     40, 182, 288272, 8, 3743, 69,
     28, 2309, 226, 0x3fd2eaa2470baa89ULL, 16, 55, true},
    {"torus40", 0.25, 0xf3931f2023f5a8caULL, 0xaa62e35777cc27acULL,
     25, 117, 94832, 5, 1511, 41,
     16, 773, 89, 0x3fceeb851eb851ecULL, 14, 48, true},
    {"torus40", 0.3, 0xabb14fab796610f0ULL, 0x1a8c36be66cdd7aaULL,
     20, 86, 84482, 4, 1465, 34,
     14, 938, 135, 0x3fd2c28f5c28f5c3ULL, 11, 32, true},
    {"apex2047", 0.25, 0x9c1bda7f8c872325ULL, 0xd96032b36698f440ULL,
     10, 31, 81855, 2, 2047, 15,
     16, 0, 1, 0x0000000000000000ULL, 2, 2048, true},
    {"apex2047", 0.3, 0x9c1bda7f8c872325ULL, 0xd96032b36698f440ULL,
     10, 31, 81855, 2, 2047, 15,
     14, 0, 1, 0x0000000000000000ULL, 2, 2048, true},
};

std::string describe(const LocalLdd& d) {
  std::uint64_t eps_bits = 0;
  std::memcpy(&eps_bits, &d.quality.eps_fraction, sizeof eps_bits);
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "got {0x%016llxULL, 0x%016llxULL, %lld, %lld, %lld, %d, %d, %d, %d, "
      "%lld, %d, 0x%016llxULL, %d, %d, %s}",
      static_cast<unsigned long long>(cluster_hash(d.clustering.cluster)),
      static_cast<unsigned long long>(ledger_hash(d.ledger)),
      static_cast<long long>(d.ledger.entries().size()),
      static_cast<long long>(d.ledger.total()),
      static_cast<long long>(d.ledger.total_messages()), d.iterations,
      d.merges, d.cv_rounds_total, d.ecc_cap_final,
      static_cast<long long>(d.cut_edges), d.clustering.k,
      static_cast<unsigned long long>(eps_bits), d.quality.max_diameter,
      d.quality.max_cluster_size,
      d.quality.clusters_connected ? "true" : "false");
  return buf;
}

void check_pinned(const PinnedLdd& pin, const LocalLdd& d,
                  const std::string& ctx) {
  std::uint64_t eps_bits = 0;
  std::memcpy(&eps_bits, &d.quality.eps_fraction, sizeof eps_bits);
  const bool same =
      cluster_hash(d.clustering.cluster) == pin.cluster_fnv &&
      ledger_hash(d.ledger) == pin.ledger_fnv &&
      static_cast<std::int64_t>(d.ledger.entries().size()) ==
          pin.ledger_entries &&
      d.ledger.total() == pin.ledger_rounds &&
      d.ledger.total_messages() == pin.ledger_messages &&
      d.iterations == pin.iterations && d.merges == pin.merges &&
      d.cv_rounds_total == pin.cv_rounds_total &&
      d.ecc_cap_final == pin.ecc_cap_final && d.cut_edges == pin.cut_edges &&
      d.clustering.k == pin.k && eps_bits == pin.eps_fraction_bits &&
      d.quality.max_diameter == pin.max_diameter &&
      d.quality.max_cluster_size == pin.max_cluster_size &&
      d.quality.clusters_connected == pin.clusters_connected;
  CHECK_MSG(same, ctx + ": " + describe(d));
}

}  // namespace

// The local pipeline's whole outcome is pinned to golden values, so a change
// that moves a cluster, a charge or a counter fails here even when the
// pooled and serial paths still agree with each other. The pooled run
// (three threads) must hit the same pins.
TEST_CASE(ldd_local_outcome_pinned) {
  congest::ShardPool pool(3);
  for (const PinnedLdd& pin : kPinnedLdd) {
    const Graph g = pinned_family(pin.family);
    const std::string ctx =
        std::string(pin.family) + "/eps=" + Table::num(pin.eps, 2);
    check_pinned(pin, ldd_minor_free_local(g, pin.eps), ctx + "/serial");
    LocalLddParams p;
    p.pool = &pool;
    check_pinned(pin, ldd_minor_free_local(g, pin.eps, p), ctx + "/pooled");
  }
}

namespace {

// A random clustering whose clusters induce connected subgraphs: seeds drawn
// with probability 1/spread grow by multi-source BFS (an unreached component
// seeds itself), and ids are numbered by first appearance in node order —
// the numbering the contraction loop uses.
template <class ForNeighbors>
std::vector<int> random_connected_clustering(int n, int spread, Rng& rng,
                                             ForNeighbors&& for_neighbors,
                                             int* k) {
  std::vector<int> owner(n, -1), queue;
  for (int v = 0; v < n; ++v) {
    if (rng.next_below(static_cast<std::uint64_t>(spread)) == 0) {
      owner[v] = v;
      queue.push_back(v);
    }
  }
  std::size_t head = 0;
  for (int s = 0;;) {
    while (head < queue.size()) {
      const int u = queue[head++];
      for_neighbors(u, [&](int w) {
        if (owner[w] < 0) {
          owner[w] = owner[u];
          queue.push_back(w);
        }
      });
    }
    while (s < n && owner[s] >= 0) ++s;
    if (s == n) break;
    owner[s] = s;
    queue.push_back(s);
  }
  std::vector<int> id(n, -1), into(n);
  *k = 0;
  for (int v = 0; v < n; ++v) {
    if (id[owner[v]] < 0) id[owner[v]] = (*k)++;
    into[v] = id[owner[v]];
  }
  return into;
}

void check_same_csr(const WeightedGraph& got, const WeightedGraph& want,
                    const std::string& ctx) {
  CHECK_MSG(got.n() == want.n(), ctx + ": n");
  CHECK_MSG(got.m() == want.m(), ctx + ": m");
  CHECK_MSG(got.total_weight() == want.total_weight(), ctx + ": total weight");
  if (got.n() != want.n()) return;
  for (int v = 0; v < got.n(); ++v) {
    const auto a = got.arcs(v);
    const auto b = want.arcs(v);
    bool same = a.size() == b.size();
    for (int i = 0; same && i < a.size(); ++i) {
      same = a.begin()[i].to == b.begin()[i].to &&
             a.begin()[i].w == b.begin()[i].w;
    }
    if (!same) {
      CHECK_MSG(false, ctx + ": arcs of node " + std::to_string(v));
      return;
    }
  }
}

}  // namespace

// The cluster graph is carried across iterations by contraction; the
// edge-list constructor (one unit record per cut G-edge, sorted and merged)
// is the oracle. Two levels — G into clusters, then clusters into coarser
// ones — so the second contraction starts from summed weights. Serial and
// pooled contractions must both equal the oracle.
TEST_CASE(cluster_graph_contraction_matches_edge_list) {
  congest::ShardPool pool(3);
  struct Family {
    const char* name;
    Graph g;
  };
  Rng frng(29);
  const Family families[] = {
      {"grid", make_family("grid", 900, frng)},
      {"planar", make_family("planar", 800, frng)},
      {"apex-grid", add_apex(grid_graph(20, 20))},
      {"apex-cycle", add_apex(cycle_graph(300))}};
  for (const Family& fam : families) {
    const Graph& g = fam.g;
    for (int seed : {1, 2, 3}) {
      for (int spread : {1, 4, 30}) {
        const std::string ctx = std::string(fam.name) + "/seed=" +
                                std::to_string(seed) +
                                "/spread=" + std::to_string(spread);
        Rng rng(static_cast<std::uint64_t>(seed));
        int k1 = 0;
        const std::vector<int> into1 = random_connected_clustering(
            g.n(), spread, rng,
            [&](int u, auto&& visit) {
              for (int w : g.neighbors(u)) visit(w);
            },
            &k1);
        const WeightedGraph unit = detail::unit_cluster_graph(g, nullptr);
        check_same_csr(unit, weighted_copy(g, nullptr), ctx + "/unit");
        std::vector<WeightedEdge> edges1;
        for (const auto& [u, v] : g.edges()) {
          edges1.push_back({into1[u], into1[v], 1});
        }
        const WeightedGraph want1(k1, edges1);
        for (congest::ShardPool* p : {static_cast<congest::ShardPool*>(nullptr),
                                      &pool}) {
          const std::string pctx = ctx + (p == nullptr ? "/serial" : "/pooled");
          check_same_csr(detail::contract_cluster_graph(unit, into1, k1, p),
                         want1, pctx + "/level1");
        }

        int k2 = 0;
        const std::vector<int> into2 = random_connected_clustering(
            k1, 3, rng,
            [&](int u, auto&& visit) {
              for (const auto& a : want1.arcs(u)) visit(a.to);
            },
            &k2);
        std::vector<WeightedEdge> edges2;
        for (const auto& [u, v] : g.edges()) {
          edges2.push_back({into2[into1[u]], into2[into1[v]], 1});
        }
        const WeightedGraph want2(k2, std::move(edges2));
        for (congest::ShardPool* p : {static_cast<congest::ShardPool*>(nullptr),
                                      &pool}) {
          const std::string pctx = ctx + (p == nullptr ? "/serial" : "/pooled");
          check_same_csr(detail::contract_cluster_graph(want1, into2, k2, p),
                         want2, pctx + "/level2");
        }
      }
    }
  }
}
