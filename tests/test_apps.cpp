// apps/ exact kernels vs brute force on small random graphs, plus known
// closed-form instances. These are the centralized baselines the
// Theorem 1.2 application benches grade against. The MDS branch and bound's
// whole outcome (set, node count, exactness) is pinned to golden values.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/blossom.hpp"
#include "apps/domination.hpp"
#include "apps/exact.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "test_main.hpp"

using namespace mfd;

namespace {

int brute_mis(const Graph& g) {
  int best = 0;
  for (unsigned mask = 0; mask < (1u << g.n()); ++mask) {
    bool ok = true;
    int cnt = 0;
    for (int v = 0; v < g.n() && ok; ++v) {
      if (!(mask >> v & 1)) continue;
      ++cnt;
      for (int w : g.neighbors(v)) {
        if (w > v && (mask >> w & 1)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) best = std::max(best, cnt);
  }
  return best;
}

int brute_matching(const Graph& g) {
  const auto edges = g.edges();
  int best = 0;
  for (unsigned mask = 0; mask < (1u << edges.size()); ++mask) {
    std::vector<char> used(g.n(), 0);
    bool ok = true;
    int cnt = 0;
    for (std::size_t i = 0; i < edges.size() && ok; ++i) {
      if (!(mask >> i & 1)) continue;
      const auto [a, b] = edges[i];
      if (used[a] || used[b]) ok = false;
      used[a] = used[b] = 1;
      ++cnt;
    }
    if (ok) best = std::max(best, cnt);
  }
  return best;
}

}  // namespace

TEST_CASE(blossom_matches_brute_force) {
  Rng rng(99);
  int tested = 0;
  while (tested < 40) {
    const int n = 4 + static_cast<int>(rng.next_below(8));
    std::vector<std::pair<int, int>> e;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.next_below(100) < 35) e.emplace_back(a, b);
      }
    }
    const Graph g = Graph::from_edges(n, std::move(e));
    if (g.m() > 14) continue;  // keep the 2^m brute force cheap
    ++tested;
    CHECK_MSG(apps::max_matching(g).size == brute_matching(g),
              "trial " + std::to_string(tested));
  }
}

TEST_CASE(blossom_known_instances) {
  CHECK(apps::max_matching(complete_graph(6)).size == 3);
  CHECK(apps::max_matching(cycle_graph(5)).size == 2);  // odd cycle: blossom
  CHECK(apps::max_matching(path_graph(4)).size == 2);
  CHECK(apps::max_matching(add_apex(cycle_graph(8))).size == 4);
  // The matching array is an involution onto real partners.
  Rng rng(5);
  const Graph g = random_maximal_planar(300, rng);
  const apps::Matching m = apps::max_matching(g);
  for (int v = 0; v < g.n(); ++v) {
    if (m.match[v] >= 0) {
      CHECK(m.match[m.match[v]] == v);
      CHECK(g.has_edge(v, m.match[v]));
    }
  }
}

namespace {

// The reported set must actually be independent in g.
bool is_independent(const Graph& g, const std::vector<int>& set) {
  for (int u : set) {
    for (int v : set) {
      if (u < v && g.has_edge(u, v)) return false;
    }
  }
  return true;
}

}  // namespace

TEST_CASE(exact_mis_matches_brute_force) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(10));
    std::vector<std::pair<int, int>> e;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.next_below(100) < 35) e.emplace_back(a, b);
      }
    }
    const Graph g = Graph::from_edges(n, std::move(e));
    const apps::MisResult mis = apps::max_independent_set(g);
    CHECK_MSG(static_cast<int>(mis.set.size()) == brute_mis(g),
              "trial " + std::to_string(trial));
    CHECK_MSG(is_independent(g, mis.set), "trial " + std::to_string(trial));
  }
}

TEST_CASE(exact_mis_known_instances) {
  CHECK(apps::max_independent_set(cycle_graph(7)).set.size() == 3);
  CHECK(apps::max_independent_set(complete_graph(8)).set.size() == 1);
  CHECK(apps::max_independent_set(path_graph(9)).set.size() == 5);
  CHECK(apps::max_independent_set(grid_graph(4, 4)).set.size() == 8);
  Rng rng(5);
  const Graph g = random_maximal_planar(120, rng);
  const apps::MisResult mis = apps::max_independent_set(g);
  // Planar triangulations: alpha >= n/4 by the four color theorem.
  CHECK(mis.set.size() >= 30);
  CHECK(is_independent(g, mis.set));
}

TEST_CASE(exact_vertex_cover_complement) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(8));
    std::vector<std::pair<int, int>> e;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.next_below(100) < 40) e.emplace_back(a, b);
      }
    }
    const Graph g = Graph::from_edges(n, std::move(e));
    const apps::MisResult vc = apps::min_vertex_cover(g);
    // Covers every edge, and |VC| = n - alpha(G).
    std::vector<char> in(g.n(), 0);
    for (int v : vc.set) in[v] = 1;
    for (const auto& [u, v] : g.edges()) CHECK(in[u] || in[v]);
    CHECK(static_cast<int>(vc.set.size()) == g.n() - brute_mis(g));
  }
}

namespace {

std::uint64_t fnv1a(const std::vector<int>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int x : v) {
    const auto u = static_cast<std::uint32_t>(x);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Complete bipartite K_{a,b}: every white vertex has a+1 or b+1
/// candidates, so the pivot's candidate list is wider than a 64-bit word.
Graph complete_bipartite(int a, int b) {
  std::vector<std::pair<int, int>> e;
  for (int u = 0; u < a; ++u) {
    for (int v = 0; v < b; ++v) e.emplace_back(u, a + v);
  }
  return Graph::from_edges(a + b, std::move(e));
}

/// A cycle whose apex sees every other rim vertex: the apex (degree k/2)
/// is a candidate of every even pivot, and the search runs past the root.
Graph half_apexed_cycle(int k) {
  std::vector<std::pair<int, int>> e;
  for (int v = 0; v < k; ++v) e.emplace_back(v, (v + 1) % k);
  for (int v = 0; v < k; v += 2) e.emplace_back(v, k);
  return Graph::from_edges(k + 1, std::move(e));
}

struct PinnedBranch {
  const char* name;
  std::int64_t budget;  // < 0: unbounded
  std::size_t size;
  std::uint64_t set_fnv;
  std::int64_t nodes;
  bool exact;
};

// A budget no pinned search reaches: the run is exhaustive, but nodes are
// counted (an unbounded search, budget < 0, reports nodes() == 0).
constexpr std::int64_t kCounted = 1'000'000'000;

// Golden MdsBranch outcomes. Budgets 1, 2 and 17 run out inside a
// candidate loop on the way down; every grid run from 32x32 and 31x33
// exhausts its budget (250k is the ladder's default).
const PinnedBranch kPinnedBranches[] = {
    {"grid32x32", 20'000, 246, 0x875e79c8ecbc300cULL, 20001, false},
    {"grid32x32", 250'000, 246, 0x875e79c8ecbc300cULL, 250001, false},
    {"grid31x33", 50'000, 245, 0x038562d1fcab9aeeULL, 50001, false},
    {"grid32x32", 1, 266, 0x86ff0153b2e1d416ULL, 2, false},
    {"grid32x32", 2, 266, 0x86ff0153b2e1d416ULL, 3, false},
    {"grid32x32", 17, 266, 0x86ff0153b2e1d416ULL, 18, false},
    {"wheel100", kCounted, 1, 0xcc9047690baeb3d1ULL, 1, true},
    {"half_apexed_cycle200", 20'000, 51, 0x75622aef4e2011d9ULL, 4, true},
    {"k65x65", kCounted, 2, 0x0a224a14447558f4ULL, 67, true},
    {"grid6x6", kCounted, 10, 0x6b1218fb2891b72dULL, 381, true},
    {"grid6x6", -1, 10, 0x6b1218fb2891b72dULL, 0, true},
    {"planar40", kCounted, 4, 0x158c3221a77bdbecULL, 37, true},
    {"planar40", -1, 4, 0x158c3221a77bdbecULL, 0, true},
};

Graph pinned_graph(const std::string& name) {
  if (name == "grid32x32") return grid_graph(32, 32);
  if (name == "grid31x33") return grid_graph(31, 33);
  if (name == "wheel100") return add_apex(cycle_graph(100));
  if (name == "half_apexed_cycle200") return half_apexed_cycle(200);
  if (name == "k65x65") return complete_bipartite(65, 65);
  if (name == "grid6x6") return grid_graph(6, 6);
  Rng rng(40);
  return random_maximal_planar(40, rng);
}

}  // namespace

// Any change to the search (pivot rule, candidate order, packing order,
// node counting, budget cut-off) moves a set hash or a node count here.
TEST_CASE(mds_branch_outcome_pinned) {
  for (const PinnedBranch& pin : kPinnedBranches) {
    const Graph g = pinned_graph(pin.name);
    apps::detail::MdsBranch bb(g, pin.budget);
    const std::vector<int> set = bb.solve();
    const std::string got =
        std::string(pin.name) + " budget=" + std::to_string(pin.budget) +
        ": got size=" + std::to_string(set.size()) + " fnv=" +
        std::to_string(fnv1a(set)) + " nodes=" + std::to_string(bb.nodes()) +
        " exact=" + std::to_string(bb.exact());
    CHECK_MSG(set.size() == pin.size && fnv1a(set) == pin.set_fnv &&
                  bb.nodes() == pin.nodes && bb.exact() == pin.exact,
              got);
  }
  // The production ladder end to end on the mds-grid instance: four
  // budget-blown B&B clusters plus DP/forest tiers.
  const apps::MdsSolution sol =
      apps::approx_min_dominating_set(grid_graph(64, 64), 0.4, 3);
  const congest::SolverStats& st = sol.stats;
  const std::string got =
      "grid64x64 approx: got size=" + std::to_string(sol.vertices.size()) +
      " fnv=" + std::to_string(fnv1a(sol.vertices)) +
      " bb_nodes=" + std::to_string(st.bb_nodes) + " tiers F" +
      std::to_string(st.tier_forest) + "/TW" + std::to_string(st.tier_tw_dp) +
      "/BB" + std::to_string(st.tier_bb) + "/G" +
      std::to_string(st.tier_greedy);
  CHECK_MSG(sol.vertices.size() == 991 &&
                fnv1a(sol.vertices) == 0x54e98aa8370ccbeeULL &&
                st.bb_nodes == 1'000'004 && st.tier_forest == 1 &&
                st.tier_tw_dp == 3 && st.tier_bb == 0 && st.tier_greedy == 4,
            got);
}
