// The covering-IP application (§1 motivation; the MDS line of [LPW13,
// AASS16, ASS19, CHWW20] the paper's framework subsumes): a deterministic
// (1+eps)-approximate minimum dominating set on H-minor-free networks, plus
// the exact and greedy centralized baselines it is graded against.
//
// Approximation shape: decompose at eps* = eps / (alpha * (Delta + 1)) and
// dominate every cluster within itself. Restricting a global optimum D* to
// a cluster C and adding the border vertices of C that D* dominated from
// outside yields a dominating set of C, so sum_C gamma(C) <= gamma(G) +
// O(cut) and the additive eps*·m loss becomes multiplicative via
// gamma(G) >= n / (Delta + 1) and m <= alpha * n.
//
// Per-cluster solver ladder (all deterministic, apps/treewidth.hpp's
// width-gated four tiers): exact tree DP on forest clusters of any size;
// the treewidth DP when the capped decomposition probe certifies width <=
// tw_cap; branch-and-bound — candidate branching on a fewest-dominator
// white vertex with a greedy 2-packing lower bound (closed neighborhoods of
// a 2-packing are disjoint, so any dominating set spends one vertex per
// packed vertex) — inside a node budget. The search starts from the
// greedy-plus-redundancy-pruning set, so when the budget blows it returns
// the best set found, never worse than greedy's. A B&B node costs
// O(white vertices + their degrees), not O(cluster), with the search order
// unchanged from the whole-graph-scan reference kept in tests/test_fuzz.cpp.
// Per-tier cluster counts and B&B effort land in congest::SolverStats.
// min_dominating_set (the exact baseline) runs the same B&B with an
// unbounded budget.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "apps/approx.hpp"
#include "apps/treewidth.hpp"
#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"

namespace mfd::apps {

/// An exact minimum dominating set (sorted vertex list).
struct MdsResult {
  std::vector<int> set;
};

/// The approximate solver's output; eps_star is the decomposition budget the
/// eps -> eps* scaling chose (the bench prints it).
struct MdsSolution {
  std::vector<int> vertices;
  double eps_star = 0.0;
  congest::SolverStats stats;
};

namespace detail {

/// Exact MDS of a tree (or forest) by the standard 3-state DP:
/// state 0 = v in the set, 1 = v dominated from within its subtree,
/// 2 = v not yet dominated (its parent must take it). Reconstructs a set.
inline std::vector<int> tree_mds(const Graph& t) {
  const int n = t.n();
  std::vector<int> chosen;
  if (n == 0) return chosen;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> c0(n), c1(n), c2(n);
  std::vector<int> parent(n, -2), order;
  std::vector<std::vector<int>> kids(n);
  order.reserve(n);
  for (int root = 0; root < n; ++root) {
    if (parent[root] != -2) continue;
    parent[root] = -1;
    const std::size_t first = order.size();
    order.push_back(root);
    for (std::size_t i = first; i < order.size(); ++i) {
      const int v = order[i];
      for (int w : t.neighbors(v)) {
        if (parent[w] == -2) {
          parent[w] = v;
          kids[v].push_back(w);
          order.push_back(w);
        }
      }
    }
  }
  // Bottom-up costs (order is BFS, so reverse order is a valid postorder).
  for (int i = n - 1; i >= 0; --i) {
    const int v = order[i];
    std::int64_t sum_min3 = 0, sum_min01 = 0, sum_c1 = 0;
    std::int64_t best_force = kInf;  // min c0 - min(c0, c1) over children
    for (int ch : kids[v]) {
      sum_min3 += std::min({c0[ch], c1[ch], c2[ch]});
      const std::int64_t m01 = std::min(c0[ch], c1[ch]);
      sum_min01 = std::min(sum_min01 + m01, kInf);
      sum_c1 = std::min(sum_c1 + c1[ch], kInf);
      best_force = std::min(best_force, c0[ch] - m01);
    }
    c0[v] = 1 + sum_min3;
    c2[v] = kids[v].empty() ? 0 : sum_c1;
    c1[v] = kids[v].empty()
                ? kInf
                : std::min(sum_min01 + best_force, kInf);
  }
  // Top-down reconstruction.
  std::vector<int> state(n, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int v = order[i];
    if (parent[v] < 0) state[v] = c0[v] <= c1[v] ? 0 : 1;
    const int s = state[v];
    if (s == 0) chosen.push_back(v);
    if (kids[v].empty()) continue;
    if (s == 0) {
      for (int ch : kids[v]) {
        state[ch] = c0[ch] <= c1[ch] && c0[ch] <= c2[ch]
                        ? 0
                        : (c1[ch] <= c2[ch] ? 1 : 2);
      }
    } else if (s == 2) {
      for (int ch : kids[v]) state[ch] = 1;
    } else {  // s == 1: at least one child must enter the set
      bool have_zero = false;
      for (int ch : kids[v]) {
        state[ch] = c0[ch] <= c1[ch] ? 0 : 1;
        have_zero = have_zero || state[ch] == 0;
      }
      if (!have_zero) {
        int fc = kids[v].front();
        for (int ch : kids[v]) {
          if (c0[ch] - std::min(c0[ch], c1[ch]) <
              c0[fc] - std::min(c0[fc], c1[fc])) {
            fc = ch;
          }
        }
        state[fc] = 0;
      }
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

/// Greedy max-coverage dominating set of the whole graph (the ln(Delta)
/// baseline); ties break toward the smaller id.
inline std::vector<int> greedy_mds(const Graph& g) {
  const int n = g.n();
  std::vector<char> dominated(n, 0), in_set(n, 0);
  std::vector<int> cover(n);
  int undominated = n;
  const auto coverage = [&](int v) {
    int c = dominated[v] ? 0 : 1;
    for (int w : g.neighbors(v)) c += dominated[w] ? 0 : 1;
    return c;
  };
  for (int v = 0; v < n; ++v) cover[v] = coverage(v);
  std::vector<int> out;
  while (undominated > 0) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (!in_set[v] && cover[v] > 0 && (best < 0 || cover[v] > cover[best])) {
        best = v;
      }
    }
    in_set[best] = 1;
    out.push_back(best);
    // Mark N[best] dominated; refresh coverages in the 2-neighborhood.
    const auto mark = [&](int u) {
      if (dominated[u]) return;
      dominated[u] = 1;
      --undominated;
      cover[u] -= 1;
      for (int w : g.neighbors(u)) cover[w] -= 1;
    };
    mark(best);
    for (int w : g.neighbors(best)) mark(w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Drop set members whose closed neighborhood stays dominated without them.
inline void prune_redundant(const Graph& g, std::vector<int>& set) {
  const int n = g.n();
  std::vector<int> cnt(n, 0);
  std::vector<char> in_set(n, 0);
  for (int v : set) in_set[v] = 1;
  for (int v : set) {
    ++cnt[v];
    for (int w : g.neighbors(v)) ++cnt[w];
  }
  std::vector<int> kept;
  // Scan in reverse id order so earlier (greedy-higher-value) picks survive.
  for (auto it = set.rbegin(); it != set.rend(); ++it) {
    const int v = *it;
    bool removable = cnt[v] >= 2;
    for (int w : g.neighbors(v)) {
      if (cnt[w] < 2) {
        removable = false;
        break;
      }
    }
    if (removable) {
      --cnt[v];
      for (int w : g.neighbors(v)) --cnt[w];
    } else {
      kept.push_back(v);
    }
  }
  std::sort(kept.begin(), kept.end());
  set = std::move(kept);
}

/// Branch and bound for exact MDS. Branches over the candidate dominators
/// of a fewest-candidates white vertex (the first in id order), in
/// coverage-descending, id-ascending order; prunes with a greedy 2-packing
/// lower bound. node_budget < 0 means unlimited (the exact baseline), and
/// then nodes() stays 0.
///
/// A node costs O(white vertices + their degrees), not O(n): the white set
/// is a bitset walked in id order, the packing bound stops once it proves
/// the prune and clears only the marks it set, the pivot scan stops at a
/// zero-candidate vertex, and candidates / newly dominated vertices live on
/// member stacks, so no node allocates once the stacks have grown.
class MdsBranch {
 public:
  MdsBranch(const Graph& g, std::int64_t node_budget)
      : g_(g),
        n_(g.n()),
        white_(g.n()),
        dominated_(n_, 0),
        banned_(n_, 0),
        pack_mark_(n_, 0),
        white_bits_((n_ + 63) / 64, ~std::uint64_t{0}),
        budget_(node_budget) {
    if (n_ % 64 != 0) white_bits_.back() = (std::uint64_t{1} << n_ % 64) - 1;
  }

  /// Runs the search; exact() reports whether the budget survived.
  std::vector<int> solve() {
    best_ = greedy_mds(g_);
    prune_redundant(g_, best_);
    std::vector<int> chosen;
    descend(chosen);
    return best_;
  }

  bool exact() const { return exact_; }
  std::int64_t nodes() const { return nodes_; }

 private:
  int coverage(int v) const {
    int c = dominated_[v] ? 0 : 1;
    for (int w : g_.neighbors(v)) c += dominated_[w] ? 0 : 1;
    return c;
  }

  /// Calls f(v) for every white vertex in increasing id order until f
  /// returns false.
  template <typename F>
  void for_white(F&& f) const {
    for (std::size_t word = 0; word < white_bits_.size(); ++word) {
      for (std::uint64_t bits = white_bits_[word]; bits != 0;
           bits &= bits - 1) {
        if (!f(static_cast<int>(word * 64) + __builtin_ctzll(bits))) return;
      }
    }
  }

  void set_dominated(int v) {
    dominated_[v] = 1;
    white_bits_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
    --white_;
  }

  void set_white(int v) {
    dominated_[v] = 0;
    white_bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
    ++white_;
  }

  /// Greedy 2-packing of white vertices: closed neighborhoods of packed
  /// vertices are disjoint, and every dominating set spends a distinct
  /// vertex per packed vertex — a lower bound on what remains to pay.
  /// Stops once the bound reaches `room` (the node is pruned either way).
  int packing_bound(int room) {
    int packed = 0;
    for_white([&](int v) {
      if (packed >= room) return false;
      if (pack_mark_[v]) return true;
      for (int w : g_.neighbors(v)) {
        if (pack_mark_[w]) return true;
      }
      ++packed;
      // Block everything within distance 2 (mark the closed neighborhood;
      // a later candidate checks its own closed neighborhood against it).
      pack_mark_[v] = 1;
      for (int w : g_.neighbors(v)) pack_mark_[w] = 1;
      packed_.push_back(v);
      return true;
    });
    for (int v : packed_) {
      pack_mark_[v] = 0;
      for (int w : g_.neighbors(v)) pack_mark_[w] = 0;
    }
    packed_.clear();
    return packed;
  }

  void descend(std::vector<int>& chosen) {
    if (!exact_) return;
    if (budget_ >= 0 && ++nodes_ > budget_) {
      exact_ = false;
      return;
    }
    const int room =
        static_cast<int>(best_.size()) - static_cast<int>(chosen.size());
    if ((white_ > 0 ? packing_bound(room) : 0) >= room) return;
    if (white_ == 0) {  // everything dominated: chosen is a full solution
      best_ = chosen;
      std::sort(best_.begin(), best_.end());
      return;
    }
    // Fewest-candidates white vertex, first in id order. Counting stops
    // once it ties the best so far; a 0-candidate vertex ends the scan.
    int pivot = -1, pivot_cands = n_ + 1;
    for_white([&](int v) {
      int cands = banned_[v] ? 0 : 1;
      for (int w : g_.neighbors(v)) {
        if (cands >= pivot_cands) break;
        cands += banned_[w] ? 0 : 1;
      }
      if (cands < pivot_cands) {
        pivot = v;
        pivot_cands = cands;
      }
      return pivot_cands > 0;
    });
    if (pivot_cands == 0) return;  // infeasible branch
    // Candidates as (coverage descending, id ascending) sort keys.
    const std::size_t base = cands_.size();
    const auto push_cand = [&](int u) {
      if (banned_[u]) return;
      cands_.push_back(
          static_cast<std::uint64_t>(n_ + 1 - coverage(u)) << 32 |
          static_cast<std::uint32_t>(u));
    };
    push_cand(pivot);
    for (int w : g_.neighbors(pivot)) push_cand(w);
    std::sort(cands_.begin() + static_cast<std::ptrdiff_t>(base),
              cands_.end());
    const std::size_t end = cands_.size();
    std::size_t tried = base;
    while (tried < end) {
      const int u = static_cast<int>(cands_[tried++] & 0xffffffffu);
      const std::size_t marked = newly_dominated_.size();
      const auto mark = [&](int x) {
        if (!dominated_[x]) {
          set_dominated(x);
          newly_dominated_.push_back(x);
        }
      };
      mark(u);
      for (int w : g_.neighbors(u)) mark(w);
      chosen.push_back(u);
      descend(chosen);
      chosen.pop_back();
      for (std::size_t i = marked; i < newly_dominated_.size(); ++i) {
        set_white(newly_dominated_[i]);
      }
      newly_dominated_.resize(marked);
      // Completeness: some dominator of pivot is in an optimal solution;
      // having explored "u in", the remaining branches may assume "u out".
      banned_[u] = 1;
      if (!exact_) break;
    }
    for (std::size_t i = base; i < tried; ++i) {
      banned_[cands_[i] & 0xffffffffu] = 0;
    }
    cands_.resize(base);
  }

  const Graph& g_;
  int n_;
  int white_ = 0;
  std::vector<char> dominated_, banned_, pack_mark_;
  std::vector<std::uint64_t> white_bits_;  // bit v set iff !dominated_[v]
  // Per-node stacks: each descend() call truncates them back on return.
  std::vector<std::uint64_t> cands_;       // candidate sort keys
  std::vector<int> newly_dominated_;
  std::vector<int> packed_;                // packing_bound()'s scratch
  std::vector<int> best_;
  std::int64_t nodes_ = 0, budget_;
  bool exact_ = true;
};

/// The width-gated cluster ladder: forest tree-DP -> treewidth DP (computed
/// width <= tw_cap) -> budgeted B&B (its best set, counted as greedy, when
/// the budget blows) -> greedy + pruning. Fills `rep` with
/// the tier that produced the answer, the certified width when the DP ran,
/// the B&B effort when that tier ran, and the wall time of this solve.
inline std::vector<int> cluster_mds(const Graph& h, const LadderConfig& cfg,
                                    TierReport& rep) {
  rep = TierReport{};
  if (h.n() == 0) return {};
  const auto t0 = std::chrono::steady_clock::now();
  rep.solved = true;
  std::vector<int> sol;
  NiceTreeDecomposition nd;
  if (cfg.mode == SolverMode::kGreedy) {
    sol = greedy_mds(h);
    prune_redundant(h, sol);
    rep.tier = SolveTier::kGreedy;
  } else if (h.m() == h.n() - 1) {  // connected cluster with tree edge count
    sol = tree_mds(h);
    rep.tier = SolveTier::kForest;
  } else if (ladder_tw_probe(h, cfg, nd)) {
    sol = tw_min_dominating_set(h, nd);
    rep.tier = SolveTier::kTreewidthDp;
    rep.width = nd.width;
  } else if (cfg.mode != SolverMode::kTreewidth) {
    MdsBranch bb(h, cfg.node_budget);
    sol = bb.solve();
    rep.bb_ran = true;
    rep.bb_nodes = bb.nodes();
    rep.bb_exact = bb.exact();
    // A blown budget still returns the best set found, which is never
    // larger than the pruned greedy set the search starts from.
    rep.tier = bb.exact() ? SolveTier::kBranchBound : SolveTier::kGreedy;
  } else {  // kTreewidth mode past the width gate: no B&B rescue
    sol = greedy_mds(h);
    prune_redundant(h, sol);
    rep.tier = SolveTier::kGreedy;
  }
  rep.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
  return sol;
}

}  // namespace detail

/// Exact minimum dominating set: tree DP per forest component, unbounded
/// branch and bound otherwise. Exponential worst case — baseline sizes only.
inline MdsResult min_dominating_set(const Graph& g) {
  MdsResult out;
  const auto [comp, k] = connected_components(g);
  std::vector<std::vector<int>> members(k);
  for (int v = 0; v < g.n(); ++v) members[comp[v]].push_back(v);
  for (const auto& verts : members) {
    const InducedSubgraph sub = induced_subgraph(g, verts);
    std::vector<int> local;
    if (sub.graph.m() == sub.graph.n() - 1) {
      local = detail::tree_mds(sub.graph);
    } else {
      detail::MdsBranch bb(sub.graph, -1);
      local = bb.solve();
    }
    for (int i : local) out.set.push_back(sub.to_parent[i]);
  }
  std::sort(out.set.begin(), out.set.end());
  return out;
}

/// The ln(Delta)-factor greedy baseline the decomposition is graded against.
inline std::vector<int> greedy_dominating_set(const Graph& g) {
  return detail::greedy_mds(g);
}

/// The covering application: deterministic (1+eps)-approximate minimum
/// dominating set via per-cluster domination on the (ε*, D, T)-decomposition
/// with eps* = eps / (alpha * (Delta + 1)). `pool` fans the per-cluster
/// ladder solves (clusters are vertex-disjoint and the ladder is
/// deterministic; results fold in cluster order, so the output is
/// bit-identical to the serial sweep — test_shard gates it); `ladder`
/// selects the solver tiers (the benches' --tw_cap / --solver knobs).
inline MdsSolution approx_min_dominating_set(const Graph& g, double eps,
                                             int alpha,
                                             congest::ShardPool* pool = nullptr,
                                             const LadderConfig& ladder = {}) {
  MdsSolution out;
  const double a = std::max(alpha, 1);
  out.eps_star =
      detail::clamp_eps_star(eps / (a * (g.max_degree() + 1.0)));
  const detail::AppDecomposition dec =
      detail::decompose_for_app(g, out.eps_star, out.stats);

  const int k = static_cast<int>(dec.members.size());
  std::vector<std::vector<int>> local(k);
  std::vector<TierReport> reports(k);
  const auto solve_one = [&](int c) {
    const std::vector<int>& verts = dec.members[c];
    if (verts.empty()) return;
    const InducedSubgraph sub = induced_subgraph(g, verts);
    const std::vector<int> s = detail::cluster_mds(sub.graph, ladder,
                                                   reports[c]);
    local[c].reserve(s.size());
    for (int i : s) local[c].push_back(sub.to_parent[i]);
  };
  if (pool != nullptr && pool->threads() > 1) {
    pool->run(k, [&](int task, int) { solve_one(task); });
  } else {
    for (int c = 0; c < k; ++c) solve_one(c);
  }
  for (int c = 0; c < k; ++c) {
    accumulate_tier(out.stats, reports[c]);
    out.vertices.insert(out.vertices.end(), local[c].begin(), local[c].end());
  }
  std::sort(out.vertices.begin(), out.vertices.end());
  out.stats.finish();
  return out;
}

}  // namespace mfd::apps
