// Exact maximum independent set (and the exact covers derived from it) —
// the centralized baselines the Section-6 approximation applications are
// graded against (bench_mis, bench_matching_vc), and the
// per-cluster solver apps/approx.hpp runs inside decomposition clusters.
// Branch and bound with the standard reductions: degree-0/1 vertices are
// always taken, components whose maximum degree is at most 2 (cycles after
// the reduction) are solved in closed form, and branching picks a
// maximum-degree vertex (include N[v]-deleted vs exclude v-deleted). The
// solver reconstructs an actual optimal set, not just its size.
// Exponential worst case — intended for the small-n exact baselines and
// decomposition clusters only (the benches stay at n <= a few hundred on
// sparse minor-free instances, where the reductions keep the tree tiny).
// An optional node budget turns the search anytime: once the budget is
// spent, open subproblems finish with a greedy min-degree completion (still
// a valid independent set) and the solver reports exact() == false.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace mfd::apps {

/// An optimal independent set (max_independent_set) or vertex cover
/// (min_vertex_cover), as a sorted vertex list.
struct MisResult {
  std::vector<int> set;
};

/// Search-effort report from a budgeted MIS/VC run: branch nodes explored
/// and whether the search finished inside its budget (exact result).
struct MisSearchReport {
  std::int64_t nodes = 0;
  bool exact = true;
};

namespace detail {

class MisSolver {
 public:
  explicit MisSolver(const Graph& g, std::int64_t node_budget = -1)
      : g_(g), budget_(node_budget), alive_(g.n(), 1), deg_(g.n()) {
    for (int v = 0; v < g.n(); ++v) deg_[v] = g.degree(v);
  }

  std::vector<int> solve() {
    std::vector<int> chosen;
    branch(chosen);
    std::sort(chosen.begin(), chosen.end());
    return chosen;
  }

  std::int64_t nodes() const { return nodes_; }
  bool exact() const { return exact_; }

 private:
  void remove(int v, std::vector<int>& removed) {
    alive_[v] = 0;
    removed.push_back(v);
    for (int w : g_.neighbors(v)) {
      if (alive_[w]) --deg_[w];
    }
  }

  void restore(std::vector<int>& removed, std::size_t mark) {
    while (removed.size() > mark) {
      const int v = removed.back();
      removed.pop_back();
      alive_[v] = 1;
      for (int w : g_.neighbors(v)) {
        if (alive_[w]) ++deg_[w];
      }
    }
  }

  // Solve the remaining graph exactly (or greedily once the node budget is
  // spent); appends a valid — optimal while exact_ holds — set for it to
  // `chosen`. Mutates alive_/deg_ and restores them before returning.
  int branch(std::vector<int>& chosen) {
    ++nodes_;
    std::vector<int> removed;
    int taken = 0;
    // Reduce: repeatedly take degree-0/1 vertices (always optimal).
    bool changed = true;
    while (changed) {
      changed = false;
      for (int v = 0; v < g_.n(); ++v) {
        if (!alive_[v] || deg_[v] > 1) continue;
        ++taken;
        chosen.push_back(v);
        changed = true;
        if (deg_[v] == 1) {
          for (int w : g_.neighbors(v)) {
            if (alive_[w]) {
              remove(w, removed);
              break;
            }
          }
        }
        remove(v, removed);
      }
    }
    // Pick a branching vertex; leftovers (max degree <= 2) are exact.
    int pivot = -1;
    for (int v = 0; v < g_.n(); ++v) {
      if (alive_[v] && deg_[v] >= 3 && (pivot < 0 || deg_[v] > deg_[pivot])) {
        pivot = v;
      }
    }
    int best;
    if (pivot < 0) {
      best = taken + paths_and_cycles(chosen);
    } else if (budget_ >= 0 && nodes_ >= budget_) {
      // Budget spent: greedy completion. Repeatedly take a min-degree
      // vertex and delete its closed neighborhood until the leftovers are
      // paths/cycles (solved exactly). Valid, not necessarily optimal.
      exact_ = false;
      int extra = 0;
      for (;;) {
        int v = -1;
        for (int u = 0; u < g_.n(); ++u) {
          if (alive_[u] && deg_[u] >= 3 && (v < 0 || deg_[u] < deg_[v])) {
            v = u;
          }
        }
        if (v < 0) break;
        ++extra;
        chosen.push_back(v);
        for (int w : g_.neighbors(v)) {
          if (alive_[w]) remove(w, removed);
        }
        remove(v, removed);
      }
      best = taken + extra + paths_and_cycles(chosen);
    } else {
      // Exclude pivot.
      const std::size_t mark = removed.size();
      std::vector<int> without_set, with_set;
      remove(pivot, removed);
      const int without = branch(without_set);
      restore(removed, mark);
      // Include pivot: drop its closed neighborhood.
      remove(pivot, removed);
      for (int w : g_.neighbors(pivot)) {
        if (alive_[w]) remove(w, removed);
      }
      const int with = 1 + branch(with_set);
      if (with >= without) {
        chosen.push_back(pivot);
        chosen.insert(chosen.end(), with_set.begin(), with_set.end());
        best = taken + with;
      } else {
        chosen.insert(chosen.end(), without_set.begin(), without_set.end());
        best = taken + without;
      }
    }
    restore(removed, 0);
    return best;
  }

  // All remaining components have max degree <= 2: alpha(path_k) =
  // ceil(k/2), alpha(cycle_k) = floor(k/2). Walk each component in path
  // order and take every other vertex (odd cycles drop the last).
  int paths_and_cycles(std::vector<int>& chosen) {
    int total = 0;
    std::vector<char> seen(g_.n(), 0);
    for (int s = 0; s < g_.n(); ++s) {
      if (!alive_[s] || seen[s]) continue;
      // Find an endpoint if the component is a path; else it is a cycle.
      int start = s;
      bool is_cycle = true;
      {
        std::vector<int> stack = {s};
        std::vector<int> comp;
        seen[s] = 1;
        while (!stack.empty()) {
          const int v = stack.back();
          stack.pop_back();
          comp.push_back(v);
          if (deg_[v] < 2) {
            is_cycle = false;
            start = v;
          }
          for (int w : g_.neighbors(v)) {
            if (alive_[w] && !seen[w]) {
              seen[w] = 1;
              stack.push_back(w);
            }
          }
        }
      }
      // Ordered walk from `start` (an endpoint for paths, arbitrary for
      // cycles); take even positions, skipping an odd cycle's last slot.
      std::vector<int> order;
      int prev = -1, cur = start;
      for (;;) {
        order.push_back(cur);
        int nxt = -1;
        for (int w : g_.neighbors(cur)) {
          if (alive_[w] && w != prev && (w != start || order.size() <= 1)) {
            nxt = w;
            break;
          }
        }
        prev = cur;
        if (nxt < 0 || nxt == start) break;
        cur = nxt;
      }
      const int size = static_cast<int>(order.size());
      const int take = is_cycle ? size / 2 : (size + 1) / 2;
      for (int i = 0; i < take; ++i) chosen.push_back(order[2 * i]);
      total += take;
    }
    return total;
  }

  const Graph& g_;
  std::int64_t budget_;      // max branch nodes; -1 = unbounded
  std::int64_t nodes_ = 0;   // branch nodes explored
  bool exact_ = true;        // false once a greedy completion ran
  std::vector<char> alive_;
  std::vector<int> deg_;
};

}  // namespace detail

/// A maximum independent set of g (the actual set, sorted). Exponential
/// worst case; intended for the exact small-instance baselines and
/// decomposition clusters.
inline MisResult max_independent_set(const Graph& g) {
  return {detail::MisSolver(g).solve()};
}

/// Budget-bounded variant: explores at most `node_budget` branch nodes,
/// finishing over-budget subproblems with a greedy min-degree completion
/// (always a valid independent set). Fills `report` with nodes explored and
/// whether the search stayed exact. node_budget < 0 means unbounded.
inline MisResult max_independent_set(const Graph& g, std::int64_t node_budget,
                                     MisSearchReport* report) {
  detail::MisSolver solver(g, node_budget);
  MisResult out{solver.solve()};
  if (report) {
    report->nodes = solver.nodes();
    report->exact = solver.exact();
  }
  return out;
}

/// A minimum vertex cover of g: the complement of a maximum independent set
/// (König-free exactness — valid on every graph since V \ I covers all
/// edges and |V| - alpha(G) is optimal).
inline MisResult min_vertex_cover(const Graph& g) {
  const MisResult mis = max_independent_set(g);
  std::vector<char> in_set(g.n(), 0);
  for (int v : mis.set) in_set[v] = 1;
  MisResult out;
  for (int v = 0; v < g.n(); ++v) {
    if (!in_set[v]) out.set.push_back(v);
  }
  return out;
}

/// Budget-bounded vertex cover: complement of the budgeted MIS. The
/// complement of ANY independent set covers every edge, so the result is a
/// valid cover even when the search blew its budget (report->exact false —
/// the cover is then merely not guaranteed minimum).
inline MisResult min_vertex_cover(const Graph& g, std::int64_t node_budget,
                                  MisSearchReport* report) {
  const MisResult mis = max_independent_set(g, node_budget, report);
  std::vector<char> in_set(g.n(), 0);
  for (int v : mis.set) in_set[v] = 1;
  MisResult out;
  for (int v = 0; v < g.n(); ++v) {
    if (!in_set[v]) out.set.push_back(v);
  }
  return out;
}

}  // namespace mfd::apps
