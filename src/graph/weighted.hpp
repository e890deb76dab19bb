// Weighted CSR graph for cluster graphs (heavy-stars contraction, §4).
//
// Same construction contract as Graph::from_edges — self-loops and
// out-of-range endpoints are dropped — except duplicate edges MERGE BY
// SUMMING their weights: a cluster graph's edge weight is the number (or
// total weight) of original edges between two clusters, so careless emission
// of one entry per original edge is the intended usage. The contraction loop
// in decomp/ldd_local.hpp skips the edge list and hands over a finished CSR
// (offsets plus neighbor-sorted arcs) instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace mfd {

struct WeightedEdge {
  int u = 0;
  int v = 0;
  std::int64_t w = 1;
};

class WeightedGraph {
 public:
  WeightedGraph() = default;

  WeightedGraph(int n, std::vector<WeightedEdge> edges) {
    n_ = std::max(n, 0);
    for (auto& e : edges) {
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    });
    // Merge duplicates by summing, drop self-loops / out-of-range (in place:
    // the write cursor never passes the read cursor).
    std::size_t kept = 0;
    for (const auto& e : edges) {
      if (e.u == e.v || e.u < 0 || e.v >= n_) continue;
      if (kept > 0 && edges[kept - 1].u == e.u && edges[kept - 1].v == e.v) {
        edges[kept - 1].w += e.w;
      } else {
        edges[kept++] = e;
      }
    }
    edges.resize(kept);
    offset_.assign(n_ + 1, 0);
    for (const auto& e : edges) {
      ++offset_[e.u + 1];
      ++offset_[e.v + 1];
    }
    for (int i = 0; i < n_; ++i) offset_[i + 1] += offset_[i];
    arcs_.resize(2 * edges.size());
    std::vector<std::int64_t> cursor(offset_.begin(), offset_.end() - 1);
    for (const auto& e : edges) {
      arcs_[cursor[e.u]++] = {e.v, e.w};
      arcs_[cursor[e.v]++] = {e.u, e.w};
      total_weight_ += e.w;
    }
  }

  struct Arc {
    int to;
    std::int64_t w;
  };

  /// Adopt a ready CSR: offset has n + 1 entries, and arcs[offset[v],
  /// offset[v + 1]) lists v's neighbors in ascending order, each undirected
  /// edge once from either side with the same weight and no self-loops.
  /// That is exactly the layout the edge-list constructor produces.
  WeightedGraph(std::vector<std::int64_t> offset, std::vector<Arc> arcs)
      : n_(static_cast<int>(offset.size()) - 1),
        offset_(std::move(offset)),
        arcs_(std::move(arcs)) {
    for (const Arc& a : arcs_) total_weight_ += a.w;
    total_weight_ /= 2;
  }

  int n() const { return n_; }
  std::int64_t m() const { return static_cast<std::int64_t>(arcs_.size() / 2); }
  std::int64_t total_weight() const { return total_weight_; }

  struct ArcRange {
    const Arc* first;
    const Arc* last;
    const Arc* begin() const { return first; }
    const Arc* end() const { return last; }
    int size() const { return static_cast<int>(last - first); }
  };

  ArcRange arcs(int v) const {
    return {arcs_.data() + offset_[v], arcs_.data() + offset_[v + 1]};
  }

  int degree(int v) const {
    return static_cast<int>(offset_[v + 1] - offset_[v]);
  }

 private:
  int n_ = 0;
  std::int64_t total_weight_ = 0;
  std::vector<std::int64_t> offset_;
  std::vector<Arc> arcs_;
};

}  // namespace mfd
