// Lemmas 2.5 / 2.6 — information gathering by derandomized lazy random walks.
//
// Same task as load_balance.hpp (one token per intra-part edge endpoint must
// reach the sink v*, target fraction 1 - f), but each token performs a lazy
// random walk inside its expander part and is absorbed on hitting v*. All
// walks draw their moves from one published pseudorandom seed via a counter
// hash, so the whole routing is determined by O(1) words of shared
// randomness: that is the Lemma 2.5 derandomization, simulated here as an
// explicit seed search — try seeds from a fixed deterministic sequence until
// one delivers the target fraction (doubling the walk length on alternate
// failures), then publish it. RwSchedule records the accepted seed, how many
// seeds were tried, and the schedule size in bits (shared seed + one walk
// descriptor each). Lemma 2.6 is gather_random_walks_shared: one seed must
// work for every disjoint subgraph simultaneously.
//
// Round accounting (units: simulated CONGEST rounds) is *measured*, not a
// formula: every walk round costs the worst per-edge congestion of that round
// (edges carry one token per direction per round, extra tokens queue), so
// rounds = sum over rounds of max(1, max directed-edge load). The split
// between ideal walk rounds and queueing surplus is recorded through the
// congest::Runtime substrate, along with the measured message count (edge
// traversals) and peak per-edge congestion.
//
// The simulation is one token-serial loop: every round advances the walks in
// walk-id order. Bucketing walks by vertex, or sharding vertices over a
// thread pool, gave bit-identical outcomes but ran slower on every measured
// input (docs/ARCHITECTURE.md), so neither is kept.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "congest/runtime.hpp"
#include "decomp/clustering.hpp"
#include "expander/split.hpp"

namespace mfd::expander {

struct RwParams {
  double laziness = 0.5;   // stay-put probability per round
  std::int64_t step_budget = 20'000'000;   // walk-steps per simulated seed
  std::int64_t search_budget = 80'000'000; // walk-steps across the seed search
  std::int64_t max_walks_total = 500'000;  // cap on the simulated population
  int max_seed_tries = 64;
  double phi_floor = 0.02;  // clamp for the certificate in the length formula
  std::uint64_t base_seed = 0x243F6A8885A308D3ULL;  // published search origin
};

struct RwSchedule {
  std::uint64_t seed = 0;       // the accepted shared seed
  std::int64_t seed_tries = 0;  // seeds examined by the derandomized search
  int walks = 0;
  int domain_bits = 0;  // ceil(log2 n) of the routing domain

  /// Published-schedule size: the shared seed plus one start-vertex
  /// descriptor per walk — the O(k log n) bits of Lemma 2.5.
  std::int64_t schedule_bits() const {
    return 64 + static_cast<std::int64_t>(walks) * domain_bits;
  }
};

struct RwResult {
  double delivered_fraction = 0.0;
  std::int64_t rounds = 0;  // measured: walk rounds + congestion surplus
  RwSchedule schedule;
  // Per-walk final position as a *graph vertex id* (v_star when delivered).
  std::vector<int> route;
  int walk_length = 0;     // rounds of walking simulated for the chosen seed
  congest::Runtime ledger;
};

namespace detail {

inline std::uint64_t rw_mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1) +
                    0xbf58476d1ce4e5b9ULL * (c + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The part-local walking arena: intra-part adjacency with directed slot ids
/// for per-round congestion counting, and the walk population (one walk per
/// intra-part edge endpoint, proportionally subsampled above the cap).
struct Arena {
  std::vector<int> start;                   // start vertex (local id) per walk
  std::vector<std::vector<int>> nbr;        // intra-part neighbors, local ids
  std::vector<std::vector<int>> slot;       // directed slot id per neighbor
  std::vector<int> parent;                  // local id -> graph vertex id
  int star = -1;
  int slots = 0;
  std::int64_t population = 0;  // token population the walks stand in for
  std::int64_t predelivered = 0;  // the sink's own tokens

  Arena(const ExpanderSplit& sp, int v_star) {
    const int pid = sp.part_of(v_star);
    const std::vector<int>& verts = sp.members[pid];
    parent = verts;
    std::vector<int> local(sp.g.n(), -1);
    for (std::size_t i = 0; i < verts.size(); ++i) {
      local[verts[i]] = static_cast<int>(i);
    }
    star = local[v_star];
    const int k = static_cast<int>(verts.size());
    nbr.resize(k);
    slot.resize(k);
    for (int i = 0; i < k; ++i) {
      for (int w : sp.g.neighbors(verts[i])) {
        if (sp.parts.cluster[w] == pid) {
          nbr[i].push_back(local[w]);
          slot[i].push_back(slots++);
        }
      }
    }
    for (int i = 0; i < k; ++i) population += sp.ideg[verts[i]];
    predelivered = sp.ideg[v_star];
  }

  void spawn_walks(std::int64_t cap) {
    start.clear();
    const std::int64_t active = population - predelivered;
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      if (static_cast<int>(i) == star) continue;
      std::int64_t w = static_cast<std::int64_t>(nbr[i].size());
      if (active > cap && cap > 0) w = std::max<std::int64_t>(1, w * cap / active);
      for (std::int64_t j = 0; j < w; ++j) {
        start.push_back(static_cast<int>(i));
      }
    }
  }
};

struct SimOutcome {
  double delivered_fraction = 0.0;
  std::int64_t rounds = 0;
  std::int64_t walk_rounds = 0;
  std::int64_t steps = 0;
  std::int64_t moves = 0;      // edge traversals (messages actually sent)
  std::int64_t peak_load = 0;  // worst per-edge per-round congestion seen
  std::vector<int> route;
};

/// Run every walk for up to `T` rounds under seed `seed`, one walk at a time,
/// metering per-round directed-edge congestion through congest::MessageMeter
/// (every token move is one O(log n)-bit message over its edge slot). Stops
/// early once the target fraction is in; when the population was subsampled,
/// the walk-count target and the delivered fraction are rescaled to tokens.
inline SimOutcome simulate(const Arena& a, std::uint64_t seed, int T,
                           double laziness, double target_fraction) {
  SimOutcome out;
  std::vector<int> pos(a.start);
  std::vector<char> active(a.start.size(), 1);
  out.route.assign(a.start.size(), -1);
  std::int64_t delivered_walks = 0;
  const std::int64_t active_tokens = a.population - a.predelivered;
  const double scale =
      active_tokens != 0 ? static_cast<double>(a.start.size()) /
                               static_cast<double>(active_tokens)
                         : 1.0;
  const double walk_target =
      (target_fraction * static_cast<double>(a.population) -
       static_cast<double>(a.predelivered)) *
      scale;
  const auto lazy_cut =
      static_cast<std::uint32_t>(laziness * 4294967296.0);
  congest::MessageMeter meter(a.slots);
  for (int t = 1; t <= T; ++t) {
    if (static_cast<double>(delivered_walks) >= walk_target) break;
    bool any_active = false;
    for (std::size_t w = 0; w < pos.size(); ++w) {
      if (!active[w]) continue;
      any_active = true;
      ++out.steps;
      const std::uint64_t z = rw_mix(seed, w, static_cast<std::uint64_t>(t));
      if (static_cast<std::uint32_t>(z >> 32) < lazy_cut) continue;
      const int u = pos[w];
      const int deg = static_cast<int>(a.nbr[u].size());
      if (deg == 0) continue;
      const int j = static_cast<int>((z & 0xffffffffULL) % deg);
      meter.send(a.slot[u][j]);
      pos[w] = a.nbr[u][j];
      if (pos[w] == a.star) {
        active[w] = 0;
        out.route[w] = a.star;
        ++delivered_walks;
      }
    }
    if (!any_active) break;
    ++out.walk_rounds;
    out.rounds += std::max<std::int64_t>(1, meter.round_peak());
    meter.end_round();
  }
  for (std::size_t w = 0; w < pos.size(); ++w) {
    if (out.route[w] < 0) out.route[w] = pos[w];
  }
  out.moves = meter.total_messages();
  out.peak_load = meter.peak_congestion();
  const double delivered_tokens =
      static_cast<double>(a.predelivered) +
      (scale == 0.0 ? 0.0 : static_cast<double>(delivered_walks) / scale);
  out.delivered_fraction =
      a.population == 0
          ? 1.0
          : std::min(1.0, delivered_tokens / static_cast<double>(a.population));
  return out;
}

inline int walk_length(const Arena& a, double phi, double f,
                       const RwParams& p) {
  const double vol = static_cast<double>(std::max<std::int64_t>(a.population, 2));
  const double deg_star =
      a.star >= 0 ? std::max<double>(1.0, static_cast<double>(a.nbr[a.star].size()))
                  : 1.0;
  const double hitting = vol / deg_star + std::log(vol) / (phi * phi);
  double T = std::ceil(2.0 * hitting * (1.0 + std::log(1.0 / f)));
  const std::int64_t walks = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(a.start.size()));
  T = std::min(T, static_cast<double>(std::max<std::int64_t>(
                      1, p.step_budget / walks)));
  return static_cast<int>(std::max(1.0, T));
}

}  // namespace detail

inline RwResult gather_random_walks(const ExpanderSplit& sp, int v_star,
                                    double f, RwParams p = {}) {
  RwResult out;
  f = std::min(std::max(f, 1e-9), 1.0);
  const int pid = sp.part_of(v_star);
  const double phi = std::min(1.0, std::max(sp.phi_cert[pid], p.phi_floor));
  detail::Arena arena(sp, v_star);
  arena.spawn_walks(p.max_walks_total);
  out.schedule.walks = static_cast<int>(arena.start.size());
  out.schedule.domain_bits = congest::ceil_log2(sp.g.n());
  if (arena.population == 0 || arena.start.empty()) {
    out.delivered_fraction = 1.0;
    return out;
  }

  int T = detail::walk_length(arena, phi, f, p);
  std::int64_t steps_spent = 0;
  detail::SimOutcome best;
  std::uint64_t best_seed = 0;
  int best_T = T;
  for (int attempt = 1; attempt <= p.max_seed_tries; ++attempt) {
    const std::uint64_t seed = detail::rw_mix(p.base_seed, attempt, 0);
    const detail::SimOutcome sim =
        detail::simulate(arena, seed, T, p.laziness, 1.0 - f);
    steps_spent += sim.steps;
    out.schedule.seed_tries = attempt;
    if (sim.delivered_fraction > best.delivered_fraction ||
        attempt == 1) {
      best = sim;
      best_seed = seed;
      best_T = T;
    }
    if (best.delivered_fraction >= 1.0 - f) break;
    if (steps_spent >= p.search_budget) break;
    if (attempt % 2 == 0) {
      const std::int64_t cap = std::max<std::int64_t>(
          1, p.step_budget / static_cast<std::int64_t>(arena.start.size()));
      T = static_cast<int>(std::min<std::int64_t>(2LL * T, cap));
    }
  }

  out.delivered_fraction = best.delivered_fraction;
  out.rounds = best.rounds;
  out.schedule.seed = best_seed;
  out.route = std::move(best.route);
  for (int& r : out.route) r = arena.parent[r];  // local ids -> vertex ids
  out.walk_length = best_T;
  out.ledger.charge("walk rounds", best.walk_rounds, best.moves, best.peak_load);
  out.ledger.charge("congestion surplus", best.rounds - best.walk_rounds);
  return out;
}

/// Lemma 2.6: one published seed must serve several disjoint routing domains
/// at once. Tries common seeds until every subgraph reaches its 1 - f target
/// (or budgets run out) and returns the per-subgraph results, all carrying
/// the same accepted seed.
inline std::vector<RwResult> gather_random_walks_shared(
    const std::vector<const ExpanderSplit*>& sps, const std::vector<int>& stars,
    double f, RwParams p = {}) {
  f = std::min(std::max(f, 1e-9), 1.0);
  std::vector<detail::Arena> arenas;
  std::vector<double> phis;
  std::vector<int> lengths;
  arenas.reserve(sps.size());
  for (std::size_t i = 0; i < sps.size(); ++i) {
    arenas.emplace_back(*sps[i], stars[i]);
    arenas.back().spawn_walks(p.max_walks_total);
    const int pid = sps[i]->part_of(stars[i]);
    phis.push_back(
        std::min(1.0, std::max(sps[i]->phi_cert[pid], p.phi_floor)));
    lengths.push_back(detail::walk_length(arenas.back(), phis.back(), f, p));
  }

  std::vector<RwResult> results(sps.size());
  std::vector<detail::SimOutcome> best(sps.size());
  std::uint64_t best_seed = 0;
  std::int64_t tries = 0, steps_spent = 0;
  double best_min_fraction = -1.0;
  for (int attempt = 1; attempt <= p.max_seed_tries; ++attempt) {
    const std::uint64_t seed = detail::rw_mix(p.base_seed, attempt, 1);
    std::vector<detail::SimOutcome> sims(sps.size());
    double min_fraction = 1.0;
    for (std::size_t i = 0; i < sps.size(); ++i) {
      sims[i] =
          detail::simulate(arenas[i], seed, lengths[i], p.laziness, 1.0 - f);
      steps_spent += sims[i].steps;
      min_fraction = std::min(min_fraction, sims[i].delivered_fraction);
    }
    tries = attempt;
    if (min_fraction > best_min_fraction) {
      best_min_fraction = min_fraction;
      best = std::move(sims);
      best_seed = seed;
    }
    if (best_min_fraction >= 1.0 - f || steps_spent >= p.search_budget) break;
  }

  for (std::size_t i = 0; i < sps.size(); ++i) {
    RwResult& r = results[i];
    r.delivered_fraction = best[i].delivered_fraction;
    r.rounds = best[i].rounds;
    r.route = std::move(best[i].route);
    for (int& v : r.route) v = arenas[i].parent[v];  // local -> vertex ids
    r.walk_length = lengths[i];
    r.schedule.seed = best_seed;
    r.schedule.seed_tries = tries;
    r.schedule.walks = static_cast<int>(arenas[i].start.size());
    r.schedule.domain_bits = congest::ceil_log2(sps[i]->g.n());
    r.ledger.charge("walk rounds", best[i].walk_rounds, best[i].moves,
                    best[i].peak_load);
    r.ledger.charge("congestion surplus", best[i].rounds - best[i].walk_rounds);
  }
  return results;
}

}  // namespace mfd::expander
