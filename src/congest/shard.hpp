// The sharded per-round engine: vertex work inside a simulated CONGEST round
// is embarrassingly parallel (rounds are synchronous barriers), so the hot
// simulation paths — heavy-stars pointing, the LDD merge/BFS sweeps — partition
// their vertices across a thread pool and meet at a barrier per round.
//
// Two pieces, shared by every sharded engine in the tree:
//
//   * ShardPlan — the contiguous even partition of [0, n). Contiguity is
//     load-bearing: CSR adjacency and MessageMeter slot ids are both laid
//     out in vertex order, so a contiguous vertex slice owns a contiguous
//     slot slice, and per-task outputs concatenated in task order reproduce
//     the serial iteration order exactly.
//   * ShardPool — a persistent pool of worker threads. run(tasks, fn) calls
//     fn(task, worker) for every task index, claims tasks dynamically (so
//     skewed cluster sizes still balance), and barriers before returning.
//     With one thread the loop runs inline on the caller — the serial
//     reference path and the sharded path share one code body.
//
// Determinism contract: every sharded engine must produce results equal to
// its serial reference for EVERY shard count. The engines only parallelize
// loops whose per-vertex effects are independent (pointing, relabeling), or
// whose reductions are integer sums/maxes (associative and commutative, so
// task grouping cannot change them).
// tests/test_shard.cpp sweeps shard counts {1, 2, 7, hardware} and asserts
// bit-identical outputs against the serial engines.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "congest/runtime.hpp"

namespace mfd::congest {

/// Contiguous even partition of [0, n) into `shards` slices. Slice s is
/// [begin(s), end(s)); sizes differ by at most one.
struct ShardPlan {
  int n = 0;
  int shards = 1;

  ShardPlan() = default;
  ShardPlan(int n_, int shards_)
      : n(std::max(n_, 0)), shards(std::max(shards_, 1)) {}

  int begin(int s) const {
    return static_cast<int>(static_cast<std::int64_t>(n) * s / shards);
  }
  int end(int s) const { return begin(s + 1); }
};

/// Persistent worker pool. Construct once per engine run (thread startup is
/// not free); run() executes fn(task, worker) for task in [0, tasks) with
/// dynamic task claiming, worker in [0, threads()), and returns only after
/// every task finished (the per-round barrier). threads() == 1 executes
/// inline with no synchronization at all — the serial reference path.
class ShardPool {
 public:
  /// threads <= 0 asks for std::thread::hardware_concurrency().
  explicit ShardPool(int threads = 0) {
    if (threads <= 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    threads_ = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int w = 1; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  ~ShardPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  int threads() const { return threads_; }

  /// Execute fn(task, worker) for every task in [0, tasks); blocks until all
  /// tasks are done. The calling thread participates as worker 0. A
  /// reentrant call (fn itself calling run on the same pool) executes its
  /// tasks inline on the calling thread: a nested fan-out could never claim
  /// the pool's workers — they are busy running the outer tasks — so
  /// serializing it is both deadlock-free and the fastest correct option.
  /// This is what lets certify_parts fan clusters over the pool while each
  /// cluster's game is free to pass the same pool to its replay stage.
  void run(int tasks, const std::function<void(int task, int worker)>& fn) {
    if (tasks <= 0) return;
    if (threads_ == 1 || in_run_.load(std::memory_order_relaxed)) {
      for (int t = 0; t < tasks; ++t) fn(t, 0);
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      in_run_.store(true, std::memory_order_relaxed);
      fn_ = &fn;
      tasks_ = tasks;
      next_task_.store(0, std::memory_order_relaxed);
      idle_ = 0;
      ++generation_;
    }
    cv_work_.notify_all();
    drain(0);
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [this] { return idle_ == threads_ - 1; });
    fn_ = nullptr;
    in_run_.store(false, std::memory_order_relaxed);
  }

 private:
  void drain(int worker) {
    for (;;) {
      const int t = next_task_.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks_) break;
      (*fn_)(t, worker);
    }
  }

  void worker_loop(int worker) {
    std::int64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      drain(worker);
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++idle_;
      }
      cv_done_.notify_one();
    }
  }

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_, cv_done_;
  const std::function<void(int, int)>* fn_ = nullptr;
  int tasks_ = 0;
  std::atomic<bool> in_run_{false};
  std::atomic<int> next_task_{0};
  int idle_ = 0;
  std::int64_t generation_ = 0;
  bool stop_ = false;
};

/// Convenience: run fn(lo, hi, task) over an even contiguous partition of
/// [0, n) — the shape of every per-vertex sharded loop. Per-task outputs
/// indexed by `task` and folded in task order reproduce serial order.
inline void parallel_ranges(ShardPool& pool, int n, int tasks,
                            const std::function<void(int, int, int)>& fn) {
  tasks = std::max(1, tasks);
  const ShardPlan plan(n, tasks);
  pool.run(tasks, [&](int t, int /*worker*/) {
    const int lo = plan.begin(t);
    const int hi = plan.end(t);
    if (lo < hi) fn(lo, hi, t);
  });
}

/// Read-only fan-out over [0, n) in fixed-size chunks — the query-serving
/// shape: chunks are claimed dynamically (so skewed per-item costs still
/// balance across workers) and fn(lo, hi, worker) must write only state
/// derived from its own [lo, hi) slice. With disjoint output slices the hot
/// path needs no locks or atomics beyond the pool's task counter, and the
/// result is independent of the thread count by construction (every item is
/// processed exactly once, in isolation).
inline void parallel_chunks(ShardPool& pool, std::int64_t n, std::int64_t grain,
                            const std::function<void(std::int64_t, std::int64_t,
                                                     int)>& fn) {
  if (n <= 0) return;
  grain = std::max<std::int64_t>(grain, 1);
  const std::int64_t chunks = (n + grain - 1) / grain;
  if (pool.threads() == 1 || chunks == 1) {
    fn(0, n, 0);
    return;
  }
  pool.run(static_cast<int>(chunks), [&](int c, int worker) {
    const std::int64_t lo = static_cast<std::int64_t>(c) * grain;
    const std::int64_t hi = std::min(lo + grain, n);
    fn(lo, hi, worker);
  });
}

/// parallel_ranges over an optional pool: without one (or with a one-thread
/// pool) fn(0, n, 0) runs inline — the serial reference path. Tasks are
/// numbered in [0, threads), so per-task partials sized by the thread count
/// fold in task order.
inline void for_ranges(ShardPool* pool, int n,
                       const std::function<void(int, int, int)>& fn) {
  if (pool == nullptr || pool->threads() == 1) {
    if (n > 0) fn(0, n, 0);
  } else {
    parallel_ranges(*pool, n, pool->threads(), fn);
  }
}

/// Fan-out over n clusters (items of uneven cost) on an optional pool:
/// fn(lo, hi, worker) runs inline over [0, n) without one; otherwise
/// workers claim chunks of at most 512 clusters, small enough that every
/// worker sees about 16 claims, so a handful of huge clusters still spreads
/// across the pool. Claiming one cluster per task instead puts the pool's
/// task counter on the hot path.
inline void for_clusters(ShardPool* pool, int n,
                         const std::function<void(std::int64_t, std::int64_t,
                                                  int)>& fn) {
  if (pool == nullptr) {
    if (n > 0) fn(0, n, 0);
    return;
  }
  const std::int64_t per =
      n / (16 * static_cast<std::int64_t>(pool->threads()));
  parallel_chunks(*pool, n, std::clamp<std::int64_t>(per, 1, 512), fn);
}

}  // namespace mfd::congest
