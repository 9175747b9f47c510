// Shard partitioning and the worker execution model for the fleet driver.
//
// Every scheduler beat of rt::StreamingRuntime (runtime/runtime.h) — a
// batch run's single beat or each of a live run's — splits its due pairs
// into shards, the unit of work a worker thread claims. Pairs are dealt
// round-robin so every shard mixes fast- and slow-polling metrics; workers
// then pull whole shards from a shared queue, which batches the handoff:
// one atomic claim per shard, not per pair.
//
// run_sharded() is the worker loop itself: each worker thread optionally
// pins to a CPU, constructs a per-worker WorkArena (binding the thread's
// dsp::Workspace — FFT plans, window caches, scratch stack), claims shards
// until the queue drains, and brackets every pair with the arena so
// allocation accounting is per-pair. Arena statistics from all workers sum
// into the returned ShardRunStats.
//
// Ownership/threading: partition_shards() is a pure function returning a
// value; shards hold indices only, never pointers into the fleet.
// Determinism: the partition depends only on (n_pairs, n_shards) — never
// on which worker later claims which shard — which is one leg of the
// engine's bit-identical-across-workers contract. The arena does not
// weaken it: plans are deterministic per shape and scratch never carries
// values between windows (Debug builds poison-fill on frame pop).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "engine/arena.h"

namespace nyqmon::eng {

/// One shard: the pair indices (into Fleet::pairs()) it owns.
struct Shard {
  std::size_t id = 0;
  std::vector<std::size_t> pair_indices;
};

/// Deal `n_pairs` indices round-robin into `n_shards` shards. Every index in
/// [0, n_pairs) appears in exactly one shard; shard sizes differ by at most
/// one. `n_shards` is clamped to [1, max(n_pairs, 1)].
std::vector<Shard> partition_shards(std::size_t n_pairs, std::size_t n_shards);

struct ShardRunOptions {
  /// Worker threads (0 = hardware concurrency; clamped to shard count).
  std::size_t workers = 0;
  /// Pin worker w to CPU w (best-effort; see pin_this_thread).
  bool pin_threads = false;
  /// Per-worker arena behavior (retain vs wipe between pairs).
  WorkArenaConfig arena;
};

struct ShardRunStats {
  std::size_t workers_used = 0;
  std::size_t threads_pinned = 0;
  /// Sum of every worker's arena deltas for this run.
  WorkArenaStats arena;
};

/// Run `pair_fn(pair_index)` for every pair of every shard on a pool of
/// worker threads claiming whole shards from a shared atomic queue, each
/// worker owning a WorkArena for its lifetime. workers == 1 runs inline on
/// the calling thread. If pair_fn throws, remaining shards are abandoned
/// and one of the exceptions is rethrown after all workers join.
ShardRunStats run_sharded(const std::vector<Shard>& shards,
                          const ShardRunOptions& options,
                          const std::function<void(std::size_t)>& pair_fn);

}  // namespace nyqmon::eng
