// Fleet-scale concurrent monitoring engine.
//
// The paper's evaluation is fleet-wide — 1613 metric-device pairs, 14
// metrics — but the adaptive pipeline (monitor/pipeline.h) drives one signal
// at a time. FleetMonitorEngine runs the whole fleet offline: it is the
// batch face of the one fleet driver, rt::StreamingRuntime
// (runtime/runtime.h). run() jumps a private VirtualClock to the end of the
// fleet's timeline, so every pair is due in a single scheduler beat; that
// beat deals the pairs into shards (engine/shard.h) claimed by a fixed pool
// of worker threads, and every pair is driven through adaptive sampling,
// reconstruction and an aliasing audit concurrently. Reconstructions flow
// into a shared StripedRetentionStore keyed by "device/metric"
// stream IDs, so retained data can be queried after the run; per-pair
// outcomes feed the fleet report (engine/report.h).
//
// Cost semantics: adaptive sampling only saves on pairs whose production
// rate exceeds their Nyquist rate. Pairs the dual-rate detector finds
// undersampled are driven *above* their production rate (Section 4.2), so a
// fleet dominated by wideband event counters can legitimately cost more
// than the fixed-rate baseline — the report splits both populations out.
//
// Ownership: the engine borrows the fleet (which must outlive it) and owns
// its clock and runtime, and through the runtime the store and optional
// durable tier; serve() returns a QueryEngine that borrows the engine.
//
// Threading: construction and run() belong to one caller thread; run()
// itself fans out over an internal worker pool and joins it before
// returning. After run(), store()/serve() are safe from any thread
// (mutable_store() hands out the striped store's own thread-safe ingest
// surface for post-run writers).
//
// Determinism: results are bit-identical for any worker count. Every
// pair's noise seed is forked from the engine seed sequentially up front,
// each pair's work is a pure function of (pair, seed, config) however the
// scheduler batches its windows, outcome slots are pre-allocated per pair,
// and aggregation iterates in pair order. eng::run_digest()
// (engine/report.h) is the compact test hook for this contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/arena.h"
#include "monitor/cost_model.h"
#include "monitor/striped_store.h"
#include "nyquist/adaptive_sampler.h"
#include "query/engine.h"
#include "runtime/clock.h"
#include "storage/manager.h"
#include "telemetry/fleet.h"

namespace nyqmon::rt {
class StreamingRuntime;
}

namespace nyqmon::eng {

struct EngineConfig {
  /// Worker threads (0 = hardware concurrency). Each scheduler beat deals
  /// its due pairs into 4 shards per worker, the usual steal granularity.
  std::size_t workers = 0;
  /// Pin worker w to CPU w (best-effort; ignored where unsupported). The
  /// throughput bench turns this on so per-worker arenas stay cache-local.
  bool pin_workers = false;
  /// Keep per-worker scratch arenas (DSP plans + buffers) warm across the
  /// pairs a worker processes. Off wipes the arena between pairs — results
  /// are bit-identical either way (the determinism stress test runs both);
  /// only allocation counts and speed differ.
  bool arena_retain = true;
  /// Windowing of each pair's trace, in samples at its production rate —
  /// uniform per-pair cost no matter how slow the metric's poll interval is.
  std::size_t samples_per_window = 64;
  std::size_t windows_per_pair = 8;
  /// Per-pair sampler rate bounds, relative to the pair's production rate.
  double max_speedup = 4.0;
  double max_slowdown = 16.0;
  /// Measurement noise as a fraction of each metric's fluctuation scale.
  double relative_noise = 0.01;
  std::uint64_t seed = 7;
  /// Template sampler config; rate bounds and window duration are
  /// overridden per pair from the fields above.
  nyq::AdaptiveConfig sampler;
  /// Retention behind the fan-in; small chunks so engine-scale traces still
  /// exercise the a-posteriori re-sampling path.
  mon::StoreConfig store = [] {
    mon::StoreConfig c;
    c.chunk_samples = 128;
    return c;
  }();
  std::size_t store_stripes = 16;
  mon::CostModel cost;
  /// Durable tier (storage/manager.h). When `storage.dir` is non-empty the
  /// run persists: stream creations and every ingest batch are
  /// write-ahead-logged under that directory (a mid-run crash loses at most
  /// the records after the last fsync), and run() checkpoints the store
  /// into compressed segments on completion. The directory's previous
  /// nyqmon layout, if any, is truncated — each engine run is a fresh
  /// storage generation. Reopen it afterwards with StorageManager +
  /// recover() (see examples/fleet_query.cpp).
  sto::StorageConfig storage;
};

/// Outcome of driving one metric-device pair.
struct PairOutcome {
  std::size_t pair_index = 0;
  std::string stream_id;
  tel::MetricKind kind = tel::MetricKind::kTemperature;
  double production_rate_hz = 0.0;
  double cost_savings = 0.0;  ///< baseline samples / adaptive samples
  double nrmse = 0.0;
  double max_abs_error = 0.0;
  std::size_t adaptive_samples = 0;  ///< includes detector overhead
  std::size_t baseline_samples = 0;
  /// This pair's retention byte bill after its reconstruction was ingested
  /// (see mon::StreamStats): raw f64 bytes vs codec-encoded footprint.
  std::uint64_t store_bytes_raw = 0;
  std::uint64_t store_bytes_stored = 0;
  nyq::RunAudit audit;
};

struct FleetRunResult {
  std::vector<PairOutcome> pairs;  ///< indexed by fleet pair order
  mon::Cost adaptive_cost;
  mon::Cost baseline_cost;
  mon::StoreRollup store;
  /// The fan-out that ran: the widest beat's worker and pinned-thread
  /// counts, and shards claimed summed over every scheduler beat (a batch
  /// run is one beat).
  std::size_t workers_used = 0;
  std::size_t shards_used = 0;
  std::size_t threads_pinned = 0;
  /// Per-worker scratch-arena accounting summed over all workers and beats
  /// (heap allocations, plan builds, warm pairs that still allocated;
  /// pairs_processed counts pair advances). Not part of the deterministic
  /// aggregates.
  WorkArenaStats arena;
  double wall_seconds = 0.0;  ///< not part of the deterministic aggregates
  /// Durable-tier outcome; meaningful only when `persisted` (storage.dir
  /// was set): the end-of-run checkpoint plus the manager's counters.
  bool persisted = false;
  sto::FlushStats flush;
  sto::StorageStats storage;

  /// Fleet-wide sample-count savings: sum(baseline) / sum(adaptive).
  double fleet_cost_savings() const;
};

class FleetMonitorEngine {
 public:
  /// The fleet must outlive the engine.
  explicit FleetMonitorEngine(const tel::Fleet& fleet,
                              EngineConfig config = {});
  ~FleetMonitorEngine();

  /// Drive every pair in the fleet once, as a single scheduler beat.
  /// Callable once per engine (the retention streams it creates are
  /// per-run). A pair's error is rethrown here on the calling thread.
  FleetRunResult run();

  /// Retained data, queryable by tel::stream_id(pair) after run().
  const mon::StripedRetentionStore& store() const;

  /// Mutable store access for a post-run serving session that keeps
  /// ingesting (e.g. a live writer feeding streams while clients query).
  /// Not for use during run() — the engine's own workers own the fan-in.
  mon::StripedRetentionStore& mutable_store();

  /// A serving session over the retained data: a selector-based
  /// QueryEngine (see query/engine.h) bound to this engine's store.
  /// Requires run() to have completed; the engine must outlive the
  /// returned QueryEngine.
  qry::QueryEngine serve(qry::QueryEngineConfig config = {}) const;

  /// The durable tier, or nullptr when the engine runs in-memory only.
  const sto::StorageManager* storage() const;

 private:
  rt::VirtualClock clock_;
  std::unique_ptr<rt::StreamingRuntime> runtime_;
  bool ran_ = false;
};

}  // namespace nyqmon::eng
