// StreamingRuntime: clock behavior, the deadline scheduler, live serving
// during ingest, incremental durable checkpoints, and the headline
// contract — a virtual-clock streaming run reproduces the batch engine's
// results bit-exactly over the same fleet/seed/config.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "monitor/striped_store.h"
#include "query/spec.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "storage/manager.h"
#include "telemetry/fleet.h"

namespace {

using namespace nyqmon;
namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / ("nyqmon_runtime_test_" + name))
                 .string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

// Bit-exact double comparison (NaN-safe).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_values(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), 8 * a.size()) == 0);
}

// ---------------------------------------------------------------- clocks --

TEST(Clock, VirtualClockAdvancesMonotonically) {
  rt::VirtualClock clock;
  EXPECT_EQ(clock.now_s(), 0.0);
  clock.sleep_until_s(42.0);
  EXPECT_EQ(clock.now_s(), 42.0);
  clock.sleep_until_s(10.0);  // never backward
  EXPECT_EQ(clock.now_s(), 42.0);
  clock.advance_to(43.5);
  EXPECT_EQ(clock.now_s(), 43.5);
}

TEST(Clock, SteadyClockTracksRealTimeAndWakes) {
  rt::SteadyClock clock;
  const double t0 = clock.now_s();
  EXPECT_GE(t0, 0.0);
  // A sleeper should be interruptible well before its deadline.
  std::thread waker([&clock] { clock.wake(); });
  clock.sleep_until_s(t0 + 30.0);
  waker.join();
  EXPECT_LT(clock.now_s(), t0 + 10.0);
}

// ------------------------------------------------------------- scheduler --

tel::Fleet small_fleet(std::size_t pairs, std::uint64_t seed) {
  tel::FleetConfig cfg;
  cfg.target_pairs = pairs;
  cfg.seed = seed;
  return tel::Fleet(cfg);
}

eng::EngineConfig small_engine_config() {
  eng::EngineConfig cfg;
  cfg.workers = 2;
  cfg.samples_per_window = 48;
  cfg.windows_per_pair = 4;
  return cfg;
}

TEST(Runtime, PollBeforeAnyDeadlineDoesNothing) {
  const tel::Fleet fleet = small_fleet(8, 5);
  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine = small_engine_config();
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  EXPECT_FALSE(runtime.done());
  EXPECT_TRUE(std::isfinite(runtime.next_deadline_s()));
  EXPECT_GT(runtime.next_deadline_s(), 0.0);
  // The clock sits at t=0: no window has sealed yet.
  EXPECT_EQ(runtime.poll(), 0u);
  EXPECT_EQ(runtime.stats().windows_processed, 0u);
}

TEST(Runtime, StepDrivesWindowsInDeadlineOrder) {
  const tel::Fleet fleet = small_fleet(8, 5);
  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine = small_engine_config();
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  const std::size_t first = runtime.step();
  EXPECT_GT(first, 0u);
  EXPECT_GT(runtime.stats().values_ingested, 0u);

  std::size_t guard = 0;
  while (!runtime.done() && ++guard < 10'000) runtime.step();
  EXPECT_TRUE(runtime.done());
  EXPECT_EQ(runtime.stats().pairs_done, fleet.size());
  // Every pair ran windows_per_pair windows.
  EXPECT_EQ(runtime.stats().windows_processed,
            fleet.size() * cfg.engine.windows_per_pair);

  // The result reports the fan-out the beats actually ran: every pair was
  // advanced at least once inside a worker arena, through claimed shards.
  const eng::FleetRunResult result = runtime.run_to_completion();
  EXPECT_GE(result.arena.pairs_processed, fleet.size());
  EXPECT_GT(result.shards_used, 0u);
  EXPECT_GE(result.workers_used, 1u);
  EXPECT_LE(result.workers_used, cfg.engine.workers);
}

TEST(Runtime, PairExceptionsPropagateToCaller) {
  // A pair's error (here: a sampler config every pair's pipeline rejects)
  // is raised on a worker thread; it must surface from run_to_completion()
  // on the calling thread, not std::terminate the process.
  const tel::Fleet fleet = small_fleet(16, 5);
  for (const std::size_t workers : {1u, 4u}) {
    rt::VirtualClock clock;
    rt::RuntimeConfig cfg;
    cfg.engine = small_engine_config();
    cfg.engine.workers = workers;
    cfg.engine.sampler.probe_factor = 1.0;
    rt::StreamingRuntime runtime(fleet, clock, cfg);
    EXPECT_THROW(runtime.run_to_completion(), std::invalid_argument)
        << workers;
  }
}

// ------------------------------------------- streaming == batch, 500 pairs --

TEST(Runtime, StreamingMatchesBatchBitExactly500Pairs) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 500;
  fleet_cfg.seed = 99;
  const tel::Fleet fleet(fleet_cfg);
  ASSERT_GE(fleet.size(), 500u);

  // Batch (one beat) against streaming (a beat per deadline), each at 1
  // and at 4 workers.
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    eng::EngineConfig shared = small_engine_config();
    shared.workers = workers;

    eng::FleetMonitorEngine batch(fleet, shared);
    const eng::FleetRunResult batch_result = batch.run();

    rt::VirtualClock clock;
    rt::RuntimeConfig cfg;
    cfg.engine = shared;
    rt::StreamingRuntime streaming(fleet, clock, cfg);
    const eng::FleetRunResult live_result = streaming.run_to_completion();

    // Batch is one beat: every pair advanced exactly once.
    EXPECT_EQ(batch_result.arena.pairs_processed, fleet.size());
    EXPECT_GE(live_result.arena.pairs_processed, fleet.size());

    // Per-pair outcomes, bit for bit.
    ASSERT_EQ(live_result.pairs.size(), batch_result.pairs.size());
    for (std::size_t i = 0; i < batch_result.pairs.size(); ++i) {
      const auto& a = batch_result.pairs[i];
      const auto& b = live_result.pairs[i];
      ASSERT_EQ(a.stream_id, b.stream_id);
      EXPECT_TRUE(same_bits(a.production_rate_hz, b.production_rate_hz));
      EXPECT_TRUE(same_bits(a.cost_savings, b.cost_savings)) << a.stream_id;
      EXPECT_TRUE(same_bits(a.nrmse, b.nrmse)) << a.stream_id;
      EXPECT_TRUE(same_bits(a.max_abs_error, b.max_abs_error)) << a.stream_id;
      EXPECT_EQ(a.adaptive_samples, b.adaptive_samples) << a.stream_id;
      EXPECT_EQ(a.baseline_samples, b.baseline_samples) << a.stream_id;
      EXPECT_EQ(a.audit.windows, b.audit.windows);
      EXPECT_EQ(a.audit.aliased_windows, b.audit.aliased_windows);
      EXPECT_EQ(a.audit.probe_windows, b.audit.probe_windows);
      EXPECT_TRUE(same_bits(a.audit.max_rate_hz, b.audit.max_rate_hz));
      EXPECT_EQ(a.store_bytes_raw, b.store_bytes_raw) << a.stream_id;
      EXPECT_EQ(a.store_bytes_stored, b.store_bytes_stored) << a.stream_id;
    }

    // Fleet aggregates.
    EXPECT_TRUE(same_bits(batch_result.fleet_cost_savings(),
                          live_result.fleet_cost_savings()));
    EXPECT_EQ(batch_result.store.streams, live_result.store.streams);
    EXPECT_EQ(batch_result.store.ingested_samples,
              live_result.store.ingested_samples);
    EXPECT_EQ(batch_result.store.stored_samples,
              live_result.store.stored_samples);
    EXPECT_EQ(batch_result.store.chunks, live_result.store.chunks);
    EXPECT_EQ(batch_result.store.chunks_reduced,
              live_result.store.chunks_reduced);
    EXPECT_EQ(batch_result.store.bytes_raw, live_result.store.bytes_raw);
    EXPECT_EQ(batch_result.store.bytes_stored, live_result.store.bytes_stored);

    // Store contents: every stream's sealed chunks and hot tail, bit for bit.
    // (Write-generation counters differ by design: streaming ingests each
    // stream in many batches, the batch engine in one.)
    const auto names = batch.store().stream_names();
    ASSERT_EQ(names, streaming.store().stream_names());
    for (const auto& name : names) {
      const auto a = batch.store().snapshot_stream(name);
      const auto b = streaming.store().snapshot_stream(name);
      ASSERT_EQ(a.chunks.size(), b.chunks.size()) << name;
      for (std::size_t c = 0; c < a.chunks.size(); ++c) {
        EXPECT_TRUE(same_bits(a.chunks[c].t0, b.chunks[c].t0)) << name;
        EXPECT_TRUE(same_bits(a.chunks[c].dt, b.chunks[c].dt)) << name;
        EXPECT_TRUE(same_values(a.chunks[c].values, b.chunks[c].values))
            << name;
      }
      EXPECT_TRUE(same_values(a.hot, b.hot)) << name;
      EXPECT_TRUE(same_bits(a.collection_rate_hz, b.collection_rate_hz));

      const auto meta = batch.store().meta(name);
      const auto q_a = batch.store().query(name, meta.t0, meta.t_end);
      const auto q_b = streaming.store().query(name, meta.t0, meta.t_end);
      EXPECT_TRUE(same_bits(q_a.t0(), q_b.t0())) << name;
      EXPECT_TRUE(same_values(q_a.span(), q_b.span())) << name;
    }

    // Query-engine results over the served store, bit for bit.
    qry::QuerySpec spec;
    spec.selector = "*/*";
    spec.t_begin = 0.0;
    spec.t_end = streaming.end_s();
    spec.step_s = spec.t_end / 512.0;
    spec.aggregate = qry::Aggregation::kP95;
    auto serve = batch.serve();
    const auto r_batch = serve.run(spec);
    const auto r_live = streaming.query_engine().run(spec);
    ASSERT_EQ(r_batch.result->series.size(), r_live.result->series.size());
    for (std::size_t s = 0; s < r_batch.result->series.size(); ++s) {
      EXPECT_EQ(r_batch.result->series[s].label,
                r_live.result->series[s].label);
      EXPECT_TRUE(same_values(r_batch.result->series[s].series.span(),
                              r_live.result->series[s].series.span()));
    }
  }
}

// -------------------------------------------------- live serving & cache --

TEST(Runtime, ServesQueriesDuringIngestWithGenerationInvalidation) {
  const tel::Fleet fleet = small_fleet(24, 7);
  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine = small_engine_config();
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  // Ingest part of the timeline.
  runtime.step();
  runtime.step();
  ASSERT_FALSE(runtime.done());

  qry::QuerySpec spec;
  spec.selector = "*/*";
  spec.t_begin = 0.0;
  spec.t_end = runtime.end_s();
  spec.step_s = spec.t_end / 256.0;
  spec.aggregate = qry::Aggregation::kAvg;

  const auto early = runtime.query_engine().run(spec);
  ASSERT_FALSE(early.cache_hit);
  const auto early_again = runtime.query_engine().run(spec);
  EXPECT_TRUE(early_again.cache_hit);  // nothing ingested in between

  // More ingest must invalidate the cached result (generation bump), and
  // the refreshed result must see the longer streams.
  std::size_t guard = 0;
  while (!runtime.done() && ++guard < 10'000) runtime.step();
  const auto final_q = runtime.query_engine().run(spec);
  EXPECT_FALSE(final_q.cache_hit);
  ASSERT_FALSE(final_q.result->series.empty());
  ASSERT_FALSE(early.result->series.empty());
  EXPECT_GE(final_q.result->reconstructed.size(),
            early.result->reconstructed.size());

  // And the served result matches a batch engine over the same fleet.
  eng::FleetMonitorEngine batch(fleet, cfg.engine);
  batch.run();
  auto serve = batch.serve();
  const auto batch_q = serve.run(spec);
  ASSERT_EQ(batch_q.result->series.size(), final_q.result->series.size());
  for (std::size_t s = 0; s < batch_q.result->series.size(); ++s) {
    EXPECT_TRUE(same_values(batch_q.result->series[s].series.span(),
                            final_q.result->series[s].series.span()));
  }
}

TEST(Runtime, ConcurrentQueriesWhilePolling) {
  const tel::Fleet fleet = small_fleet(32, 11);
  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine = small_engine_config();
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queries{0};
  const double span = runtime.end_s();
  std::thread reader([&] {
    qry::QuerySpec spec;
    spec.selector = "*/*";
    spec.t_begin = 0.0;
    spec.t_end = span;
    spec.step_s = span / 256.0;
    spec.aggregate = qry::Aggregation::kMax;
    while (!stop.load()) {
      const auto r = runtime.query_engine().run(spec);
      ASSERT_NE(r.result, nullptr);
      ++queries;
    }
  });

  std::size_t guard = 0;
  while (!runtime.done() && ++guard < 10'000) runtime.step();
  stop.store(true);
  reader.join();
  EXPECT_TRUE(runtime.done());
  EXPECT_GT(queries.load(), 0u);
}

// ------------------------------------------------- durable checkpointing --

TEST(Runtime, IncrementalCheckpointsLeaveRecoverableState) {
  const tel::Fleet fleet = small_fleet(12, 3);
  TempDir dir("checkpoint");

  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine = small_engine_config();
  cfg.engine.storage.dir = dir.path;
  cfg.checkpoint_interval_windows = 8;  // several mid-run checkpoints
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  const eng::FleetRunResult result = runtime.run_to_completion();
  EXPECT_TRUE(result.persisted);
  EXPECT_GT(runtime.stats().checkpoints, 1u);  // interval + final

  // Cold-start recovery must reproduce the live store bit-exactly.
  sto::StorageConfig attach;
  attach.dir = dir.path;
  sto::StorageManager manager(attach);
  mon::StoreConfig store_cfg = cfg.engine.store;
  ASSERT_TRUE(manager.manifest_geometry().has_value());
  manager.manifest_geometry()->apply(store_cfg);
  mon::StripedRetentionStore recovered(store_cfg, cfg.engine.store_stripes);
  const sto::RecoveryStats rec = manager.recover(recovered);
  EXPECT_EQ(rec.crc_skipped_blocks, 0u);
  EXPECT_EQ(rec.stale_streams, 0u);

  const auto names = runtime.store().stream_names();
  ASSERT_EQ(names, recovered.stream_names());
  for (const auto& name : names) {
    const auto meta = runtime.store().meta(name);
    const auto live_q = runtime.store().query(name, meta.t0, meta.t_end);
    const auto cold_q = recovered.query(name, meta.t0, meta.t_end);
    EXPECT_TRUE(same_values(live_q.span(), cold_q.span())) << name;
  }
}

}  // namespace
