// FleetMonitorEngine: shard partitioning, the striped store's thread
// safety, end-to-end fleet runs, and the determinism contract (identical
// fleet aggregates whatever the worker count).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <thread>

#include "dsp/simd.h"
#include "engine/engine.h"
#include "engine/report.h"
#include "engine/shard.h"
#include "monitor/striped_store.h"
#include "telemetry/fleet.h"

namespace {

using namespace nyqmon;

// --------------------------------------------------------------- shards --

TEST(Shard, EveryPairAssignedExactlyOnce) {
  for (const std::size_t n_pairs : {0u, 1u, 7u, 64u, 1613u}) {
    for (const std::size_t n_shards : {1u, 3u, 16u, 2000u}) {
      const auto shards = eng::partition_shards(n_pairs, n_shards);
      std::set<std::size_t> seen;
      std::size_t total = 0;
      for (const auto& shard : shards) {
        for (const std::size_t i : shard.pair_indices) {
          EXPECT_LT(i, n_pairs);
          seen.insert(i);
          ++total;
        }
      }
      EXPECT_EQ(total, n_pairs) << n_pairs << " pairs / " << n_shards;
      EXPECT_EQ(seen.size(), n_pairs);
    }
  }
}

TEST(Shard, BalancedWithinOne) {
  const auto shards = eng::partition_shards(100, 8);
  ASSERT_EQ(shards.size(), 8u);
  std::size_t lo = 100, hi = 0;
  for (const auto& s : shards) {
    lo = std::min(lo, s.pair_indices.size());
    hi = std::max(hi, s.pair_indices.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(Shard, ClampsShardCount) {
  EXPECT_EQ(eng::partition_shards(3, 100).size(), 3u);
  EXPECT_EQ(eng::partition_shards(10, 0).size(), 1u);
  EXPECT_EQ(eng::partition_shards(0, 4).size(), 1u);
}

// -------------------------------------------------------- striped store --

TEST(StripedStore, ConcurrentIngestMatchesSerial) {
  const std::size_t kStreams = 32;
  const std::size_t kSamples = 300;

  auto ingest = [&](mon::StripedRetentionStore& store, bool concurrent) {
    for (std::size_t s = 0; s < kStreams; ++s)
      store.create_stream("stream" + std::to_string(s), 1.0);
    auto fill = [&store](std::size_t s) {
      std::vector<double> values(kSamples);
      for (std::size_t i = 0; i < kSamples; ++i)
        values[i] = std::sin(0.01 * static_cast<double>(i * (s + 1)));
      store.append_series("stream" + std::to_string(s), values);
    };
    if (concurrent) {
      std::vector<std::thread> pool;
      for (std::size_t s = 0; s < kStreams; ++s) pool.emplace_back(fill, s);
      for (auto& t : pool) t.join();
    } else {
      for (std::size_t s = 0; s < kStreams; ++s) fill(s);
    }
  };

  mon::StoreConfig cfg;
  cfg.chunk_samples = 64;
  mon::StripedRetentionStore serial(cfg, 4);
  mon::StripedRetentionStore parallel(cfg, 4);
  ingest(serial, false);
  ingest(parallel, true);

  const auto a = serial.rollup();
  const auto b = parallel.rollup();
  EXPECT_EQ(a.streams, kStreams);
  EXPECT_EQ(a.ingested_samples, b.ingested_samples);
  EXPECT_EQ(a.stored_samples, b.stored_samples);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.chunks_reduced, b.chunks_reduced);
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::string name = "stream" + std::to_string(s);
    const auto qa = serial.query(name, 0.0, 100.0);
    const auto qb = parallel.query(name, 0.0, 100.0);
    ASSERT_EQ(qa.size(), qb.size());
    for (std::size_t i = 0; i < qa.size(); ++i) EXPECT_EQ(qa[i], qb[i]);
  }
  EXPECT_EQ(serial.stream_names(), parallel.stream_names());
}

TEST(StripedStore, DelegatesStreamApi) {
  mon::StripedRetentionStore store({}, 8);
  store.create_stream("a", 1.0);
  EXPECT_THROW(store.create_stream("a", 1.0), std::invalid_argument);
  EXPECT_THROW(store.append("missing", 1.0), std::invalid_argument);
  for (int i = 0; i < 10; ++i) store.append("a", 3.0);
  EXPECT_EQ(store.stats("a").ingested_samples, 10u);
  EXPECT_EQ(store.streams(), 1u);
  const auto series = store.query("a", 0.0, 10.0);
  EXPECT_EQ(series.size(), 10u);
  EXPECT_NEAR(series[0], 3.0, 1e-12);
}

// ---------------------------------------------------------------- engine --

// Bit-exact double comparison (NaN-safe: NRMSE can legitimately be inf/nan
// for flat bursty traces, and nan == nan is false).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Engine, FivehundredPairsDeterministicAcrossWorkerCounts) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 500;
  fleet_cfg.seed = 99;
  const tel::Fleet fleet(fleet_cfg);
  ASSERT_GE(fleet.size(), 500u);

  auto run_with = [&fleet](std::size_t workers) {
    eng::EngineConfig cfg;
    cfg.workers = workers;
    // Trim per-pair work: determinism is about scheduling, not trace length.
    cfg.samples_per_window = 48;
    cfg.windows_per_pair = 4;
    eng::FleetMonitorEngine engine(fleet, cfg);
    return engine.run();
  };

  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  EXPECT_EQ(serial.workers_used, 1u);
  EXPECT_EQ(parallel.workers_used, 4u);

  ASSERT_EQ(serial.pairs.size(), fleet.size());
  ASSERT_EQ(parallel.pairs.size(), fleet.size());
  for (std::size_t i = 0; i < serial.pairs.size(); ++i) {
    const auto& a = serial.pairs[i];
    const auto& b = parallel.pairs[i];
    EXPECT_EQ(a.stream_id, b.stream_id);
    EXPECT_TRUE(same_bits(a.cost_savings, b.cost_savings)) << a.stream_id;
    EXPECT_TRUE(same_bits(a.nrmse, b.nrmse)) << a.stream_id;
    EXPECT_TRUE(same_bits(a.max_abs_error, b.max_abs_error)) << a.stream_id;
    EXPECT_EQ(a.adaptive_samples, b.adaptive_samples) << a.stream_id;
    EXPECT_EQ(a.baseline_samples, b.baseline_samples) << a.stream_id;
    EXPECT_EQ(a.audit.windows, b.audit.windows);
    EXPECT_EQ(a.audit.aliased_windows, b.audit.aliased_windows);
    EXPECT_EQ(a.audit.probe_windows, b.audit.probe_windows);
    EXPECT_TRUE(same_bits(a.audit.final_rate_hz, b.audit.final_rate_hz));
  }

  // Store fan-in and cost aggregates must match too.
  EXPECT_EQ(serial.store.ingested_samples, parallel.store.ingested_samples);
  EXPECT_EQ(serial.store.stored_samples, parallel.store.stored_samples);
  EXPECT_EQ(serial.store.chunks_reduced, parallel.store.chunks_reduced);
  EXPECT_EQ(serial.adaptive_cost.samples, parallel.adaptive_cost.samples);
  EXPECT_EQ(serial.baseline_cost.samples, parallel.baseline_cost.samples);
  EXPECT_TRUE(same_bits(serial.fleet_cost_savings(),
                        parallel.fleet_cost_savings()));
}

TEST(Engine, DeterminismStressAcrossWorkersSimdAndArenaModes) {
  // The full matrix the scaling work must not perturb: every worker count
  // x every SIMD dispatch level x arena retained/wiped has to produce the
  // same run digest over a 500-pair fleet. This is what lets the repo
  // change FFT internals, vectorize kernels, or reuse scratch buffers
  // without ever re-baselining a digest: the digest is defined by the
  // computation, not by the execution strategy.
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 500;
  fleet_cfg.seed = 424242;
  const tel::Fleet fleet(fleet_cfg);
  ASSERT_GE(fleet.size(), 500u);

  // Scalar reference plus the widest level this CPU has (the levels in
  // between share their kernels' definitions, and the kernel-equivalence
  // suite covers all of them element-wise).
  std::vector<dsp::simd::Level> levels = {dsp::simd::Level::kScalar};
  if (dsp::simd::detected_level() != dsp::simd::Level::kScalar)
    levels.push_back(dsp::simd::detected_level());

  const dsp::simd::Level original = dsp::simd::active_level();
  std::uint64_t reference_digest = 0;
  bool have_reference = false;
  for (const dsp::simd::Level level : levels) {
    dsp::simd::set_level(level);
    for (const bool arena_retain : {true, false}) {
      for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        eng::EngineConfig cfg;
        cfg.workers = workers;
        cfg.arena_retain = arena_retain;
        // Trim per-pair work: the matrix is about scheduling, dispatch and
        // buffer reuse, not trace length.
        cfg.samples_per_window = 48;
        cfg.windows_per_pair = 4;
        eng::FleetMonitorEngine engine(fleet, cfg);
        const auto result = engine.run();
        const std::uint64_t digest = eng::run_digest(result);
        if (!have_reference) {
          reference_digest = digest;
          have_reference = true;
        }
        EXPECT_EQ(digest, reference_digest)
            << "level=" << dsp::simd::level_name(level)
            << " arena_retain=" << arena_retain << " workers=" << workers;
        EXPECT_EQ(result.arena.pairs_processed, fleet.size());
        if (!arena_retain) {
          // Wiped between pairs: every warm pair re-allocates, by design.
          EXPECT_GE(result.arena.warm_pairs_with_allocations,
                    fleet.size() - workers)
              << "workers=" << workers;
        }
      }
    }
  }
  dsp::simd::set_level(original);
}

TEST(Engine, RetainsQueryableStreamsAndReports) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 40;
  fleet_cfg.seed = 5;
  fleet_cfg.topology.pods = 2;
  const tel::Fleet fleet(fleet_cfg);

  eng::EngineConfig cfg;
  cfg.workers = 2;
  cfg.samples_per_window = 48;
  cfg.windows_per_pair = 4;
  eng::FleetMonitorEngine engine(fleet, cfg);
  const auto result = engine.run();

  EXPECT_EQ(result.pairs.size(), 40u);
  EXPECT_EQ(engine.store().streams(), 40u);
  for (const auto& pair : fleet.pairs()) {
    const std::string id = tel::stream_id(pair);
    const auto stats = engine.store().stats(id);
    EXPECT_GT(stats.ingested_samples, 0u) << id;
    const auto series =
        engine.store().query(id, 0.0, 8.0 * pair.metric.poll_interval_s);
    EXPECT_EQ(series.size(), 8u) << id;
  }

  const auto report = eng::build_report(result);
  EXPECT_EQ(report.pairs, 40u);
  std::size_t pairs_in_report = 0;
  for (const auto& [kind, m] : report.by_metric) {
    pairs_in_report += m.pairs;
    EXPECT_EQ(m.cost_savings.size(), m.pairs);
    EXPECT_EQ(m.nrmse.size() + m.nrmse_degenerate, m.pairs);
  }
  EXPECT_EQ(pairs_in_report, 40u);
  const std::string rendered = eng::render(report);
  EXPECT_NE(rendered.find("fleet-wide cost savings"), std::string::npos);

  // Engines are single-shot.
  EXPECT_THROW(engine.run(), std::invalid_argument);
}

TEST(Engine, WorkerExceptionsPropagateToCaller) {
  // A throwing task on a pooled std::thread used to std::terminate the
  // process; the engine's single scheduler beat must surface it on the
  // calling thread whatever the worker count.
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 16;
  fleet_cfg.topology.pods = 2;
  const tel::Fleet fleet(fleet_cfg);

  for (const std::size_t workers : {1u, 4u}) {
    eng::EngineConfig cfg;
    cfg.workers = workers;
    cfg.sampler.probe_factor = 1.0;  // rejected inside each pair's sampler
    eng::FleetMonitorEngine engine(fleet, cfg);
    EXPECT_THROW(engine.run(), std::invalid_argument) << workers;
  }
}

TEST(Engine, StreamIdsAreUniquePerPair) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 200;
  const tel::Fleet fleet(fleet_cfg);
  std::set<std::string> ids;
  for (const auto& pair : fleet.pairs()) ids.insert(tel::stream_id(pair));
  EXPECT_EQ(ids.size(), fleet.size());
}

TEST(Engine, SchedulePairScalesWithPollInterval) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 10;
  fleet_cfg.topology.pods = 2;
  const tel::Fleet fleet(fleet_cfg);
  for (const auto& pair : fleet.pairs()) {
    const auto s = tel::schedule_pair(pair, 64, 8);
    EXPECT_DOUBLE_EQ(s.production_rate_hz, 1.0 / pair.metric.poll_interval_s);
    EXPECT_DOUBLE_EQ(s.window_duration_s, 64.0 * pair.metric.poll_interval_s);
    EXPECT_DOUBLE_EQ(s.duration_s, 8.0 * s.window_duration_s);
  }
}

}  // namespace
