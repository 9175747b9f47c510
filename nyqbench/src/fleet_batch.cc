// fleet-batch: FleetMonitorEngine::run over the paper's 1613-pair study
// population (14 metrics), EngineConfig defaults (8 windows x 64 samples
// per pair), 4 workers. Nearly all of its work is in nyquist, dsp,
// reconstruct and engine; none is in server, query or storage.
//
// Inputs: the paper fleet (fixed) with the engine's noise seed from
// --seed. One untimed warm pass runs first (the first pass in a process is
// markedly slower than later ones), and one untimed 1-worker pass gives
// the reference digest every timed pass must reproduce.
#include <cmath>
#include <optional>

#include "engine/engine.h"
#include "engine/report.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "telemetry/fleet.h"
#include "workloads.h"

namespace nyqbench {

namespace {

using namespace nyqmon;

constexpr std::size_t kPairs = 1613;
constexpr std::size_t kWorkers = 4;
constexpr int kSetupRepeats = 9;

/// The paper's study population: the repository's fixed paper-fleet seed
/// (the one every figure harness uses), so the workload keeps the same
/// 1613 pairs and --seed draws the measurement noise.
constexpr std::uint64_t kPaperFleetSeed = 20211110;

tel::FleetConfig fleet_config() {
  tel::FleetConfig c;
  c.target_pairs = kPairs;
  c.seed = kPaperFleetSeed;
  return c;
}

eng::EngineConfig engine_config(std::uint64_t seed, std::size_t workers) {
  eng::EngineConfig c;
  c.workers = workers;
  c.seed = seed;
  return c;
}

const std::vector<std::string> kCounters = {
    "nyqmon_store_appends_total", "nyqmon_store_lock_acquisitions_total",
    "nyqmon_store_lock_contended_total"};
const std::vector<std::string> kHists = {
    "nyqmon_engine_stage_sample_ns", "nyqmon_engine_stage_fft_ns",
    "nyqmon_engine_stage_reconstruct_ns", "nyqmon_engine_stage_audit_ns",
    "nyqmon_store_lock_wait_ns"};

struct PassLoop {
  Samples pass_ms;
  eng::WorkArenaStats arena;  // summed over passes
};

/// Timed passes until `seconds` have elapsed (at least three). Every pass
/// must reproduce the reference digest.
PassLoop timed_passes(const tel::Fleet& fleet, std::uint64_t seed,
                      double seconds, std::uint64_t ref_digest, Report& rep) {
  PassLoop loop;
  const double end = now_s() + seconds;
  while (now_s() < end || loop.pass_ms.size() < 3) {
    eng::FleetMonitorEngine engine(fleet, engine_config(seed, kWorkers));
    const double t0 = now_s();
    eng::FleetRunResult result;
    {
      Span span("engine.run");
      result = engine.run();
    }
    loop.pass_ms.add((now_s() - t0) * 1e3);
    loop.arena += result.arena;
    ++rep.attempted;
    const bool same = eng::run_digest(result) == ref_digest;
    if (!same) ++rep.failed;
    rep.check(same, "fleet-batch: timed pass digest differs from the "
                    "1-worker reference pass");
  }
  return loop;
}

}  // namespace

void run_fleet_batch(const Options& opt, Report& rep) {
  // Set-up: what a caller pays before run(): building the fleet (topology,
  // metric models, per-pair signals) and constructing the engine.
  Samples setup_s;
  std::optional<tel::Fleet> fleet;
  Tracer::instance().arm(opt.trace);
  for (int r = 0; r < kSetupRepeats; ++r) {
    fleet.reset();
    const double t0 = now_s();
    {
      Span span("telemetry.fleet_build");
      fleet.emplace(fleet_config());
    }
    eng::FleetMonitorEngine engine(*fleet, engine_config(opt.seed, kWorkers));
    setup_s.add(now_s() - t0);
  }
  Tracer::instance().arm(false);

  // Untimed: the warm pass and the 1-worker reference pass.
  eng::FleetRunResult ref;
  {
    eng::FleetMonitorEngine warm(*fleet, engine_config(opt.seed, kWorkers));
    warm.run();
    eng::FleetMonitorEngine single(*fleet, engine_config(opt.seed, 1));
    ref = single.run();
  }
  const std::uint64_t ref_digest = eng::run_digest(ref);
  rep.check(ref.pairs.size() == fleet->size(),
            "fleet-batch: reference pass dropped pairs");

  // Output quality and cost, from the (deterministic) reference result.
  Samples nrmse;
  for (const auto& p : ref.pairs)
    if (std::isfinite(p.nrmse)) nrmse.add(p.nrmse);
  const double savings = ref.fleet_cost_savings();
  const double bytes_per_sample =
      ref.store.ingested_samples == 0
          ? 0.0
          : static_cast<double>(ref.store.bytes_stored) /
                static_cast<double>(ref.store.ingested_samples);

  if (!opt.trace) {
    const double cpu0 = process_cpu_s();
    const PassLoop loop =
        timed_passes(*fleet, opt.seed, opt.seconds, ref_digest, rep);
    const double cpu_ms = (process_cpu_s() - cpu0) * 1e3;
    const std::size_t pairs = loop.pass_ms.size() * fleet->size();
    rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB", 1,
                              "set-up and the timed passes"};
    const double pairs_per_s =
        static_cast<double>(fleet->size()) / (loop.pass_ms.median() / 1e3);
    rep.e2e["setup_s"] = {setup_s.median(), "s", setup_s.size(),
                          "fleet build + engine construction"};
    rep.e2e["cpu_ms_per_op"] = {cpu_ms / static_cast<double>(pairs), "ms",
                                pairs, "process CPU per pair, timed passes"};
    rep.e2e["p50_ms"] = {loop.pass_ms.median(), "ms", loop.pass_ms.size(),
                         "median engine pass (1613 pairs)"};
    rep.e2e["nrmse_p50"] = {nrmse.median(), "ratio", nrmse.size(),
                            "median per-pair reconstruction NRMSE"};
    rep.e2e["collection_savings"] = {savings, "ratio", ref.pairs.size(),
                                     "sum baseline / sum adaptive samples"};
    rep.e2e["stored_bytes_per_sample"] = {
        bytes_per_sample, "B", ref.store.ingested_samples,
        "store codec bytes per ingested sample"};
    rep.detail["pairs_per_s"] = {pairs_per_s, "1/s", loop.pass_ms.size(), ""};
    rep.detail["error_ratio"] = {
        static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
        "ratio", rep.attempted, ""};
    return;
  }

  // Traced run: half untraced, half traced (the overhead ratio), then a
  // VirtualClock StreamingRuntime replay of the same fleet.
  const PassLoop plain =
      timed_passes(*fleet, opt.seed, opt.seconds / 2.0, ref_digest, rep);
  Tracer::instance().arm(true);
  const ObsMark before = ObsMark::take(kCounters, kHists);
  const double cpu0 = process_cpu_s();
  const double wall0 = now_s();
  const PassLoop traced =
      timed_passes(*fleet, opt.seed, opt.seconds / 2.0, ref_digest, rep);
  const double wall = now_s() - wall0;
  const double cpu = process_cpu_s() - cpu0;
  const ObsMark after = ObsMark::take(kCounters, kHists);

  Samples step_ms;
  double replay_s = 0.0;
  {
    rt::VirtualClock clock;
    rt::RuntimeConfig rc;
    rc.engine = engine_config(opt.seed, kWorkers);
    rt::StreamingRuntime runtime(*fleet, clock, rc);
    const double t0 = now_s();
    while (!runtime.done()) {
      const double s0 = now_s();
      Span span("runtime.step");
      runtime.step();
      step_ms.add((now_s() - s0) * 1e3);
    }
    const eng::FleetRunResult streamed = runtime.run_to_completion();
    replay_s = now_s() - t0;
    ++rep.attempted;
    const bool same = eng::run_digest(streamed) == ref_digest;
    if (!same) ++rep.failed;
    rep.check(same, "fleet-batch: StreamingRuntime replay digest differs "
                    "from the engine's");
  }
  Tracer::instance().arm(false);

  const double passes = static_cast<double>(traced.pass_ms.size());
  auto per_pass_ms = [&](const char* hist) {
    return static_cast<double>(after.hist_delta(before, hist).sum) / 1e6 /
           passes;
  };
  const auto spans = Tracer::instance().collect();
  const Samples fleet_build = span_durations(spans, "telemetry.fleet_build");
  auto& L = rep.layer;
  L["telemetry.fleet_build_ms"] = {fleet_build.median(), "ms",
                                   fleet_build.size(), ""};
  L["engine.run_ms"] = {traced.pass_ms.median(), "ms", traced.pass_ms.size(),
                        ""};
  L["engine.cpu_util"] = {cpu / (wall * static_cast<double>(kWorkers)),
                          "ratio", traced.pass_ms.size(),
                          "process CPU / (wall x workers)"};
  L["engine.arena_heap_allocs"] = {
      static_cast<double>(traced.arena.heap_allocations) / passes, "count",
      traced.pass_ms.size(), "per pass"};
  L["engine.arena_warm_alloc_pairs"] = {
      static_cast<double>(traced.arena.warm_pairs_with_allocations) / passes,
      "count", traced.pass_ms.size(), "per pass"};
  L["nyquist.sample_busy_ms"] = {per_pass_ms("nyqmon_engine_stage_sample_ns"),
                                 "ms", traced.pass_ms.size(), "per pass"};
  L["dsp.fft_busy_ms"] = {per_pass_ms("nyqmon_engine_stage_fft_ns"), "ms",
                          traced.pass_ms.size(), "per pass"};
  L["reconstruct.busy_ms"] = {
      per_pass_ms("nyqmon_engine_stage_reconstruct_ns"), "ms",
      traced.pass_ms.size(), "per pass"};
  L["monitor.audit_busy_ms"] = {per_pass_ms("nyqmon_engine_stage_audit_ns"),
                                "ms", traced.pass_ms.size(), "per pass"};
  L["monitor.store_lock_wait_ms"] = {per_pass_ms("nyqmon_store_lock_wait_ns"),
                                     "ms", traced.pass_ms.size(), "per pass"};
  const double acq = static_cast<double>(
      after.counter_delta(before, "nyqmon_store_lock_acquisitions_total"));
  L["monitor.store_lock_contended_ratio"] = {
      acq == 0.0 ? 0.0
                 : static_cast<double>(after.counter_delta(
                       before, "nyqmon_store_lock_contended_total")) /
                       acq,
      "ratio", static_cast<std::size_t>(acq), ""};
  L["monitor.store_appends"] = {
      static_cast<double>(
          after.counter_delta(before, "nyqmon_store_appends_total")) /
          passes,
      "count", traced.pass_ms.size(), "per pass"};
  std::string label;
  L["runtime.step_p50_ms"] = {step_ms.median(), "ms", step_ms.size(), ""};
  L["runtime.step_tail_ms"] = {step_ms.tail(&label), "ms", step_ms.size(),
                               label};
  L["runtime.pairs_per_s"] = {static_cast<double>(fleet->size()) / replay_s,
                              "1/s", 1, "VirtualClock replay"};
  L["trace.overhead_ratio"] = {
      traced.pass_ms.median() / plain.pass_ms.median(), "ratio",
      traced.pass_ms.size(), "median traced pass / median untraced pass"};
}

}  // namespace nyqbench
