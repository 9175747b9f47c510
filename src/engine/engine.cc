#include "engine/engine.h"

#include "obs/trace.h"
#include "runtime/runtime.h"
#include "util/check.h"

namespace nyqmon::eng {

double FleetRunResult::fleet_cost_savings() const {
  std::size_t adaptive = 0;
  std::size_t baseline = 0;
  for (const auto& p : pairs) {
    adaptive += p.adaptive_samples;
    baseline += p.baseline_samples;
  }
  return mon::ratio_or_one(baseline, adaptive);
}

FleetMonitorEngine::FleetMonitorEngine(const tel::Fleet& fleet,
                                       EngineConfig config)
    : runtime_(std::make_unique<rt::StreamingRuntime>(fleet, clock_, [&] {
        rt::RuntimeConfig rc;
        rc.engine = std::move(config);
        return rc;
      }())) {}

FleetMonitorEngine::~FleetMonitorEngine() = default;

const mon::StripedRetentionStore& FleetMonitorEngine::store() const {
  return runtime_->store();
}

mon::StripedRetentionStore& FleetMonitorEngine::mutable_store() {
  return runtime_->mutable_store();
}

const sto::StorageManager* FleetMonitorEngine::storage() const {
  return runtime_->storage();
}

qry::QueryEngine FleetMonitorEngine::serve(qry::QueryEngineConfig config)
    const {
  NYQMON_CHECK_MSG(ran_, "serve() needs a completed run()");
  return qry::QueryEngine(runtime_->store(), config);
}

FleetRunResult FleetMonitorEngine::run() {
  NYQMON_CHECK_MSG(!ran_, "FleetMonitorEngine::run() is single-shot");
  ran_ = true;
  NYQMON_TRACE_SPAN("fleet_run", "engine");
  // Batch = one beat: with the clock at the fleet's last window end every
  // pair is due in the runtime's first poll, which drives it through its
  // whole timeline and ingests its reconstruction in one append.
  clock_.advance_to(runtime_->end_s());
  return runtime_->run_to_completion();
}

}  // namespace nyqmon::eng
