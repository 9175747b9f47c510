// The benchmark's four workloads. Each builds its inputs from the seed
// before timing starts, checks the program's outputs, and fills the
// report: end-to-end metrics in an untraced run, per-layer metrics in a
// traced one (--trace 1). The metric catalogue and the reason each
// workload exists are in nyqbench/WORKLOADS.md.
#pragma once

#include "harness.h"

namespace nyqbench {

/// FleetMonitorEngine::run over a 1613-pair fleet: the paper's pipeline.
void run_fleet_batch(const Options& opt, Report& rep);

/// nyqmond serving point/device/fleet queries over a long sealed history.
void run_query_history(const Options& opt, Report& rep);

/// The query-history population and mix behind NyqmonRouter + 3 backends.
void run_fanout_query(const Options& opt, Report& rep);

/// Durable nyqmond under open-loop INGEST, recent-window queries and
/// periodic CHECKPOINT, then a graceful stop and a recovery from disk.
void run_ingest_live(const Options& opt, Report& rep);

}  // namespace nyqbench
