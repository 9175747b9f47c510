// NyqmonRouter — the scatter-gather front of a sharded nyqmond fleet.
//
// Speaks the ordinary nyqmond wire protocol to clients (a router is
// indistinguishable from a big nyqmond) and fans out to N backends through
// a ClusterClient:
//
//   INGEST      → routed to the stream's consistent-hash ring owner
//   QUERY       → scattered to every backend (aggregation stripped),
//                 gathered within the per-backend deadline, merged with
//                 the query engine's own reduction (query/merge.h) so the
//                 answer is bit-identical to a single node holding all
//                 streams. Any backend failure answers ERR-with-detail —
//                 which backends failed and why — rather than silently
//                 serving a partial fleet.
//   STATS       → router counters + every backend's STATS JSON, one object
//   CHECKPOINT  → scattered; chunks/bytes summed, persisted = all
//   METRICS     → the router process's own registry (includes the
//                 nyqmon_router_* and per-backend cluster series); with
//                 the kMetricsFleet flag, every backend's exposition too,
//                 concatenated as `# == node <name> ==` sections
//   TRACE       → the router process's own trace rings; with the
//                 kTraceFleet flag, every backend's rings are drained too
//                 and stitched (merge_chrome_json) into one fleet-wide
//                 chrome://tracing timeline sharing the propagated
//                 trace ids
//   HANDOFF     → refused: topology moves address a backend node directly
//                 (nyqmon_ctl handoff), not the fleet front
//   LOGS        → the router process's own structured-log rings
//
// With the kQueryWantExplain flag, the scattered QUERY's reply carries the
// router's own stage breakdown — scatter, merge (decode + central
// reduction), plus informational per-backend `backend/<node>` gather rows
// that overlap the scatter stage — appended to whatever the wire already
// carried.
//
// Implementation: the shared srv::Transport (server/transport.h) with the
// scatter/route handler below — the router gets nyqmond's event loop,
// framing robustness, bounded reply queues and nyqmon_server_* /
// nyqmon_reactor_* series, and holds no store and no query engine. Its
// local METRICS/TRACE/LOGS replies are nyqmond's (srv::local_text_reply).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "cluster/client.h"
#include "server/transport.h"

namespace nyqmon::clu {

struct RouterConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read back with port().
  std::uint16_t port = 0;
  std::size_t max_frame_bytes = srv::kMaxFrameBytes;
  /// Reply-queue bounds for front-side clients (see TransportConfig).
  std::size_t max_reply_queue_bytes = 0;
  std::size_t max_reply_queue_frames = 64;
  std::uint32_t slow_client_timeout_ms = 0;
  /// The router's fleet identity: tags its spans and log records, and
  /// names its section in stitched timelines / fleet metrics.
  std::string node_name = "router";
  ClusterConfig cluster;
};

/// Monotonic router counters (readable from any thread).
struct RouterStats {
  std::uint64_t frames = 0;
  std::uint64_t ingests_routed = 0;
  std::uint64_t queries_scattered = 0;
  /// Scatter rounds where at least one backend failed (ERR-with-detail).
  std::uint64_t partial_failures = 0;
  /// Individual backend failures across all scatter rounds.
  std::uint64_t backend_errors = 0;
  /// Front-side frames answered ERR for framing or dispatch faults (bad
  /// length prefix, unknown verb, handler exception).
  std::uint64_t protocol_errors = 0;
};

class NyqmonRouter {
 public:
  explicit NyqmonRouter(RouterConfig config);
  ~NyqmonRouter();

  NyqmonRouter(const NyqmonRouter&) = delete;
  NyqmonRouter& operator=(const NyqmonRouter&) = delete;

  /// Bind, listen, and spawn the front event loop. Backend connections
  /// open lazily on first use.
  void start();
  void stop() { front_.stop(); }
  bool running() const { return front_.running(); }

  /// The bound front port (valid after start()).
  std::uint16_t port() const { return front_.port(); }

  const HashRing& ring() const { return cluster_.ring(); }
  ClusterClient& cluster() { return cluster_; }

  RouterStats stats() const;

 private:
  /// The front transport's handler: one decoded request of a known verb.
  std::vector<std::uint8_t> handle(srv::Verb verb, sto::ByteReader& reader);
  std::vector<std::uint8_t> route_ingest(sto::ByteReader& reader);
  std::vector<std::uint8_t> scatter_query(sto::ByteReader& reader);
  std::vector<std::uint8_t> fleet_stats_json();
  std::vector<std::uint8_t> scatter_checkpoint();
  /// kTraceFleet: drain + stitch every node's rings (router's included).
  std::vector<std::uint8_t> fleet_trace_json();
  /// kMetricsFleet: every node's exposition as `# == node <name> ==`
  /// sections (router's first).
  std::vector<std::uint8_t> fleet_metrics_text();
  void count_failures(const std::vector<srv::ErrorDetail>& failures);

  RouterConfig config_;
  ClusterClient cluster_;

  std::atomic<std::uint64_t> ingests_routed_{0};
  std::atomic<std::uint64_t> queries_scattered_{0};
  std::atomic<std::uint64_t> partial_failures_{0};
  std::atomic<std::uint64_t> backend_errors_{0};
  srv::Transport front_;  ///< last: its threads stop before the rest dies
};

}  // namespace nyqmon::clu
