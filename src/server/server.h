// NyqmondServer — the network front of the retention store: the shared
// Transport (server/transport.h) plus the store-backed verb handler.
// INGEST appends batched samples to retained streams (created on first
// ingest), QUERY runs a selector + spec through a QueryEngine, STATS
// reports a JSON counter snapshot, CHECKPOINT seals the durable tier,
// HANDOFF exports/imports segment images, and METRICS/TRACE/LOGS answer
// from this process's registry and rings.
//
// The handler runs on whichever reactor owns the connection, against a
// store that may be shared with a running StreamingRuntime (serving
// during ingest is the normal mode); reads reconstruct from snapshot
// handles (monitor/store.h ReadSnapshot), never holding stripe locks.
// CHECKPOINT and the persist step of HANDOFF import run behind the
// transport's run_quiesced barrier, so no INGEST on another reactor lands
// between the store snapshot and the WAL swap. stop() stops the transport
// and then flushes a final checkpoint, so the WAL + segments on disk
// recover to the served state.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "monitor/striped_store.h"
#include "query/engine.h"
#include "server/transport.h"
#include "storage/manager.h"

namespace nyqmon::srv {

/// The transport settings plus the store-backed handler's own.
struct ServerConfig : TransportConfig {
  qry::QueryEngineConfig query;
  /// CHECKPOINT delegate. Servers fronting a StreamingRuntime must point
  /// this at StreamingRuntime::checkpoint() so the flush is quiesced
  /// against the scheduler; when unset, the server flushes `storage`
  /// directly. Either way the server quiesces its own reactors first
  /// (see Transport::run_quiesced), so server-side INGEST on other
  /// reactors cannot race the flush — the delegate only needs to quiesce
  /// *its* writers.
  std::function<sto::FlushStats()> checkpoint_fn;
};

class NyqmondServer {
 public:
  /// The store (and storage manager, when given) must outlive the server.
  /// `storage` may be nullptr for an in-memory server.
  NyqmondServer(mon::StripedRetentionStore& store,
                sto::StorageManager* storage, ServerConfig config = {});
  ~NyqmondServer();

  NyqmondServer(const NyqmondServer&) = delete;
  NyqmondServer& operator=(const NyqmondServer&) = delete;

  /// Bind, listen, and spawn the event loop. Throws std::runtime_error on
  /// socket failure.
  void start() { transport_.start(); }

  /// Graceful shutdown: stop accepting, close connections, join the loop,
  /// and flush a final checkpoint. Idempotent.
  void stop();

  bool running() const { return transport_.running(); }

  /// The bound port (valid after start()).
  std::uint16_t port() const { return transport_.port(); }

  ServerStats stats() const;

  const ServerConfig& config() const { return config_; }

 private:
  /// The transport's handler: one decoded request of a known verb.
  std::vector<std::uint8_t> handle(Verb verb, sto::ByteReader& reader);
  /// The CHECKPOINT body shared by handle_checkpoint, HANDOFF import's
  /// persist step, and stop()'s final flush.
  sto::FlushStats checkpoint_now();
  /// checkpoint_now() behind the transport's quiesce barrier, for
  /// CHECKPOINT and HANDOFF import. Returns whether the served state is
  /// now durable (false for an in-memory server; `flush` stays zero).
  bool persist(sto::FlushStats& flush);
  std::vector<std::uint8_t> handle_ingest(sto::ByteReader& reader);
  std::vector<std::uint8_t> handle_query(sto::ByteReader& reader);
  std::vector<std::uint8_t> handle_stats();
  std::vector<std::uint8_t> handle_checkpoint();
  std::vector<std::uint8_t> handle_handoff(sto::ByteReader& reader);

  mon::StripedRetentionStore& store_;
  sto::StorageManager* storage_;
  ServerConfig config_;
  qry::QueryEngine query_;
  std::atomic<std::uint64_t> samples_ingested_{0};
  Transport transport_;  ///< last: its threads stop before the rest dies
};

}  // namespace nyqmon::srv
