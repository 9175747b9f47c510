#include "server/server.h"

#include <cstdio>
#include <map>
#include <utility>

#include "storage/segment.h"

namespace nyqmon::srv {

NyqmondServer::NyqmondServer(mon::StripedRetentionStore& store,
                             sto::StorageManager* storage, ServerConfig config)
    : store_(store),
      storage_(storage),
      config_(std::move(config)),
      query_(store, config_.query),
      transport_(config_, [this](Verb verb, sto::ByteReader& reader) {
        return handle(verb, reader);
      }) {}

NyqmondServer::~NyqmondServer() { stop(); }

void NyqmondServer::stop() {
  // Final checkpoint: everything the server ingested is sealed into
  // segments and the WAL swaps fresh, so the directory recovers to exactly
  // the served state. No quiesce needed — every reactor has joined.
  if (transport_.stop()) checkpoint_now();
}

std::vector<std::uint8_t> NyqmondServer::handle(Verb verb,
                                                sto::ByteReader& reader) {
  switch (verb) {
    case Verb::kIngest: return handle_ingest(reader);
    case Verb::kQuery: return handle_query(reader);
    case Verb::kStats: return handle_stats();
    case Verb::kCheckpoint: return handle_checkpoint();
    case Verb::kHandoff: return handle_handoff(reader);
    case Verb::kMetrics:
    case Verb::kTrace:
    case Verb::kLogs:
      // Payload-free verbs: trailing bytes (a newer peer's flags) are
      // ignored, and the reply is this process's own exposition.
      return local_text_reply(verb, config_.max_frame_bytes);
  }
  return error_frame("unknown verb");  // the transport answers these first
}

sto::FlushStats NyqmondServer::checkpoint_now() {
  if (config_.checkpoint_fn) return config_.checkpoint_fn();
  if (storage_ != nullptr) {
    storage_->sync();
    return storage_->flush(store_);
  }
  sto::FlushStats skipped;
  skipped.skipped = true;
  return skipped;
}

bool NyqmondServer::persist(sto::FlushStats& flush) {
  if (!config_.checkpoint_fn && storage_ == nullptr) return false;
  // Reactor-aware quiesce: park every other reactor before the flush so
  // no server-side INGEST lands between the store snapshot and the WAL
  // swap (the checkpoint delegate only quiesces *its own* writers, e.g.
  // the StreamingRuntime scheduler).
  flush.skipped = true;
  transport_.run_quiesced([&] { flush = checkpoint_now(); });
  return config_.checkpoint_fn ? !flush.skipped : true;
}

std::vector<std::uint8_t> NyqmondServer::handle_ingest(
    sto::ByteReader& reader) {
  const auto req = decode_ingest(reader);
  if (!req.has_value()) return error_frame("malformed INGEST payload");
  // Find-or-create is one step under the stripe lock: two reactors racing
  // the first INGEST of a new stream must both append, not refuse one.
  if (req->rate_hz > 0.0)
    store_.find_or_create_stream(req->stream, req->rate_hz, req->t0);
  else if (!store_.find_meta(req->stream).has_value())
    return error_frame("stream creation needs rate_hz > 0");
  store_.append_series(req->stream, req->values);
  samples_ingested_.fetch_add(req->values.size());
  std::vector<std::uint8_t> payload;
  sto::put_u64(payload, store_.meta(req->stream).ingested_samples);
  return ok_frame(payload);
}

std::vector<std::uint8_t> NyqmondServer::handle_query(sto::ByteReader& reader) {
  std::uint8_t flags = 0;
  const auto spec = decode_query(reader, flags);
  if (!spec.has_value()) return error_frame("malformed QUERY payload");
  spec->validate();  // throws -> ERR via dispatch
  const qry::QueryResponse response = query_.run(*spec);
  QueryExplainBlock explain;
  if ((flags & kQueryWantExplain) != 0) {
    explain.total_ns = response.total_ns;
    explain.stages.reserve(response.stages.size());
    for (const qry::QueryStageTiming& st : response.stages)
      explain.stages.push_back({st.stage, st.ns});
  }
  auto payload = encode_query_reply(
      *response.result, response.cache_hit, (flags & kQueryWantMatched) != 0,
      (flags & kQueryWantExplain) != 0 ? &explain : nullptr);
  // A reply must fit one frame: clients reject bodies over their cap, and
  // past 4 GiB the u32 length prefix would wrap. Refuse rather than emit
  // an undeliverable frame.
  if (payload.size() >= config_.max_frame_bytes)
    return error_frame(
        "query result exceeds the frame cap; narrow the selector/range or "
        "coarsen step_s");
  return ok_frame(payload);
}

std::vector<std::uint8_t> NyqmondServer::handle_stats() {
  const mon::StoreRollup rollup = store_.rollup();
  const qry::QueryEngineStats q = query_.stats();
  const ServerStats wire = stats();
  char json[768];
  std::snprintf(
      json, sizeof(json),
      "{\"streams\":%zu,\"ingested_samples\":%zu,\"stored_samples\":%zu,"
      "\"bytes_raw\":%llu,\"bytes_stored\":%llu,"
      "\"queries\":%llu,\"cache_hits\":%llu,\"cache_misses\":%llu,"
      "\"frames\":%llu,\"ingest_frames\":%llu,\"query_frames\":%llu,"
      "\"protocol_errors\":%llu,\"samples_ingested\":%llu,"
      "\"connections_accepted\":%llu}",
      rollup.streams, rollup.ingested_samples, rollup.stored_samples,
      static_cast<unsigned long long>(rollup.bytes_raw),
      static_cast<unsigned long long>(rollup.bytes_stored),
      static_cast<unsigned long long>(q.queries),
      static_cast<unsigned long long>(q.cache.hits),
      static_cast<unsigned long long>(q.cache.misses),
      static_cast<unsigned long long>(wire.frames),
      static_cast<unsigned long long>(wire.ingest_frames),
      static_cast<unsigned long long>(wire.query_frames),
      static_cast<unsigned long long>(wire.protocol_errors),
      static_cast<unsigned long long>(wire.samples_ingested),
      static_cast<unsigned long long>(wire.connections_accepted));
  return text_frame(json, config_.max_frame_bytes, "stats JSON");
}

std::vector<std::uint8_t> NyqmondServer::handle_checkpoint() {
  sto::FlushStats flush;
  CheckpointReply reply;
  reply.persisted = persist(flush);
  reply.chunks = flush.chunks;
  reply.bytes_written = flush.bytes_written;
  return ok_frame(encode_checkpoint_reply(reply));
}

std::vector<std::uint8_t> NyqmondServer::handle_handoff(
    sto::ByteReader& reader) {
  const auto direction = static_cast<HandoffDirection>(reader.get_u8());
  if (!reader.ok()) return error_frame("malformed HANDOFF payload");

  if (direction == HandoffDirection::kExport) {
    const std::string selector = reader.get_string();
    if (!reader.ok() || reader.remaining() != 0 || selector.empty())
      return error_frame("malformed HANDOFF payload");
    std::vector<std::string> names;
    for (auto& [name, meta] : qry::match_selector(store_, selector))
      names.push_back(std::move(name));
    // Non-destructive: the exporter keeps serving its copy until the
    // operator retires it; mid-handoff duplicates are deduped at query
    // merge time (query/merge.h). One snapshot acquisition covers every
    // matched stream — the segment encoding below runs lock-free against
    // the epoch-stamped view instead of re-locking per stream.
    const mon::ReadSnapshot snap = store_.acquire_snapshot(names);
    sto::SegmentWriter writer;
    for (const std::string& name : names)
      writer.add_stream(snap.export_stream(name));
    HandoffExportReply reply;
    reply.streams = static_cast<std::uint32_t>(writer.stats().streams);
    reply.samples = writer.stats().samples;
    if (4 + 8 + writer.bytes().size() + 1 >= config_.max_frame_bytes)
      return error_frame(
          "handoff export exceeds the frame cap; narrow the selector");
    reply.segment = writer.bytes();
    return ok_frame(encode_handoff_export_reply(reply));
  }

  if (direction == HandoffDirection::kImport) {
    const auto segment = reader.get_bytes(reader.remaining());
    std::map<std::string, mon::StreamSnapshot> streams;
    sto::read_segment_bytes(segment, streams);  // throws -> ERR via dispatch
    // Refuse before restoring anything: an import must not silently merge
    // into streams this node already owns (that would double-count on a
    // repeated handoff), nor carry a stream restore_stream would refuse
    // (empty, non-finite or out-of-order chunks). The detail block names
    // every conflict.
    std::vector<ErrorDetail> conflicts;
    for (const auto& [name, snap] : streams) {
      if (store_.find_meta(name).has_value())
        conflicts.push_back({name, "stream already exists"});
      else if (std::string defect = mon::restore_defect(snap); !defect.empty())
        conflicts.push_back({name, std::move(defect)});
    }
    if (!conflicts.empty())
      return error_frame_with_detail("handoff import refused", conflicts);
    HandoffImportReply reply;
    for (auto& [name, snap] : streams) {
      for (const auto& chunk : snap.chunks) reply.samples += chunk.values.size();
      reply.samples += snap.hot.size();
      store_.restore_stream(std::move(snap));
      ++reply.streams;
    }
    // restore_stream bypasses the ingest sink (it is the recovery path and
    // must not re-log), so durability comes from checkpointing through the
    // manifest's atomic commit before OK is answered: after this, a crash
    // recovers the imported streams. Quiesced like CHECKPOINT — other
    // reactors' INGEST must not race the flush.
    sto::FlushStats flush;
    reply.persisted = persist(flush);
    return ok_frame(encode_handoff_import_reply(reply));
  }

  return error_frame("unknown HANDOFF direction");
}

ServerStats NyqmondServer::stats() const {
  ServerStats s = transport_.stats();
  s.samples_ingested = samples_ingested_.load();
  return s;
}

}  // namespace nyqmon::srv
