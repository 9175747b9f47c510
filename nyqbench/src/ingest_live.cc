// ingest-live: nyqmond over a durable StorageManager (WAL fsync every 64
// batches, the default; inline compaction once 8 segments accumulate, the
// default) under three concurrent open loops:
//
//   * 2 INGEST connections, each request the next 64 samples of one of
//     512 streams (request i writes stream i % 512);
//   * 1 connection of recent-window queries (the last 64 s a stream has
//     been acked for) beside the writes;
//   * 1 connection sending 1.5 CHECKPOINT/s, so segments accumulate and
//     compaction runs several times a run.
//
// Nearly all its work is server/storage/monitor append-and-seal. It uses
// query differently from query-history: short histories, hot tails, and a
// cache that ingest keeps invalidating. At the end the server stops
// gracefully, a fresh store recovers from disk, and every stream must hold
// exactly the samples acked for it.
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "query/builder.h"
#include "reconstruct/error.h"
#include "server/server.h"
#include "serving.h"
#include "storage/manager.h"
#include "workloads.h"

namespace nyqbench {

namespace {

namespace fs = std::filesystem;
namespace mon = nyqmon::mon;
namespace qry = nyqmon::qry;
namespace srv = nyqmon::srv;
namespace sto = nyqmon::sto;

constexpr std::size_t kStreams = 512;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kIngestConns = 2;
constexpr double kNominalIngestRps = 4000.0;  // 256,000 samples/s
constexpr double kQueryRps = 200.0;
constexpr double kCheckpointRps = 1.5;
constexpr double kIngestLimitMs = 20.0;
constexpr double kQueryLimitMs = 100.0;
constexpr double kBacklogSlackMs = 5.0;
constexpr int kSetupRepeats = 9;
constexpr std::size_t kCheckedStreams = 128;
// Quality is judged on each checked stream's first 1024 samples, which the
// nominal phase always delivers, so it does not depend on how far the rate
// search got.
constexpr std::size_t kCheckedSamples = 1024;

const std::vector<std::string> kCounters = {
    "nyqmon_wal_records_total", "nyqmon_storage_compactions_total",
    "nyqmon_store_generation_bumps_total", "nyqmon_store_appends_total",
    "nyqmon_store_lock_acquisitions_total",
    "nyqmon_store_lock_contended_total"};
const std::vector<std::string> kHists = {
    "nyqmon_server_ingest_latency_ns", "nyqmon_server_query_latency_ns",
    "nyqmon_wal_fsync_ns",             "nyqmon_storage_flush_ns",
    "nyqmon_storage_compact_ns",       "nyqmon_reactor_quiesce_wait_ns",
    "nyqmon_store_lock_wait_ns"};

srv::ClientOptions client_options() {
  return srv::ClientOptions{2000, 5000, srv::kMaxFrameBytes};
}

/// One durable server set-up in its own directory.
struct Durable {
  std::string dir;
  std::unique_ptr<sto::StorageManager> storage;
  std::unique_ptr<mon::StripedRetentionStore> store;
  std::unique_ptr<srv::NyqmondServer> server;

  explicit Durable(std::string d) : dir(std::move(d)) {
    sto::StorageConfig sc;
    sc.dir = dir;
    sc.truncate_existing = true;
    storage = std::make_unique<sto::StorageManager>(sc);
    store = std::make_unique<mon::StripedRetentionStore>(
        serving_store_config(), 16);
    storage->record_geometry(store->config());
    store->set_ingest_sink(storage.get());
    srv::ServerConfig cfg;
    cfg.reactors = 2;
    cfg.query.workers = 2;
    cfg.node_name = "nyqmond";
    server = std::make_unique<srv::NyqmondServer>(*store, storage.get(), cfg);
    place_on_server_cpus();
    server->start();
    place_anywhere();
  }
  ~Durable() {
    if (server) server->stop();
    server.reset();
    store.reset();
    storage.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// The load: per-connection clients and the per-stream acked totals.
class IngestLoad {
 public:
  IngestLoad(const Population& pop, std::uint16_t port)
      : pop_(pop), port_(port) {
    for (auto& a : acked_) a.store(0);
  }

  void connect_all() {
    for (auto& c : ingest_)
      c = std::make_unique<srv::NyqmonClient>("127.0.0.1", port_,
                                              client_options());
    checkpoint_ = std::make_unique<srv::NyqmonClient>("127.0.0.1", port_,
                                                      client_options());
  }

  /// INGEST the next 64 samples of stream index % 512. Each stream is
  /// written by one connection only (512 is even), so its acked count is
  /// the offset of its next batch, and a failed batch is resent next time.
  bool ingest(std::size_t conn, std::uint64_t index) {
    const std::size_t stream = index % kStreams;
    const std::uint64_t before = acked_[stream].load(std::memory_order_relaxed);
    const std::vector<double> values = pop_.series(stream, before, kBatch);
    try {
      if (!ingest_[conn])
        ingest_[conn] = std::make_unique<srv::NyqmonClient>(
            "127.0.0.1", port_, client_options());
      std::uint64_t total = 0;
      {
        Span span("server.ingest");
        total = ingest_[conn]->ingest(pop_.name(stream), 1.0, 0.0, values);
      }
      acked_[stream].store(total, std::memory_order_relaxed);
      return total == before + kBatch;
    } catch (const srv::ServerError&) {
      return false;
    } catch (const std::exception&) {
      ingest_[conn].reset();
      return false;
    }
  }

  bool checkpoint(std::size_t, std::uint64_t) {
    try {
      if (!checkpoint_)
        checkpoint_ = std::make_unique<srv::NyqmonClient>("127.0.0.1", port_,
                                                          client_options());
      srv::CheckpointReply reply;
      {
        Span span("server.checkpoint");
        reply = checkpoint_->checkpoint();
      }
      return reply.persisted;
    } catch (const srv::ServerError&) {
      return false;
    } catch (const std::exception&) {
      checkpoint_.reset();
      return false;
    }
  }

  /// The recent-window query of request `index`: the last 64 s acked for
  /// a seeded stream.
  qry::QuerySpec recent(std::uint64_t index) const {
    const std::size_t stream = mix64(pop_.seed * 7 + index) % kStreams;
    const double end = std::max<double>(
        64.0,
        static_cast<double>(acked_[stream].load(std::memory_order_relaxed)));
    return qry::QueryBuilder().select(pop_.name(stream)).range(end - 64.0, end)
        .align(1.0).build();
  }

  std::uint64_t acked(std::size_t stream) const {
    return acked_[stream].load(std::memory_order_relaxed);
  }

  void disconnect() {
    for (auto& c : ingest_) c.reset();
    checkpoint_.reset();
  }

 private:
  const Population& pop_;
  std::uint16_t port_;
  std::unique_ptr<srv::NyqmonClient> ingest_[kIngestConns];
  std::unique_ptr<srv::NyqmonClient> checkpoint_;
  std::atomic<std::uint64_t> acked_[kStreams];
};

/// The three loops of one phase, run side by side.
struct MixedPhase {
  PhaseResult ingest;
  PhaseResult query;
  PhaseResult checkpoint;
};

}  // namespace

void run_ingest_live(const Options& opt, Report& rep) {
  const Population pop{opt.seed, kStreams / 8, 8};
  const std::string base = opt.out_dir + "/ingest-live-seed" +
                           std::to_string(opt.seed);

  Samples setup_s;
  std::unique_ptr<Durable> node;
  std::unique_ptr<IngestLoad> load;
  std::unique_ptr<QueryLoad> queries;
  for (int r = 0; r < kSetupRepeats; ++r) {
    queries.reset();
    load.reset();
    node.reset();
    const double t0 = now_s();
    node = std::make_unique<Durable>(base + "-" + std::to_string(r));
    load = std::make_unique<IngestLoad>(pop, node->server->port());
    load->connect_all();
    // Register every stream: its first batch, sent back to back.
    for (std::size_t s = 0; s < kStreams; ++s)
      rep.check(load->ingest(s % kIngestConns, s),
                "ingest-live: a set-up INGEST failed");
    IngestLoad* l = load.get();
    queries = std::make_unique<QueryLoad>(
        node->server->port(), 1, [l](std::uint64_t i) { return l->recent(i); },
        [](std::uint64_t) { return static_cast<int>(kPoint); }, 8,
        "server.query");
    queries->connect_all();
    setup_s.add(now_s() - t0);
  }

  std::uint64_t ingest_index = 0, query_index = 0, checkpoint_index = 0;
  const ClassFn zero = [](std::uint64_t) { return 0; };
  const IssueFn ingest_fn = [&](std::size_t c, std::uint64_t i) {
    return load->ingest(c, i);
  };
  const IssueFn query_fn = [&](std::size_t c, std::uint64_t i) {
    return queries->issue(c, i);
  };
  const IssueFn checkpoint_fn = [&](std::size_t c, std::uint64_t i) {
    return load->checkpoint(c, i);
  };
  auto mixed = [&](double ingest_rps, double seconds, double grace_s) {
    MixedPhase m;
    std::thread q([&] {
      m.query =
          run_open_loop(kQueryRps, seconds, 1, query_index, query_fn, zero);
    });
    std::thread c([&] {
      m.checkpoint = run_open_loop(kCheckpointRps, seconds, 1, checkpoint_index,
                                   checkpoint_fn, zero, 2.0);
    });
    m.ingest = run_open_loop(ingest_rps, seconds, kIngestConns, ingest_index,
                             ingest_fn, zero, grace_s);
    q.join();
    c.join();
    ingest_index += m.ingest.attempted + m.ingest.unsent;
    query_index += m.query.attempted + m.query.unsent;
    checkpoint_index += m.checkpoint.attempted + m.checkpoint.unsent;
    for (const PhaseResult* p : {&m.ingest, &m.query, &m.checkpoint}) {
      rep.attempted += p->attempted;
      rep.failed += p->failed;
    }
    return m;
  };
  auto passes = [](const MixedPhase& m) {
    return m.ingest.failed + m.ingest.unsent + m.query.failed == 0 &&
           !m.ingest.backlog_growing(kBacklogSlackMs) &&
           m.ingest.latencies().quantile(0.99) <= kIngestLimitMs &&
           m.query.latencies().quantile(0.99) <= kQueryLimitMs;
  };

  MixedPhase nominal;
  double max_rps = 0.0;
  double saturation = 0.0;
  double cpu_ms = 0.0;  // process CPU over the nominal phase
  std::size_t probes = 0;
  mon::StoreRollup roll;  // after the nominal phase: the same data every run
  if (!opt.trace) {
    const double cpu0 = process_cpu_s();
    nominal = mixed(kNominalIngestRps, 0.4 * opt.seconds, 0.25);
    cpu_ms = (process_cpu_s() - cpu0) * 1e3;
    roll = node->store->rollup();
    rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB", 1,
                              "set-up and the nominal phase"};
    rep.check(nominal.ingest.unsent == 0,
              "ingest-live: the nominal ingest rate left requests unsent");
    // Capacity: the 2 INGEST connections sending back to back (queries
    // and checkpoints at their nominal rates beside them).
    const double sat_s = 0.2 * opt.seconds;
    saturation = static_cast<double>(mixed(1e9, sat_s, 0.0).ingest.attempted) /
                 sat_s;
    // The open-loop search on the ingest rate.
    const RateSearch search = search_max_rate(
        saturation, opt.seconds / 20.0, 0.4 * opt.seconds,
        [&](double rate, double seconds) {
          return passes(mixed(rate, seconds, 0.25));
        });
    max_rps = search.max_rate;
    probes = search.probes;
  } else {
    const MixedPhase plain = mixed(kNominalIngestRps, opt.seconds / 2.0, 0.25);
    queries->reset_tallies();
    queries->set_explain(true);
    Tracer::instance().arm(true);
    const ObsMark before = ObsMark::take(kCounters, kHists);
    const sto::StorageStats st0 = node->storage->stats();
    nominal = mixed(kNominalIngestRps, opt.seconds / 2.0, 0.25);
    const ObsMark after = ObsMark::take(kCounters, kHists);
    const sto::StorageStats st1 = node->storage->stats();
    Tracer::instance().arm(false);

    auto& L = rep.layer;
    const auto spans = Tracer::instance().collect();
    const double reqs = static_cast<double>(
        std::max<std::size_t>(nominal.ingest.attempted, 1));
    const Samples rtt = span_durations(spans, "server.ingest");
    L["client.ingest_rtt_ms"] = {rtt.median(), "ms", rtt.size(), "p50"};
    auto hist_ms = [&](const char* name, const char* key, double q) {
      const auto h = after.hist_delta(before, name);
      L[key] = {h.quantile(q) / 1e6, "ms", h.count, "obs histogram delta"};
    };
    hist_ms("nyqmon_server_ingest_latency_ns",
            "server.ingest_dispatch_p50_ms", 0.5);
    hist_ms("nyqmon_server_ingest_latency_ns",
            "server.ingest_dispatch_p99_ms", 0.99);
    hist_ms("nyqmon_wal_fsync_ns", "storage.wal_fsync_p50_ms", 0.5);
    hist_ms("nyqmon_wal_fsync_ns", "storage.wal_fsync_p99_ms", 0.99);
    auto hist_mean_ms = [&](const char* name, const char* key) {
      const auto h = after.hist_delta(before, name);
      L[key] = {h.mean() / 1e6, "ms", h.count, "mean"};
    };
    hist_mean_ms("nyqmon_storage_flush_ns", "storage.flush_ms");
    hist_mean_ms("nyqmon_storage_compact_ns", "storage.compact_ms");
    hist_mean_ms("nyqmon_reactor_quiesce_wait_ns", "server.quiesce_wait_ms");
    const auto fsync = after.hist_delta(before, "nyqmon_wal_fsync_ns");
    L["storage.wal_fsyncs"] = {static_cast<double>(fsync.count), "count",
                               fsync.count, "traced phase"};
    auto count = [&](const char* name, const char* key) {
      const double v = static_cast<double>(after.counter_delta(before, name));
      L[key] = {v, "count", static_cast<std::size_t>(v), "traced phase"};
    };
    count("nyqmon_wal_records_total", "storage.wal_records");
    count("nyqmon_storage_compactions_total", "storage.compactions");
    count("nyqmon_store_generation_bumps_total", "monitor.generation_bumps");
    L["monitor.store_appends"] = {
        static_cast<double>(
            after.counter_delta(before, "nyqmon_store_appends_total")) /
            reqs,
        "count", nominal.ingest.attempted, "per ingest request"};
    L["monitor.store_lock_wait_ms"] = {
        static_cast<double>(
            after.hist_delta(before, "nyqmon_store_lock_wait_ns").sum) /
            1e6 / reqs,
        "ms", nominal.ingest.attempted, "per ingest request"};
    const double acq = static_cast<double>(
        after.counter_delta(before, "nyqmon_store_lock_acquisitions_total"));
    L["monitor.store_lock_contended_ratio"] = {
        acq == 0.0 ? 0.0
                   : static_cast<double>(after.counter_delta(
                         before, "nyqmon_store_lock_contended_total")) / acq,
        "ratio", static_cast<std::size_t>(acq), ""};
    const double flushed_samples =
        static_cast<double>(st1.bytes_raw_flushed - st0.bytes_raw_flushed) /
        8.0;
    const double samples_flushed_total =
        static_cast<double>(st1.bytes_raw_flushed) / 8.0;
    L["storage.segment_bytes_per_sample"] = {
        st1.bytes_raw_flushed == 0
            ? 0.0
            : static_cast<double>(st1.segment_bytes) / samples_flushed_total,
        "B", static_cast<std::size_t>(flushed_samples), "live segments"};
    const Samples lags = nominal.ingest.lags();
    L["generator.lag_p99_ms"] = {lags.quantile(0.99), "ms", lags.size(), ""};
    const Samples qrtt = span_durations(spans, "server.query");
    L["client.query_rtt_ms"] = {qrtt.median(), "ms", qrtt.size(), "p50"};
    const auto qd = after.hist_delta(before, "nyqmon_server_query_latency_ns");
    L["server.query_dispatch_p50_ms"] = {qd.quantile(0.5) / 1e6, "ms",
                                         qd.count, ""};
    L["server.query_dispatch_p99_ms"] = {qd.quantile(0.99) / 1e6, "ms",
                                         qd.count, ""};
    L["server.unattributed_ms"] = {qrtt.mean() - qd.mean() / 1e6, "ms",
                                   qrtt.size(),
                                   "mean round trip - mean dispatch"};
    report_query_layers(queries->tally(), static_cast<double>(kStreams), rep);
    L["trace.overhead_ratio"] = {
        nominal.ingest.latencies().median() / plain.ingest.latencies().median(),
        "ratio", nominal.ingest.attempted,
        "traced / untraced ingest p50 at the nominal rate"};

    // WAL bytes per sample: a checkpoint swaps in an empty WAL, then a
    // closed burst of ingest fills it.
    load->checkpoint(0, 0);
    const std::uint64_t wal0 = node->storage->stats().wal_bytes;
    const std::uint64_t samples0 = node->server->stats().samples_ingested;
    for (std::size_t i = 0; i < kStreams; ++i)
      load->ingest(0, ingest_index + 2 * i);
    ingest_index += 2 * kStreams;
    const double wal_samples = static_cast<double>(
        node->server->stats().samples_ingested - samples0);
    L["storage.wal_bytes_per_sample"] = {
        static_cast<double>(node->storage->stats().wal_bytes - wal0) /
            std::max(wal_samples, 1.0),
        "B", static_cast<std::size_t>(wal_samples),
        "fresh WAL after a checkpoint"};
  }

  // Stop the load; keep the answers served just before shutdown.
  std::vector<qry::QuerySpec> specs;
  std::vector<srv::QueryReply> before_stop;
  {
    srv::NyqmonClient c("127.0.0.1", node->server->port(), client_options());
    for (std::size_t k = 0; k < kCheckedStreams; ++k) {
      const std::size_t stream = mix64(opt.seed * 13 + k) % kStreams;
      const double end = static_cast<double>(load->acked(stream));
      if (end < 2.0) continue;
      specs.push_back(qry::QueryBuilder().select(pop.name(stream))
                          .range(0.0, end).align(1.0).build());
      before_stop.push_back(c.query(specs.back()));
    }
  }
  rep.check(queries->tally().bad_counts == 0,
            "a reply reported reconstructed > matched");
  load->disconnect();
  queries.reset();
  std::uint64_t acked_total = 0;
  for (std::size_t s = 0; s < kStreams; ++s) acked_total += load->acked(s);
  if (opt.trace)
    report_store_probe(*node->store, static_cast<std::size_t>(load->acked(0)),
                       opt.seed, rep);

  // Graceful stop (final checkpoint), then what is on disk.
  node->server->stop();
  auto dir_bytes = [&] {
    std::uint64_t bytes = 0;
    for (const auto& e : fs::directory_iterator(node->dir))
      if (e.is_regular_file()) bytes += e.file_size();
    return bytes;
  };
  const std::uint64_t disk_bytes = dir_bytes();

  // Recover into a fresh store and check it against what was acked.
  sto::StorageConfig rc;
  rc.dir = node->dir;
  sto::StorageManager recovered_storage(rc);
  mon::StoreConfig cfg = serving_store_config();
  if (const auto g = recovered_storage.manifest_geometry()) g->apply(cfg);
  mon::StripedRetentionStore recovered(cfg, 16);
  const double r0 = now_s();
  sto::RecoveryStats rs;
  Tracer::instance().arm(opt.trace);
  {
    Span span("storage.recover");
    rs = recovered_storage.recover(recovered);
  }
  Tracer::instance().arm(false);
  const double recover_s = now_s() - r0;
  std::size_t count_mismatch = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const auto meta = recovered.find_meta(pop.name(s));
    const std::uint64_t have = meta ? meta->ingested_samples : 0;
    if (have != load->acked(s)) ++count_mismatch;
  }
  rep.check(count_mismatch == 0,
            std::to_string(count_mismatch) +
                " streams recovered a sample count other than the acked one");
  qry::QueryEngineConfig qc;
  qc.cache_enabled = false;
  qc.workers = 2;
  qry::QueryEngine engine(recovered, qc);
  std::size_t answer_mismatch = 0;
  Samples nrmse;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const qry::QueryResponse r = engine.run(specs[k]);
    if (!same_series(r.result->series, before_stop[k].series))
      ++answer_mismatch;
    if (r.result->series.size() == 1 &&
        r.result->series[0].series.size() >= kCheckedSamples) {
      const auto& got = r.result->series[0].series.values();
      unsigned dev = 0, metric = 0;
      std::sscanf(specs[k].selector.c_str(), "dev%u/metric%u", &dev, &metric);
      const std::vector<double> truth =
          pop.series(dev * pop.metrics + metric, 0, kCheckedSamples);
      const double e = nyqmon::rec::nrmse(
          truth, std::span<const double>(got.data(), kCheckedSamples));
      if (std::isfinite(e)) nrmse.add(e);
    }
  }
  rep.check(!specs.empty(), "ingest-live: no answers to compare");
  rep.check(answer_mismatch == 0,
            std::to_string(answer_mismatch) +
                " answers after recovery differ from the pre-shutdown answers");
  rep.notes.push_back(
      "flush policy: WAL fsync every 64 batches, 1.5 CHECKPOINT/s, inline "
      "compaction past 8 segments");
  // Steady-state footprint: fold the segments the last checkpoints left.
  recovered_storage.compact();
  const std::uint64_t compacted_bytes = dir_bytes();

  if (opt.trace) {
    auto& L = rep.layer;
    L["storage.recover_wal_records"] = {
        static_cast<double>(rs.wal_records_replayed), "count",
        rs.wal_records_replayed, ""};
    L["storage.recover_bytes"] = {static_cast<double>(disk_bytes), "B", 1,
                                  "on-disk layout read by recover()"};
    L["storage.recover_s"] = {recover_s, "s", 1, ""};
    const Samples ck = nominal.checkpoint.latencies();
    L["server.checkpoint_p50_ms"] = {ck.median(), "ms", ck.size(), ""};
    return;
  }

  const Samples ing = nominal.ingest.latencies();
  std::string label;
  const double tail = ing.tail(&label);
  auto& E = rep.e2e;
  E["setup_s"] = {setup_s.median(), "s", setup_s.size(),
                  "durable store + nyqmond start + connect + register streams"};
  E["cpu_ms_per_op"] = {
      cpu_ms / static_cast<double>(
                   std::max<std::size_t>(nominal.ingest.attempted, 1)),
      "ms", nominal.ingest.attempted,
      "process CPU (server and load) per INGEST at the nominal rate"};
  rep.detail["saturation_ingest_sps"] = {
      saturation * static_cast<double>(kBatch), "1/s", 1,
      "2 INGEST connections back to back"};
  E["p50_ms"] = {ing.median(), "ms", ing.size(),
                 "ingest, from due time, at 256k samples/s"};
  E["nrmse_p50"] = {nrmse.median(), "ratio", nrmse.size(),
                    "recovered answers vs the raw data, first 1024 samples"};
  E["collection_savings"] = {roll.sealed_reduction(), "ratio",
                             roll.sealed_ingested_samples,
                             "sealed samples ingested / stored"};
  E["stored_bytes_per_sample"] = {
      static_cast<double>(compacted_bytes) / static_cast<double>(acked_total),
      "B", acked_total, "on-disk bytes per acked sample, compacted"};
  rep.detail["stored_bytes_per_sample_at_stop"] = {
      static_cast<double>(disk_bytes) / static_cast<double>(acked_total), "B",
      acked_total, "before compaction"};
  const Samples q = nominal.query.latencies();
  const Samples ck = nominal.checkpoint.latencies();
  rep.detail["ingest_tail_ms"] = {tail, "ms", ing.size(),
                                  label + ", from due time, at 256k samples/s"};
  rep.detail["query_p50_ms"] = {q.median(), "ms", q.size(), "beside writes"};
  rep.detail["query_tail_ms"] = {q.tail(&label), "ms", q.size(), label};
  rep.detail["checkpoint_p50_ms"] = {ck.median(), "ms", ck.size(), ""};
  rep.detail["recover_s"] = {recover_s, "s", 1, ""};
  rep.detail["max_ingest_sps"] = {
      max_rps * static_cast<double>(kBatch), "1/s", probes,
      "open loop: ingest p99 <= 20 ms, query p99 <= 100 ms, no backlog"};
  rep.detail["error_ratio"] = {
      static_cast<double>(rep.failed) /
          static_cast<double>(std::max<std::uint64_t>(rep.attempted, 1)),
      "ratio", rep.attempted, ""};
}

}  // namespace nyqbench
