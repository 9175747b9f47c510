// query-history and fanout-query: one population, one query mix, two
// serving topologies.
//
// query-history: nyqmond (2 reactors, 2 query workers) over a store
// preloaded with 1024 streams of 8192 s history each, 128x the 64 s range a
// point query asks for. Nearly all its work is query/monitor
// reconstruction over long sealed history: the read cost that should grow
// with the range asked for, and today grows with history.
//
// fanout-query: the same population and mix through NyqmonRouter over 3
// in-process backends (1 reactor each), each preloaded directly with the
// streams HashRing::owner places on it. Set against query-history it
// isolates the cost of the scatter-gather.
//
// The load runs over 3 connections: open loop at a fixed nominal rate for
// the latency figures, back to back for the saturation throughput, then an
// open-loop search for the highest rate that keeps the p99 within the
// limit with no growing backlog.
#include <algorithm>
#include <cmath>
#include <memory>

#include "cluster/hash.h"
#include "cluster/router.h"
#include "server/server.h"
#include "serving.h"
#include "workloads.h"

namespace nyqbench {

namespace {

namespace mon = nyqmon::mon;
namespace srv = nyqmon::srv;
namespace clu = nyqmon::clu;

constexpr std::size_t kHistory = 8192;
constexpr std::size_t kConns = 3;
constexpr std::size_t kBackends = 3;
// Nominal rates: a fifth to a seventh of what each topology sustains on a
// 4-core host (the router path saturates at about a third of the single
// node's rate), so the latency figures describe servers that are not
// queueing.
constexpr double kNominalQps = 900.0;
constexpr double kFanoutNominalQps = 450.0;
constexpr double kQueryLimitMs = 100.0;
constexpr double kBacklogSlackMs = 20.0;
constexpr int kSetupRepeats = 9;
constexpr std::uint64_t kKeepEvery = 16;

const std::vector<std::string> kCounters = {};
const std::vector<std::string> kHists = {"nyqmon_server_query_latency_ns",
                                         "nyqmon_router_fanout_latency_ns"};

/// One served set-up: the stores, the nyqmond servers over them, and (for
/// fanout-query) the router in front.
struct Served {
  std::vector<std::unique_ptr<mon::StripedRetentionStore>> stores;
  std::vector<std::unique_ptr<srv::NyqmondServer>> servers;
  std::unique_ptr<clu::NyqmonRouter> router;

  std::uint16_t port() const {
    return router ? router->port() : servers.front()->port();
  }
  ~Served() {
    if (router) router->stop();
    for (auto& s : servers) s->stop();
  }
};

std::unique_ptr<Served> set_up(const Population& pop,
                               const std::vector<std::vector<double>>& raw,
                               bool fanout) {
  auto s = std::make_unique<Served>();
  const std::size_t nodes = fanout ? kBackends : 1;
  std::vector<clu::NodeDesc> descs;
  for (std::size_t b = 0; b < nodes; ++b)
    descs.push_back({"node" + std::to_string(b), "127.0.0.1", 0});
  // Placement depends only on node ids, so the ring can place streams
  // before the backends have ports.
  const clu::HashRing ring(descs);
  {
    Span span("monitor.preload");
    for (std::size_t b = 0; b < nodes; ++b) {
      s->stores.push_back(std::make_unique<mon::StripedRetentionStore>(
          serving_store_config(), 16));
      preload(*s->stores.back(), pop, raw, [&](std::size_t stream) {
        return !fanout || ring.owner(pop.name(stream)) == b;
      });
    }
  }
  // The single node's 2 reactors fit beside the load generator's CPU; the
  // router and its 3 backends (4 event loops and their query workers) do
  // not, so they keep every CPU.
  if (!fanout) place_on_server_cpus();
  for (std::size_t b = 0; b < nodes; ++b) {
    srv::ServerConfig sc;
    sc.reactors = fanout ? 1 : 2;
    sc.query.workers = 2;
    sc.node_name = descs[b].id;
    s->servers.push_back(
        std::make_unique<srv::NyqmondServer>(*s->stores[b], nullptr, sc));
    s->servers.back()->start();
    descs[b].port = s->servers.back()->port();
  }
  if (fanout) {
    clu::RouterConfig rc;
    rc.cluster.nodes = descs;
    s->router = std::make_unique<clu::NyqmonRouter>(rc);
    s->router->start();
  }
  place_anywhere();
  return s;
}

void run_query_workload(const Options& opt, Report& rep, bool fanout) {
  const Population pop{opt.seed};
  const QueryMix mix{&pop, kHistory};
  const auto raw = generate(pop, kHistory);

  Samples setup_s;
  std::unique_ptr<Served> served;
  std::unique_ptr<QueryLoad> queries;
  Tracer::instance().arm(opt.trace);
  for (int r = 0; r < kSetupRepeats; ++r) {
    queries.reset();
    served.reset();
    const double t0 = now_s();
    served = set_up(pop, raw, fanout);
    queries = std::make_unique<QueryLoad>(
        served->port(), kConns, [&](std::uint64_t i) { return mix.spec(i); },
        [&](std::uint64_t i) { return mix.cls(i); }, kKeepEvery,
        fanout ? "cluster.query" : "server.query");
    queries->connect_all();
    setup_s.add(now_s() - t0);
  }
  Tracer::instance().arm(false);

  const IssueFn issue = [&](std::size_t c, std::uint64_t i) {
    return queries->issue(c, i);
  };
  const ClassFn cls = [&](std::uint64_t i) { return mix.cls(i); };
  const double nominal_qps = fanout ? kFanoutNominalQps : kNominalQps;
  const std::string at_nominal =
      ", from due time, at " + std::to_string(static_cast<int>(nominal_qps)) +
      " qps";
  std::uint64_t index = 0;
  auto phase = [&](double seconds) {
    PhaseResult r =
        run_open_loop(nominal_qps, seconds, kConns, index, issue, cls);
    index += static_cast<std::uint64_t>(nominal_qps * seconds) + 1;
    // At the nominal rate a request never sent counts as failed; in the
    // rate search below, unsent requests only mark a probe as failing.
    rep.attempted += r.attempted + r.unsent;
    rep.failed += r.failed + r.unsent;
    return r;
  };

  std::vector<KeptAnswer> kept;
  if (!opt.trace) {
    const double cpu0 = process_cpu_s();
    const PhaseResult nominal = phase(0.4 * opt.seconds);
    const double cpu_ms = (process_cpu_s() - cpu0) * 1e3;
    rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB", 1,
                              "set-up and the nominal phase"};
    // Capacity: the 3 connections sending back to back.
    const double sat_s = 0.2 * opt.seconds;
    const PhaseResult closed =
        run_open_loop(1e9, sat_s, kConns, index, issue, cls, 0.0);
    index += static_cast<std::uint64_t>(1e9 * sat_s) + 1;
    rep.attempted += closed.attempted;
    rep.failed += closed.failed;
    const double saturation = static_cast<double>(closed.attempted) / sat_s;
    const RateSearch search = search_max_rate(
        saturation, opt.seconds / 20.0, 0.4 * opt.seconds,
        [&](double rate, double seconds) {
          const PhaseResult r =
              run_open_loop(rate, seconds, kConns, index, issue, cls);
          index += static_cast<std::uint64_t>(rate * seconds) + 1;
          rep.attempted += r.attempted;
          rep.failed += r.failed;
          return r.failed + r.unsent == 0 &&
                 !r.backlog_growing(kBacklogSlackMs) &&
                 r.latencies().quantile(0.99) <= kQueryLimitMs;
        });

    const Samples lat = nominal.latencies();
    std::string label;
    const double tail = lat.tail(&label);
    kept = queries->kept();
    const Samples nrmse = answer_nrmse(kept, pop);
    mon::StoreRollup roll;
    for (const auto& s : served->stores) {
      const mon::StoreRollup r = s->rollup();
      roll.ingested_samples += r.ingested_samples;
      roll.sealed_ingested_samples += r.sealed_ingested_samples;
      roll.stored_samples += r.stored_samples;
      roll.bytes_stored += r.bytes_stored;
    }
    auto& E = rep.e2e;
    E["setup_s"] = {setup_s.median(), "s", setup_s.size(),
                    fanout ? "preload 3 backends + start them + router"
                           : "preload + start nyqmond + connect"};
    E["cpu_ms_per_op"] = {
        cpu_ms / static_cast<double>(
                     std::max<std::size_t>(nominal.attempted, 1)),
        "ms", nominal.attempted,
        "process CPU (server and load) per query at the nominal rate"};
    rep.detail["saturation_qps"] = {saturation, "1/s", closed.attempted,
                                    "3 connections back to back"};
    E["p50_ms"] = {lat.median(), "ms", lat.size(), "query" + at_nominal};
    E["nrmse_p50"] = {nrmse.median(), "ratio", nrmse.size(),
                      "point answers vs the raw data written"};
    E["collection_savings"] = {roll.sealed_reduction(), "ratio",
                               roll.sealed_ingested_samples,
                               "sealed samples ingested / stored"};
    E["stored_bytes_per_sample"] = {
        static_cast<double>(roll.bytes_stored) /
            static_cast<double>(roll.ingested_samples),
        "B", roll.ingested_samples, "store bytes per ingested sample"};
    rep.detail["max_qps"] = {search.max_rate, "1/s", search.probes,
                             "open loop: query p99 <= 100 ms, no backlog"};
    rep.detail["query_tail_ms"] = {tail, "ms", lat.size(), label + at_nominal};
    for (int c = 0; c < 3; ++c) {
      const Samples cl = nominal.latencies(c);
      rep.detail[std::string("query_p50_ms.") + class_name(c)] = {
          cl.median(), "ms", cl.size(), ""};
    }
    const Samples lags = nominal.lags();
    rep.detail["generator.lag_p50_ms"] = {lags.median(), "ms", lags.size(), ""};
    rep.detail["generator.lag_p99_ms"] = {lags.quantile(0.99), "ms",
                                          lags.size(), ""};
    rep.detail["error_ratio"] = {
        static_cast<double>(rep.failed) /
            static_cast<double>(std::max<std::uint64_t>(rep.attempted, 1)),
        "ratio", rep.attempted, ""};
  } else {
    const PhaseResult plain = phase(opt.seconds / 2.0);
    queries->reset_tallies();
    queries->set_explain(true);
    const clu::RouterStats rs0 =
        served->router ? served->router->stats() : clu::RouterStats{};
    Tracer::instance().arm(true);
    const ObsMark before = ObsMark::take(kCounters, kHists);
    const PhaseResult traced = phase(opt.seconds / 2.0);
    const ObsMark after = ObsMark::take(kCounters, kHists);
    report_store_probe(*served->stores.front(), kHistory, opt.seed, rep);
    Tracer::instance().arm(false);
    const clu::RouterStats rs1 =
        served->router ? served->router->stats() : clu::RouterStats{};
    kept = queries->kept();

    const QueryTally t = queries->tally();
    report_query_layers(t, static_cast<double>(pop.streams()), rep);
    const auto spans = Tracer::instance().collect();
    auto& L = rep.layer;
    const Samples preload_ms = span_durations(spans, "monitor.preload");
    L["monitor.preload_ms"] = {preload_ms.median(), "ms", preload_ms.size(),
                               "per set-up"};
    const Samples lags = traced.lags();
    L["generator.lag_p99_ms"] = {lags.quantile(0.99), "ms", lags.size(), ""};
    const Samples rtt = span_durations(
        spans, fanout ? "cluster.query" : "server.query");
    L["client.query_rtt_ms"] = {rtt.median(), "ms", rtt.size(), "p50"};
    const auto disp =
        after.hist_delta(before, "nyqmon_server_query_latency_ns");
    L["server.query_dispatch_p50_ms"] = {disp.quantile(0.5) / 1e6, "ms",
                                         disp.count, "obs histogram delta"};
    L["server.query_dispatch_p99_ms"] = {disp.quantile(0.99) / 1e6, "ms",
                                         disp.count, "obs histogram delta"};
    // With a router, the front's and the backends' dispatches share the
    // histogram, so for fanout-query this is a lower bound.
    L["server.unattributed_ms"] = {rtt.mean() - disp.mean() / 1e6, "ms",
                                   rtt.size(),
                                   "mean round trip - mean dispatch"};
    if (fanout) {
      const auto fan =
          after.hist_delta(before, "nyqmon_router_fanout_latency_ns");
      L["cluster.fanout_p50_ms"] = {fan.quantile(0.5) / 1e6, "ms", fan.count,
                                    "obs histogram delta"};
      L["cluster.fanout_p99_ms"] = {fan.quantile(0.99) / 1e6, "ms", fan.count,
                                    "obs histogram delta"};
      double scatter = 0.0, merge = 0.0, explained = 0.0;
      for (int c = 0; c < 3; ++c) {
        explained += static_cast<double>(t.explained[c]);
        const auto sc = t.stage_ns[c].find("scatter");
        const auto mg = t.stage_ns[c].find("merge");
        if (sc != t.stage_ns[c].end())
          scatter += static_cast<double>(sc->second);
        if (mg != t.stage_ns[c].end()) merge += static_cast<double>(mg->second);
      }
      explained = std::max(explained, 1.0);
      const double rows =
          std::max<double>(static_cast<double>(t.backend_rows), 1.0);
      L["cluster.scatter_ms"] = {scatter / explained / 1e6, "ms",
                                 static_cast<std::size_t>(explained),
                                 "router EXPLAIN, mean per request"};
      L["cluster.merge_ms"] = {merge / explained / 1e6, "ms",
                               static_cast<std::size_t>(explained),
                               "router EXPLAIN, mean per request"};
      L["cluster.slowest_backend_ms"] = {
          static_cast<double>(t.slowest_backend_ns) / rows / 1e6, "ms",
          t.backend_rows, "mean per request"};
      L["cluster.backend_skew"] = {t.backend_skew_sum / rows, "ratio",
                                   t.backend_rows,
                                   "slowest / fastest backend, mean"};
      L["cluster.backend_errors"] = {
          static_cast<double>(rs1.backend_errors - rs0.backend_errors),
          "count", t.requests, ""};
      L["cluster.partial_failures"] = {
          static_cast<double>(rs1.partial_failures - rs0.partial_failures),
          "count", t.requests, ""};
    }
    L["trace.overhead_ratio"] = {
        traced.latencies().median() / plain.latencies().median(), "ratio",
        traced.ops.size(), "traced p50 / untraced p50 at the nominal rate"};
  }

  // Output checks: sampled TCP answers are bit-identical to an in-process
  // QueryEngine over one store holding every stream (for fanout-query, a
  // single-node store built here, after timing).
  std::unique_ptr<mon::StripedRetentionStore> single;
  const mon::StripedRetentionStore* reference = served->stores.front().get();
  if (fanout) {
    single = std::make_unique<mon::StripedRetentionStore>(
        serving_store_config(), 16);
    preload(*single, pop, raw, [](std::size_t) { return true; });
    reference = single.get();
  }
  const std::size_t bad = check_answers(kept, *reference);
  rep.check(!kept.empty(), "no answers were kept for the correctness check");
  rep.check(bad == 0, std::to_string(bad) + " of " +
                          std::to_string(kept.size()) +
                          (fanout ? " router answers differ from single-node "
                                    "answers"
                                  : " TCP answers differ from the in-process "
                                    "QueryEngine"));
  rep.check(queries->tally().bad_counts == 0,
            "a reply reported reconstructed > matched");
  rep.detail["answers_checked"] = {static_cast<double>(kept.size()), "count",
                                   kept.size(), ""};
}

}  // namespace

void run_query_history(const Options& opt, Report& rep) {
  run_query_workload(opt, rep, false);
}

void run_fanout_query(const Options& opt, Report& rep) {
  run_query_workload(opt, rep, true);
}

}  // namespace nyqbench
