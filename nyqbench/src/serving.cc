#include "serving.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <thread>

#include "reconstruct/error.h"
#include "query/builder.h"

namespace nyqbench {

namespace qry = nyqmon::qry;
namespace mon = nyqmon::mon;
namespace srv = nyqmon::srv;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

// ---------------------------------------------------------- Population ---

std::string Population::name(std::size_t stream) const {
  return "dev" + std::to_string(stream / metrics) + "/metric" +
         std::to_string(stream % metrics);
}

double Population::value(std::size_t stream, std::size_t i) const {
  // Shape (level, amplitude, frequencies) is fixed per stream, as a real
  // fleet's metrics are; the seed draws the phases and the noise.
  constexpr std::uint64_t kShapeSeed = 20211110;
  const std::uint64_t shape = mix64(kShapeSeed * 0x51ED27ULL + stream);
  const std::uint64_t draw = mix64(seed * 0x51ED27ULL + stream);
  const double base = 10.0 + 90.0 * unit(mix64(shape + 1));
  const double amp = 1.0 + 9.0 * unit(mix64(shape + 2));
  const double f1 = 1.0 / (400.0 + 1600.0 * unit(mix64(shape + 3)));
  const double f2 = 1.0 / (40.0 + 160.0 * unit(mix64(shape + 4)));
  const double p1 = 2.0 * std::numbers::pi * unit(mix64(draw + 5));
  const double p2 = 2.0 * std::numbers::pi * unit(mix64(draw + 6));
  const double t = static_cast<double>(i);
  const double noise =
      2.0 * unit(mix64(draw ^ (i * 0x2545F4914F6CDD1DULL))) - 1.0;
  return base + amp * std::sin(2.0 * std::numbers::pi * f1 * t + p1) +
         0.3 * amp * std::sin(2.0 * std::numbers::pi * f2 * t + p2) +
         0.02 * amp * noise;
}

std::vector<double> Population::series(std::size_t stream, std::size_t first,
                                       std::size_t n) const {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = value(stream, first + i);
  return out;
}

mon::StoreConfig serving_store_config() {
  mon::StoreConfig c;
  c.chunk_samples = 128;
  return c;
}

std::vector<std::vector<double>> generate(const Population& pop,
                                          std::size_t history) {
  std::vector<std::vector<double>> raw(pop.streams());
  for (std::size_t s = 0; s < raw.size(); ++s)
    raw[s] = pop.series(s, 0, history);
  return raw;
}

void preload(mon::StripedRetentionStore& store, const Population& pop,
             const std::vector<std::vector<double>>& raw,
             const std::function<bool(std::size_t)>& keep) {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t s = t; s < pop.streams(); s += 4) {
        if (!keep(s)) continue;
        const std::string name = pop.name(s);
        store.create_stream(name, 1.0, 0.0);
        store.append_series(name, raw[s]);
      }
    });
  }
  for (auto& th : threads) th.join();
}

// ------------------------------------------------------------ QueryMix ---

int QueryMix::cls(std::uint64_t index) const {
  // Interleaved, not drawn: the heavy fleet queries arrive evenly spaced
  // (as periodic panels do), so two never pile up by chance and the tail
  // measures one fleet query and the requests queued behind it.
  if (index % 200 == 100) return kFleet;
  if (index % 10 == 5) return kDevice;
  return kPoint;
}

qry::QuerySpec QueryMix::spec(std::uint64_t index) const {
  constexpr double kRange = 64.0;
  const std::uint64_t h = mix64(pop->seed ^ (index * 0xA24BAED4963EE407ULL));
  const std::uint64_t a = mix64(h + 1);
  const double start =
      unit(mix64(h + 2)) * (static_cast<double>(history) - kRange - 1.0);
  qry::QueryBuilder b;
  switch (cls(index)) {
    case kPoint:
      b.select(pop->name(a % pop->streams())).range(start, start + kRange)
          .align(1.0);
      break;
    case kDevice: {
      const std::size_t panel = a % 8;
      const std::size_t dev = (panel * 37 + pop->seed) % pop->devices;
      const double end = static_cast<double>(history);
      b.select("dev" + std::to_string(dev) + "/*").range(end - 256.0, end)
          .align(4.0).aggregate(qry::Aggregation::kAvg);
      break;
    }
    default:
      b.select("*/metric" + std::to_string(a % pop->metrics))
          .range(start, start + kRange).align(4.0)
          .aggregate(qry::Aggregation::kP95);
      break;
  }
  return b.build();
}

// ---------------------------------------------------------- QueryTally ---

void QueryTally::merge(const QueryTally& o) {
  requests += o.requests;
  cache_hits += o.cache_hits;
  matched += o.matched;
  reconstructed += o.reconstructed;
  bad_counts += o.bad_counts;
  backend_rows += o.backend_rows;
  slowest_backend_ns += o.slowest_backend_ns;
  backend_skew_sum += o.backend_skew_sum;
  for (int c = 0; c < 3; ++c) {
    explained[c] += o.explained[c];
    for (const auto& [k, v] : o.stage_ns[c]) stage_ns[c][k] += v;
  }
}

// --------------------------------------------------------- QueryLoad ---

QueryLoad::QueryLoad(std::uint16_t port, std::size_t conns, SpecFn spec,
                         ClassFn cls, std::uint64_t keep_every,
                         const char* span_name)
    : port_(port), spec_(std::move(spec)), cls_(std::move(cls)),
      keep_every_(keep_every), span_name_(span_name), conns_(conns) {}

void QueryLoad::connect(Conn& c) {
  if (!c.client)
    c.client = std::make_unique<srv::NyqmonClient>(
        "127.0.0.1", port_,
        srv::ClientOptions{2000, 5000, srv::kMaxFrameBytes});
}

void QueryLoad::connect_all() {
  for (Conn& c : conns_) connect(c);
}

bool QueryLoad::issue(std::size_t conn, std::uint64_t index) {
  Conn& c = conns_[conn];
  const int cls = cls_(index);
  try {
    connect(c);
    const qry::QuerySpec spec = spec_(index);
    srv::QueryReply reply;
    {
      Span span(span_name_);
      reply = c.client->query(spec, false, explain_);
    }
    QueryTally& t = c.tally;
    ++t.requests;
    t.cache_hits += reply.cache_hit ? 1 : 0;
    t.matched += reply.matched;
    t.reconstructed += reply.reconstructed;
    if (reply.reconstructed > reply.matched) ++t.bad_counts;
    if (reply.explain) {
      ++t.explained[cls];
      std::uint64_t lo = ~std::uint64_t{0};
      std::uint64_t hi = 0;
      for (const auto& st : reply.explain->stages) {
        if (st.stage.rfind("backend/", 0) == 0) {
          lo = std::min(lo, st.ns);
          hi = std::max(hi, st.ns);
        } else {
          t.stage_ns[cls][st.stage] += st.ns;
        }
      }
      if (hi > 0) {
        ++t.backend_rows;
        t.slowest_backend_ns += hi;
        t.backend_skew_sum +=
            static_cast<double>(hi) /
            static_cast<double>(std::max<std::uint64_t>(lo, 1));
      }
    }
    if (keep_every_ != 0 && index % keep_every_ == 0)
      c.kept.push_back({spec, std::move(reply.series), reply.matched,
                        reply.reconstructed});
    return true;
  } catch (const srv::ServerError&) {
    return false;
  } catch (const std::exception&) {
    c.client.reset();  // the byte stream is unsynchronized; reconnect
    return false;
  }
}

QueryTally QueryLoad::tally() const {
  QueryTally t;
  for (const Conn& c : conns_) t.merge(c.tally);
  return t;
}

std::vector<KeptAnswer> QueryLoad::kept() const {
  std::vector<KeptAnswer> out;
  for (const Conn& c : conns_)
    out.insert(out.end(), c.kept.begin(), c.kept.end());
  return out;
}

void QueryLoad::reset_tallies() {
  for (Conn& c : conns_) {
    c.tally = QueryTally{};
    c.kept.clear();
  }
}

// -------------------------------------------------------------- checks ---

bool same_series(const std::vector<qry::QuerySeries>& a,
                 const std::vector<qry::QuerySeries>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i].series;
    const auto& y = b[i].series;
    const double grid_x[2] = {x.t0(), x.dt()};
    const double grid_y[2] = {y.t0(), y.dt()};
    if (a[i].label != b[i].label || x.size() != y.size() ||
        std::memcmp(grid_x, grid_y, sizeof(grid_x)) != 0)
      return false;
    if (x.size() != 0 &&
        std::memcmp(x.values().data(), y.values().data(),
                    x.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

std::size_t check_answers(const std::vector<KeptAnswer>& kept,
                          const mon::StripedRetentionStore& reference) {
  qry::QueryEngineConfig cfg;
  cfg.workers = 2;
  cfg.cache_enabled = false;
  qry::QueryEngine engine(reference, cfg);
  std::size_t bad = 0;
  for (const KeptAnswer& k : kept) {
    const qry::QueryResponse r = engine.run(k.spec);
    if (!same_series(r.result->series, k.series) ||
        r.result->matched.size() != k.matched ||
        r.result->reconstructed.size() != k.reconstructed)
      ++bad;
  }
  return bad;
}

Samples answer_nrmse(const std::vector<KeptAnswer>& kept,
                     const Population& pop) {
  Samples out;
  for (const KeptAnswer& k : kept) {
    if (k.spec.aggregate != qry::Aggregation::kNone || k.series.size() != 1)
      continue;
    unsigned dev = 0;
    unsigned metric = 0;
    if (std::sscanf(k.series[0].label.c_str(), "dev%u/metric%u", &dev,
                    &metric) != 2)
      continue;
    const std::size_t stream = dev * pop.metrics + metric;
    const auto& s = k.series[0].series;
    // The raw data written, linearly interpolated onto the answer's grid
    // (what a lossless store and the same alignment would return).
    std::vector<double> truth(s.size());
    for (std::size_t j = 0; j < s.size(); ++j) {
      const double t = s.time_at(j);
      const auto i0 = static_cast<std::size_t>(std::floor(t));
      const double w = t - static_cast<double>(i0);
      truth[j] =
          (1.0 - w) * pop.value(stream, i0) + w * pop.value(stream, i0 + 1);
    }
    const double e = nyqmon::rec::nrmse(truth, s.values());
    if (std::isfinite(e)) out.add(e);
  }
  return out;
}

// ------------------------------------------------------------ reporting ---

void report_query_layers(const QueryTally& t, double streams_in_store,
                         Report& rep) {
  auto& L = rep.layer;
  const double n = static_cast<double>(std::max<std::uint64_t>(t.requests, 1));
  static const char* kStages[] = {"match",    "cache",       "prune",
                                  "snapshot", "reconstruct", "aggregate"};
  for (int c = 0; c < 3; ++c) {
    const double e = static_cast<double>(t.explained[c]);
    for (const char* st : kStages) {
      const auto it = t.stage_ns[c].find(st);
      const double ns =
          it == t.stage_ns[c].end() ? 0.0 : static_cast<double>(it->second);
      L[std::string("query.") + class_name(c) + "." + st + "_ms"] = {
          e == 0.0 ? 0.0 : ns / e / 1e6, "ms", t.explained[c],
          "EXPLAIN stage, mean per request"};
    }
  }
  L["query.cache_hit_ratio"] = {static_cast<double>(t.cache_hits) / n, "ratio",
                                t.requests, ""};
  L["query.streams_matched_per_query"] = {static_cast<double>(t.matched) / n,
                                          "count", t.requests, ""};
  L["query.streams_reconstructed_per_query"] = {
      static_cast<double>(t.reconstructed) / n, "count", t.requests, ""};
  L["query.selector_match_ratio"] = {
      static_cast<double>(t.matched) / n / streams_in_store, "ratio",
      t.requests, "matched / streams in the store"};
}

void report_store_probe(const mon::StripedRetentionStore& store,
                        std::size_t history, std::uint64_t seed, Report& rep) {
  const std::vector<std::string> names = store.stream_names();
  if (names.empty() || history < 66) return;
  constexpr int kCalls = 200;
  constexpr double kRange = 64.0;
  Samples list_us, acquire_us, recon_us;
  std::size_t points = 0;
  for (int i = 0; i < kCalls; ++i) {
    const std::uint64_t h = mix64(seed * 31 + static_cast<std::uint64_t>(i));
    const std::string& name = names[h % names.size()];
    const double start =
        unit(mix64(h + 1)) * (static_cast<double>(history) - kRange - 1.0);
    if (i % 10 == 0) {
      const double t0 = now_s();
      Span span("monitor.list_meta");
      const auto meta = store.list_meta();
      list_us.add((now_s() - t0) * 1e6);
    }
    double t0 = now_s();
    mon::ReadSnapshot snap;
    {
      Span span("monitor.acquire_snapshot");
      snap = store.acquire_snapshot(std::span<const std::string>(&name, 1));
    }
    acquire_us.add((now_s() - t0) * 1e6);
    t0 = now_s();
    {
      Span span("monitor.snapshot_query");
      points = snap.query(name, start, start + kRange).size();
    }
    recon_us.add((now_s() - t0) * 1e6);
  }
  auto& L = rep.layer;
  L["monitor.list_meta_us"] = {list_us.median(), "us", list_us.size(), ""};
  L["monitor.snapshot_acquire_us"] = {acquire_us.median(), "us",
                                      acquire_us.size(), "one stream"};
  L["monitor.reconstruct_range_us"] = {
      recon_us.median(), "us", recon_us.size(),
      "ReadSnapshot::query, 64 s of " + std::to_string(history) +
          " s history"};
  L["monitor.reconstruct_ns_per_point"] = {
      recon_us.median() * 1e3 /
          static_cast<double>(std::max<std::size_t>(points, 1)),
      "ns", recon_us.size(), "per output point"};
}

}  // namespace nyqbench
