// Inputs shared by the server workloads: the seeded stream population and
// the query mix, plus the client-side query load that times, checks and
// attributes every request.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "monitor/striped_store.h"
#include "query/engine.h"
#include "query/spec.h"
#include "server/client.h"

namespace nyqbench {

/// splitmix64: the benchmark's only source of randomness.
std::uint64_t mix64(std::uint64_t x);
/// Uniform in [0, 1) from a hash.
double unit(std::uint64_t h);

/// `devices` x `metrics` streams named "devN/metricK", sampled at 1 Hz
/// from t = 0. Each stream is a sum of two slow sinusoids plus small noise
/// (a fixed shape per stream; the seed draws phases and noise), so chunks
/// seal below the raw rate (the store's Nyquist re-sampling has something
/// to do) and answers differ from the raw data by a measurable
/// reconstruction error.
struct Population {
  std::uint64_t seed = 1;
  std::size_t devices = 128;
  std::size_t metrics = 8;

  std::size_t streams() const { return devices * metrics; }
  std::string name(std::size_t stream) const;
  double value(std::size_t stream, std::size_t i) const;
  std::vector<double> series(std::size_t stream, std::size_t first,
                             std::size_t n) const;
};

/// Store configuration every server workload uses (128-sample chunks, as
/// nyqmond serves the engine's output).
nyqmon::mon::StoreConfig serving_store_config();

/// Every stream's samples [0, history): the preload input, generated
/// before any set-up is timed.
std::vector<std::vector<double>> generate(const Population& pop,
                                          std::size_t history);

/// Create and append every stream `keep(stream)` selects, on 4 threads.
void preload(nyqmon::mon::StripedRetentionStore& store, const Population& pop,
             const std::vector<std::vector<double>>& raw,
             const std::function<bool(std::size_t)>& keep);

/// Request classes of the query mix.
enum QueryClass { kPoint = 0, kDevice = 1, kFleet = 2 };
inline const char* class_name(int cls) {
  return cls == kPoint ? "point" : cls == kDevice ? "device" : "fleet";
}

/// The query-history mix over a population with `history` samples per
/// stream: 89.5% point (one stream, a fresh seeded 64 s range: misses the
/// cache), 10% device (every 10th request: a devN/* average from 8 fixed
/// panel specs: hits the cache), 0.5% fleet (every 200th: a */metricK p95
/// over a fresh 64 s range).
struct QueryMix {
  const Population* pop = nullptr;
  std::size_t history = 0;

  int cls(std::uint64_t index) const;
  nyqmon::qry::QuerySpec spec(std::uint64_t index) const;
};

/// Client-side accumulators of a query phase (one per connection).
struct QueryTally {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t matched = 0;
  std::uint64_t reconstructed = 0;
  std::uint64_t bad_counts = 0;  ///< replies with reconstructed > matched
  /// EXPLAIN stage sums (ns) and request counts, per class.
  std::map<std::string, std::uint64_t> stage_ns[3];
  std::uint64_t explained[3] = {0, 0, 0};
  /// Router EXPLAIN backend/<node> rows: requests that carried them, the
  /// summed slowest-backend gather time, and the summed slowest/fastest.
  std::uint64_t backend_rows = 0;
  std::uint64_t slowest_backend_ns = 0;
  double backend_skew_sum = 0.0;

  void merge(const QueryTally& o);
};

/// One sampled answer kept for the post-run correctness check.
struct KeptAnswer {
  nyqmon::qry::QuerySpec spec;
  std::vector<nyqmon::qry::QuerySeries> series;
  std::uint32_t matched = 0;
  std::uint32_t reconstructed = 0;
};

/// The spec and the class of request `index`.
using SpecFn = std::function<nyqmon::qry::QuerySpec(std::uint64_t)>;

/// A pool of NyqmonClient connections to one port, issuing queries.
/// Connections are (re)opened lazily; a transport failure drops the
/// connection and counts the request as failed.
class QueryLoad {
 public:
  /// Every `keep_every`-th request's answer is kept for the correctness
  /// check; `span_name` names the client-call span (a string literal).
  QueryLoad(std::uint16_t port, std::size_t conns, SpecFn spec, ClassFn cls,
              std::uint64_t keep_every, const char* span_name);

  /// Open every connection now (part of set-up).
  void connect_all();
  void set_explain(bool on) { explain_ = on; }
  /// IssueFn for run_open_loop.
  bool issue(std::size_t conn, std::uint64_t index);

  QueryTally tally() const;
  std::vector<KeptAnswer> kept() const;
  void reset_tallies();

 private:
  struct Conn {
    std::unique_ptr<nyqmon::srv::NyqmonClient> client;
    QueryTally tally;
    std::vector<KeptAnswer> kept;
  };
  void connect(Conn& c);

  std::uint16_t port_;
  SpecFn spec_;
  ClassFn cls_;
  std::uint64_t keep_every_;
  const char* span_name_;
  bool explain_ = false;
  std::vector<Conn> conns_;
};

/// Bit-identical comparison of two answers' series.
bool same_series(const std::vector<nyqmon::qry::QuerySeries>& a,
                 const std::vector<nyqmon::qry::QuerySeries>& b);

/// Check every kept answer against an in-process QueryEngine over
/// `reference`; returns how many differ.
std::size_t check_answers(const std::vector<KeptAnswer>& kept,
                          const nyqmon::mon::StripedRetentionStore& reference);

/// Median NRMSE of the kept point answers against the raw data written.
Samples answer_nrmse(const std::vector<KeptAnswer>& kept,
                     const Population& pop);

/// Per-layer figures of a query phase from the client tallies.
void report_query_layers(const QueryTally& t, double streams_in_store,
                         Report& rep);

/// Direct calls on a served store (list_meta, acquire_snapshot,
/// ReadSnapshot::query of a 64 s range on streams holding `history`
/// samples) as monitor.* per-layer metrics.
void report_store_probe(const nyqmon::mon::StripedRetentionStore& store,
                        std::size_t history, std::uint64_t seed, Report& rep);

}  // namespace nyqbench
