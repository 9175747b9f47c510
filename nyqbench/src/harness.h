// Shared plumbing of the nyqmon benchmark: run options, latency samples,
// the metric report, the benchmark's own span tracer, obs-registry deltas,
// the host fingerprint and the open-loop request generator.
//
// The benchmark measures every layer from outside: it times its own calls
// into each layer's public functions and reads the counters the program
// already exports. Nothing here reaches into the program's internals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace nyqbench {

using SteadyClock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in the process.
double now_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where result files and span dumps go (inside the checkout).
  std::string out_dir = ".nyqbench_out";
};

/// A latency sample set in milliseconds.
class Samples {
 public:
  void add(double ms) { v_.push_back(ms); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// Nearest-rank percentile, q in [0, 1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  /// The highest of p50/p90/p99/p99.9 with at least ten samples beyond
  /// it; `label` receives its name ("p99"). The benchmark's tail rule.
  double tail(std::string* label) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
  void sort() const;
};

/// One reported number: value, unit, and how many samples it rests on.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

/// Everything one run reports. `e2e` holds the end-to-end metrics of an
/// untraced run, `layer` the per-layer metrics of a traced run; `detail`
/// holds workload-specific figures printed for the reader but not gated.
struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, Metric> detail;
  std::vector<std::string> checks_failed;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) checks_failed.push_back(what);
  }
};

// ------------------------------------------------------------- tracing ---

/// One span recorded by the benchmark around a call into a layer.
struct SpanRec {
  const char* name = nullptr;  ///< "<layer>.<call>", a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
};

/// Process-wide span store. Spans are kept in per-thread buffers in memory
/// and written out only at exit, so recording costs a clock read and a
/// vector push. Disarmed (the default), a Span costs one relaxed load.
class Tracer {
 public:
  static Tracer& instance();
  void arm(bool on) { armed_.store(on, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  void record(const SpanRec& rec);
  std::uint32_t next_id() { return ids_.fetch_add(1) + 1; }
  /// All spans recorded so far, across threads.
  std::vector<SpanRec> collect() const;
  /// Chrome trace-event JSON of every span (name, start, end, parent,
  /// request id) written to `path`.
  void write_json(const std::string& path) const;

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<SpanRec> spans;
  };
  Buffer& local();

  std::atomic<bool> armed_{false};
  std::atomic<std::uint32_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// The request id spans on this thread are tagged with (0 = none).
void set_thread_request(std::uint64_t request);

/// RAII span; nests under the innermost open span of the same thread.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRec rec_;
  bool live_ = false;
};

/// Per-layer self time (span duration minus the time covered by its child
/// spans), summed over spans, in ms. The layer is the span name's prefix.
std::map<std::string, double> layer_self_ms(const std::vector<SpanRec>& spans);

/// Durations in ms of every span called `name`.
Samples span_durations(const std::vector<SpanRec>& spans, const char* name);

// ------------------------------------------------------ program counters --

/// Difference of two snapshots of one obs histogram (max is the later
/// snapshot's, which bounds the delta's maximum from above).
nyqmon::obs::HistogramSnapshot hist_delta(
    const nyqmon::obs::HistogramSnapshot& after,
    const nyqmon::obs::HistogramSnapshot& before);

/// Counter and histogram values of the process registry at one moment.
struct ObsMark {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, nyqmon::obs::HistogramSnapshot> hists;

  static ObsMark take(const std::vector<std::string>& counters,
                      const std::vector<std::string>& hists);
  std::uint64_t counter_delta(const ObsMark& before,
                              const std::string& name) const;
  nyqmon::obs::HistogramSnapshot hist_delta(const ObsMark& before,
                                            const std::string& name) const;
};

// ---------------------------------------------------------------- host ---

/// nproc, CPU model, SIMD level, compiler, build type, obs compiled out;
/// as a JSON object. Results with different fingerprints do not compare.
std::string host_fingerprint_json();

/// CPU placement of the server workloads: the program's threads on every
/// CPU but the last, the load generator's threads on the last, so the
/// generator does not compete with the server it measures and every
/// request crosses CPUs the same way. Threads inherit the placement of
/// the thread that creates them. No-ops below 2 CPUs.
void place_on_server_cpus();
void place_on_generator_cpu();
/// Undo either placement (every CPU).
void place_anywhere();

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// CPU seconds (user + system) this process has used so far.
double process_cpu_s();

// -----------------------------------------------------  open-loop load ---

/// Outcome of one request of an open-loop phase.
struct OpSample {
  int cls = 0;          ///< caller-defined request class
  double due_s = 0.0;   ///< due time, seconds after the phase started
  double latency_ms = 0.0;  ///< done - due (a failure counts as a miss)
  double lag_ms = 0.0;      ///< sent - due: how late the generator ran
  bool ok = false;
};

struct PhaseResult {
  std::vector<OpSample> ops;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t unsent = 0;  ///< due in the phase but never sent (backlog)

  /// Latencies (ms) of the requests of class `cls` (-1 = all); failed
  /// requests enter as +infinity, so they miss every limit.
  Samples latencies(int cls = -1) const;
  Samples lags() const;
  /// True when the generator fell further behind over the phase: the
  /// median send lag of the last fifth of requests exceeds that of the
  /// first fifth by more than `slack_ms`.
  bool backlog_growing(double slack_ms) const;
};

/// Issue one request on connection `conn`; `index` is the request's
/// position in the phase's global schedule. Returns false on failure (ERR,
/// transport error or timeout).
using IssueFn = std::function<bool(std::size_t conn, std::uint64_t index)>;
/// The class of request `index` (for per-class latencies).
using ClassFn = std::function<int(std::uint64_t index)>;

/// Open loop: request i of the phase is due at start + i / rate and goes
/// to connection i % conns; each connection has one thread that sends its
/// requests in order, sleeping until each is due. Latency is measured
/// from the due time, so a stall delays (and is charged to) every request
/// queued behind it. Requests still unsent `grace_s` after the phase ends
/// are counted in `unsent` and dropped. A rate far above what the
/// connections sustain makes each of them send back to back.
PhaseResult run_open_loop(double rate_per_s, double seconds,
                          std::size_t conns, std::uint64_t first_index,
                          const IssueFn& issue, const ClassFn& cls,
                          double grace_s = 0.25);

/// The highest rate at which `probe(rate, seconds)` (one open-loop phase)
/// passes its limits, searched downward from `saturation` (the throughput
/// the same connections reach sending back to back, which no open loop
/// sustains without its backlog growing) on a ladder of 5% steps, finer
/// than the metric's bound. Each rate is probed for `probe_s`; the search
/// ends at the first two rates in a row that pass and returns the higher,
/// so a single lucky pass between failures does not count. It stops once
/// `budget_s` has elapsed; 0 when nothing passed twice in a row.
struct RateSearch {
  double max_rate = 0.0;
  std::size_t probes = 0;
};
RateSearch search_max_rate(
    double saturation, double probe_s, double budget_s,
    const std::function<bool(double rate, double seconds)>& probe);

}  // namespace nyqbench
