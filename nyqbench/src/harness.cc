#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "dsp/simd.h"

namespace nyqbench {

namespace obs = nyqmon::obs;

double now_s() {
  static const auto t0 = SteadyClock::now();
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

namespace {

std::uint64_t now_ns() {
  static const auto t0 = SteadyClock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           t0)
          .count());
}

thread_local std::uint64_t t_request = 0;
thread_local std::vector<std::uint32_t> t_open;  // ids of open spans

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- Samples ---

void Samples::sort() const {
  if (!sorted_) std::sort(v_.begin(), v_.end());
  sorted_ = true;
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  sort();
  const double rank = std::ceil(q * static_cast<double>(v_.size()));
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(v_.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v_[idx];
}

double Samples::mean() const {
  double sum = 0.0;
  for (double x : v_) sum += x;
  return v_.empty() ? 0.0 : sum / static_cast<double>(v_.size());
}

double Samples::tail(std::string* label) const {
  struct Rung {
    double q;
    const char* name;
  };
  static const Rung rungs[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.5, "p50"}};
  for (const Rung& r : rungs) {
    const double beyond = (1.0 - r.q) * static_cast<double>(v_.size());
    if (beyond >= 10.0 - 1e-9) {
      if (label != nullptr) *label = r.name;
      return quantile(r.q);
    }
  }
  if (label != nullptr) *label = "p50";
  return median();
}

// -------------------------------------------------------------- Tracer ---

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
  }
  return *buf;
}

void Tracer::record(const SpanRec& rec) {
  Buffer& b = local();
  std::lock_guard<std::mutex> lock(b.mu);
  b.spans.push_back(rec);
}

std::vector<SpanRec> Tracer::collect() const {
  std::vector<SpanRec> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> block(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRec& s : collect()) {
    out << (first ? "" : ",") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << "]}\n";
}

void set_thread_request(std::uint64_t request) { t_request = request; }

Span::Span(const char* name) {
  Tracer& t = Tracer::instance();
  if (!t.armed()) return;
  live_ = true;
  rec_.name = name;
  rec_.id = t.next_id();
  rec_.parent = t_open.empty() ? 0 : t_open.back();
  rec_.request = t_request;
  t_open.push_back(rec_.id);
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!live_) return;
  rec_.end_ns = now_ns();
  t_open.pop_back();
  Tracer::instance().record(rec_);
}

std::map<std::string, double> layer_self_ms(const std::vector<SpanRec>& spans) {
  std::map<std::uint32_t, std::uint64_t> child_ns;
  for (const SpanRec& s : spans)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (const SpanRec& s : spans) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::uint64_t covered =
        it == child_ns.end() ? 0 : std::min(it->second, dur);
    out[layer] += static_cast<double>(dur - covered) / 1e6;
  }
  return out;
}

Samples span_durations(const std::vector<SpanRec>& spans, const char* name) {
  Samples out;
  const std::string want = name;
  for (const SpanRec& s : spans)
    if (want == s.name)
      out.add(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

// ---------------------------------------------------- program counters ---

obs::HistogramSnapshot hist_delta(const obs::HistogramSnapshot& after,
                                  const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d = after;
  d.count -= std::min(before.count, after.count);
  d.sum -= std::min(before.sum, after.sum);
  for (std::size_t b = 0; b < d.buckets.size(); ++b)
    d.buckets[b] -= std::min(before.buckets[b], after.buckets[b]);
  return d;
}

ObsMark ObsMark::take(const std::vector<std::string>& counters,
                      const std::vector<std::string>& hists) {
  ObsMark m;
  const obs::Registry& reg = obs::Registry::instance();
  for (const auto& c : counters) m.counters[c] = reg.counter_value(c);
  for (const auto& h : hists) m.hists[h] = reg.histogram_snapshot(h);
  return m;
}

std::uint64_t ObsMark::counter_delta(const ObsMark& before,
                                     const std::string& name) const {
  const std::uint64_t a = counters.at(name);
  const std::uint64_t b = before.counters.at(name);
  return a >= b ? a - b : 0;
}

obs::HistogramSnapshot ObsMark::hist_delta(const ObsMark& before,
                                           const std::string& name) const {
  return nyqbench::hist_delta(hists.at(name), before.hists.at(name));
}

// ---------------------------------------------------------------- host ---

std::string host_fingerprint_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
#if defined(NYQMON_OBS_NOOP)
  const bool obs_off = true;
#else
  const bool obs_off = false;
#endif
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\":%u,\"cpu\":\"%s\",\"simd\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"obs_compiled_out\":%s}",
      std::thread::hardware_concurrency(), json_escape(cpu).c_str(),
      nyqmon::dsp::simd::level_name(nyqmon::dsp::simd::active_level()),
      json_escape(NYQBENCH_COMPILER).c_str(),
      json_escape(NYQBENCH_BUILD_TYPE).c_str(), obs_off ? "true" : "false");
  return buf;
}

namespace {

void set_cpus(std::size_t first, std::size_t last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t c = first; c <= last; ++c) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::size_t cpus() { return std::thread::hardware_concurrency(); }

}  // namespace

void place_on_server_cpus() {
  if (cpus() >= 2) set_cpus(0, cpus() - 2);
}

void place_on_generator_cpu() {
  if (cpus() >= 2) set_cpus(cpus() - 1, cpus() - 1);
}

void place_anywhere() {
  if (cpus() >= 2) set_cpus(0, cpus() - 1);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// -----------------------------------------------------  open-loop load ---

Samples PhaseResult::latencies(int cls) const {
  Samples s;
  for (const OpSample& op : ops)
    if (cls < 0 || op.cls == cls)
      s.add(op.ok ? op.latency_ms : std::numeric_limits<double>::infinity());
  return s;
}

Samples PhaseResult::lags() const {
  Samples s;
  for (const OpSample& op : ops) s.add(op.lag_ms);
  return s;
}

bool PhaseResult::backlog_growing(double slack_ms) const {
  std::vector<const OpSample*> by_due;
  for (const OpSample& op : ops) by_due.push_back(&op);
  std::sort(by_due.begin(), by_due.end(),
            [](const OpSample* a, const OpSample* b) {
              return a->due_s < b->due_s;
            });
  const std::size_t fifth = by_due.size() / 5;
  if (fifth == 0) return false;
  Samples first, last;
  for (std::size_t i = 0; i < fifth; ++i) {
    first.add(by_due[i]->lag_ms);
    last.add(by_due[by_due.size() - 1 - i]->lag_ms);
  }
  return last.median() > first.median() + slack_ms;
}

PhaseResult run_open_loop(double rate_per_s, double seconds,
                          std::size_t conns, std::uint64_t first_index,
                          const IssueFn& issue, const ClassFn& cls,
                          double grace_s) {
  const std::uint64_t total =
      static_cast<std::uint64_t>(std::floor(rate_per_s * seconds));
  std::vector<std::vector<OpSample>> per_conn(conns);
  std::vector<std::size_t> unsent(conns, 0);
  const double start = now_s() + 0.005;
  const double deadline = start + seconds + grace_s;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      place_on_generator_cpu();
      for (std::uint64_t i = c; i < total; i += conns) {
        const double due = start + static_cast<double>(i) / rate_per_s;
        double now = now_s();
        if (now >= deadline) {
          unsent[c] += (total - i + conns - 1) / conns;
          break;
        }
        if (due > now)
          std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        const double sent = std::max(due, now_s());
        set_thread_request(first_index + i + 1);
        const bool ok = issue(c, first_index + i);
        set_thread_request(0);
        const double done = now_s();
        per_conn[c].push_back({cls(first_index + i), due - start,
                               (done - due) * 1e3, (sent - due) * 1e3, ok});
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult r;
  for (std::size_t c = 0; c < conns; ++c) {
    r.ops.insert(r.ops.end(), per_conn[c].begin(), per_conn[c].end());
    r.unsent += unsent[c];
  }
  r.attempted = r.ops.size();
  for (const OpSample& op : r.ops) r.failed += op.ok ? 0 : 1;
  return r;
}

RateSearch search_max_rate(
    double saturation, double probe_s, double budget_s,
    const std::function<bool(double rate, double seconds)>& probe) {
  const double deadline = now_s() + budget_s;
  RateSearch out;
  double candidate = 0.0;  // the higher rate of the current run of passes
  for (double rate = saturation;
       rate >= 1.0 && now_s() + probe_s <= deadline; rate /= 1.05) {
    ++out.probes;
    if (!probe(rate, probe_s)) {
      candidate = 0.0;
    } else if (candidate > 0.0) {
      out.max_rate = candidate;
      break;
    } else {
      candidate = rate;
    }
  }
  return out;
}

}  // namespace nyqbench
