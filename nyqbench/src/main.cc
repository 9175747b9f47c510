// nyqbench — the nyqmon benchmark program.
//
// Usage: nyqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>]
//
// Prints a table of every metric (value, unit, sample count) and, as its
// last line, one JSON object with the run's fingerprint, metrics, checks
// and span-derived layer figures. nyqbench/run.py builds this program and
// turns that line into the benchmark's result line. Exits 1 when an
// output check fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

using namespace nyqbench;

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  out += '"';
  return out;
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ',';
    out += json_str(item);
  }
  out += ']';
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ',';
    out += json_str(name);
    out += ":{\"value\":";
    out += json_num(metric.value);
    out += ",\"unit\":";
    out += json_str(metric.unit);
    out += ",\"samples\":";
    out += std::to_string(metric.samples);
    out += ",\"note\":";
    out += json_str(metric.note);
    out += '}';
  }
  return out + "}";
}

void print_table(const char* title, const std::map<std::string, Metric>& m) {
  if (m.empty()) return;
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m)
    std::printf("  %-44s %16.6g %-6s n=%-8zu %s\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples, metric.note.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: nyqbench --workload <fleet-batch|query-history|"
               "ingest-live|fanout-query> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--out") {
      opt.out_dir = val;
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0.0) return usage();

  using RunFn = void (*)(const Options&, Report&);
  const std::map<std::string, RunFn> workloads = {
      {"fleet-batch", run_fleet_batch},
      {"query-history", run_query_history},
      {"ingest-live", run_ingest_live},
      {"fanout-query", run_fanout_query}};
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) return usage();

  std::filesystem::create_directories(opt.out_dir);
  Report rep;
  try {
    it->second(opt, rep);
  } catch (const std::exception& e) {
    rep.checks_failed.push_back(std::string("exception: ") + e.what());
  }

  std::string trace_file;
  if (opt.trace) {
    trace_file = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                 std::to_string(opt.seed) + ".json";
    Tracer::instance().write_json(trace_file);
    for (const auto& [layer, ms] : layer_self_ms(Tracer::instance().collect()))
      rep.layer["self." + layer + "_ms"] = {ms, "ms", 0,
                                            "span self time, traced phase"};
  }

  std::printf("nyqbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  print_table("end-to-end:", rep.e2e);
  print_table("per-layer:", rep.layer);
  print_table("detail:", rep.detail);
  for (const auto& n : rep.notes) std::printf("note: %s\n", n.c_str());
  for (const auto& c : rep.checks_failed)
    std::printf("CHECK FAILED: %s\n", c.c_str());

  const std::string notes = json_list(rep.notes);
  const std::string checks = json_list(rep.checks_failed);
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"fingerprint\":%s,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"checks_failed\":%s,\"notes\":%s,\"trace_file\":%s,\"e2e\":%s,"
      "\"layer\":%s,\"detail\":%s}\n",
      json_str(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), json_num(opt.seconds).c_str(),
      opt.trace ? 1 : 0, host_fingerprint_json().c_str(),
      rep.checks_failed.empty() ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), checks.c_str(),
      notes.c_str(), json_str(trace_file).c_str(),
      metrics_json(rep.e2e).c_str(), metrics_json(rep.layer).c_str(),
      metrics_json(rep.detail).c_str());
  std::fflush(stdout);
  return rep.checks_failed.empty() ? 0 : 1;
}
