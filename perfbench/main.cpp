// perfbench: the repository's request benchmark. One process runs one
// workload (or all four) and prints, as its last line, one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of an untraced
// run; with --trace 1 they are the per-layer metrics of a traced run. Lines
// before it are for people: informational metrics, the layer-share table,
// the deterministic counters the self-test compares, and failures. Any
// failed check exits 1. See README.md for the workloads and the metrics.
//
//   perfbench --workload request_mix --seed 1 --seconds 10 --trace 0
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

struct Named {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the two agree).
constexpr Named kEndToEnd[] = {
    {"setup_s", "s"},         {"requests_per_s", "1/s"},
    {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},    {"code_words", "words"},
    {"sim_cycles", "cycles"}};

constexpr Named kPerLayer[] = {
    {"dfl.parse_ms", "ms"},
    {"codegen.construct_ms", "ms"},
    {"codegen.compile_ms", "ms"},
    {"codegen.rewrite_ms", "ms"},
    {"codegen.search_ms", "ms"},
    {"codegen.reduce_ms", "ms"},
    {"codegen.late_ms", "ms"},
    {"codegen.variants_tried", "count"},
    {"codegen.variants_pruned", "count"},
    {"codegen.label_memo_hit_ratio", "ratio"},
    {"target.encode_ms", "ms"},
    {"sim.construct_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.io_ms", "ms"},
    {"sim.instructions", "count"},
    {"sim.translate_block_share", "ratio"},
    {"sim.translate_deopts", "count"},
    {"harness.verify_ms", "ms"},
    {"harness.engines_ms", "ms"},
    {"difftest.generate_ms", "ms"},
    {"ir.interp_ms", "ms"},
    {"server.queue_wait_p99_ms", "ms"},
    {"server.compile_p50_ms", "ms"},
    {"server.hit_ratio", "ratio"},
    {"unattributed_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"oracle.replica_coverage", "ratio"}};

constexpr const char* kWorkloads[] = {"request_mix", "sim_long", "oracle_soak",
                                      "service_stream"};

Report runWorkload(const RunOptions& o) {
  if (o.workload == "request_mix") return requestMix(o);
  if (o.workload == "sim_long") return simLong(o);
  if (o.workload == "oracle_soak") return oracleSoak(o);
  return serviceStream(o);
}

const Metric* find(const std::vector<Metric>& ms, const char* name) {
  for (const auto& m : ms)
    if (m.name == name) return &m;
  return nullptr;
}

/// Print the report; returns the process exit code.
int print(const std::string& w, const RunOptions& o, const Report& r) {
  for (const auto& m : r.info)
    std::printf("%s  %-28s %.6g %s\n", w.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  for (const auto& line : r.table) std::printf("%s  %s\n", w.c_str(), line.c_str());
  for (const auto& m : r.counters)
    std::printf("%s  counter %s = %.17g\n", w.c_str(), m.name.c_str(), m.value);
  for (const auto& e : r.errors)
    std::printf("%s  FAILED: %s\n", w.c_str(), e.c_str());
  std::printf("%s  error_frac %.6g (%ld of %ld)\n", w.c_str(),
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              r.failed, r.attempted);

  std::string metrics;
  auto emit = [&](const char* name, double v, const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    char buf[256];
    std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  name, v, unit);
    metrics += buf;
  };
  bool complete = true;
  if (o.trace) {
    for (const auto& n : kPerLayer) {
      const Metric* m = find(r.layers, n.name);
      emit(n.name, m ? m->value : 0.0, n.unit);  // 0: layer bypassed
    }
  } else {
    for (const auto& n : kEndToEnd) {
      const Metric* m = find(r.endToEnd, n.name);
      if (!m) {
        std::printf("%s  FAILED: metric %s not measured\n", w.c_str(), n.name);
        complete = false;
        continue;
      }
      std::printf("%s  %-28s %.6g %s\n", w.c_str(), n.name, m->value, n.unit);
      emit(n.name, m->value, n.unit);
    }
  }
  bool correct = r.failed == 0 && r.attempted > 0 && complete;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME|all [--seed N] [--seconds S] "
               "[--trace 0|1] [--requests N] [--trace-dir DIR]\n"
               "workloads: request_mix sim_long oracle_soak service_stream\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (a == "--requests") o.fixedRequests = std::atol(v);
    else if (a == "--trace-dir") o.traceDir = v;
    else return usage();
  }
  bool known = workload == "all";
  for (const char* w : kWorkloads) known |= workload == w;
  if (!known || o.seconds <= 0) return usage();
  try {
    int rc = 0;
    for (const char* w : kWorkloads) {
      if (workload != "all" && workload != w) continue;
      o.workload = w;
      resetPeakRss();  // peak_rss_mb: this workload's own peak
      rc |= print(w, o, runWorkload(o));
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
