// Shared pieces of the request benchmark: run options, the report every
// workload fills, the program pool and the one request path that
// request_mix and sim_long time.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "codegen/pipeline.h"
#include "difftest/difftest.h"
#include "dspstone/harness.h"
#include "ir/program.h"
#include "sim/machine.h"
#include "sim/translate.h"
#include "spans.h"
#include "support/strings.h"
#include "trace/metrics.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// > 0: run exactly this many requests (programs for oracle_soak) per
  /// measured phase instead of `seconds` -- the self-test's fixed work.
  long fixedRequests = 0;
  /// Directory for the traced run's Chrome trace ("" = none).
  std::string traceDir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::vector<Metric> endToEnd;     // untraced run
  std::vector<Metric> layers;       // traced run
  std::vector<Metric> info;         // printed for people, not gated
  std::vector<Metric> counters;     // deterministic work counts (self-test)
  std::vector<std::string> table;   // layer-share table lines

  void fail(const std::string& why);
};

/// Stops a measured phase after `seconds`, or after a fixed request count.
class Budget {
 public:
  explicit Budget(const RunOptions& o, double share = 1.0)
      : start_(nowNs()),
        limitNs_(static_cast<int64_t>(o.seconds * share * 1e9)),
        fixed_(o.fixedRequests) {}
  bool more(long done) const {
    if (fixed_ > 0) return done < fixed_;
    return nowNs() - start_ < limitNs_;
  }
  double elapsedS() const { return static_cast<double>(nowNs() - start_) * 1e-9; }

 private:
  int64_t start_;
  int64_t limitNs_;
  long fixed_;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Source {
  std::string name;
  std::string text;   // DFL
  int ticks = 4;      // short default stimulus length
  bool fixed = true;  // false: seeded generateProgram output
  int config = -1;    // a generated program's one sweep index; -1: all
};

/// One output symbol of a program, in symbol-table order.
struct Output {
  std::string name;
  int words = 1;
  bool array = false;
};
std::vector<Output> outputsOf(const record::Program& prog);

/// Golden outputs of one program on one stimulus, from record::Interp,
/// computed outside every timed region.
struct Golden {
  record::Stimulus stim;
  std::vector<Output> outputs;
  int wordsPerTick = 0;
  std::vector<int16_t> trace;  // outputs after each tick, flattened
};

/// One accepted (program, config) request and what it must reproduce.
struct Pair {
  int source = 0;
  int sweep = 0;
  int64_t words = 0;   // emitted program words
  int64_t cycles = 0;  // simulated cycles over the short stimulus
};

/// The request pool shared by every workload: the 10 DSPStone kernels,
/// tests/corpus/*.dfl and examples/dfl/*.dfl (read from the working
/// directory, the checkout root), each under every defaultSweep() config,
/// plus seeded generateProgram programs, each under one seeded config (many
/// programs on one config each keep the mix's cost steady across seeds).
/// Pairs the target rejects (capability errors) are left out and counted.
/// Building it compiles and runs every pair once, which also warms the
/// per-config rule caches.
struct Pool {
  std::vector<Source> sources;
  std::vector<record::Program> programs;  // parsed once, for goldens
  std::vector<Golden> golden;             // short stimulus per source
  std::vector<record::difftest::SweepPoint> sweep;
  std::vector<Pair> pairs;
  int rejectedPairs = 0;
  std::vector<std::string> errors;  // pairs that failed their set-up check
  // Paper Table 1 totals over the fixed (seed-independent) sources.
  int64_t codeWords = 0;
  int64_t simCycles = 0;
};

inline constexpr int kGeneratedPrograms = 36;

/// Compiler settings of every timed request: default options, one search
/// thread (the setting the service and the soak pin).
record::CodegenOptions requestOptions();

Pool buildPool(uint64_t seed);
Golden makeGolden(const record::Program& prog, const record::Stimulus& stim);

/// The tick loop of both request paths (runRequest, and runAndCompare as
/// oracle_soak's replica spells it out): preload the stimulus arrays, then
/// every tick write the scalar inputs, call `beforeRun(t)`, run, read every
/// output word and hand them to `check(t, got)`, which returns "" or the
/// mismatch, and re-arm without clearing data memory. sim.io covers the
/// writes and reads, sim.run the run and the re-arm; the callbacks mark
/// their own layers, and what they leave unmarked stays the parent's self
/// time. Returns "" or the first error; adds the simulated cycles and
/// instructions to `cycles` and `instructions`.
template <bool kTrace, class BeforeRun, class Check>
std::string runTicks(record::Machine& mach, const record::TargetProgram& tp,
                     const record::Stimulus& stim,
                     const std::vector<Output>& outputs, Marks<kTrace>& m,
                     int64_t& cycles, int64_t& instructions,
                     BeforeRun&& beforeRun, Check&& check) {
  using namespace record;
  for (const auto& [name, vals] : stim.arrays) {
    if (tp.addrOf(name) < 0)
      return "target program lacks symbol '" + name + "'";
    for (size_t i = 0; i < vals.size(); ++i)
      mach.writeSymbol(name, static_cast<int>(i), vals[i]);
  }
  m.mark(Layer::SimIo);
  std::vector<int64_t> got;
  std::string err;
  m.foldBegin();
  for (int t = 0; t < stim.ticks; ++t) {
    for (const auto& [name, vals] : stim.scalars)
      mach.writeSymbol(
          name, 0,
          vals.empty() ? 0
                       : vals[std::min<size_t>(static_cast<size_t>(t),
                                               vals.size() - 1)]);
    m.seg(Layer::SimIo);
    beforeRun(t);
    RunResult rr = mach.run();
    m.seg(Layer::SimRun);
    if (rr.status != RunStatus::Halted) {
      err = formatv("tick %d: simulator did not halt (%s: %s)", t,
                    runStatusName(rr.status), rr.trapReason.c_str());
      break;
    }
    cycles += rr.cycles;
    instructions += rr.instructions;
    got.clear();
    for (const Output& o : outputs)
      for (int i = 0; i < o.words; ++i)
        got.push_back(mach.readSymbol(o.name, i));
    m.seg(Layer::SimIo);
    err = check(t, got);
    m.glue();
    if (!err.empty()) break;
    mach.reset(false);
    m.seg(Layer::SimRun);
  }
  m.foldEnd();
  return err;
}

struct RequestOut {
  bool ok = false;
  std::string error;
  int64_t words = 0;
  int64_t cycles = 0;
  int64_t instructions = 0;
  record::CompileStats stats;
  record::TranslateStats translate;
};

/// One request: parse -> construct the compiler -> compile -> encode ->
/// construct the Machine -> run the stimulus -> compare every output after
/// every tick with the golden trace.
template <bool kTrace>
RequestOut runRequest(const std::string& text, const record::TargetConfig& cfg,
                      const Golden& golden, Marks<kTrace>& m);

/// Deterministic work done by a run of requests.
struct Work {
  long requests = 0;
  int64_t variantsTried = 0, variantsPruned = 0;
  int64_t memoHits = 0, memoMisses = 0;
  int64_t instructions = 0, blockInstructions = 0, deopts = 0;

  void addCompile(const record::CompileStats& st) {
    variantsTried += st.variantsTried;
    variantsPruned += st.variantsPruned;
    memoHits += st.memoHits;
    memoMisses += st.memoMisses;
  }
  void add(const RequestOut& out) {
    ++requests;
    addCompile(out.stats);
    instructions += out.instructions;
    blockInstructions += out.translate.blockInstructions;
    deopts += out.translate.deopts;
  }
  /// Per-request counts and ratios of the traced phase.
  void addLayers(Report& r) const;
  /// Totals, under `phase`, for the self-test's exact comparison.
  void addCounters(Report& r, const char* phase) const;
};

/// splitmix64: the benchmark's only random source.
uint64_t mix(uint64_t x);

// ---------------------------------------------------------------------------
// Workloads and reporting
// ---------------------------------------------------------------------------

Report requestMix(const RunOptions& o);
Report simLong(const RunOptions& o);
Report oracleSoak(const RunOptions& o);
Report serviceStream(const RunOptions& o);

/// Reset the process's peak resident memory, so that peakRssMb() reports
/// the peak of what runs after it.
void resetPeakRss();
double peakRssMb();

/// Moves the calling thread round robin over the CPUs the process may use.
/// On a shared host the CPUs do not run at one speed: on a 4-vCPU VM one
/// vCPU ran oracle_soak ~25 % slower than the other three for minutes, and
/// the scheduler keeps a busy thread on the CPU it started on, so a run's
/// figures depended on where it was placed. A workload that moves on every
/// pass over its inputs times every input on every CPU. The thread's CPU
/// set is restored on destruction. Does nothing where the process may use
/// one CPU only, or may not set its affinity.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pin the thread to the next CPU.
  void next() { pin(at_++); }
  /// Pin the thread to the k-th CPU of its set (mod its size).
  void pin(size_t k);
  /// Give the thread its own CPU set back, e.g. before it starts threads
  /// that should not inherit a single CPU.
  void unpin();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t at_ = 0;
};

/// Time `setup` five times and keep the last state; returns the median.
/// The first four run on one CPU each, in turn; the kept one runs on the
/// thread's own CPU set, so threads it starts may use every CPU.
template <class F>
double timedSetup(F&& setup) {
  record::LatencySamples t;
  auto timed = [&] {
    int64_t t0 = nowNs();
    setup();
    t.record(static_cast<double>(nowNs() - t0) * 1e-9);
  };
  {
    CpuRotation cpus;
    for (int i = 0; i < 4; ++i) {
      cpus.next();
      timed();
    }
  }
  timed();
  return t.percentile(50);
}

/// Request latencies grouped into classes of requests that repeat the
/// same work: a pool pair in the closed loops, a pair and how the service
/// served it in service_stream, a generated program in oracle_soak. The
/// gated timings take every request at its class's best latency in the
/// run: the cost of that work with the shared host out of the way, as in
/// best-of-N timing. Contention on the host only adds time and comes and
/// goes faster than a class repeats, so over a run every class meets the
/// host at full speed at least once, and the best latencies hold still
/// while raw timings swing with host load. A slowdown of only some of a
/// class's requests (a periodic stall, a queue) shows in the printed raw
/// figures instead.
class ClassLatency {
 public:
  void record(size_t cls, double ms);
  /// Percentile over the requests, each at its class's best latency. A
  /// class spans its requests' ranks and sits at the middle of that span;
  /// between two middles the value is interpolated, so the result moves
  /// smoothly when a class gains or loses a request. 0 when empty.
  double percentile(double p) const;
  /// Mean over the requests, each at its class's best latency: 1000 / this
  /// is the gated requests_per_s.
  double meanBestMs() const;
  /// Every request at its own latency, log-bucketed: fixed memory, so
  /// peak_rss_mb does not grow with the request count.
  const record::LatencyHistogram& all() const { return all_; }
  size_t classes() const;

 private:
  struct Class {
    double bestMs = 0;
    size_t requests = 0;
  };
  std::vector<Class> classes_;
  record::LatencyHistogram all_;
};

/// The gated latency percentiles from `lat`, and the printed raw ones, p99
/// and sample counts.
void addLatency(Report& r, const ClassLatency& lat);
/// addLatency, plus the gated requests_per_s of a workload whose requests
/// run one at a time (1000 / lat.meanBestMs()) and the printed
/// `rawRequestsPerS`, measured over wall time.
void addTimings(Report& r, const ClassLatency& lat, double rawRequestsPerS);
/// Pool metrics every workload reports (code_words, sim_cycles); set-up
/// failures count as failed operations.
void addPoolMetrics(Report& r, const Pool& pool);
/// Per-layer metrics (mean ms per request) and the layer-share table from
/// a traced run's spans; writes the Chrome trace when asked.
void addLayers(Report& r, const SpanLog& log, const RunOptions& o);

}  // namespace perfbench
