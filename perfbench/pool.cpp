// The request pool, the request path and the reporting helpers shared by
// every workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "dfl/frontend.h"
#include "dspstone/kernels.h"
#include "ir/interp.h"
#include "sim/machine.h"
#include "support/strings.h"
#include "target/encode.h"

namespace perfbench {

using namespace record;

void Report::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

CodegenOptions requestOptions() {
  CodegenOptions opt;
  opt.searchThreads = 1;
  return opt;
}

namespace {

std::string readFile(const std::filesystem::path& p) {
  std::ifstream in(p);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Sorted *.dfl files of a checkout directory, which must exist.
std::vector<std::filesystem::path> dflFiles(const char* dir) {
  if (!std::filesystem::is_directory(dir))
    throw std::runtime_error(std::string("missing input directory ") + dir +
                             " (run from the repository root)");
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().extension() == ".dfl") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

/// Corpus entries carry their oracle tick count in a "//! ticks: N" header.
int corpusTicks(const std::string& text) {
  auto at = text.find("//! ticks:");
  return at == std::string::npos ? 4 : std::atoi(text.c_str() + at + 10);
}

std::vector<Source> loadSources(uint64_t seed, int configs) {
  std::vector<Source> out;
  for (const Kernel& k : dspstoneKernels())
    out.push_back({k.name, k.dfl, k.ticks, true});
  for (const char* dir : {"tests/corpus", "examples/dfl"})
    for (const auto& p : dflFiles(dir)) {
      std::string text = readFile(p);
      out.push_back({p.stem().string(), text, corpusTicks(text), true});
    }
  for (int i = 0; i < kGeneratedPrograms; ++i) {
    uint64_t g = mix(seed * 1000 + static_cast<uint64_t>(i));
    auto spec = difftest::generateProgram(g);
    out.push_back({formatv("gen-%d", i), spec.render(), spec.ticks, false,
                   static_cast<int>(mix(g) % static_cast<uint64_t>(configs))});
  }
  return out;
}

}  // namespace

std::vector<Output> outputsOf(const Program& prog) {
  std::vector<Output> out;
  for (const auto& sym : prog.symbols.all())
    if (sym->kind == SymKind::Output)
      out.push_back(
          {sym->name, sym->isArray() ? sym->arraySize : 1, sym->isArray()});
  return out;
}

Golden makeGolden(const Program& prog, const Stimulus& stim) {
  Golden g;
  g.stim = stim;
  g.outputs = outputsOf(prog);
  for (const auto& out : g.outputs) g.wordsPerTick += out.words;
  Interp gold(prog);
  for (const auto& [name, vals] : stim.arrays) gold.setArray(name, vals);
  for (const auto& [name, vals] : stim.scalars) gold.setStream(name, vals);
  g.trace.reserve(static_cast<size_t>(g.wordsPerTick) *
                  static_cast<size_t>(stim.ticks));
  for (int t = 0; t < stim.ticks; ++t) {
    gold.run(1);
    for (const auto& out : g.outputs) {
      std::vector<int64_t> vals =
          out.array ? gold.array(out.name)
                    : std::vector<int64_t>{gold.scalar(out.name)};
      for (int64_t v : vals) {
        if (v < std::numeric_limits<int16_t>::min() ||
            v > std::numeric_limits<int16_t>::max())
          throw std::runtime_error("golden output " + out.name +
                                   " is not a 16-bit word");
        g.trace.push_back(static_cast<int16_t>(v));
      }
    }
  }
  return g;
}

template <bool kTrace>
RequestOut runRequest(const std::string& text, const TargetConfig& cfg,
                      const Golden& g, Marks<kTrace>& m) {
  RequestOut out;
  DiagEngine diag;
  std::optional<Program> prog = dfl::parseDfl(text, diag);
  m.mark(Layer::Parse);
  if (!prog) {
    out.error = "parse error: " + diag.str();
    return out;
  }
  RecordCompiler rc(cfg, requestOptions());
  m.mark(Layer::Construct);
  CompileResult res = rc.compile(*prog);
  m.compilePhases(m.mark(Layer::Compile), res.stats);
  out.stats = res.stats;
  out.words = res.prog.sizeWords();
  std::string err;
  std::optional<CodeImage> image = encode(res.prog, &err);
  m.mark(Layer::Encode);
  if (!image || image->words.size() != res.prog.code.size()) {
    out.error = "encode failed: " + err;
    return out;
  }
  Machine mach(res.prog);
  m.mark(Layer::SimConstruct);
  out.error = runTicks(
      mach, res.prog, g.stim, g.outputs, m, out.cycles, out.instructions,
      [](int) {},
      [&](int t, const std::vector<int64_t>& got) -> std::string {
        const int16_t* want =
            g.trace.data() + static_cast<size_t>(t) * got.size();
        for (size_t k = 0; k < got.size(); ++k)
          if (got[k] != want[k])
            return formatv("tick %d: output word %zu = %lld, golden %d", t,
                           k, static_cast<long long>(got[k]), want[k]);
        return "";
      });
  if (!out.error.empty()) return out;
  out.translate = mach.translateStats();
  out.ok = true;
  return out;
}

template RequestOut runRequest<false>(const std::string&, const TargetConfig&,
                                      const Golden&, Marks<false>&);
template RequestOut runRequest<true>(const std::string&, const TargetConfig&,
                                     const Golden&, Marks<true>&);

Pool buildPool(uint64_t seed) {
  Pool pool;
  pool.sweep = difftest::defaultSweep();
  pool.sources = loadSources(seed, static_cast<int>(pool.sweep.size()));
  for (size_t i = 0; i < pool.sources.size(); ++i) {
    const Source& s = pool.sources[i];
    pool.programs.push_back(dfl::parseDflOrDie(s.text, s.name));
    // Fixed sources keep a fixed stimulus, so the Table 1 totals do not
    // depend on the seed.
    auto stimSeed = static_cast<uint32_t>(s.fixed ? 1 + i : mix(seed + i));
    pool.golden.push_back(makeGolden(
        pool.programs.back(),
        defaultStimulus(pool.programs.back(), stimSeed, s.ticks)));
  }
  Marks<false> none;
  for (size_t i = 0; i < pool.sources.size(); ++i)
    for (size_t k = 0; k < pool.sweep.size(); ++k) {
      if (pool.sources[i].config >= 0 &&
          static_cast<size_t>(pool.sources[i].config) != k)
        continue;
      RequestOut out;
      try {
        out = runRequest(pool.sources[i].text, pool.sweep[k].cfg,
                         pool.golden[i], none);
      } catch (const std::runtime_error&) {
        ++pool.rejectedPairs;  // capability rejection: not a request
        continue;
      }
      if (!out.ok) {
        pool.errors.push_back(pool.sources[i].name + " on " +
                              pool.sweep[k].name + ": " + out.error);
        continue;
      }
      pool.pairs.push_back({static_cast<int>(i), static_cast<int>(k),
                            out.words, out.cycles});
      if (pool.sources[i].fixed) {
        pool.codeWords += out.words;
        pool.simCycles += out.cycles;
      }
    }
  return pool;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  if (cpus_.size() < 2) cpus_.clear();
}

CpuRotation::~CpuRotation() { unpin(); }

void CpuRotation::unpin() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::pin(size_t k) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[k % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // best effort: a failure only
                                           // leaves the thread where it is
}

void resetPeakRss() {
  // "5" resets the peak resident set size (VmHWM) to the current one.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void Work::addLayers(Report& r) const {
  double n = requests > 0 ? static_cast<double>(requests) : 1.0;
  auto ratio = [](int64_t a, int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  r.layers.push_back({"codegen.variants_tried",
                      static_cast<double>(variantsTried) / n, "count"});
  r.layers.push_back({"codegen.variants_pruned",
                      static_cast<double>(variantsPruned) / n, "count"});
  r.layers.push_back({"codegen.label_memo_hit_ratio",
                      ratio(memoHits, memoHits + memoMisses), "ratio"});
  r.layers.push_back({"sim.instructions", static_cast<double>(instructions) / n,
                      "count"});
  r.layers.push_back({"sim.translate_block_share",
                      ratio(blockInstructions, instructions), "ratio"});
  r.layers.push_back({"sim.translate_deopts", static_cast<double>(deopts) / n,
                      "count"});
}

void Work::addCounters(Report& r, const char* phase) const {
  auto add = [&](const char* name, int64_t v) {
    r.counters.push_back(
        {formatv("%s.%s", phase, name), static_cast<double>(v), ""});
  };
  add("requests", requests);
  add("variants_tried", variantsTried);
  add("variants_pruned", variantsPruned);
  add("memo_hits", memoHits);
  add("instructions", instructions);
  add("block_instructions", blockInstructions);
  add("deopts", deopts);
}

void ClassLatency::record(size_t cls, double ms) {
  if (cls >= classes_.size()) classes_.resize(cls + 1);
  Class& c = classes_[cls];
  c.bestMs = c.requests == 0 ? ms : std::min(c.bestMs, ms);
  ++c.requests;
  all_.record(ms);
}

double ClassLatency::percentile(double p) const {
  std::vector<Class> byBest;
  for (const Class& c : classes_)
    if (c.requests > 0) byBest.push_back(c);
  if (byBest.empty()) return 0;
  std::sort(byBest.begin(), byBest.end(),
            [](const Class& a, const Class& b) { return a.bestMs < b.bestMs; });
  const double rank = p / 100.0 * static_cast<double>(all_.count());
  double below = 0;  // requests of the classes before this one
  double prevMid = 0, prevMs = byBest.front().bestMs;
  for (size_t i = 0; i < byBest.size(); ++i) {
    const double mid = below + 0.5 * static_cast<double>(byBest[i].requests);
    if (rank <= mid) {
      if (i == 0) return byBest[i].bestMs;
      return prevMs + (byBest[i].bestMs - prevMs) * (rank - prevMid) / (mid - prevMid);
    }
    below += static_cast<double>(byBest[i].requests);
    prevMid = mid;
    prevMs = byBest[i].bestMs;
  }
  return byBest.back().bestMs;
}

double ClassLatency::meanBestMs() const {
  double sum = 0;
  for (const Class& c : classes_) sum += c.bestMs * static_cast<double>(c.requests);
  return all_.count() > 0 ? sum / static_cast<double>(all_.count()) : 0;
}

size_t ClassLatency::classes() const {
  return static_cast<size_t>(std::count_if(
      classes_.begin(), classes_.end(),
      [](const Class& c) { return c.requests > 0; }));
}

void addLatency(Report& r, const ClassLatency& lat) {
  r.endToEnd.push_back({"latency_p50_ms", lat.percentile(50), "ms"});
  r.endToEnd.push_back({"latency_p90_ms", lat.percentile(90), "ms"});
  // Printed, not gated: every request at its own latency, so these track
  // host load.
  r.info.push_back({"raw_latency_p50_ms", lat.all().percentile(50), "ms"});
  r.info.push_back({"raw_latency_p90_ms", lat.all().percentile(90), "ms"});
  r.info.push_back({"latency_p99_ms", lat.all().percentile(99), "ms"});
  r.info.push_back({"latency_samples", static_cast<double>(lat.all().count()),
                    "count"});
  r.info.push_back({"latency_classes", static_cast<double>(lat.classes()),
                    "count"});
}

void addTimings(Report& r, const ClassLatency& lat, double rawRequestsPerS) {
  const double meanBest = lat.meanBestMs();
  r.endToEnd.push_back(
      {"requests_per_s", meanBest > 0 ? 1e3 / meanBest : 0.0, "1/s"});
  r.info.push_back({"raw_requests_per_s", rawRequestsPerS, "1/s"});
  addLatency(r, lat);
}

void addPoolMetrics(Report& r, const Pool& pool) {
  for (const auto& e : pool.errors) {
    ++r.attempted;
    r.fail("set-up: " + e);
  }
  r.endToEnd.push_back({"code_words", static_cast<double>(pool.codeWords),
                        "words"});
  r.endToEnd.push_back({"sim_cycles", static_cast<double>(pool.simCycles),
                        "cycles"});
  r.info.push_back({"pool_pairs", static_cast<double>(pool.pairs.size()),
                    "count"});
  r.info.push_back({"rejected_pairs", static_cast<double>(pool.rejectedPairs),
                    "count"});
  r.counters.push_back({"code_words", static_cast<double>(pool.codeWords), ""});
  r.counters.push_back({"sim_cycles", static_cast<double>(pool.simCycles), ""});
}

// The written trace keeps the first requests only; the metrics cover all.
constexpr size_t kChromeTraceRequests = 2000;

void addLayers(Report& r, const SpanLog& log, const RunOptions& o) {
  LayerTotals t = aggregate(log);
  if (t.tilingErrors)
    r.fail(formatv("%ld spans do not tile their parent", t.tilingErrors));
  double n = t.requests > 0 ? static_cast<double>(t.requests) : 1.0;
  auto per = [&](Layer l) {
    return t.inclusiveMs[static_cast<size_t>(l)] / n;
  };
  for (Layer l : {Layer::Parse, Layer::Construct, Layer::Compile,
                  Layer::Rewrite, Layer::Search, Layer::Reduce, Layer::Late,
                  Layer::Encode, Layer::SimConstruct, Layer::SimRun,
                  Layer::SimIo, Layer::Verify, Layer::Engines,
                  Layer::Generate, Layer::Interp})
    r.layers.push_back({std::string(layerName(l)) + "_ms", per(l), "ms"});
  double unattributed =
      t.selfMs[static_cast<size_t>(Layer::Request)] / n;
  r.layers.push_back({"unattributed_ms", unattributed, "ms"});
  r.info.push_back({"traced_requests", static_cast<double>(t.requests),
                    "count"});
  r.counters.push_back({"spans", static_cast<double>(log.spans.size()), ""});

  // Self times tile each request, so their shares sum to 100 %.
  double total = t.totalMs / n;
  r.table.push_back(formatv("%-22s %12s %8s", "layer (self time)",
                            "ms/request", "share"));
  for (int l = 0; l < kNumLayers; ++l) {
    double self = t.selfMs[static_cast<size_t>(l)] / n;
    if (self <= 0) continue;
    const char* name = l == 0 ? "(unattributed)" : layerName(static_cast<Layer>(l));
    r.table.push_back(formatv("%-22s %12.5f %7.2f%%", name, self,
                              total > 0 ? 100.0 * self / total : 0.0));
  }
  r.table.push_back(formatv("%-22s %12.5f %7.2f%%", "total", total, 100.0));

  if (!o.traceDir.empty()) {
    std::string err;
    std::string json = chromeTrace(log, kChromeTraceRequests, &err);
    std::string path = formatv("%s/%s-seed%llu.json", o.traceDir.c_str(),
                               o.workload.c_str(),
                               static_cast<unsigned long long>(o.seed));
    if (json.empty()) {
      r.fail("Chrome trace does not validate: " + err);
    } else {
      std::ofstream out(path);
      out << json;
      if (!out) r.fail("cannot write " + path);
    }
  }
}

}  // namespace perfbench
