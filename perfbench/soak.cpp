// oracle_soak: the sharded difftest soak (runShardedSoak, one job, default
// sweep, engine checks on) over one fixed seed range, cycled. The traced
// run plugs a replica of difftest::crossCheck into the SoakOptions::check
// seam: the same public calls in the same order, with spans around each,
// and requires it to reproduce the untraced run's OracleStats and digest.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "difftest/shard.h"
#include "dfl/frontend.h"
#include "ir/interp.h"
#include "sim/machine.h"
#include "support/strings.h"
#include "trace/trace.h"

namespace perfbench {

using namespace record;
using difftest::OracleStats;
using difftest::ProgSpec;
using difftest::Repro;
using difftest::SweepPoint;

namespace {

constexpr long long kRoundSeeds = 32;
/// Every run checks the same kRangeRounds rounds of seeds, over and over:
/// each program then repeats often enough for its best latency to be
/// known, and every seed times the same program mix. --seed sets the round
/// a run starts with.
constexpr uint64_t kRangeRounds = 4;
constexpr uint64_t kFirstSeed = 1000001;
constexpr uint64_t kWarmPrograms = 8;
/// Digest of an empty unique-divergence set: the oracle knows no open
/// miscompile on generated programs, so every round must report this.
constexpr uint64_t kExpectedDigest = 0x14650fb0739d0383ull;

/// runAndCompare (dspstone/harness.cpp) spelled out from its public calls
/// so its interpreter, simulator and I/O time can be told apart. Same
/// calls, same per-tick order of Interp::run and Machine::run, same result.
Measurement tracedRunAndCompare(const TargetProgram& tp, const Program& prog,
                                const Stimulus& stim, Marks<true>& m) {
  m.open(Layer::Verify);
  Measurement meas;
  meas.sizeWords = tp.sizeWords();
  Interp gold(prog);
  for (const auto& [name, vals] : stim.arrays) gold.setArray(name, vals);
  for (const auto& [name, vals] : stim.scalars) gold.setStream(name, vals);
  m.mark(Layer::Interp);
  Machine mach(tp);
  m.mark(Layer::SimConstruct);
  const std::vector<Output> outputs = outputsOf(prog);
  std::vector<int64_t> want;
  meas.error = runTicks(
      mach, tp, stim, outputs, m, meas.cycles, meas.instructions,
      [&](int) {
        gold.run(1);
        m.seg(Layer::Interp);
      },
      [&](int t, const std::vector<int64_t>& got) -> std::string {
        // The same accessor calls runAndCompare makes, grouped by layer:
        // the simulator's reads, then the golden model's, then the compare.
        want.clear();
        for (const Output& o : outputs)
          for (int i = 0; i < o.words; ++i)
            want.push_back(o.array ? gold.array(o.name)[static_cast<size_t>(i)]
                                   : gold.scalar(o.name));
        m.seg(Layer::Interp);
        size_t k = 0;
        for (const Output& o : outputs)
          for (int i = 0; i < o.words; ++i, ++k)
            if (want[k] != got[k])
              return formatv("tick %d: %s[%d] = %lld, golden model says %lld",
                             t, o.name.c_str(), i,
                             static_cast<long long>(got[k]),
                             static_cast<long long>(want[k]));
        return "";
      });
  m.close();
  meas.ok = meas.error.empty();
  return meas;
}

/// difftest::crossCheck rebuilt from public calls with a span around each.
/// A program's root span starts where the previous check ended, so the
/// soak's own work between checks (generateProgram, bookkeeping) is its
/// difftest.generate segment and the roots tile the soak call.
class TracedCheck {
 public:
  explicit TracedCheck(SpanLog& log) : log_(log) {}

  void startRound() { cursor_ = nowNs(); }
  const Work& work() const { return work_; }

  std::vector<Repro> operator()(const ProgSpec& spec,
                                const std::vector<SweepPoint>& sweep,
                                OracleStats* stats) {
    Marks<true> m(log_);
    m.begin(static_cast<uint32_t>(++req_), cursor_);
    m.mark(Layer::Generate);
    const std::string source = spec.render();
    m.mark(Layer::Generate);
    DiagEngine diag;
    auto prog = dfl::parseDfl(source, diag);
    m.mark(Layer::Parse);
    if (!prog)
      throw std::logic_error("difftest generator produced unparseable DFL:\n" +
                             diag.str() + source);
    Stimulus stim = difftest::makeStimulus(*prog, spec.seed, spec.ticks);
    m.mark(Layer::Generate);
    if (stats) ++stats->programs;
    ++work_.requests;

    difftest::CrossCheckOpts opts;
    opts.sequentialSearch = true;  // what runShardedSoak passes
    std::vector<Repro> out;
    for (const auto& pt : sweep) {
      for (bool fast : {true, false}) {
        std::shared_ptr<const TargetProgram> tp;
        bool constructed = false;
        try {
          RecordCompiler rc(pt.cfg, difftest::oracleOptions(fast, opts));
          m.mark(Layer::Construct);
          constructed = true;
          CompileResult res = rc.compile(*prog);
          m.compilePhases(m.mark(Layer::Compile), res.stats);
          work_.addCompile(res.stats);
          tp = std::make_shared<const TargetProgram>(std::move(res.prog));
        } catch (const std::runtime_error&) {
          m.mark(constructed ? Layer::Compile : Layer::Construct);
          if (stats) ++stats->unsupported;
          continue;
        }
        if (stats) ++stats->runs;
        Measurement meas = tracedRunAndCompare(*tp, *prog, stim, m);
        work_.instructions += meas.instructions;
        std::string engineDiff;
        if (meas.ok && opts.checkEngines) {
          engineDiff = compareSimEngines(*tp, stim);
          m.mark(Layer::Engines);
          if (engineDiff.empty()) continue;
          engineDiff = "simulator engine divergence: " + engineDiff;
        } else if (meas.ok) {
          continue;
        }
        Repro r;
        r.seed = spec.seed;
        r.config = pt.name;
        r.configDesc = pt.cfg.describe();
        r.fastPath = fast;
        r.divergence = engineDiff.empty() ? meas.error : engineDiff;
        r.source = source;
        try {
          TraceContext trace;
          CodegenOptions topt = difftest::oracleOptions(fast, opts);
          topt.trace = &trace;
          RecordCompiler rc(pt.cfg, topt);
          rc.compile(*prog);
          r.traceText = trace.text();
          r.traceJson = trace.chromeJson();
        } catch (const std::exception& e) {
          r.traceText = std::string("trace recompile failed: ") + e.what();
        }
        out.push_back(std::move(r));
        if (stats) ++stats->divergences;
        m.glue();
      }
    }
    cursor_ = m.end();
    return out;
  }

 private:
  SpanLog& log_;
  int64_t cursor_ = 0;
  uint64_t req_ = 0;
  Work work_;
};

struct Round {
  difftest::SoakReport report;
  double seconds = 0;
};

void checkRound(Report& r, const Round& round, uint64_t base) {
  const auto& st = round.report.stats;
  r.attempted += st.programs;
  if (st.programs != kRoundSeeds)
    r.fail(formatv("seeds %llu+: %d programs checked, expected %lld",
                   static_cast<unsigned long long>(base), st.programs,
                   kRoundSeeds));
  if (st.divergences != 0 || round.report.uniqueSetDigest() != kExpectedDigest) {
    r.failed += std::max(0, st.divergences - 1);  // one each, with fail()
    r.fail(formatv("seeds %llu+: %d divergences, digest %s",
                   static_cast<unsigned long long>(base), st.divergences,
                   difftest::keyHex(round.report.uniqueSetDigest()).c_str()));
  }
}

}  // namespace

Report oracleSoak(const RunOptions& o) {
  // The pool gives code_words and sim_cycles only; the soak never uses it,
  // so it is built once, outside the timed set-up.
  const Pool pool = buildPool(o.seed);
  std::vector<SweepPoint> sweep;
  double setupS = timedSetup([&] {
    sweep = difftest::defaultSweep();
    OracleStats warm;
    difftest::CrossCheckOpts opts;
    opts.sequentialSearch = true;
    // A fixed warm-up set: every seed's set-up does the same work.
    for (uint64_t k = 1; k <= kWarmPrograms; ++k)
      difftest::crossCheck(difftest::generateProgram(k), sweep, &warm, opts);
  });

  Report r;
  auto roundBase = [&](uint64_t k) {
    return kFirstSeed + (k + o.seed) % kRangeRounds * kRoundSeeds;
  };
  ClassLatency latMs;  // a program is a class
  auto soak = [&](uint64_t base,
                  std::function<std::vector<Repro>(const ProgSpec&,
                                                   const std::vector<SweepPoint>&,
                                                   OracleStats*)> check) {
    difftest::SoakOptions so;
    so.baseSeed = base;
    so.seedCount = kRoundSeeds;
    so.jobs = 1;
    so.check = std::move(check);
    int64_t t0 = nowNs();
    Round round;
    round.report = difftest::runShardedSoak(so, sweep);
    round.seconds = static_cast<double>(nowNs() - t0) * 1e-9;
    return round;
  };
  // The real oracle, timed per program.
  auto untraced = [&](uint64_t base) {
    return soak(base, [&](const ProgSpec& spec,
                          const std::vector<SweepPoint>& sw, OracleStats* st) {
      difftest::CrossCheckOpts opts;
      opts.sequentialSearch = true;  // what runShardedSoak passes
      int64_t t0 = nowNs();
      auto out = difftest::crossCheck(spec, sw, st, opts);
      latMs.record(spec.seed - kFirstSeed,
                   static_cast<double>(nowNs() - t0) * 1e-6);
      return out;
    });
  };

  Budget budget(o);
  long programs = 0;
  double seconds = 0;
  uint64_t rounds = 0;
  CpuRotation cpus;  // a CPU per pass over the range
  if (!o.trace) {
    for (; budget.more(programs); ++rounds) {
      if (rounds % kRangeRounds == 0) cpus.next();
      const uint64_t base = roundBase(rounds);
      Round round = untraced(base);
      checkRound(r, round, base);
      programs += round.report.stats.programs;
      seconds += round.seconds;
    }
    r.endToEnd.push_back({"setup_s", setupS, "s"});
    addTimings(r, latMs, static_cast<double>(programs) / seconds);
    r.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    addPoolMetrics(r, pool);
    r.counters.push_back({"programs", static_cast<double>(programs), ""});
    return r;
  }

  // Traced: each range runs untraced, then through the replica, which must
  // reproduce the untraced OracleStats and digest exactly.
  SpanLog log;
  TracedCheck replica(log);
  long tracedPrograms = 0;
  double tracedSeconds = 0;
  OracleStats total;
  for (; budget.more(programs); ++rounds) {
    if (rounds % kRangeRounds == 0) cpus.next();
    const uint64_t base = roundBase(rounds);
    Round plain = untraced(base);
    checkRound(r, plain, base);
    replica.startRound();
    Round traced = soak(base, [&](const ProgSpec& spec,
                                  const std::vector<SweepPoint>& sw,
                                  OracleStats* st) {
      return replica(spec, sw, st);
    });
    const auto& a = plain.report.stats;
    const auto& b = traced.report.stats;
    if (a.programs != b.programs || a.runs != b.runs ||
        a.unsupported != b.unsupported || a.divergences != b.divergences ||
        plain.report.uniqueSetDigest() != traced.report.uniqueSetDigest())
      r.fail(formatv("seeds %llu+: replica stats %d/%d/%d/%d digest %s, "
                     "oracle %d/%d/%d/%d digest %s",
                     static_cast<unsigned long long>(base), b.programs, b.runs,
                     b.unsupported, b.divergences,
                     difftest::keyHex(traced.report.uniqueSetDigest()).c_str(),
                     a.programs, a.runs, a.unsupported, a.divergences,
                     difftest::keyHex(plain.report.uniqueSetDigest()).c_str()));
    programs += a.programs;
    seconds += plain.seconds;
    tracedPrograms += b.programs;
    tracedSeconds += traced.seconds;
    total.runs += a.runs;
    total.unsupported += a.unsupported;
  }
  addLayers(r, log, o);
  replica.work().addLayers(r);
  LayerTotals t = aggregate(log);
  double untracedPerProgram = seconds * 1e3 / static_cast<double>(programs);
  double tracedPerProgram = t.totalMs / static_cast<double>(t.requests);
  r.layers.push_back({"oracle.replica_coverage",
                      tracedPerProgram / untracedPerProgram, "ratio"});
  double plainRate = static_cast<double>(programs) / seconds;
  double tracedRate = static_cast<double>(tracedPrograms) / tracedSeconds;
  r.layers.push_back({"trace.overhead_frac", 1.0 - tracedRate / plainRate,
                      "ratio"});
  r.info.push_back({"untraced_programs_per_s", plainRate, "1/s"});
  r.info.push_back({"traced_programs_per_s", tracedRate, "1/s"});
  r.info.push_back({"oracle_runs", static_cast<double>(total.runs), "count"});
  r.info.push_back({"oracle_unsupported", static_cast<double>(total.unsupported),
                    "count"});
  addPoolMetrics(r, pool);
  r.counters.push_back({"programs", static_cast<double>(programs), ""});
  r.counters.push_back({"oracle_runs", static_cast<double>(total.runs), ""});
  r.counters.push_back(
      {"oracle_unsupported", static_cast<double>(total.unsupported), ""});
  replica.work().addCounters(r, "traced");
  return r;
}

}  // namespace perfbench
