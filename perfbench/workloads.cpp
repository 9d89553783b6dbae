// Closed-loop workloads over the one request path (bench.h runRequest):
// request_mix (short stimulus, every config) and sim_long (long stimulus,
// default config).
#include <stdexcept>

#include "bench.h"
#include "support/strings.h"

namespace perfbench {

using namespace record;

namespace {

/// One closed-loop client over `pairs`, in a seeded order reshuffled every
/// pass. Every request is checked against its golden trace and against
/// the words and cycles the setup recorded for it.
class ClosedLoop {
 public:
  ClosedLoop(const Pool& pool, const std::vector<Pair>& pairs,
             const std::vector<Golden>& golden, uint64_t seed)
      : pool_(pool), pairs_(pairs), golden_(golden), rng_(seed),
        order_(pairs.size()) {
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    pos_ = order_.size();
  }

  /// Run one measured phase; returns its wall seconds.
  template <bool kTrace>
  double phase(Report& r, const Budget& budget, Marks<kTrace>& m, Work& work,
               ClassLatency& latMs) {
    long n = 0;
    while (budget.more(n)) {
      const size_t pair = next();
      const Pair& p = pairs_[pair];
      const Source& src = pool_.sources[static_cast<size_t>(p.source)];
      int64_t t0 = nowNs();
      m.begin(static_cast<uint32_t>(reqId_++));
      RequestOut out;
      try {
        out = runRequest(src.text, pool_.sweep[static_cast<size_t>(p.sweep)].cfg,
                         golden_[static_cast<size_t>(p.source)], m);
      } catch (const std::exception& e) {
        out.error = e.what();
      }
      m.end();
      latMs.record(pair, static_cast<double>(nowNs() - t0) * 1e-6);
      ++n;
      ++r.attempted;
      const char* cfgName = pool_.sweep[static_cast<size_t>(p.sweep)].name.c_str();
      if (!out.ok)
        r.fail(src.name + " on " + cfgName + ": " + out.error);
      else if (out.words != p.words || out.cycles != p.cycles)
        r.fail(formatv("%s on %s: %lld words / %lld cycles, setup had %lld / "
                       "%lld (nondeterministic)",
                       src.name.c_str(), cfgName,
                       static_cast<long long>(out.words),
                       static_cast<long long>(out.cycles),
                       static_cast<long long>(p.words),
                       static_cast<long long>(p.cycles)));
      work.add(out);
    }
    return budget.elapsedS();
  }

 private:
  size_t next() {
    if (pos_ == order_.size()) {
      cpus_.next();
      for (size_t i = order_.size(); i > 1; --i) {
        rng_ = mix(rng_);
        std::swap(order_[i - 1], order_[rng_ % i]);
      }
      pos_ = 0;
    }
    return order_[pos_++];
  }

  const Pool& pool_;
  const std::vector<Pair>& pairs_;
  const std::vector<Golden>& golden_;
  uint64_t rng_;
  std::vector<size_t> order_;
  size_t pos_;
  uint64_t reqId_ = 1;
  CpuRotation cpus_;  // a CPU per pass
};

/// Shared runner of both closed-loop workloads. The untraced run reports
/// the end-to-end metrics; the traced run splits its time in half between
/// an untraced and a traced phase, for the layer split and the overhead.
Report runClosedLoop(const RunOptions& o, double setupS, const Pool& pool,
                     const std::vector<Pair>& pairs,
                     const std::vector<Golden>& golden) {
  Report r;
  r.info.push_back({"request_pairs", static_cast<double>(pairs.size()),
                    "count"});
  ClosedLoop loop(pool, pairs, golden, mix(o.seed ^ 0x5eed));
  ClassLatency lat;
  if (!o.trace) {
    Work work;
    Marks<false> none;
    double sec = loop.phase(r, Budget(o), none, work, lat);
    r.endToEnd.push_back({"setup_s", setupS, "s"});
    addTimings(r, lat, static_cast<double>(work.requests) / sec);
    r.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    addPoolMetrics(r, pool);
    r.info.push_back({"sim_minsn_per_s",
                      static_cast<double>(work.instructions) / sec * 1e-6,
                      "Minsn/s"});
    work.addCounters(r, "run");
    return r;
  }
  Work plain, traced;
  Marks<false> none;
  double plainS = loop.phase(r, Budget(o, 0.5), none, plain, lat);
  SpanLog log;
  Marks<true> marks(log);
  ClassLatency tracedLat;
  double tracedS = loop.phase(r, Budget(o, 0.5), marks, traced, tracedLat);
  addLayers(r, log, o);
  traced.addLayers(r);
  double plainRps = static_cast<double>(plain.requests) / plainS;
  double tracedRps = static_cast<double>(traced.requests) / tracedS;
  r.layers.push_back({"trace.overhead_frac", 1.0 - tracedRps / plainRps,
                      "ratio"});
  r.info.push_back({"untraced_requests_per_s", plainRps, "1/s"});
  r.info.push_back({"traced_requests_per_s", tracedRps, "1/s"});
  addPoolMetrics(r, pool);
  plain.addCounters(r, "untraced");
  traced.addCounters(r, "traced");
  return r;
}

}  // namespace

Report requestMix(const RunOptions& o) {
  Pool pool;
  double setupS = timedSetup([&] { pool = buildPool(o.seed); });
  Report r = runClosedLoop(o, setupS, pool, pool.pairs, pool.golden);
  if (o.trace) {
    // The ROADMAP probe split, per DSPStone kernel on the default config:
    // parse / construct / compile / Machine construct / run, in µs.
    SpanLog log;
    Marks<true> m(log);
    r.table.push_back("");
    r.table.push_back(formatv("%-18s %9s %9s %9s %9s %9s  (us, default config, "
                              "median of 15)",
                              "kernel", "parse", "construct", "compile",
                              "sim.ctor", "sim.run"));
    const Layer cols[] = {Layer::Parse, Layer::Construct, Layer::Compile,
                          Layer::SimConstruct, Layer::SimRun};
    for (size_t i = 0; i < pool.sources.size() && i < 10; ++i) {
      LatencySamples us[5];
      for (int rep = 0; rep < 15; ++rep) {
        size_t from = log.spans.size();
        m.begin(0);
        runRequest(pool.sources[i].text, pool.sweep[0].cfg, pool.golden[i], m);
        m.end();
        for (size_t s = from; s < log.spans.size(); ++s)
          for (int c = 0; c < 5; ++c)
            if (log.spans[s].layer == cols[c])
              us[c].record(static_cast<double>(log.spans[s].dur()) * 1e-3);
      }
      r.table.push_back(formatv("%-18s %9.2f %9.2f %9.2f %9.2f %9.2f",
                                pool.sources[i].name.c_str(),
                                us[0].percentile(50), us[1].percentile(50),
                                us[2].percentile(50), us[3].percentile(50),
                                us[4].percentile(50)));
    }
  }
  return r;
}

Report simLong(const RunOptions& o) {
  constexpr int kLongTicks = 10000;
  Pool pool;
  std::vector<Golden> golden;
  std::vector<Pair> pairs;
  double setupS = timedSetup([&] {
    pool = buildPool(o.seed);
    golden.clear();
    pairs.clear();
    for (size_t i = 0; i < pool.sources.size() && pool.sources[i].fixed; ++i)
      golden.push_back(makeGolden(
          pool.programs[i],
          defaultStimulus(pool.programs[i],
                          static_cast<uint32_t>(mix(o.seed + 77 + i)),
                          kLongTicks)));
    // The fixed sources on the default config only; each request's words
    // and cycles are pinned by one untimed run here.
    Marks<false> none;
    for (const Pair& p : pool.pairs) {
      if (p.sweep != 0 || !pool.sources[static_cast<size_t>(p.source)].fixed)
        continue;
      RequestOut out = runRequest(pool.sources[static_cast<size_t>(p.source)].text,
                                  pool.sweep[0].cfg,
                                  golden[static_cast<size_t>(p.source)], none);
      if (out.ok)
        pairs.push_back({p.source, 0, out.words, out.cycles});
      else
        pool.errors.push_back(pool.sources[static_cast<size_t>(p.source)].name +
                              " long run: " + out.error);
    }
  });
  return runClosedLoop(o, setupS, pool, pairs, golden);
}

}  // namespace perfbench
