// service_stream: server::CompileService with one worker, under two loads.
// In both, kDuplicatePct of the requests repeat an earlier key of their
// stream (cache hits, or coalesced onto a compile in flight); the rest are
// pool programs under a fresh program name, so they are new keys that
// compile.
//
// Saturation: one stream of kBurstRequests, submitted back to back into a
// fresh service again and again, so the misses pile up in the admission
// queue and duplicates of queued keys coalesce. A burst's rate is its
// requests over its first submit to its last completion: the rate the
// service works off, not the rate the generator offers. Every burst does
// the same work, so requests_per_s is the best burst's rate (best-of-N,
// as the latencies are; bench.h ClassLatency).
//
// Open loop: requests due at the fixed offered rate kRatePerS, low enough
// that the median and p90 stay clear of the queueing tail when the host
// runs at half speed. Each request is timed from when it was due, not from
// when the generator got to it; the generator yield-spins to its due times
// rather than sleeping, because oversleeping would show up as lag in every
// latency. The latency metrics come from this phase.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "dfl/frontend.h"
#include "server/compileservice.h"
#include "support/strings.h"
#include "trace/metrics.h"

namespace perfbench {

using namespace record;

namespace {

// A tenth to a twentieth of the one-worker saturation rate of this stream,
// which the saturation phase measured at 8.7-24 thousand requests/s
// (README.md).
constexpr double kRatePerS = 1000;
constexpr double kSloMs = 25;       // latency limit for slo_miss_frac
// Above one half, so that the median request sits inside the hit mode of
// the latency distribution (and p90 inside the compile mode), not on the
// cliff between the two, where it would swing with the exact hit count.
constexpr uint64_t kDuplicatePct = 60;
constexpr size_t kBurstRequests = 400;
constexpr double kBurstShare = 0.3;  // of the measured seconds

/// `text` with its program renamed: the content key covers the name, so
/// the renamed program is a new key with exactly the original's work.
std::string renamed(const std::string& text, const std::string& name) {
  auto at = text.find("program ");
  auto semi = at == std::string::npos ? at : text.find(';', at);
  if (semi == std::string::npos)
    throw std::runtime_error("no program header to rename");
  return text.substr(0, at + 8) + name + text.substr(semi);
}

struct Stream {
  std::vector<server::CompileRequest> requests;
  std::vector<size_t> pair;  // per request: the fixed pair it compiles
  int64_t duplicates = 0;
};

/// Stream `id` of a run: `n` requests whose fresh keys are named after it.
Stream makeStream(const Pool& pool, uint64_t seed, int id, size_t n) {
  Stream s;
  uint64_t rng = mix(seed ^ (0x51 + static_cast<uint64_t>(id)));
  std::vector<size_t> origin;  // index of the first request of each key
  // Fresh keys walk the fixed sources' pairs in a seeded order, pass after
  // pass, so every seed compiles the same mix.
  std::vector<const Pair*> fixed;
  for (const Pair& p : pool.pairs)
    if (pool.sources[static_cast<size_t>(p.source)].fixed) fixed.push_back(&p);
  for (size_t i = fixed.size(); i > 1; --i)
    std::swap(fixed[i - 1], fixed[mix(rng + i) % i]);
  size_t fresh = 0;
  for (size_t i = 0; i < n; ++i) {
    rng = mix(rng);
    bool dup = i > 0 && (rng >> 11) % 100 < kDuplicatePct;
    if (dup) {
      size_t first = origin[(rng >> 20) % origin.size()];
      s.requests.push_back(s.requests[first]);
      s.pair.push_back(s.pair[first]);
      ++s.duplicates;
    } else {
      s.pair.push_back(fresh % fixed.size());
      const Pair& p = *fixed[s.pair.back()];
      const Source& src = pool.sources[static_cast<size_t>(p.source)];
      std::string name = formatv("s%d_%zu_%s", id, fresh, src.name.c_str());
      std::replace(name.begin(), name.end(), '-', '_');  // corpus file names
      s.requests.push_back({renamed(src.text, name),
                            pool.sweep[static_cast<size_t>(p.sweep)].cfg,
                            requestOptions()});
      origin.push_back(i);
      ++fresh;
    }
  }
  return s;
}

/// A one-worker service whose per-config compiler leases are warm, from
/// keys the streams never use.
std::unique_ptr<server::CompileService> startService(const Pool& pool) {
  server::ServiceOptions so;
  so.workers = 1;
  auto svc = std::make_unique<server::CompileService>(so);
  for (size_t k = 0; k < pool.sweep.size(); ++k)
    svc->compileSync({renamed(pool.sources[0].text, formatv("warm%zu", k)),
                      pool.sweep[k].cfg, requestOptions()});
  return svc;
}

/// What one phase's requests did inside the service.
struct PhaseBooks {
  int64_t requests = 0, duplicates = 0, hits = 0, coalesced = 0;
  LatencySamples queueMs;    // admission-queue wait of the misses
  LatencySamples compileMs;  // compile time of the misses
};

/// Correctness of one stream served by `svc` (stats `before` it was
/// submitted): every response compiled, the service's books reconcile,
/// every duplicate was served without a compile, and sampled listings
/// (`listingChecks` of them) equal a direct compile of the same request.
/// Folds every served listing into `digest` and the stream's figures into
/// `books`.
void checkServed(Report& r, server::CompileService& svc,
                 const server::ServiceStats& before, const Stream& s,
                 const std::vector<server::Ticket>& tickets, uint64_t seed,
                 int listingChecks, uint64_t& digest, PhaseBooks& books) {
  const size_t n = s.requests.size();
  for (size_t i = 0; i < n; ++i) {
    const server::CompileResponse& resp = tickets[i].wait();
    ++r.attempted;
    if (!resp.ok() || !resp.prog) {
      r.fail(formatv("request %zu: %s", i, resp.error.c_str()));
      continue;
    }
    digest = mix(digest ^ std::hash<std::string>{}(resp.prog->listing(true)));
    if (resp.outcome == server::Outcome::Miss) {
      books.queueMs.record(resp.phases[server::Phase::QueueWait]);
      books.compileMs.record(resp.phases[server::Phase::Compile]);
    }
  }
  const server::ServiceStats after = svc.stats();
  const int64_t requests = after.requests - before.requests;
  if (requests != static_cast<int64_t>(n))
    r.fail(formatv("service counted %lld requests, %zu submitted",
                   static_cast<long long>(requests), n));
  MetricsSnapshot snap = svc.metricsSnapshot();
  int64_t histogrammed = 0;
  for (int k = 0; k < server::kNumOutcomes; ++k)
    if (auto* h = snap.histogram(std::string("server.latency.") +
                                 server::outcomeName(static_cast<server::Outcome>(k))))
      histogrammed += static_cast<int64_t>(h->count);
  if (histogrammed != after.requests)
    r.fail(formatv("latency histograms hold %lld requests, stats %lld",
                   static_cast<long long>(histogrammed),
                   static_cast<long long>(after.requests)));
  const int64_t hits = after.cacheHits - before.cacheHits;
  const int64_t coalesced = after.coalesced - before.coalesced;
  if (hits + coalesced != s.duplicates)
    r.fail(formatv("%lld requests served without a compile, %lld duplicates",
                   static_cast<long long>(hits + coalesced),
                   static_cast<long long>(s.duplicates)));
  uint64_t rng = mix(seed ^ 0xc0de);
  for (int k = 0; k < listingChecks && n > 0; ++k) {
    rng = mix(rng);
    size_t i = rng % n;
    const server::CompileResponse& resp = tickets[i].wait();
    if (!resp.prog) continue;
    const server::CompileRequest& req = s.requests[i];
    Program prog = dfl::parseDflOrDie(req.source);
    RecordCompiler rc(req.cfg, req.opt);
    if (rc.compile(prog).prog.listing(true) != resp.prog->listing(true))
      r.fail(formatv("request %zu: service listing differs from a direct "
                     "compile", i));
  }
  books.requests += requests;
  books.duplicates += s.duplicates;
  books.hits += hits;
  books.coalesced += coalesced;
}

void addBooks(Report& r, const char* phase, const PhaseBooks& b) {
  auto info = [&](const char* name, double v, const char* unit) {
    r.info.push_back({formatv("%s.%s", phase, name), v, unit});
  };
  info("requests", static_cast<double>(b.requests), "count");
  info("cache_hits", static_cast<double>(b.hits), "count");
  info("coalesced", static_cast<double>(b.coalesced), "count");
  info("queue_wait_p50_ms", b.queueMs.percentile(50), "ms");
  info("queue_wait_p99_ms", b.queueMs.percentile(99), "ms");
  info("compile_p50_ms", b.compileMs.percentile(50), "ms");
}

}  // namespace

Report serviceStream(const RunOptions& o) {
  const size_t n = o.fixedRequests > 0
                       ? static_cast<size_t>(o.fixedRequests)
                       : static_cast<size_t>(kRatePerS * o.seconds *
                                             (1 - kBurstShare));
  Pool pool;
  Stream stream;
  std::unique_ptr<server::CompileService> svc;
  double setupS = timedSetup([&] {
    svc.reset();
    pool = buildPool(o.seed);
    stream = makeStream(pool, o.seed, 0, n);
    svc = startService(pool);
  });

  Report r;
  uint64_t digest = 0;

  // Saturation bursts, each into a fresh service, so that the cache and
  // the memory a burst leaves behind do not carry over.
  PhaseBooks burst;
  LatencySamples burstRate;
  const size_t burstN = o.fixedRequests > 0 ? n : kBurstRequests;
  const Stream s = makeStream(pool, o.seed, 1, burstN);
  // Burst k runs its worker on CPU k and the submitting thread on CPU k+1
  // (bench.h CpuRotation; the worker inherits the CPU it is started on), so
  // the best burst is not bound to where the process was placed.
  CpuRotation cpus;
  Budget budget(o, kBurstShare);
  for (int id = 1; budget.more(static_cast<long>(burst.requests)); ++id) {
    cpus.pin(static_cast<size_t>(id));
    auto bsvc = startService(pool);
    cpus.pin(static_cast<size_t>(id) + 1);
    const server::ServiceStats before = bsvc->stats();
    std::vector<server::Ticket> tickets;
    tickets.reserve(burstN);
    const int64_t t0 = nowNs();
    for (const auto& req : s.requests) tickets.push_back(bsvc->submit(req));
    for (const auto& t : tickets) t.wait();
    burstRate.record(static_cast<double>(burstN) /
                     (static_cast<double>(nowNs() - t0) * 1e-9));
    checkServed(r, *bsvc, before, s, tickets,
                o.seed + static_cast<uint64_t>(id), 4, digest, burst);
  }

  // The open loop: request i is due at start + i / rate.
  const server::ServiceStats before = svc->stats();
  std::vector<server::Ticket> tickets(n);
  std::vector<int64_t> due(n), submitted(n);
  const auto period = static_cast<int64_t>(1e9 / kRatePerS);
  const int64_t start = nowNs() + 1000000;
  const auto perCpu = static_cast<size_t>(kRatePerS);  // a second each
  for (size_t i = 0; i < n; ++i) {
    if (i % perCpu == 0) cpus.next();
    due[i] = start + static_cast<int64_t>(i) * period;
    while (nowNs() < due[i]) std::this_thread::yield();
    submitted[i] = nowNs();
    tickets[i] = svc->submit(stream.requests[i]);
  }
  cpus.unpin();
  PhaseBooks open;
  checkServed(r, *svc, before, stream, tickets, o.seed, 48, digest, open);

  // A latency class is a fixed pair and how the service served it.
  ClassLatency latMs;
  LatencySamples lagMs;
  long slowOrFailed = 0;
  SpanLog log;
  for (size_t i = 0; i < n; ++i) {
    const server::CompileResponse& resp = tickets[i].wait();
    double lag = static_cast<double>(submitted[i] - due[i]) * 1e-6;
    double lat = lag + resp.msLatency;
    lagMs.record(lag);
    latMs.record(stream.pair[i] * server::kNumOutcomes +
                     static_cast<size_t>(resp.outcome),
                 lat);
    if (!resp.ok() || lat > kSloMs) ++slowOrFailed;
    if (!o.trace) continue;
    // Spans from the service's own per-request phase times, which tile its
    // latency (msLatency == phases.totalMs()); the generator's lag first.
    const std::pair<Layer, server::Phase> phases[] = {
        {Layer::Parse, server::Phase::Parse},
        {Layer::CacheLookup, server::Phase::CacheLookup},
        {Layer::QueueWait, server::Phase::QueueWait},
        {Layer::Batch, server::Phase::BatchAssembly},
        {Layer::Compile, server::Phase::Compile},
        {Layer::Fulfill, server::Phase::Fulfill}};
    auto id = static_cast<uint32_t>(i + 1);
    int32_t root = log.add(Layer::Request, -1, id, due[i], 0);
    int64_t at = submitted[i];
    log.add(Layer::ServerLag, root, id, due[i], at);
    for (auto [layer, phase] : phases) {
      auto d = static_cast<int64_t>(resp.phases[phase] * 1e6);
      if (d > 0) log.add(layer, root, id, at, at + d);
      at += d;
    }
    log.spans[static_cast<size_t>(root)].end = at;
  }

  const double hitRatio = static_cast<double>(open.hits + open.coalesced) /
                          static_cast<double>(std::max<int64_t>(1, open.requests));
  r.info.push_back({"workers", static_cast<double>(svc->workers()), "count"});
  r.info.push_back({"saturation_bursts", static_cast<double>(burstRate.count()),
                    "count"});
  addBooks(r, "saturation", burst);
  r.info.push_back({"offered_rate", kRatePerS, "1/s"});
  r.info.push_back({"offered_load", kRatePerS / burstRate.percentile(50),
                    "ratio"});
  addBooks(r, "open_loop", open);
  r.info.push_back({"slo_limit_ms", kSloMs, "ms"});
  r.info.push_back({"slo_miss_frac",
                    static_cast<double>(slowOrFailed) / static_cast<double>(n),
                    "ratio"});
  r.info.push_back({"generator_lag_p50_ms", lagMs.percentile(50), "ms"});
  r.info.push_back({"generator_lag_p99_ms", lagMs.percentile(99), "ms"});
  r.info.push_back({"generator_lag_max_ms", lagMs.percentile(100), "ms"});
  r.info.push_back({"hit_ratio", hitRatio, "ratio"});
  r.counters.push_back(
      {"requests", static_cast<double>(burst.requests + open.requests), ""});
  r.counters.push_back(
      {"duplicates", static_cast<double>(burst.duplicates + open.duplicates),
       ""});
  r.counters.push_back({"listing_digest", static_cast<double>(digest >> 12), ""});
  if (!o.trace) {
    r.endToEnd.push_back({"setup_s", setupS, "s"});
    r.endToEnd.push_back({"requests_per_s", burstRate.percentile(100), "1/s"});
    r.info.push_back({"raw_requests_per_s", burstRate.percentile(50), "1/s"});
    addLatency(r, latMs);
    r.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    addPoolMetrics(r, pool);
    return r;
  }
  addLayers(r, log, o);
  r.layers.push_back(
      {"server.queue_wait_p99_ms", open.queueMs.percentile(99), "ms"});
  r.layers.push_back(
      {"server.compile_p50_ms", open.compileMs.percentile(50), "ms"});
  r.layers.push_back({"server.hit_ratio", hitRatio, "ratio"});
  // Spans are built from the responses after the fact, so tracing adds
  // nothing to the request path.
  r.layers.push_back({"trace.overhead_frac", 0.0, "ratio"});
  addPoolMetrics(r, pool);
  return r;
}

}  // namespace perfbench
