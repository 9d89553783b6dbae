// In-memory request spans for the benchmark's traced runs.
//
// Every span carries a layer, a start and end on one steady clock, the
// index of the span that contains it and the request it belongs to. A
// request's spans come from ONE sequence of clock reads (Marks below):
// each mark closes the segment since the previous mark, so the children of
// a request tile its interval with no gap and no overlap, and whatever the
// benchmark itself does between calls into the program (its own loop and
// compare code) is left to the parent as self time. For a request root that
// remainder is the reported `unattributed_ms`.
//
// Per-tick work (writeSymbol / run / readSymbol over thousands of ticks) is
// folded: the loop accumulates each layer's segments and emits one span per
// layer, laid end to end from the loop's first mark. Their sum is exact;
// only the order inside the loop is synthetic.
#pragma once

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "codegen/pipeline.h"

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layer names are the repo's module.function names, shared with the
/// service phases and the soak stats.
enum class Layer : uint8_t {
  Request,  // a request root; its self time is unattributed
  Generate,
  Parse,
  Construct,
  Compile,
  Rewrite,
  Search,
  Reduce,
  Late,
  Encode,
  SimConstruct,
  SimIo,
  SimRun,
  Interp,
  Verify,
  Engines,
  ServerLag,
  CacheLookup,
  QueueWait,
  Batch,
  Fulfill,
  kCount
};
inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);

inline const char* layerName(Layer l) {
  static constexpr const char* kNames[kNumLayers] = {
      "request",          "difftest.generate", "dfl.parse",
      "codegen.construct", "codegen.compile",  "codegen.rewrite",
      "codegen.search",   "codegen.reduce",    "codegen.late",
      "target.encode",    "sim.construct",     "sim.io",
      "sim.run",          "ir.interp",         "harness.verify",
      "harness.engines",  "server.lag",        "server.cache_lookup",
      "server.queue_wait", "server.batch",     "server.fulfill"};
  return kNames[static_cast<int>(l)];
}

struct Span {
  int64_t start = 0, end = 0;  // ns on the steady clock
  int32_t parent = -1;         // index into SpanLog::spans; -1 for a root
  uint32_t request = 0;
  Layer layer = Layer::Request;

  int64_t dur() const { return end - start; }
};

struct SpanLog {
  std::vector<Span> spans;

  int32_t add(Layer l, int32_t parent, uint32_t req, int64_t s, int64_t e) {
    spans.push_back({s, e, parent, req, l});
    return static_cast<int32_t>(spans.size() - 1);
  }
  /// Lay the compile's own phase times (CompileStats, measured inside
  /// compile()) end to end from the compile span's start.
  void addCompilePhases(int32_t compileSpan, const record::CompileStats& st) {
    Span c = spans[static_cast<size_t>(compileSpan)];
    int64_t at = c.start;
    const std::pair<Layer, double> phases[] = {{Layer::Rewrite, st.msRewrite},
                                               {Layer::Search, st.msSearch},
                                               {Layer::Reduce, st.msReduce},
                                               {Layer::Late, st.msLate}};
    for (auto [l, ms] : phases) {
      auto d = static_cast<int64_t>(std::floor(ms * 1e6));
      if (d <= 0) continue;
      add(l, compileSpan, c.request, at, at + d);
      at += d;
    }
  }
};

/// The mark sequence of one request. Marks<false> compiles to nothing, so
/// the untraced run executes the same request code with no clock reads.
template <bool kOn>
class Marks;

template <>
class Marks<false> {
 public:
  void begin(uint32_t, int64_t = 0) {}
  int64_t end() { return 0; }
  int32_t mark(Layer) { return -1; }
  void glue() {}
  void open(Layer) {}
  void close() {}
  void foldBegin() {}
  void seg(Layer) {}
  void foldEnd() {}
  void compilePhases(int32_t, const record::CompileStats&) {}
};

template <>
class Marks<true> {
 public:
  explicit Marks(SpanLog& log) : log_(log) {}

  /// Open a request root at `start` (default: now).
  void begin(uint32_t req, int64_t start = 0) {
    req_ = req;
    last_ = start ? start : nowNs();
    cur_ = log_.add(Layer::Request, -1, req, last_, 0);
  }
  /// Close the request root; returns its end time.
  int64_t end() {
    glue();
    log_.spans[static_cast<size_t>(cur_)].end = last_;
    return last_;
  }
  /// Close the segment since the previous mark as a `l` span.
  int32_t mark(Layer l) {
    int64_t t = nowNs();
    int32_t i = log_.add(l, cur_, req_, last_, t);
    last_ = t;
    return i;
  }
  /// Close the segment since the previous mark as the parent's self time.
  void glue() { last_ = nowNs(); }
  /// Nested layer: later marks become its children until close().
  void open(Layer l) { cur_ = log_.add(l, cur_, req_, last_, 0); }
  void close() {
    glue();
    Span& s = log_.spans[static_cast<size_t>(cur_)];
    s.end = last_;
    cur_ = s.parent;
  }
  void foldBegin() {
    foldStart_ = last_;
    acc_.fill(0);
  }
  /// Like mark(), but accumulated into one folded span per layer.
  void seg(Layer l) {
    int64_t t = nowNs();
    acc_[static_cast<size_t>(l)] += t - last_;
    last_ = t;
  }
  void foldEnd() {
    int64_t at = foldStart_;
    for (int l = 0; l < kNumLayers; ++l) {
      int64_t d = acc_[static_cast<size_t>(l)];
      if (d == 0) continue;
      log_.add(static_cast<Layer>(l), cur_, req_, at, at + d);
      at += d;
    }
  }
  void compilePhases(int32_t span, const record::CompileStats& st) {
    log_.addCompilePhases(span, st);
  }

 private:
  SpanLog& log_;
  uint32_t req_ = 0;
  int32_t cur_ = -1;
  int64_t last_ = 0;
  int64_t foldStart_ = 0;
  std::array<int64_t, kNumLayers> acc_{};
};

/// Per-layer totals over every request in a log.
struct LayerTotals {
  std::array<double, kNumLayers> inclusiveMs{};  // sum of span durations
  std::array<double, kNumLayers> selfMs{};       // minus child spans
  double totalMs = 0;                            // sum of root durations
  long requests = 0;
  long tilingErrors = 0;  // children overlapping or leaving their parent
};

/// Aggregate the log and check that it tiles: the children of every span
/// lie inside it, in order, without overlap. A request's self times then
/// sum to its root's duration exactly.
LayerTotals aggregate(const SpanLog& log);

/// Chrome trace_event JSON of the first `maxRequests` requests in the log
/// ('X' events sorted by start, one tid per request), checked with
/// record::validateChromeTrace. Returns "" and sets *err when the trace
/// does not validate.
std::string chromeTrace(const SpanLog& log, size_t maxRequests,
                        std::string* err);

}  // namespace perfbench
