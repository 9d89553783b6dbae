#include "spans.h"

#include <limits>

#include "support/strings.h"
#include "trace/trace.h"

namespace perfbench {

LayerTotals aggregate(const SpanLog& log) {
  LayerTotals t;
  const auto& sp = log.spans;
  // Children are appended after their parent, so one forward pass sees
  // every parent before its children.
  std::vector<int64_t> childSum(sp.size(), 0);
  std::vector<int64_t> lastChildEnd(sp.size(),
                                    std::numeric_limits<int64_t>::min());
  for (size_t i = 0; i < sp.size(); ++i) {
    const Span& s = sp[i];
    if (s.end < s.start) ++t.tilingErrors;
    if (s.parent < 0) {
      ++t.requests;
      t.totalMs += static_cast<double>(s.dur()) * 1e-6;
      continue;
    }
    auto p = static_cast<size_t>(s.parent);
    const Span& ps = sp[p];
    if (p >= i || s.start < ps.start || s.end > ps.end ||
        s.start < lastChildEnd[p])
      ++t.tilingErrors;
    lastChildEnd[p] = s.end;
    childSum[p] += s.dur();
  }
  for (size_t i = 0; i < sp.size(); ++i) {
    const Span& s = sp[i];
    auto l = static_cast<size_t>(s.layer);
    t.inclusiveMs[l] += static_cast<double>(s.dur()) * 1e-6;
    t.selfMs[l] += static_cast<double>(s.dur() - childSum[i]) * 1e-6;
  }
  return t;
}

std::string chromeTrace(const SpanLog& log, size_t maxRequests,
                        std::string* err) {
  // Requests append their spans one after another, root first.
  std::vector<size_t> order;
  size_t roots = 0;
  for (size_t i = 0; i < log.spans.size(); ++i) {
    if (log.spans[i].parent < 0 && ++roots > maxRequests) break;
    order.push_back(i);
  }
  // Start order; an enclosing span before the spans it contains.
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Span& x = log.spans[a];
    const Span& y = log.spans[b];
    if (x.start != y.start) return x.start < y.start;
    return x.dur() > y.dur();
  });
  int64_t epoch = order.empty() ? 0 : log.spans[order.front()].start;
  std::string out = "[";
  bool first = true;
  for (size_t i : order) {
    const Span& s = log.spans[i];
    out += first ? "\n" : ",\n";
    first = false;
    out += record::formatv(
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
        "\"tid\":%u,\"args\":{\"span\":%zu,\"parent\":%d}}",
        layerName(s.layer), static_cast<double>(s.start - epoch) * 1e-3,
        static_cast<double>(s.dur()) * 1e-3, s.request, i, s.parent);
  }
  out += "\n]\n";
  if (!record::validateChromeTrace(out, err)) return "";
  return out;
}

}  // namespace perfbench
