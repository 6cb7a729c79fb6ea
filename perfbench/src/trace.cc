#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kCheck: return "check";
    case Layer::kIndex: return "index";
    case Layer::kMpn: return "mpn";
    case Layer::kSim: return "sim";
    case Layer::kEngine: return "engine";
    case Layer::kEngineStore: return "engine.store";
    case Layer::kEngineCluster: return "engine.cluster";
  }
  return "?";
}

uint32_t Tracer::Begin(Layer layer, const char* name, uint32_t session,
                       uint32_t tick, uint32_t cause) {
  Span s;
  s.parent = open_.empty() ? kNoSpan : open_.back();
  s.cause = cause;
  s.layer = layer;
  s.name = name;
  s.session = session;
  s.tick = tick;
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  open_.push_back(id);
  s.start_ns = NowNs();
  spans_.push_back(s);
  return id;
}

void Tracer::End(uint32_t id) {
  const int64_t now = NowNs();
  // ScopedSpan closes in stack order; pop through anything left open.
  while (!open_.empty()) {
    const uint32_t top = open_.back();
    open_.pop_back();
    spans_[top].end_ns = now;
    if (top == id) break;
  }
}

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  for (const Span& s : spans_) {
    if (s.parent != kNoSpan) self[s.parent] -= s.seconds();
  }
  return self;
}

void Tracer::AppendCsv(const std::string& part, std::string* out) const {
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto ref = [](uint32_t v) {
      return v == kNoSpan ? int64_t{-1} : static_cast<int64_t>(v);
    };
    std::snprintf(line, sizeof line,
                  "%s,%zu,%" PRId64 ",%" PRId64 ",%s,%s,%u,%u,%" PRId64
                  ",%" PRId64 "\n",
                  part.c_str(), i, ref(s.parent), ref(s.cause),
                  LayerName(s.layer), s.name, s.session, s.tick, s.start_ns,
                  s.end_ns);
    out->append(line);
  }
}

}  // namespace perfbench
