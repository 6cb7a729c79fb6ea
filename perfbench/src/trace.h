// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one call into a layer of the library: its layer, the call
// name, the (session, tick) it served, its start and end, the enclosing
// span (`parent`, which nests inside it in time) and the span whose
// outcome triggered it (`cause`, e.g. the advance whose violation started
// a recompute). Spans stay in memory until the run ends and are then
// written out as CSV (see perfbench/README.md for the format). A layer's
// self time is the sum over its spans of duration minus the nested
// children's durations; spans are strictly nested per thread, so that sum
// is exact.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers, named after the src/ modules they time.
enum class Layer : uint8_t {
  kBench,          ///< the benchmark's own loop (session/tick roots)
  kCheck,          ///< the benchmark's correctness checks
  kIndex,          ///< index/: packed R-tree, GNN
  kMpn,            ///< mpn/: Tile/Circle-MSR recompute
  kSim,            ///< sim/ via GroupSession: client advance, install
  kEngine,         ///< engine/: Engine public calls
  kEngineStore,    ///< engine/session_codec + session_store
  kEngineCluster,  ///< engine/cluster, ipc, transport
};
inline constexpr size_t kLayerCount = 8;

const char* LayerName(Layer layer);

inline constexpr uint32_t kNoSpan = UINT32_MAX;

struct Span {
  uint32_t parent = kNoSpan;
  uint32_t cause = kNoSpan;
  Layer layer = Layer::kBench;
  const char* name = "";  ///< static string: the wrapped call
  uint32_t session = 0;
  uint32_t tick = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Single-threaded span store.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its id.
  uint32_t Begin(Layer layer, const char* name, uint32_t session = 0,
                 uint32_t tick = 0, uint32_t cause = kNoSpan);
  /// Closes span `id` (must be the innermost open span).
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-span self seconds: duration minus nested children's durations.
  std::vector<double> SelfSeconds() const;

  /// Appends every span as a CSV row tagged with `part`.
  void AppendCsv(const std::string& part, std::string* out) const;

 private:
  using Clock = std::chrono::steady_clock;
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, const char* name,
             uint32_t session = 0, uint32_t tick = 0,
             uint32_t cause = kNoSpan)
      : tracer_(tracer),
        id_(tracer != nullptr
                ? tracer->Begin(layer, name, session, tick, cause)
                : kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench
