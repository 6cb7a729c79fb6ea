// One timed repetition of a workload against the public Engine /
// ClusterEngine API: set up (index build, engine construction, pre-Start
// admissions, Start), drain, then read every session's result back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "engine/memory_budget.h"
#include "sim/simulator.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// The per-session result fields the correctness checks compare.
struct SessionResult {
  bool has_result = false;
  uint32_t po = 0;
  uint64_t timestamps = 0;
  uint64_t updates = 0;
  uint64_t packets = 0;
  uint64_t result_changes = 0;

  bool operator==(const SessionResult& o) const {
    return has_result == o.has_result && po == o.po &&
           timestamps == o.timestamps && updates == o.updates &&
           packets == o.packets && result_changes == o.result_changes;
  }
  bool operator!=(const SessionResult& o) const { return !(*this == o); }
};

SessionResult ToSessionResult(const mpn::SimMetrics& m, bool has_result,
                              uint32_t po);

struct RepResult {
  std::string error;     ///< non-empty when the repetition threw
  double setup_s = 0.0;  ///< everything before the first tick
  double build_s = 0.0;  ///< PackedRTree::Build alone
  double start_s = 0.0;  ///< the Start call alone (forks the cluster)
  double drain_s = 0.0;  ///< end of Start to the return of Wait
  /// Process CPU (user + sys, all threads) over the drain, plus the reaped
  /// cluster workers' whole lives.
  double cpu_s = 0.0;
  /// Peak resident MiB: the run's base RSS plus the repetition's growth
  /// (VmHWM over its starting RSS), plus the cluster workers' VmHWM.
  double peak_rss_mb = 0.0;
  mpn::SimMetrics total;
  uint64_t digest = 0;
  std::vector<SessionResult> sessions;
  mpn::MemoryStats mem;
  mpn::ClusterEngine::RecoveryStats recovery;
  uint64_t events = 0;  ///< Engine::events_processed (in-process only)
  double mailbox_stalls_mean = 0.0;  ///< per-session mean
  double mailbox_peak_mean = 0.0;    ///< per-session mean
};

/// Trims the heap, resets this process's VmHWM to its current RSS (Linux
/// clear_refs "5") and returns that RSS in KiB.
double ResetPeakRss();

/// Runs one repetition. `base_rss_kb` is ResetPeakRss() taken once before
/// the run's first repetition; the repetition's peak_rss_mb is that base
/// plus its own growth. `tracer` (optional) records a span around each
/// public call; `scratch_dir` holds the spill file.
RepResult RunRep(const Workload& w, const Inputs& in, double base_rss_kb,
                 Tracer* tracer, const std::string& scratch_dir);

/// The host-speed probe: wall milliseconds of a fixed compute loop and a
/// 256 KiB pointer chase owned by the benchmark. Tells host drift apart
/// from a program change; it never scales a metric.
double HostProbeMs();

}  // namespace perfbench
