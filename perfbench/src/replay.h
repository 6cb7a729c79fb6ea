// Part (b) of the traced run: a single-threaded replay of a fixed, seeded
// subset of a workload's sessions through GroupSession's public phases,
// in the order the engine runs them for one session — AdvanceAndCheck,
// Recompute, InstallResult, ReplayOne — with a span per phase tagged by
// (session, tick). It doubles as the correctness oracle: every recompute
// is checked against FindGnnBruteForce and region containment, every
// fresh tile region goes through the step-3 region codec and back, and a
// sample of session states goes through the spill codec and back.
#pragma once

#include <string>
#include <vector>

#include "timed.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct ReplayResult {
  /// Final results, parallel to Inputs::replay_ids.
  std::vector<SessionResult> sessions;
  /// First failed check per replayed session (empty = all checks held).
  std::vector<std::string> failures;
  double wall_s = 0.0;  ///< the replay loop, excluding the index build
  std::vector<double> snapshot_bytes;  ///< encoded size per codec probe
};

ReplayResult Replay(const Workload& w, const Inputs& in, Tracer* tracer);

}  // namespace perfbench
