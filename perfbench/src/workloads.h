// The benchmark's workloads and their seeded inputs.
//
// Every workload runs on the paper-scale POI set (N = 21,287, the clustered
// pocketgpsworld stand-in of the fig* harnesses, same seed). The group
// trajectories are a fixed data set per workload, as the paper's recorded
// data sets are: per-group update counts are heavy-tailed (a handful of
// groups near tied meeting points carry a third of all updates), so
// redrawing the trajectories per seed moved the update rate by 13-18%
// between seeds even at 512 groups. The seed draws the admission order,
// the mid-run arrivals, the early retirements and the replayed subset.
// Nothing else feeds the engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/group_session.h"
#include "sim/server.h"
#include "traj/trajectory.h"

namespace perfbench {

enum class TrajFamily {
  kGeolife,  ///< smooth correlated random walks (GeoLife-like)
  kRoadnet,  ///< Brinkhoff shortest-path routes on a road grid (Oldenburg-like)
};

struct Workload {
  std::string name;
  mpn::Method method = mpn::Method::kTileD;
  mpn::Objective objective = mpn::Objective::kMax;
  size_t m = 3;            ///< users per group
  size_t sessions = 0;     ///< groups admitted per repetition
  size_t ticks = 0;        ///< trajectory length (session horizon)
  TrajFamily family = TrajFamily::kGeolife;
  bool cluster = false;    ///< ClusterEngine instead of an in-process Engine
  size_t workers = 0;      ///< cluster worker processes
  size_t threads = 0;      ///< pool threads per engine
  size_t budget_bytes = 0; ///< MemoryBudget cap (0 = no spill)
  /// Half the sessions admitted mid-run under a hold; a quarter retire at
  /// half horizon.
  bool churn = false;
  size_t replay_sessions = 0;     ///< sessions replayed sequentially (b)
  size_t store_sample_every = 0;  ///< codec probe every k-th replayed tick
};

/// Looks a workload up by name at `scale` ("full" or "tiny"); throws
/// std::invalid_argument for an unknown name or scale.
Workload FindWorkload(const std::string& name, const std::string& scale);

struct Inputs {
  std::vector<mpn::Point> pois;
  std::vector<mpn::Trajectory> trajectories;
  std::vector<std::vector<const mpn::Trajectory*>> groups;  ///< by session id
  std::vector<mpn::SessionTuning> tuning;                   ///< by session id
  /// Sessions [0, pre_start) are admitted before Start, the rest mid-run.
  size_t pre_start = 0;
  /// Timestamps each session must complete (horizon cut by retire_at).
  std::vector<size_t> expected_ticks;
  /// Sorted ids of the sessions the sequential replay covers.
  std::vector<uint32_t> replay_ids;
};

/// Builds the workload's inputs; a pure function of (workload, seed).
Inputs MakeInputs(const Workload& w, uint64_t seed);

/// ServerConfig with the paper's Table-2 parameters for the workload.
mpn::ServerConfig MakeServer(const Workload& w);

/// Group nearest neighbours a recompute fetches: b+1 for Tile-D-b, else 1.
size_t GnnK(const Workload& w);

}  // namespace perfbench
