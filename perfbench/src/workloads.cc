#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "traj/generators.h"
#include "traj/road_network.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using mpn::Method;
using mpn::Objective;

const mpn::Rect kWorld({0.0, 0.0}, {100000.0, 100000.0});
constexpr size_t kPaperPois = 21287;

uint64_t HashName(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// The fig* harnesses' MakePoiSet: same generator settings and seed.
std::vector<mpn::Point> MakePoiSet() {
  mpn::Rng rng(0x901);
  mpn::PoiOptions opt;
  opt.world = kWorld;
  opt.clusters = 30;
  opt.cluster_sigma_frac = 0.045;
  opt.background_frac = 0.45;
  return mpn::GeneratePois(kPaperPois, opt, &rng);
}

// Group members start within 2 km of each other, as in the paper's
// per-city trajectory sets.
constexpr double kGroupSpread = 2000.0;

// The fig* harnesses' MakeGeolifeLike generator settings.
std::vector<mpn::Trajectory> MakeGeolifeLike(const Workload& w, mpn::Rng* rng) {
  mpn::RandomWalkGenerator::Options opt;
  opt.world = kWorld;
  opt.mean_speed = 1.5;
  opt.speed_jitter = 0.25;
  opt.heading_sigma = 0.06;
  opt.dwell_prob = 0.003;
  return mpn::RandomWalkGenerator(opt).GenerateGroupedFleet(
      w.sessions * w.m, w.m, kGroupSpread, w.ticks, rng);
}

// The fig* harnesses' MakeOldenburgLike generator settings: Brinkhoff
// routes on a 24x24 random road grid.
std::vector<mpn::Trajectory> MakeOldenburgLike(const Workload& w,
                                               mpn::Rng* rng) {
  const mpn::RoadNetwork network =
      mpn::RoadNetwork::RandomGrid(kWorld, 24, 24, 0.25, 0.12, 0.18, rng);
  mpn::BrinkhoffGenerator::Options opt;
  opt.min_speed = 1.0;
  opt.max_speed = 3.0;
  return mpn::BrinkhoffGenerator(&network, opt)
      .GenerateGroupedFleet(w.sessions * w.m, w.m, kGroupSpread, w.ticks, rng);
}

}  // namespace

Workload FindWorkload(const std::string& name, const std::string& scale) {
  if (scale != "full" && scale != "tiny") {
    throw std::invalid_argument("unknown --scale '" + scale + "'");
  }
  const bool tiny = scale == "tiny";
  Workload w;
  w.name = name;
  if (name == "tile_geolife") {
    w.method = Method::kTileD;
    w.objective = Objective::kMax;
    w.m = 3;
    w.sessions = tiny ? 8 : 64;
    w.ticks = tiny ? 100 : 256;
    w.family = TrajFamily::kGeolife;
    w.threads = 2;
    w.replay_sessions = tiny ? 2 : 12;
    w.store_sample_every = 16;
  } else if (name == "circle_swarm") {
    w.method = Method::kCircle;
    w.objective = Objective::kMax;
    w.m = 2;
    w.sessions = tiny ? 512 : 8192;
    w.ticks = 64;
    w.family = TrajFamily::kGeolife;
    // Two pool threads plus the admitting thread.
    w.threads = 2;
    w.budget_bytes = tiny ? 64 * 1024 : 2 * 1024 * 1024;
    w.churn = true;
    w.replay_sessions = tiny ? 32 : 128;
    w.store_sample_every = 8;
  } else if (name == "sum_roadnet_sharded") {
    w.method = Method::kTileDBuffered;
    w.objective = Objective::kSum;
    w.m = 3;
    w.sessions = tiny ? 8 : 128;
    w.ticks = tiny ? 100 : 600;
    w.family = TrajFamily::kRoadnet;
    w.cluster = true;
    w.workers = 2;
    w.threads = 1;
    w.replay_sessions = tiny ? 2 : 12;
    w.store_sample_every = 16;
  } else {
    throw std::invalid_argument("unknown --workload '" + name + "'");
  }
  return w;
}

size_t GnnK(const Workload& w) {
  return w.method == Method::kTileDBuffered
             ? static_cast<size_t>(MakeServer(w).buffer_b) + 1
             : 1;
}

mpn::ServerConfig MakeServer(const Workload& w) {
  mpn::ServerConfig config;
  config.method = w.method;
  config.objective = w.objective;
  config.alpha = 30;
  config.split_level = 2;
  config.buffer_b = 100;
  return config;
}

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  in.pois = MakePoiSet();
  mpn::Rng data_rng(HashName(w.name));
  in.trajectories = w.family == TrajFamily::kGeolife
                        ? MakeGeolifeLike(w, &data_rng)
                        : MakeOldenburgLike(w, &data_rng);
  const auto groups = mpn::MakeGroups(in.trajectories, w.m, w.m);

  // The seed draws the admission order (so session ids and the
  // scheduler's tie-breaking), which sessions arrive mid-run, which
  // retire early and which are replayed.
  mpn::Rng rng(HashName(w.name + "/" + std::to_string(seed)));
  std::vector<uint32_t> order(w.sessions);
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  if (w.cluster) {
    // ClusterEngine routes session id to shard id % workers, and a drain
    // waits for its heaviest shard. With heavy-tailed group costs a
    // seed-drawn partition moved the shards' loads by up to 1.5x and
    // ticks_per_s with them, so group g stays on shard g % workers and
    // the seed shuffles the admission order within each shard.
    for (size_t shard = 0; shard < w.workers; ++shard) {
      std::vector<uint32_t> members;
      for (size_t i = shard; i < order.size(); i += w.workers) {
        members.push_back(order[i]);
      }
      rng.Shuffle(&members);
      for (size_t k = 0; k < members.size(); ++k) {
        order[shard + k * w.workers] = members[k];
      }
    }
  } else {
    rng.Shuffle(&order);
  }
  in.groups.reserve(w.sessions);
  for (const uint32_t g : order) in.groups.push_back(groups[g]);

  in.tuning.assign(w.sessions, mpn::SessionTuning());
  in.pre_start = w.sessions;
  std::vector<uint32_t> ids(w.sessions);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  if (w.churn) {
    in.pre_start = w.sessions / 2;
    std::vector<uint32_t> retire = ids;
    rng.Shuffle(&retire);
    retire.resize(w.sessions / 4);
    for (const uint32_t id : retire) in.tuning[id].retire_at = w.ticks / 2;
  }
  in.expected_ticks.resize(w.sessions);
  for (size_t i = 0; i < w.sessions; ++i) {
    size_t horizon = w.ticks;
    for (const mpn::Trajectory* t : in.groups[i]) {
      horizon = std::min(horizon, t->size());
    }
    in.expected_ticks[i] = std::min(horizon, in.tuning[i].retire_at);
  }
  rng.Shuffle(&ids);
  ids.resize(std::min(w.replay_sessions, ids.size()));
  std::sort(ids.begin(), ids.end());
  in.replay_ids = ids;
  return in;
}

}  // namespace perfbench
