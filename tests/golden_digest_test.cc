// Golden digests (ctest label `unit`): pins Engine::ResultDigest and the
// counters it folds (engine/digest.h) for fixed seeds across every Method x
// Objective. The other differential tests compare runs against each other
// within one build — threads against threads, shards against one process —
// so a change that shifts every configuration the same way passes them all.
// These values are pinned across commits instead: an optimization must
// leave them untouched, and an intentional behaviour change updates them in
// the same commit with a note saying why.
//
// Each case also runs on the packed index and under a memory budget small
// enough to spill every idle session, which must reproduce the same pins
// (the index layout and spilling are not part of the result).
#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "index/packed_rtree.h"
#include "traj/generators.h"
#include "util/rng.h"

namespace mpn {
namespace {

constexpr size_t kGroups = 3;
constexpr size_t kGroupSize = 3;
constexpr size_t kTimestamps = 120;

struct World {
  std::vector<Point> pois;
  RTree tree;
  PackedRTree packed;
  std::vector<Trajectory> trajs;
};

const World& GoldenWorld() {
  static const World* world = [] {
    auto* w = new World;
    Rng rng(0x601DE4);
    const Rect bounds({0, 0}, {20000, 20000});
    PoiOptions popt;
    popt.world = bounds;
    popt.clusters = 12;
    w->pois = GeneratePois(400, popt, &rng);
    w->tree = RTree::BulkLoad(w->pois);
    w->packed = PackedRTree::Build(w->pois);
    RandomWalkGenerator::Options wopt;
    wopt.world = bounds;
    wopt.mean_speed = 60.0;
    const RandomWalkGenerator gen(wopt);
    w->trajs = gen.GenerateGroupedFleet(kGroups * kGroupSize, kGroupSize,
                                        500.0, kTimestamps, &rng);
    return w;
  }();
  return *world;
}

// Every counter AddSessionResultToDigest folds, summed over the sessions.
struct Pins {
  uint64_t digest;
  uint64_t updates, result_changes, packets;
  uint64_t tiles_tried, tiles_added, divide_calls;
  uint64_t verify_calls, verify_accepted, tile_groups, focal_evals, memo_hits;
  uint64_t retrievals, candidates_total, rejected_by_buffer;
};

// A one-byte cap: every session the budget may evict gets spilled.
constexpr size_t kSpillEverything = 1;

Pins RunCase(SpatialIndex tree, Method method, Objective obj,
             size_t budget_bytes = 0) {
  const World& w = GoldenWorld();
  EngineOptions opt;
  opt.threads = 2;
  opt.budget.bytes_cap = budget_bytes;
  opt.sim.server.method = method;
  opt.sim.server.objective = obj;
  opt.sim.server.alpha = 12;
  opt.sim.server.buffer_b = 20;
  Engine engine(&w.pois, tree, opt);
  for (size_t g = 0; g < kGroups; ++g) {
    std::vector<const Trajectory*> group;
    for (size_t k = 0; k < kGroupSize; ++k) {
      group.push_back(&w.trajs[g * kGroupSize + k]);
    }
    engine.AddSession(group);
  }
  engine.Run();
  if (budget_bytes > 0) {
    EXPECT_GT(engine.memory_stats().spilled_sessions, 0u) << "nothing spilled";
  }
  const SimMetrics t = engine.TotalMetrics();
  return Pins{engine.ResultDigest(),
              t.updates,
              t.result_changes,
              t.comm.TotalPackets(),
              t.msr.tiles_tried,
              t.msr.tiles_added,
              t.msr.divide_calls,
              t.msr.verify.calls,
              t.msr.verify.accepted,
              t.msr.verify.tile_groups,
              t.msr.verify.focal_evals,
              t.msr.verify.memo_hits,
              t.msr.candidates.retrievals,
              t.msr.candidates.candidates_total,
              t.msr.candidates.rejected_by_buffer};
}

// One pasteable initializer line, printed on any mismatch.
std::string Render(const Pins& p) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{0x%016" PRIx64 "ULL, %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "}",
                p.digest, p.updates, p.result_changes, p.packets,
                p.tiles_tried, p.tiles_added, p.divide_calls, p.verify_calls,
                p.verify_accepted, p.tile_groups, p.focal_evals, p.memo_hits,
                p.retrievals, p.candidates_total, p.rejected_by_buffer);
  return buf;
}

struct GoldenCase {
  Method method;
  Objective obj;
  Pins want;
};

std::string CaseName(const testing::TestParamInfo<GoldenCase>& info) {
  std::string name = std::string(MethodName(info.param.method)) + "_" +
                     ObjectiveName(info.param.obj);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class GoldenDigestTest : public testing::TestWithParam<GoldenCase> {
 protected:
  void ExpectPinned(const Pins& got, const char* variant) {
    EXPECT_EQ(Render(got), Render(GetParam().want))
        << variant << ": pinned results moved";
  }
};

TEST_P(GoldenDigestTest, MatchesPinnedResults) {
  const GoldenCase& c = GetParam();
  ExpectPinned(RunCase(&GoldenWorld().tree, c.method, c.obj), "dynamic index");
  ExpectPinned(RunCase(&GoldenWorld().packed, c.method, c.obj),
               "packed index");
  ExpectPinned(
      RunCase(&GoldenWorld().tree, c.method, c.obj, kSpillEverything),
      "spilling budget");
}

// Pinned values; see the file comment before changing any of them.
INSTANTIATE_TEST_SUITE_P(
    MethodObjective, GoldenDigestTest,
    testing::Values(
        GoldenCase{Method::kCircle, Objective::kMax,
                   {0xb4d1fd71dfadd29dULL, 206, 7, 1648, 0, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 0}},
        GoldenCase{Method::kCircle, Objective::kSum,
                   {0x1d3b3e268a95e666ULL, 275, 19, 2200, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 0, 0}},
        GoldenCase{Method::kTile, Objective::kMax,
                   {0xd1cd3b4fc7e9dc19ULL, 169, 7, 1352, 10687, 16127, 146367,
                    228498, 97751, 0, 0, 0, 146367, 564965, 0}},
        GoldenCase{Method::kTile, Objective::kSum,
                   {0xc04dc14274e3f2d8ULL, 198, 19, 1584, 7285, 8361, 13169,
                    45287, 39885, 0, 75493, 86246, 13169, 55732, 0}},
        GoldenCase{Method::kTileD, Objective::kMax,
                   {0x3b37c5d950ca32aaULL, 163, 7, 1304, 6874, 8227, 85958,
                    200785, 122565, 0, 0, 0, 85958, 522069, 0}},
        GoldenCase{Method::kTileD, Objective::kSum,
                   {0xf31fd923cc853ea4ULL, 156, 19, 1248, 5821, 6543, 14077,
                    61288, 53286, 0, 88266, 118154, 14077, 99298, 0}},
        GoldenCase{Method::kTileDBuffered, Objective::kMax,
                   {0xc5b0cdd75c1f6a75ULL, 163, 7, 1304, 6812, 8240, 88176,
                    121860, 56307, 0, 0, 0, 88176, 478658, 14872}},
        GoldenCase{Method::kTileDBuffered, Objective::kSum,
                   {0x5bcbe4a56974d579ULL, 160, 19, 1280, 6044, 7200, 22768,
                    53902, 46983, 0, 71362, 103988, 22768, 83434, 9129}}),
    CaseName);

}  // namespace
}  // namespace mpn
