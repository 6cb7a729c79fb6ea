// Candidate retrieval tests: Theorem 3 / Theorem 6 index pruning never drops
// a point that could displace the optimum, and the Theorem 4 / Theorem 7
// buffering thresholds are honored (Algorithm 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "mpn/candidates.h"
#include "mpn/circle_msr.h"
#include "msr_test_util.h"
#include "util/rng.h"

namespace mpn {
namespace {

using testutil::BruteForceIds;
using testutil::MakeScenario;
using testutil::Scenario;

// Builds simple one-tile regions of side `delta` centered on each user.
std::vector<TileRegion> InitialRegions(const std::vector<Point>& users,
                                       double delta) {
  std::vector<TileRegion> regions;
  for (const Point& u : users) {
    regions.emplace_back(u, delta);
    regions.back().Add(GridTile{0, 0, 0});
  }
  return regions;
}

class PruningSoundnessTest : public ::testing::TestWithParam<Objective> {};

// Theorem 3 / 6 soundness: every POI *not* returned by the pruned retrieval
// must be impossible to become the optimum for any location instance within
// the regions (plus candidate tile). We check a stronger sampled version:
// for sampled instances, the brute-force optimum is always po or one of the
// returned candidates.
TEST_P(PruningSoundnessTest, PrunedPointsCanNeverWin) {
  const Objective obj = GetParam();
  Rng rng(505);
  for (int trial = 0; trial < 25; ++trial) {
    const size_t m = 1 + trial % 3;
    const Scenario s = MakeScenario(200, m, 6200 + trial, 600.0);
    const auto circle = ComputeCircleMsr(s.tree, s.users, obj);
    if (circle.rmax <= 1e-9 || circle.rmax > 1e12) continue;
    const double delta = std::sqrt(2.0) * circle.rmax;
    auto regions = InitialRegions(s.users, delta);
    // Grow one extra tile for user 0 to make regions asymmetric.
    regions[0].Add(GridTile{0, 1, 0});

    FreshCandidateSource source(&s.tree, &s.users, obj, circle.po_id,
                                circle.po);
    TileSnapshot snap(regions, s.users, circle.po);
    CandidateSet cands;
    const size_t ui = trial % m;
    const Rect tile = regions[ui].TileRect(GridTile{0, 0, 1});
    ASSERT_TRUE(source.GetCandidates(&snap, ui, tile, nullptr, &cands));

    std::set<uint32_t> allowed;
    allowed.insert(circle.po_id);
    for (const Candidate& c : cands.items) allowed.insert(c.id);

    for (int inst = 0; inst < 80; ++inst) {
      std::vector<Point> locations;
      for (size_t j = 0; j < m; ++j) {
        const Rect& r = j == ui ? tile : regions[j].rects()[0];
        locations.push_back(
            {rng.Uniform(r.lo.x, r.hi.x), rng.Uniform(r.lo.y, r.hi.y)});
      }
      const auto best = FindGnnBruteForce(s.pois, locations, obj, 1);
      EXPECT_TRUE(allowed.count(best[0].id))
          << "pruned point " << best[0].id << " won at trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Objectives, PruningSoundnessTest,
                         ::testing::Values(Objective::kMax, Objective::kSum),
                         [](const ::testing::TestParamInfo<Objective>& info) {
                           return ObjectiveName(info.param);
                         });

std::vector<uint32_t> Ids(const CandidateSet& set) {
  std::vector<uint32_t> ids;
  for (const Candidate& c : set.items) ids.push_back(c.id);
  return ids;
}

class ParentReuseTest : public ::testing::TestWithParam<Objective> {};

// Replays Divide-Verify's recursion shape: a rejected tile's four children
// (and their children) retrieve with the enclosing tile's set as parent,
// while some siblings get committed in between. Every parent-derived list
// must equal a fresh index traversal by a source that has made no other
// retrieval, and the brute-force set; the reuse path must be the one that
// usually runs (it touches no index node).
TEST_P(ParentReuseTest, FilteredParentEqualsFreshTraversal) {
  const Objective obj = GetParam();
  Rng rng(0x9A7E);
  size_t reused = 0, checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t m = 1 + trial % 3;
    const Scenario s = MakeScenario(600, m, 7100 + trial, 600.0);
    const auto circle = ComputeCircleMsr(s.tree, s.users, obj);
    if (circle.rmax <= 1e-9 || circle.rmax > 1e12) continue;
    TileSnapshot snap(InitialRegions(s.users, std::sqrt(2.0) * circle.rmax),
                      s.users, circle.po);
    FreshCandidateSource source(&s.tree, &s.users, obj, circle.po_id,
                                circle.po);
    const size_t ui = trial % m;
    // A new source per call, so each oracle list comes from its own
    // traversal at exactly that call's bounds.
    CandidateStats oracle_stats;
    const auto fresh_traversal = [&](const Rect& rect, CandidateSet* fresh) {
      FreshCandidateSource oracle(&s.tree, &s.users, obj, circle.po_id,
                                  circle.po);
      ASSERT_TRUE(oracle.GetCandidates(&snap, ui, rect, nullptr, fresh));
      ASSERT_GT(oracle.node_accesses(), 0u);
      ASSERT_EQ(Ids(*fresh), BruteForceIds(s, circle.po_id, obj, fresh->bound));
      oracle_stats.retrievals += oracle.stats().retrievals;
      oracle_stats.candidates_total += oracle.stats().candidates_total;
    };
    const GridTile top{0, static_cast<int32_t>(rng.UniformInt(-2, 2)), 1};
    CandidateSet parent;
    ASSERT_TRUE(source.GetCandidates(&snap, ui, snap.region(ui).TileRect(top),
                                     nullptr, &parent));
    GridTile children[4];
    top.Children(children);
    for (const GridTile& child : children) {
      CandidateSet got, fresh;
      const Rect rect = snap.region(ui).TileRect(child);
      const uint64_t before = source.node_accesses();
      ASSERT_TRUE(source.GetCandidates(&snap, ui, rect, &parent, &got));
      if (source.node_accesses() == before) ++reused;
      ASSERT_NO_FATAL_FAILURE(fresh_traversal(rect, &fresh));
      ASSERT_EQ(Ids(got), Ids(fresh)) << "trial " << trial;
      ++checked;
      GridTile grandchildren[4];
      child.Children(grandchildren);
      for (const GridTile& g : grandchildren) {
        CandidateSet g_got, g_fresh;
        const Rect g_rect = snap.region(ui).TileRect(g);
        ASSERT_TRUE(source.GetCandidates(&snap, ui, g_rect, &got, &g_got));
        ASSERT_NO_FATAL_FAILURE(fresh_traversal(g_rect, &g_fresh));
        ASSERT_EQ(Ids(g_got), Ids(g_fresh)) << "trial " << trial;
        ++checked;
        if (rng.UniformInt(0, 2) == 0) snap.Add(ui, g);
      }
      if (rng.UniformInt(0, 1) == 0) snap.Add(ui, child);
    }
    // Both paths count retrievals and candidates identically.
    EXPECT_EQ(source.stats().retrievals, oracle_stats.retrievals + 1);
    EXPECT_EQ(source.stats().candidates_total,
              oracle_stats.candidates_total + parent.items.size());
  }
  EXPECT_GT(checked, 200u);
  EXPECT_GT(reused, checked / 8);
}

// A child bound one ulp above its parent's must take the traversal path:
// the parent list below carries a planted id that no traversal can return,
// so it survives exactly when the list was filtered instead.
TEST_P(ParentReuseTest, LargerChildBoundFallsBackToTraversal) {
  const Objective obj = GetParam();
  const Scenario s = MakeScenario(400, 3, 7301, 600.0);
  const auto circle = ComputeCircleMsr(s.tree, s.users, obj);
  ASSERT_GT(circle.rmax, 1e-9);
  TileSnapshot snap(
      InitialRegions(s.users, std::sqrt(2.0) * circle.rmax), s.users,
      circle.po);
  FreshCandidateSource source(&s.tree, &s.users, obj, circle.po_id, circle.po);
  const Rect rect = snap.region(1).TileRect(GridTile{1, 2, 1});
  CandidateSet fresh;
  ASSERT_TRUE(source.GetCandidates(&snap, 1, rect, nullptr, &fresh));
  ASSERT_FALSE(fresh.bound.empty());

  constexpr uint32_t kPlanted = 1u << 30;  // no such POI
  CandidateSet parent;
  parent.items = fresh.items;
  // At po it passes every Theorem-3/6 bound (po lies within them all).
  parent.items.push_back(snap.Intern(kPlanted, circle.po));
  for (size_t j = 0; j < fresh.bound.size(); ++j) {
    parent.bound = fresh.bound;
    parent.bound[j] = std::nextafter(parent.bound[j],
                                     -std::numeric_limits<double>::infinity());
    CandidateSet got;
    const uint64_t before = source.node_accesses();
    ASSERT_TRUE(source.GetCandidates(&snap, 1, rect, &parent, &got));
    EXPECT_GT(source.node_accesses(), before) << "bound " << j;
    EXPECT_EQ(Ids(got), Ids(fresh)) << "bound " << j;
  }
  // Control: equal bounds take the filter path and keep the planted id.
  parent.bound = fresh.bound;
  CandidateSet got;
  const uint64_t before = source.node_accesses();
  ASSERT_TRUE(source.GetCandidates(&snap, 1, rect, &parent, &got));
  EXPECT_EQ(source.node_accesses(), before);
  ASSERT_FALSE(got.items.empty());
  EXPECT_EQ(got.items.back().id, kPlanted);
}

INSTANTIATE_TEST_SUITE_P(Objectives, ParentReuseTest,
                         ::testing::Values(Objective::kMax, Objective::kSum),
                         [](const ::testing::TestParamInfo<Objective>& info) {
                           return ObjectiveName(info.param);
                         });

TEST(PruningTest, PrunesFarPoints) {
  // A dense local cluster plus one very remote POI: the remote one must be
  // pruned from the candidate list.
  std::vector<Point> pois;
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    pois.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  pois.push_back({100000, 100000});  // id 50: remote
  RTree tree = RTree::BulkLoad(pois);
  const std::vector<Point> users = {{40, 40}, {60, 60}};
  const auto circle = ComputeCircleMsr(tree, users, Objective::kMax);
  const double delta = std::sqrt(2.0) * circle.rmax;
  auto regions = InitialRegions(users, delta);
  FreshCandidateSource source(&tree, &users, Objective::kMax, circle.po_id,
                              circle.po);
  TileSnapshot snap(regions, users, circle.po);
  CandidateSet cands;
  ASSERT_TRUE(source.GetCandidates(
      &snap, 0, regions[0].TileRect(GridTile{0, 1, 0}), nullptr, &cands));
  for (const Candidate& c : cands.items) EXPECT_NE(c.id, 50u);
  EXPECT_LT(cands.items.size(), pois.size() - 1);
}

TEST(BufferTest, BetasAreSortedAndMatchDefinition) {
  const Scenario s = MakeScenario(500, 3, 404);
  const int b = 50;
  BufferedCandidateSource source(s.tree, s.users, Objective::kMax, b);
  const auto top = FindGnn(s.tree, s.users, Objective::kMax, b + 1);
  double prev = -1.0;
  for (int z = 1; z <= b; ++z) {
    const double beta = source.Beta(z);
    EXPECT_GE(beta, prev);
    prev = beta;
    if (static_cast<size_t>(z) < top.size()) {
      EXPECT_NEAR(beta, (top[z].agg - top[0].agg) / 2.0, 1e-9);
    }
  }
  // beta_1 equals the Theorem-1 circle radius.
  const auto circle = ComputeCircleMsr(s.tree, s.users, Objective::kMax);
  EXPECT_NEAR(source.Beta(1), circle.rmax, 1e-9);
}

TEST(BufferTest, SumBetasDivideByTwoM) {
  const Scenario s = MakeScenario(500, 4, 405);
  BufferedCandidateSource source(s.tree, s.users, Objective::kSum, 10);
  const auto top = FindGnn(s.tree, s.users, Objective::kSum, 11);
  EXPECT_NEAR(source.Beta(1), (top[1].agg - top[0].agg) / (2.0 * 4), 1e-9);
}

TEST(BufferTest, SlotSelectionBoundsCandidates) {
  const Scenario s = MakeScenario(800, 3, 2929);
  const int b = 30;
  BufferedCandidateSource source(s.tree, s.users, Objective::kMax, b);
  const double delta = 2.0 * source.Beta(1) / std::sqrt(2.0);
  if (delta <= 0) GTEST_SKIP() << "degenerate scenario";
  auto regions = InitialRegions(s.users, delta);
  TileSnapshot snap(regions, s.users, source.best().p);
  // Tiny tile -> small dist -> few candidates.
  CandidateSet small_cands;
  const Rect small = regions[0].TileRect(GridTile{2, 0, 0});
  ASSERT_TRUE(source.GetCandidates(&snap, 0, small, nullptr, &small_cands));
  // Far tile -> larger dist -> at least as many candidates (or rejection).
  CandidateSet big_cands;
  const Rect far = regions[0].TileRect(GridTile{0, 10, 0});
  const bool far_ok = source.GetCandidates(&snap, 0, far, nullptr, &big_cands);
  if (far_ok) {
    EXPECT_GE(big_cands.items.size(), small_cands.items.size());
  } else {
    EXPECT_GT(source.stats().rejected_by_buffer, 0u);
  }
}

TEST(BufferTest, RejectsTilesBeyondBetaB) {
  const Scenario s = MakeScenario(300, 2, 11011);
  const int b = 5;
  BufferedCandidateSource source(s.tree, s.users, Objective::kMax, b);
  const double beta_b = source.Beta(b);
  if (!std::isfinite(beta_b)) GTEST_SKIP() << "tiny dataset";
  const double delta = std::max(1e-6, 2.0 * source.Beta(1) / std::sqrt(2.0));
  auto regions = InitialRegions(s.users, delta);
  TileSnapshot snap(regions, s.users, source.best().p);
  // A tile definitely beyond beta_b from the user.
  const int far_cells =
      static_cast<int>(beta_b / regions[0].CellSide(0)) + 3;
  CandidateSet cands;
  const bool ok = source.GetCandidates(
      &snap, 0, regions[0].TileRect(GridTile{0, far_cells, 0}), nullptr,
      &cands);
  EXPECT_FALSE(ok);
}

TEST(BufferTest, SmallDatasetInfiniteBetaAcceptsEverything) {
  // Fewer POIs than b+1: trailing betas are infinite, nothing is rejected.
  const Scenario s = MakeScenario(5, 2, 3141);
  BufferedCandidateSource source(s.tree, s.users, Objective::kMax, 100);
  auto regions = InitialRegions(s.users, 10.0);
  TileSnapshot snap(regions, s.users, source.best().p);
  CandidateSet cands;
  EXPECT_TRUE(source.GetCandidates(
      &snap, 0, regions[0].TileRect(GridTile{0, 50, 0}), nullptr, &cands));
  // All non-optimal POIs are candidates at most.
  EXPECT_LE(cands.items.size(), s.pois.size() - 1);
}

}  // namespace
}  // namespace mpn
