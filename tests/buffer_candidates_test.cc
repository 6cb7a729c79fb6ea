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
    std::vector<Candidate> cands;
    const size_t ui = trial % m;
    const Rect tile = regions[ui].TileRect(GridTile{0, 0, 1});
    ASSERT_TRUE(source.GetCandidates(&snap, ui, tile, &cands));

    std::set<uint32_t> allowed;
    allowed.insert(circle.po_id);
    for (const Candidate& c : cands) allowed.insert(c.id);

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

std::vector<uint32_t> Ids(const std::vector<Candidate>& list) {
  std::vector<uint32_t> ids;
  for (const Candidate& c : list) ids.push_back(c.id);
  return ids;
}

class ParentReuseTest : public ::testing::TestWithParam<Objective> {};

// Replays Divide-Verify's recursion shape: a rejected tile's four children
// (and their children) retrieve after it, while some siblings get
// committed in between. Every list must equal a fresh index traversal by a
// source that has made no other retrieval, and the brute-force set; the
// envelope filter must be the path that usually runs (it touches no index
// node).
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
    const auto fresh_traversal = [&](const Rect& rect,
                                     std::vector<Candidate>* fresh) {
      FreshCandidateSource oracle(&s.tree, &s.users, obj, circle.po_id,
                                  circle.po);
      ASSERT_TRUE(oracle.GetCandidates(&snap, ui, rect, fresh));
      ASSERT_GT(oracle.node_accesses(), 0u);
      std::vector<double> bound;
      oracle.Bounds(snap, ui, rect, &bound);
      ASSERT_EQ(Ids(*fresh), BruteForceIds(s, circle.po_id, obj, bound));
      oracle_stats.retrievals += oracle.stats().retrievals;
      oracle_stats.candidates_total += oracle.stats().candidates_total;
    };
    const GridTile top{0, static_cast<int32_t>(rng.UniformInt(-2, 2)), 1};
    std::vector<Candidate> top_list;
    ASSERT_TRUE(source.GetCandidates(
        &snap, ui, snap.region(ui).TileRect(top), &top_list));
    GridTile children[4];
    top.Children(children);
    for (const GridTile& child : children) {
      std::vector<Candidate> got, fresh;
      const Rect rect = snap.region(ui).TileRect(child);
      const uint64_t before = source.node_accesses();
      ASSERT_TRUE(source.GetCandidates(&snap, ui, rect, &got));
      if (source.node_accesses() == before) ++reused;
      ASSERT_NO_FATAL_FAILURE(fresh_traversal(rect, &fresh));
      ASSERT_EQ(Ids(got), Ids(fresh)) << "trial " << trial;
      ++checked;
      GridTile grandchildren[4];
      child.Children(grandchildren);
      for (const GridTile& g : grandchildren) {
        std::vector<Candidate> g_got, g_fresh;
        const Rect g_rect = snap.region(ui).TileRect(g);
        ASSERT_TRUE(source.GetCandidates(&snap, ui, g_rect, &g_got));
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
              oracle_stats.candidates_total + top_list.size());
  }
  EXPECT_GT(checked, 200u);
  EXPECT_GT(reused, checked / 8);
}

// The envelope. A bound inside it filters the envelope's list and touches
// no index node; a bound one ulp above it in any single component
// traverses exactly once, at the componentwise max of the two. The index
// holds a planted POI (at po, so inside every Theorem-3/6 bound) only for
// the first retrieval and loses it afterwards: the planted id survives
// exactly when a list was filtered from that first retrieval.
TEST_P(ParentReuseTest, LargerChildBoundFallsBackToTraversal) {
  const Objective obj = GetParam();
  const Scenario s = MakeScenario(400, 3, 7301, 600.0);
  const auto circle = ComputeCircleMsr(s.tree, s.users, obj);
  ASSERT_GT(circle.rmax, 1e-9);
  TileSnapshot snap(
      InitialRegions(s.users, std::sqrt(2.0) * circle.rmax), s.users,
      circle.po);
  constexpr uint32_t kPlanted = 1u << 30;  // no such POI in s.pois
  RTree tree = RTree::BulkLoad(s.pois);
  tree.Insert(circle.po, kPlanted);
  FreshCandidateSource source(&tree, &s.users, obj, circle.po_id, circle.po);
  const Rect rect = snap.region(1).TileRect(GridTile{1, 2, 1});
  std::vector<double> envelope;
  source.Bounds(snap, 1, rect, &envelope);
  ASSERT_FALSE(envelope.empty());
  std::vector<Candidate> first;
  ASSERT_TRUE(source.GetCandidates(&snap, 1, rect, &first));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.back().id, kPlanted);
  tree = RTree::BulkLoad(s.pois);  // no traversal can return kPlanted now

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto without_planted = [&](std::vector<Candidate> list) {
    EXPECT_FALSE(list.empty());
    if (!list.empty() && list.back().id == kPlanted) list.pop_back();
    return Ids(list);
  };
  // Inside: the envelope itself, then one ulp below it in each component.
  for (size_t j = 0; j <= envelope.size(); ++j) {
    std::vector<double> inside = envelope;
    if (j < envelope.size()) inside[j] = std::nextafter(inside[j], -kInf);
    std::vector<Candidate> got;
    const uint64_t before = source.node_accesses();
    source.Retrieve(&snap, inside, &got);
    EXPECT_EQ(source.node_accesses(), before) << "bound " << j;
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.back().id, kPlanted) << "bound " << j;
    EXPECT_EQ(without_planted(got),
              BruteForceIds(s, circle.po_id, obj, inside))
        << "bound " << j;
  }
  // One ulp above in component j and one ulp below in every other one.
  for (size_t j = 0; j < envelope.size(); ++j) {
    std::vector<double> above = envelope;
    for (double& b : above) b = std::nextafter(b, -kInf);
    above[j] = std::nextafter(envelope[j], kInf);
    std::vector<double> widest = envelope;
    widest[j] = above[j];
    // One traversal at the componentwise max, on a source with no envelope.
    FreshCandidateSource oracle(&tree, &s.users, obj, circle.po_id,
                                circle.po);
    std::vector<Candidate> oracle_list;
    oracle.Retrieve(&snap, widest, &oracle_list);
    ASSERT_GT(oracle.node_accesses(), 0u);

    std::vector<Candidate> got;
    const uint64_t before = source.node_accesses();
    source.Retrieve(&snap, above, &got);
    EXPECT_EQ(source.node_accesses() - before, oracle.node_accesses())
        << "bound " << j;
    EXPECT_EQ(Ids(got), BruteForceIds(s, circle.po_id, obj, above))
        << "bound " << j;
    // The componentwise max is the envelope now.
    envelope = widest;
    const uint64_t after = source.node_accesses();
    source.Retrieve(&snap, envelope, &got);
    EXPECT_EQ(source.node_accesses(), after) << "bound " << j;
    EXPECT_EQ(Ids(got), Ids(oracle_list)) << "bound " << j;
    EXPECT_EQ(Ids(got), BruteForceIds(s, circle.po_id, obj, envelope));
  }
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
  std::vector<Candidate> cands;
  ASSERT_TRUE(source.GetCandidates(
      &snap, 0, regions[0].TileRect(GridTile{0, 1, 0}), &cands));
  for (const Candidate& c : cands) EXPECT_NE(c.id, 50u);
  EXPECT_LT(cands.size(), pois.size() - 1);
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
  std::vector<Candidate> small_cands;
  const Rect small = regions[0].TileRect(GridTile{2, 0, 0});
  ASSERT_TRUE(source.GetCandidates(&snap, 0, small, &small_cands));
  // Far tile -> larger dist -> at least as many candidates (or rejection).
  std::vector<Candidate> big_cands;
  const Rect far = regions[0].TileRect(GridTile{0, 10, 0});
  const bool far_ok = source.GetCandidates(&snap, 0, far, &big_cands);
  if (far_ok) {
    EXPECT_GE(big_cands.size(), small_cands.size());
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
  std::vector<Candidate> cands;
  const bool ok = source.GetCandidates(
      &snap, 0, regions[0].TileRect(GridTile{0, far_cells, 0}), &cands);
  EXPECT_FALSE(ok);
}

TEST(BufferTest, SmallDatasetInfiniteBetaAcceptsEverything) {
  // Fewer POIs than b+1: trailing betas are infinite, nothing is rejected.
  const Scenario s = MakeScenario(5, 2, 3141);
  BufferedCandidateSource source(s.tree, s.users, Objective::kMax, 100);
  auto regions = InitialRegions(s.users, 10.0);
  TileSnapshot snap(regions, s.users, source.best().p);
  std::vector<Candidate> cands;
  EXPECT_TRUE(source.GetCandidates(
      &snap, 0, regions[0].TileRect(GridTile{0, 50, 0}), &cands));
  // All non-optimal POIs are candidates at most.
  EXPECT_LE(cands.size(), s.pois.size() - 1);
}

}  // namespace
}  // namespace mpn
