// Candidate rows of a Tile-MSR computation (TileSnapshot::Intern) and the
// two consumers that read them instead of recomputing: the widest top-level
// retrieval of FreshCandidateSource and GT-Verify's line-1 Lemma-1 test in
// the SoA kernel. Every cached value is checked bit for bit against a full
// recompute, every list against a brute-force scan, and every decision
// against the AoS reference walk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "geom/lanes.h"
#include "mpn/candidates.h"
#include "mpn/tile_verify.h"
#include "msr_test_util.h"
#include "util/rng.h"

namespace mpn {
namespace {

using testutil::BruteForceIds;
using testutil::Scenario;

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

GridTile RandomTile(Rng* rng) {
  const int32_t level = static_cast<int32_t>(rng->UniformInt(0, 3));
  const int32_t span = 4 << level;
  return GridTile{level, static_cast<int32_t>(rng->UniformInt(-span, span)),
                  static_cast<int32_t>(rng->UniformInt(-span, span))};
}

// Every row against Dist and a fold of Rect::MinDist2 over the region's
// rects (a different formula spelling than the snapshot's lanes), and its
// sqrt against the region's own min-distance reduction.
void ExpectRowsMatchRecompute(const TileSnapshot& snap,
                              const std::vector<Point>& users,
                              const std::vector<Candidate>& interned) {
  for (const Candidate& c : interned) {
    const double* dist = snap.dist(c.slot);
    const double* min_mn2 = snap.min_mn2(c.slot);
    for (size_t j = 0; j < users.size(); ++j) {
      ASSERT_EQ(Bits(dist[j]), Bits(Dist(c.p, users[j])))
          << "slot " << c.slot << " user " << j;
      double min2 = std::numeric_limits<double>::infinity();
      for (const Rect& r : snap.region(j).rects()) {
        min2 = std::min(min2, r.MinDist2(c.p));
      }
      ASSERT_EQ(Bits(min_mn2[j]), Bits(min2))
          << "slot " << c.slot << " user " << j;
      if (!snap.region(j).empty()) {
        ASSERT_EQ(Bits(std::sqrt(min_mn2[j])),
                  Bits(snap.region(j).MinDist(c.p)));
      }
    }
  }
}

// Rows interned before any tile, between commits and after the last one
// must all equal a full recompute after every append; re-interning an id
// returns its row and creates none.
TEST(CandidateRowsTest, RowsMatchFullRecomputeAsRegionsGrow) {
  Rng rng(0xC0DE);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t m = 1 + static_cast<size_t>(trial % 4);
    const double extent = trial % 2 == 0 ? 100.0 : 3.0e6;
    std::vector<Point> users;
    std::vector<TileRegion> regions;
    for (size_t j = 0; j < m; ++j) {
      users.push_back({rng.Uniform(0, extent), rng.Uniform(0, extent)});
      regions.emplace_back(users.back(), rng.Uniform(0.1, 0.05 * extent));
      if (trial % 3 == 0) regions.back().Add(RandomTile(&rng));
    }
    const Point po{rng.Uniform(0, extent), rng.Uniform(0, extent)};
    TileSnapshot snap(regions, users, po);
    std::vector<Candidate> interned;
    const auto intern_one = [&] {
      const uint32_t id = static_cast<uint32_t>(interned.size()) * 7 + 3;
      const Point p{rng.Uniform(0, extent), rng.Uniform(0, extent)};
      interned.push_back(snap.Intern(id, p));
      EXPECT_EQ(interned.back().id, id);
      EXPECT_EQ(interned.back().slot, interned.size() - 1);
    };
    for (int k = 0; k < 3; ++k) intern_one();
    ASSERT_NO_FATAL_FAILURE(ExpectRowsMatchRecompute(snap, users, interned));
    for (int step = 0; step < 60; ++step) {
      snap.Add(static_cast<size_t>(rng.UniformInt(0, m - 1)), RandomTile(&rng));
      if (step % 7 == 0) intern_one();
      ASSERT_NO_FATAL_FAILURE(ExpectRowsMatchRecompute(snap, users, interned))
          << "trial " << trial << " step " << step;
    }
    const size_t rows = snap.rows();
    for (const Candidate& c : interned) {
      const Candidate again = snap.Intern(c.id, c.p);
      EXPECT_EQ(again.slot, c.slot);
    }
    EXPECT_EQ(snap.rows(), rows);
  }
}

std::vector<uint32_t> Ids(const std::vector<Candidate>& list) {
  std::vector<uint32_t> ids;
  for (const Candidate& c : list) ids.push_back(c.id);
  return ids;
}

class WidestRetrievalTest : public ::testing::TestWithParam<Objective> {};

// Drives top-level retrievals through a bound sequence that grows, repeats,
// grows in one component while shrinking in another, and exceeds the
// envelope by one ulp in a single component. Each list must equal the
// brute-force set and a fresh source's traversal. A bound inside the
// envelope (the componentwise max of all bounds so far) must touch no index
// node; one outside it must traverse.
TEST_P(WidestRetrievalTest, ListsEqualFreshTraversalOverBoundSequence) {
  const Objective obj = GetParam();
  // Hand-placed users around the origin: user 2 is far from po, so its
  // region's top stays the MAX objective's ||po,R||_top and a small tile
  // of user 0 or 1 moves only its own component. User 0's coordinates are
  // small, so one ulp of its tile moves its bound by far less than one ulp.
  Rng rng(0x3D1);
  Scenario s;
  for (int k = 0; k < 3000; ++k) {
    s.pois.push_back({rng.Uniform(-500, 500), rng.Uniform(-500, 500)});
  }
  s.tree = RTree::BulkLoad(s.pois);
  s.users = {{0, 0}, {40, 0}, {0, -200}};
  uint32_t po_id = 0;
  for (uint32_t id = 1; id < s.pois.size(); ++id) {
    if (Dist(s.pois[id], {10, 20}) < Dist(s.pois[po_id], {10, 20})) {
      po_id = id;
    }
  }
  const Point po = s.pois[po_id];
  std::vector<TileRegion> regions;
  for (const Point& u : s.users) {
    regions.emplace_back(u, 10.0);
    regions.back().Add(GridTile{0, 0, 0});
  }
  TileSnapshot snap(regions, s.users, po);
  FreshCandidateSource source(&s.tree, &s.users, obj, po_id, po);

  // A square of half-side `h` around user i.
  const auto around = [&](size_t i, double h) {
    const Point& u = s.users[i];
    return Rect({u.x - h, u.y - h}, {u.x + h, u.y + h});
  };
  std::vector<double> envelope;
  size_t traversals = 0, filtered = 0;
  const auto retrieve = [&](size_t i, const Rect& r) {
    std::vector<Candidate> got;
    std::vector<double> bound;
    source.Bounds(snap, i, r, &bound);
    const uint64_t before = source.node_accesses();
    EXPECT_TRUE(source.GetCandidates(&snap, i, r, &got));
    bool within = envelope.size() == bound.size();
    for (size_t j = 0; within && j < bound.size(); ++j) {
      within = bound[j] <= envelope[j];
    }
    if (within) {
      EXPECT_EQ(source.node_accesses(), before) << "bound inside envelope";
      ++filtered;
    } else {
      EXPECT_GT(source.node_accesses(), before) << "bound outside envelope";
      ++traversals;
      if (envelope.size() != bound.size()) envelope = bound;
      for (size_t j = 0; j < bound.size(); ++j) {
        envelope[j] = std::max(envelope[j], bound[j]);
      }
    }
    EXPECT_EQ(Ids(got), BruteForceIds(s, po_id, obj, bound));
    FreshCandidateSource fresh(&s.tree, &s.users, obj, po_id, po);
    std::vector<Candidate> oracle;
    EXPECT_TRUE(fresh.GetCandidates(&snap, i, r, &oracle));
    EXPECT_EQ(Ids(got), Ids(oracle));
    for (const Candidate& c : got) EXPECT_LT(c.slot, snap.rows());
    return got;
  };

  // Grows, then repeats.
  for (double h : {8.0, 12.0, 20.0}) retrieve(0, around(0, h));
  const std::vector<Candidate> widest0 = retrieve(0, around(0, 20.0));
  EXPECT_FALSE(widest0.empty());
  // Grows in user 1's component while user 0's falls back to r_up.
  retrieve(1, around(1, 24.0));
  // Inside the componentwise max although above the last bound in user
  // 0's component: filtered.
  retrieve(0, around(0, 20.0));
  retrieve(0, around(0, 14.0));

  // One ulp past the envelope in a single component: widen the tile that
  // set the envelope's component 0 (MAX: user 0's own; SUM: user 1's,
  // the largest sum) ulp by ulp until its bound first exceeds it.
  const size_t k = obj == Objective::kMax ? 0 : 1;
  Rect r = around(k, obj == Objective::kMax ? 20.0 : 24.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> probe;
  for (int step = 0; step < 1 << 16; ++step) {
    r.hi.x = std::nextafter(r.hi.x, kInf);
    source.Bounds(snap, k, r, &probe);
    if (probe[0] > envelope[0]) break;
  }
  ASSERT_EQ(probe[0], std::nextafter(envelope[0], kInf));
  for (size_t j = 1; j < probe.size(); ++j) {
    ASSERT_LE(probe[j], envelope[j]) << "component " << j;
  }
  const size_t traversals_before = traversals;
  retrieve(k, r);
  EXPECT_EQ(traversals, traversals_before + 1);
  retrieve(k, r);  // the widened envelope holds it now
  retrieve(1 - k, around(1 - k, 20.0));
  EXPECT_EQ(traversals, traversals_before + 1);

  // Committed tiles raise r_up and top; retrievals stay exact.
  snap.Add(2, GridTile{0, 0, -1});
  retrieve(0, around(0, 20.0));
  retrieve(1, around(1, 8.0));
  EXPECT_GE(filtered, 5u);
  EXPECT_GE(traversals, 3u);
}

// A POI whose distance equals the bound survives, as the predicates are
// `<=`, on every path: traversal and envelope filter, through
// GetCandidates and through Retrieve at the same bound.
// One user at the origin, po on it, the committed tile [-1,1]^2 and the same
// rect as the query tile: the MAX bound top + r_up and the SUM bound
// 0 + 2 * r_up are both sqrt(2) + sqrt(2), the same double as
// Dist((2,2), origin) = sqrt(8), since doubling is exact.
TEST_P(WidestRetrievalTest, ExactTiesSurviveEveryPath) {
  const Objective obj = GetParam();
  Scenario s;
  s.pois = {{0, 0}, {2, 2}, {3, 0}, {-1, 0.5}};
  s.tree = RTree::BulkLoad(s.pois);
  s.users = {{0, 0}};
  std::vector<TileRegion> regions;
  regions.emplace_back(s.users[0], 2.0);
  regions.back().Add(GridTile{0, 0, 0});
  TileSnapshot snap(regions, s.users, s.pois[0]);
  FreshCandidateSource source(&s.tree, &s.users, obj, 0, s.pois[0]);
  const Rect rect = snap.region(0).TileRect(GridTile{0, 0, 0});
  std::vector<Candidate> first, again, child;
  std::vector<double> bound;
  source.Bounds(snap, 0, rect, &bound);
  ASSERT_TRUE(source.GetCandidates(&snap, 0, rect, &first));
  ASSERT_EQ(bound.size(), 1u);
  ASSERT_EQ(bound[0], Dist(s.pois[1], s.users[0]));
  const std::vector<uint32_t> want = {1, 3};
  ASSERT_EQ(BruteForceIds(s, 0, obj, bound), want);
  EXPECT_EQ(Ids(first), want);
  const uint64_t before = source.node_accesses();
  ASSERT_TRUE(source.GetCandidates(&snap, 0, rect, &again));
  source.Retrieve(&snap, bound, &child);
  EXPECT_EQ(source.node_accesses(), before);
  EXPECT_EQ(Ids(again), want);
  EXPECT_EQ(Ids(child), want);
}

INSTANTIATE_TEST_SUITE_P(Objectives, WidestRetrievalTest,
                         ::testing::Values(Objective::kMax, Objective::kSum),
                         [](const ::testing::TestParamInfo<Objective>& info) {
                           return ObjectiveName(info.param);
                         });

// GT-Verify's lane kernel decides line 1 from top(j) and the candidate row
// before reading any lane. Decisions and counters must equal the AoS
// reference over seeded scenes on an integer grid, where distances are
// square roots of integers and exact ties full_top == full_bot (line 1's
// `<=` boundary) are common; candidates are interned before and after
// commits.
TEST(LineOneTest, LanesMatchReferenceIncludingExactTies) {
  Rng rng(0x11E1);
  size_t ties = 0, tie_accepts = 0, accepted = 0, calls = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const size_t m = 1 + static_cast<size_t>(trial % 4);
    const auto coord = [&] {
      return static_cast<double>(rng.UniformInt(0, 12));
    };
    std::vector<Point> users;
    std::vector<TileRegion> regions;
    for (size_t j = 0; j < m; ++j) {
      users.push_back({coord(), coord()});
      regions.emplace_back(users.back(), 2.0 * rng.UniformInt(1, 2));
      regions.back().Add(GridTile{0, 0, 0});
    }
    const Point po{coord(), coord()};
    TileSnapshot snap(regions, users, po);
    MaxGtVerifier gt;
    uint32_t next_id = 0;
    for (int round = 0; round < 4; ++round) {
      const size_t ui = static_cast<size_t>(rng.UniformInt(0, m - 1));
      const GridTile tile{static_cast<int32_t>(rng.UniformInt(0, 1)),
                          static_cast<int32_t>(rng.UniformInt(-3, 3)),
                          static_cast<int32_t>(rng.UniformInt(-3, 3))};
      const Rect s = snap.region(ui).TileRect(tile);
      const TileLanes lanes{&snap, s.MaxDist(po)};
      for (int c = 0; c < 12; ++c) {
        const Point p = c % 4 == 0 ? po : Point{coord(), coord()};
        const Candidate cand = snap.Intern(next_id++, p);
        // Line 1's operands, recomputed from the rects.
        double full_top = s.MaxDist(po), full_bot = s.MinDist(p);
        for (size_t j = 0; j < m; ++j) {
          if (j == ui) continue;
          full_top = std::max(full_top, snap.region(j).MaxDist(po));
          full_bot = std::max(full_bot, snap.region(j).MinDist(p));
        }
        VerifyStats ref_stats, lane_stats;
        const bool a = gt.VerifyTileThreadSafe(snap.regions(), ui, s, cand,
                                               po, &ref_stats);
        const bool b = gt.VerifyTileLanes(lanes, ui, s, cand, &lane_stats);
        ASSERT_EQ(a, b) << "trial " << trial << " round " << round
                        << " cand " << c;
        ASSERT_EQ(ref_stats.calls, lane_stats.calls);
        ASSERT_EQ(ref_stats.accepted, lane_stats.accepted);
        ASSERT_EQ(lane_stats.tile_groups, 0u);
        ASSERT_EQ(lane_stats.focal_evals, 0u);
        ASSERT_EQ(lane_stats.memo_hits, 0u);
        if (full_top == full_bot) {
          ++ties;
          if (b) ++tie_accepts;
        }
        if (b) ++accepted;
        ++calls;
      }
      // Commit the tile (its premise is irrelevant to the kernels'
      // agreement), so later rows fold it on Intern and earlier ones on Add.
      snap.Add(ui, tile);
    }
  }
  EXPECT_GT(ties, 100u);
  EXPECT_GT(tie_accepts, 50u);
  EXPECT_GT(accepted, calls / 10);
  EXPECT_LT(accepted, calls - calls / 10);
}

// The paths of the lane kernel's decision order (VerifyTileLanes), as
// Theorem 2 defines them. ClassifyCall derives them from the rects with the
// AoS formulas, never from the kernel's own values.
enum Path : size_t {
  kLine1Accept,       // Lemma 1 on the whole regions
  kSingleUserReject,  // m == 1 and line 1 failed
  kSEmpty,            // some other user's S group (mn < d_p) is empty...
  kTEmpty,            // ...some T group (mx < d_o) is...
  kBothEmpty,         // ...or both are
  kImmediateReject,   // d_o > d_p with every S group non-empty
  kCase3Scan,         // d_o > d_p, some S and no T group empty
  kCase2Scan,         // d_o <= d_p, no S group empty
  kCase4TopPrecheck,  // ||po,R_i||_max < d_o: no role tile possible
  kCase4MinPrecheck,  // ||p,R_i||_min > d_p: no role tile possible
  kCase4LoopHit,      // user i's lanes scanned, a role tile found
  kCase4LoopMiss,     // user i's lanes scanned, none found
  kPathCount
};

const char* const kPathNames[kPathCount] = {
    "line 1 accept",   "single-user reject", "S empty",
    "T empty",         "both empty",         "immediate reject",
    "case-3 scan",     "case-2 scan",        "case-4 top precheck",
    "case-4 min precheck", "case-4 loop hit", "case-4 loop miss"};

// The paths a GT-Verify call of tile `s` for user `ui` against `p` takes.
std::vector<Path> ClassifyCall(const TileSnapshot& snap, size_t ui,
                               const Rect& s, const Point& p) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Point& po = snap.po();
  const double d_o = s.MaxDist(po), d_p = s.MinDist(p);
  double full_top = d_o, full_bot = d_p, m_star = 0.0, n_star = 0.0;
  double case2_top = d_o, case3_bot = d_p;
  bool any_s_empty = false, any_t_empty = false, any_dd_empty = false;
  for (size_t j = 0; j < snap.users(); ++j) {
    if (j == ui) continue;
    double top = 0.0, bot = kInf, maxmax_s = 0.0, minmin_t = kInf;
    bool has_s = false, has_t = false, has_dd = false;
    for (const Rect& t : snap.region(j).rects()) {
      const double mx = t.MaxDist(po), mn = t.MinDist(p);
      top = std::max(top, mx);
      bot = std::min(bot, mn);
      if (mn < d_p) {
        has_s = true;
        maxmax_s = std::max(maxmax_s, mx);
      }
      if (mx < d_o) {
        has_t = true;
        minmin_t = std::min(minmin_t, mn);
      }
      has_dd |= mn < d_p && mx < d_o;
    }
    full_top = std::max(full_top, top);
    full_bot = std::max(full_bot, bot);
    m_star = std::max(m_star, top);
    n_star = std::max(n_star, bot);
    any_s_empty |= !has_s;
    any_t_empty |= !has_t;
    any_dd_empty |= !has_dd;
    if (has_s) case2_top = std::max(case2_top, maxmax_s);
    if (has_t) case3_bot = std::max(case3_bot, minmin_t);
  }
  if (full_top <= full_bot) return {kLine1Accept};
  if (snap.users() == 1) return {kSingleUserReject};
  std::vector<Path> paths;
  if (any_s_empty && any_t_empty) {
    paths.push_back(kBothEmpty);
  } else if (any_s_empty) {
    paths.push_back(kSEmpty);
  } else if (any_t_empty) {
    paths.push_back(kTEmpty);
  }
  if (d_o > d_p) {
    if (!any_s_empty) {
      paths.push_back(kImmediateReject);
      return paths;
    }
    if (!any_t_empty) paths.push_back(kCase3Scan);
  } else if (!any_s_empty) {
    paths.push_back(kCase2Scan);
  }
  const bool case1 = any_dd_empty || d_o <= d_p;
  const bool case2 = any_s_empty || case2_top <= d_p;
  const bool case3 = any_t_empty || d_o <= case3_bot;
  if (!case1 || !case2 || !case3) return paths;
  // Case 4's M* <= max(d_p, N*) never holds once cases 1-3 passed, so
  // only a role tile can accept.
  EXPECT_GT(m_star, std::max(d_p, n_star));
  double top_i = 0.0, bot_i = kInf;
  bool role = false;
  for (const Rect& t : snap.region(ui).rects()) {
    top_i = std::max(top_i, t.MaxDist(po));
    bot_i = std::min(bot_i, t.MinDist(p));
    role |= t.MaxDist(po) >= d_o && t.MinDist(p) <= d_p;
  }
  if (top_i < d_o) {
    paths.push_back(kCase4TopPrecheck);
  } else if (bot_i > d_p) {
    paths.push_back(kCase4MinPrecheck);
  } else {
    paths.push_back(role ? kCase4LoopHit : kCase4LoopMiss);
  }
  return paths;
}

// Every path of the decision order, reached on integer-grid scenes where
// the exact ties d_o == d_p, mx == d_o and mn == d_p are common. The lane
// kernel must return the AoS reference's decision and VerifyStats on every
// call, and the facts the order rests on must hold: an immediate reject is
// a reference reject.
TEST(DecisionOrderTest, EveryPathMatchesReferenceOnIntegerGrid) {
  Rng rng(0xD0C5);
  size_t hits[kPathCount] = {};
  size_t do_dp_ties = 0, mx_do_ties = 0, mn_dp_ties = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const size_t m = 1 + static_cast<size_t>(trial % 4);
    const auto coord = [&] {
      return static_cast<double>(rng.UniformInt(0, 8));
    };
    const auto random_tile = [&] {
      const int32_t level = static_cast<int32_t>(rng.UniformInt(0, 1));
      const int32_t span = 2 << level;
      return GridTile{level, static_cast<int32_t>(rng.UniformInt(-span, span)),
                      static_cast<int32_t>(rng.UniformInt(-span, span))};
    };
    std::vector<Point> users;
    std::vector<TileRegion> regions;
    for (size_t j = 0; j < m; ++j) {
      users.push_back({coord(), coord()});
      regions.emplace_back(users.back(), 2.0);
      regions.back().Add(GridTile{0, 0, 0});
      const int64_t extra = rng.UniformInt(0, 3);
      for (int64_t k = 0; k < extra; ++k) regions.back().Add(random_tile());
    }
    const Point po{coord(), coord()};
    TileSnapshot snap(regions, users, po);
    MaxGtVerifier gt;
    VerifyStats ref_stats, lane_stats;
    uint32_t next_id = 0;
    for (int round = 0; round < 6; ++round) {
      const size_t ui = static_cast<size_t>(rng.UniformInt(0, m - 1));
      // Half the probes re-test a committed tile of user i, which then is
      // its own role tile with ||po,t||_max == d_o exactly.
      const TileRegion& own = snap.region(ui);
      const GridTile tile =
          round % 2 == 0
              ? own.tiles()[static_cast<size_t>(
                    rng.UniformInt(0, own.size() - 1))]
              : random_tile();
      const Rect s = own.TileRect(tile);
      const TileLanes lanes{&snap, s.MaxDist(po)};
      for (int c = 0; c < 10; ++c) {
        const Point p = c % 5 == 0 ? po : Point{coord(), coord()};
        const Candidate cand = snap.Intern(next_id++, p);
        const bool a = gt.VerifyTileThreadSafe(snap.regions(), ui, s, cand,
                                               po, &ref_stats);
        const bool b = gt.VerifyTileLanes(lanes, ui, s, cand, &lane_stats);
        ASSERT_EQ(a, b) << "trial " << trial << " round " << round
                        << " cand " << c;
        for (Path path : ClassifyCall(snap, ui, s, p)) {
          ++hits[path];
          if (path == kImmediateReject || path == kSingleUserReject ||
              path == kCase4TopPrecheck || path == kCase4MinPrecheck ||
              path == kCase4LoopMiss) {
            EXPECT_FALSE(a) << kPathNames[path];
          }
          if (path == kLine1Accept || path == kCase4LoopHit) {
            EXPECT_TRUE(a) << kPathNames[path];
          }
        }
        const double d_o = lanes.d_o, d_p = s.MinDist(p);
        do_dp_ties += d_o == d_p;
        for (size_t j = 0; j < m; ++j) {
          if (j == ui) continue;
          for (const Rect& t : snap.region(j).rects()) {
            mx_do_ties += t.MaxDist(po) == d_o;
            mn_dp_ties += t.MinDist(p) == d_p;
          }
        }
      }
      snap.Add(ui, random_tile());
    }
    ASSERT_EQ(ref_stats.calls, lane_stats.calls);
    ASSERT_EQ(ref_stats.accepted, lane_stats.accepted);
    ASSERT_EQ(ref_stats.tile_groups, lane_stats.tile_groups);
    ASSERT_EQ(ref_stats.focal_evals, lane_stats.focal_evals);
    ASSERT_EQ(ref_stats.memo_hits, lane_stats.memo_hits);
  }
  for (size_t path = 0; path < kPathCount; ++path) {
    EXPECT_GT(hits[path], 0u) << kPathNames[path] << " never reached";
  }
  EXPECT_GT(do_dp_ties, 0u);
  EXPECT_GT(mx_do_ties, 0u);
  EXPECT_GT(mn_dp_ties, 0u);
}

// Lanes at the exact strict threshold: user j's squared ||p,t||_min equals
// SqrtLtThreshold(d_p), so sqrt of it is < d_p and the lane counts as
// mn < d_p both in the S-group test and in the case-2 scan. Each scene
// must reject; counting the lane as mn >= d_p would let case 4 accept
// through user i's role tile (the tested tile itself).
//  - Scene 1, d_o > d_p: every S group is non-empty (the rejection at
//    once); user k's far tile empties its T group, which would pass case 3.
//  - Scene 2, d_o <= d_p: the tie lane has mx > d_p (the case-2 scan's
//    hit); user k's small tile has mx <= d_p.
TEST(DecisionOrderTest, SGroupAtSqrtLtThresholdIsNonEmpty) {
  // u + v and (u + v) - v == u are exact, so user j's tile starts exactly
  // u to the right of p and user i's tile s ends exactly v to its left.
  const double u = 1.5;
  const double v = u + std::ldexp(1.0, -51);
  const double a = u + v;
  struct Scene {
    Point po;
    Point k_user;
    double k_delta;
    Path want;
  };
  const Scene scenes[] = {{{1.5, 0.5}, {3, 2.5}, 4.0, kImmediateReject},
                          {{-0.5, 0.5}, {0.25, 0.25}, 0.5, kCase2Scan}};
  for (const Scene& scene : scenes) {
    // s = [-1,0] x [0,1] for user i; t = [a,a+1] x [-1,0] for user j.
    const std::vector<Point> users = {{-0.5, 0.5}, {a + 0.5, -0.5},
                                      scene.k_user};
    const double deltas[] = {1.0, 1.0, scene.k_delta};
    std::vector<TileRegion> regions;
    for (size_t j = 0; j < users.size(); ++j) {
      regions.emplace_back(users[j], deltas[j]);
      regions.back().Add(GridTile{0, 0, 0});
    }
    ASSERT_EQ(regions[1].rects()[0].lo.x, a);
    TileSnapshot snap(regions, users, scene.po);
    const Rect s = snap.region(0).TileRect(GridTile{0, 0, 0});
    const TileLanes lanes{&snap, s.MaxDist(scene.po)};
    MaxGtVerifier gt;
    // Raise p above t's top edge until the tie holds: p.y adds p.y^2 to
    // t's squared distance and nothing to s's.
    bool tied = false;
    for (int k = 1; k < 4096 && !tied; ++k) {
      const Point p{v, k * std::ldexp(1.0, -36)};
      const Candidate cand = snap.Intern(static_cast<uint32_t>(k), p);
      const double d_p = s.MinDist(p);
      ASSERT_EQ(d_p, std::sqrt(v * v));
      if (snap.min_mn2(cand.slot)[1] != SqrtLtThreshold(d_p)) continue;
      tied = true;
      ASSERT_LT(snap.region(1).MinDist(p), d_p);
      const std::vector<Path> paths = ClassifyCall(snap, 0, s, p);
      ASSERT_FALSE(paths.empty());
      EXPECT_EQ(paths.back(), scene.want) << kPathNames[scene.want];
      VerifyStats ref_stats, lane_stats;
      EXPECT_FALSE(gt.VerifyTileThreadSafe(snap.regions(), 0, s, cand,
                                           scene.po, &ref_stats));
      EXPECT_FALSE(gt.VerifyTileLanes(lanes, 0, s, cand, &lane_stats));
      EXPECT_EQ(ref_stats.calls, lane_stats.calls);
      EXPECT_EQ(ref_stats.accepted, lane_stats.accepted);
    }
    EXPECT_TRUE(tied) << kPathNames[scene.want];
  }
}

}  // namespace
}  // namespace mpn
