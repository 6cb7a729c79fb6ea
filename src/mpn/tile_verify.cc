#include "mpn/tile_verify.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/macros.h"

namespace mpn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Case 3 when d_o > d_p and every other user's T group (mx < d_o) is
// non-empty: some user j != user_i has min ||p,t||_min >= d_o over its
// tiles with mx < d_o. The min is folded over squares and takes one sqrt.
bool SomeUserHoldsCase3(const TileSnapshot& snap, size_t user_i,
                        const Point& p, double d_o) {
  for (size_t j = 0; j < snap.users(); ++j) {
    if (j == user_i) continue;
    const RectLanes r = snap.region(j).lanes();
    const double* max_po = snap.max_po(j);
    double min2 = kInf;
    for (size_t k = 0; k < r.n; ++k) {
      if (max_po[k] < d_o) {
        min2 = std::min(min2, RectMinDist2Lane(r, k, p.x, p.y));
      }
    }
    if (std::sqrt(min2) >= d_o) return true;
  }
  return false;
}

// Case 2's failure when d_o <= d_p: some other user's tile has
// mn < d_p (mn2 <= t_lt) and mx > d_p.
bool SomeSLaneAboveDp(const TileSnapshot& snap, size_t user_i,
                      const Point& p, double d_p, double t_lt) {
  for (size_t j = 0; j < snap.users(); ++j) {
    if (j == user_i) continue;
    const RectLanes r = snap.region(j).lanes();
    const double* max_po = snap.max_po(j);
    for (size_t k = 0; k < r.n; ++k) {
      if (max_po[k] > d_p && RectMinDist2Lane(r, k, p.x, p.y) <= t_lt) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

bool TileVerifier::VerifyTileThreadSafe(const std::vector<TileRegion>& regions,
                                        size_t user_i, const Rect& s,
                                        const Candidate& cand, const Point& po,
                                        VerifyStats* stats) const {
  (void)regions;
  (void)user_i;
  (void)s;
  (void)cand;
  (void)po;
  (void)stats;
  MPN_ASSERT_MSG(false, "VerifyTileThreadSafe on a sequential-only verifier");
  return false;
}

bool TileVerifier::VerifyTileLanes(const TileLanes& lanes, size_t user_i,
                                   const Rect& s, const Candidate& cand,
                                   VerifyStats* stats) const {
  (void)lanes;
  (void)user_i;
  (void)s;
  (void)cand;
  (void)stats;
  MPN_ASSERT_MSG(false, "VerifyTileLanes on a lanes-incapable verifier");
  return false;
}

// ---------------------------------------------------------------------------
// MaxGtVerifier (Algorithm 4 / Theorem 2)
// ---------------------------------------------------------------------------

bool MaxGtVerifier::VerifyTile(const std::vector<TileRegion>& regions,
                               size_t user_i, const Rect& s,
                               const Candidate& cand, const Point& po) {
  return VerifyTileThreadSafe(regions, user_i, s, cand, po, &stats_);
}

bool MaxGtVerifier::VerifyTileThreadSafe(const std::vector<TileRegion>& regions,
                                         size_t user_i, const Rect& s,
                                         const Candidate& cand, const Point& po,
                                         VerifyStats* stats) const {
  ++stats->calls;
  const Point& p = cand.p;
  const size_t m = regions.size();
  const double d_o = s.MaxDist(po);   // dominant max dist of the new tile
  const double d_p = s.MinDist(p);    // dominant min dist of the new tile

  // One pass over every other user's tiles computes, simultaneously:
  //  - whole-region aggregates (for the line-1 Lemma-1 check and case 4),
  //  - the four dominance-group aggregates of Theorem 2.
  double full_top = d_o;   // ||po, R'||_top with R'_i = {s}
  double full_bot = d_p;   // ||p, R'||_bot
  double m_star = 0.0;     // max_{j != i} ||po, R_j||_max   (case 4)
  double n_star = 0.0;     // max_{j != i} ||p,  R_j||_min   (case 4)
  bool any_dd_empty = false;   // some G_j^{down,down} empty  -> case 1 vacuous
  bool any_s_empty = false;    // some G^{dd} u G^{ud} empty  -> case 2 vacuous
  bool any_t_empty = false;    // some G^{dd} u G^{du} empty  -> case 3 vacuous
  double case2_top = d_o;      // max maxdist over mindist<dp tiles (+ d_o)
  double case3_bot = d_p;      // max over j of min mindist over maxdist<do
  bool has_other = false;

  for (size_t j = 0; j < m; ++j) {
    if (j == user_i) continue;
    has_other = true;
    const TileRegion& rj = regions[j];
    MPN_DCHECK(!rj.empty());
    bool has_dd = false, has_s = false, has_t = false;
    double maxmax_all = 0.0, minmin_all = kInf;
    double maxmax_s = 0.0, minmin_t = kInf;
    for (const Rect& t : rj.rects()) {
      const double mx = t.MaxDist(po);
      const double mn = t.MinDist(p);
      maxmax_all = std::max(maxmax_all, mx);
      minmin_all = std::min(minmin_all, mn);
      const bool below_do = mx < d_o;
      const bool below_dp = mn < d_p;
      if (below_do && below_dp) has_dd = true;
      if (below_dp) {  // G^{dd} u G^{ud}: u_i stays dominant-min
        has_s = true;
        maxmax_s = std::max(maxmax_s, mx);
      }
      if (below_do) {  // G^{dd} u G^{du}: u_i stays dominant-max
        has_t = true;
        minmin_t = std::min(minmin_t, mn);
      }
    }
    full_top = std::max(full_top, maxmax_all);
    full_bot = std::max(full_bot, minmin_all);
    m_star = std::max(m_star, maxmax_all);
    n_star = std::max(n_star, minmin_all);
    if (!has_dd) any_dd_empty = true;
    if (!has_s) any_s_empty = true;
    if (!has_t) any_t_empty = true;
    if (has_s) case2_top = std::max(case2_top, maxmax_s);
    if (has_t) case3_bot = std::max(case3_bot, minmin_t);
  }

  // Single user: only the new tile matters.
  if (!has_other) {
    const bool ok = d_o <= d_p;
    if (ok) ++stats->accepted;
    return ok;
  }

  // Line 1: Lemma 1 on the whole regions with {s} for user_i.
  if (full_top <= full_bot) {
    ++stats->accepted;
    return true;
  }

  // Case 1: u_i dominates both po and p. All other users pick from G^{dd}.
  const bool case1 = any_dd_empty || d_o <= d_p;
  // Case 2: u_i is the dominant-min user; another user dominates po.
  const bool case2 = any_s_empty || case2_top <= d_p;
  // Case 3: u_i is the dominant-max user; another user dominates p.
  const bool case3 = any_t_empty || d_o <= case3_bot;
  if (!case1 || !case2 || !case3) return false;

  // Case 4: both dominant users are others. If R_i already holds a tile s'
  // that is at least as "hard" as s (||po,s'||_max >= do and
  // ||p,s'||_min <= dp), the previously verified groups cover these; else
  // require the worst cross-combination to stay valid:
  //   M* <= max(dp, N*), since every such group has dominant max <= M* and
  //   dominant min >= max(dp, N*).
  bool has_role_tile = false;
  for (const Rect& t : regions[user_i].rects()) {
    if (t.MaxDist(po) >= d_o && t.MinDist(p) <= d_p) {
      has_role_tile = true;
      break;
    }
  }
  const bool case4 = has_role_tile || m_star <= std::max(d_p, n_star);
  if (case4) ++stats->accepted;
  return case4;
}

bool MaxGtVerifier::VerifyTileLanes(const TileLanes& lanes, size_t user_i,
                                    const Rect& s, const Candidate& cand,
                                    VerifyStats* stats) const {
  // Decision-identical to VerifyTileThreadSafe, but no lane is read until
  // the snapshot's O(m) values have failed to decide the call. top(j) and
  // the candidate row's min_mn2[j] give line 1; min_mn2[j] <= t_lt says
  // user j's S group (mn < d_p) is non-empty and bot_po(j) < d_o that its
  // T group (mx < d_o) is. Three facts then
  // settle cases 1-3 with at most one single-predicate scan:
  //  - G^dd_j lies in both G^s_j and G^t_j, so an empty S or T group
  //    empties some G^dd and makes case 1 vacuous;
  //  - case2_top starts at d_o, so with d_o > d_p case 2 holds only when
  //    some S group is empty; every S group non-empty rejects at once;
  //  - with d_o <= d_p, cases 1 and 3 hold (case3_bot >= d_p >= d_o) and
  //    case 2 is "no lane with mn < d_p and mx > d_p"; with d_o > d_p and
  //    every T group non-empty, case 3 needs one user whose min mn over
  //    its mx < d_o lanes is >= d_o (an empty T group's min is +inf, so
  //    the T flags only spare that scan).
  // Lane tests stay in the squared domain: mn2 is the exact square the AoS
  // path feeds to sqrt, so mn < d_p becomes mn2 <= SqrtLtThreshold(d_p)
  // (see lanes.h), and sqrt is monotone and correctly rounded, so it
  // commutes with every min and max taken here.
  ++stats->calls;
  const double d_o = lanes.d_o;          // == s.MaxDist(po)
  const double d_p = s.MinDist(cand.p);  // dominant min dist of the new tile
  const TileSnapshot& snap = *lanes.tiles;
  const size_t m = snap.users();
  MPN_DCHECK(cand.slot < snap.rows() && snap.row_point(cand.slot) == cand.p);
  const double* min_mn2 = snap.min_mn2(cand.slot);

  // Line 1: Lemma 1 on the whole regions with {s} for user_i.
  double m_star = 0.0;
  double n_star2 = 0.0;
  for (size_t j = 0; j < m; ++j) {
    if (j == user_i) continue;
    m_star = std::max(m_star, snap.top(j));
    n_star2 = std::max(n_star2, min_mn2[j]);
  }
  const double n_star = std::sqrt(n_star2);
  if (std::max(d_o, m_star) <= std::max(d_p, n_star)) {
    ++stats->accepted;
    return true;
  }
  // A single user has no other region: line 1 was the whole test.
  if (m == 1) return false;

  const double t_lt = SqrtLtThreshold(d_p);
  bool any_s_empty = false;
  bool any_t_empty = false;
  for (size_t j = 0; j < m; ++j) {
    if (j == user_i) continue;
    any_s_empty |= !(min_mn2[j] <= t_lt);
    any_t_empty |= !(snap.bot_po(j) < d_o);
  }
  if (d_o > d_p) {
    if (!any_s_empty) return false;  // case 2
    if (!any_t_empty && !SomeUserHoldsCase3(snap, user_i, cand.p, d_o)) {
      return false;  // case 3
    }
  } else if (!any_s_empty && SomeSLaneAboveDp(snap, user_i, cand.p, d_p,
                                               t_lt)) {
    return false;  // case 2
  }

  // Case 4 accepts only through a role tile of user_i: its other test,
  // M* <= max(d_p, N*), cannot hold here. With line 1 failed it would put
  // every other tile's mx below d_o > max(d_p, N*), so every T group would
  // be full and case 3 would have needed N* >= d_o. A role tile has
  // ||po,t||_max >= d_o and ||p,t||_min <= d_p, so user_i's lanes are read
  // only when top(i) and min_mn2[i] allow one; the squared test mirrors
  // t.MinDist(p) <= d_p via the non-strict threshold.
  bool case4 = false;
  if (snap.top(user_i) >= d_o) {
    const double t_le = SqrtLeqThreshold(d_p);
    if (min_mn2[user_i] <= t_le) {
      const RectLanes r = snap.region(user_i).lanes();
      const double* max_po = snap.max_po(user_i);
      for (size_t k = 0; k < r.n && !case4; ++k) {
        case4 = max_po[k] >= d_o &&
                RectMinDist2Lane(r, k, cand.p.x, cand.p.y) <= t_le;
      }
    }
  }
  if (case4) ++stats->accepted;
  return case4;
}

// ---------------------------------------------------------------------------
// MaxItVerifier (exhaustive reference)
// ---------------------------------------------------------------------------

bool MaxItVerifier::VerifyTile(const std::vector<TileRegion>& regions,
                               size_t user_i, const Rect& s,
                               const Candidate& cand, const Point& po) {
  return VerifyTileThreadSafe(regions, user_i, s, cand, po, &stats_);
}

bool MaxItVerifier::VerifyTileThreadSafe(const std::vector<TileRegion>& regions,
                                         size_t user_i, const Rect& s,
                                         const Candidate& cand, const Point& po,
                                         VerifyStats* stats) const {
  ++stats->calls;
  const Point& p = cand.p;
  const size_t m = regions.size();

  uint64_t combos = 1;
  for (size_t j = 0; j < m; ++j) {
    if (j == user_i) continue;
    MPN_ASSERT(!regions[j].empty());
    combos *= regions[j].size();
    MPN_ASSERT_MSG(combos <= max_groups_, "IT-Verify tile-group explosion");
  }

  // Odometer over the other users' tiles; user_i is pinned to s.
  std::vector<size_t> idx(m, 0);
  const double s_max_po = s.MaxDist(po);
  const double s_min_p = s.MinDist(p);
  for (;;) {
    ++stats->tile_groups;
    double top = s_max_po, bot = s_min_p;
    for (size_t j = 0; j < m; ++j) {
      if (j == user_i) continue;
      const Rect& t = regions[j].rects()[idx[j]];
      top = std::max(top, t.MaxDist(po));
      bot = std::max(bot, t.MinDist(p));
    }
    if (top > bot) return false;
    // Advance the odometer.
    size_t j = 0;
    for (; j < m; ++j) {
      if (j == user_i) continue;
      if (++idx[j] < regions[j].size()) break;
      idx[j] = 0;
    }
    if (j >= m) break;
  }
  ++stats->accepted;
  return true;
}

// ---------------------------------------------------------------------------
// SumHyperbolaVerifier (Algorithm 6 + memoization)
// ---------------------------------------------------------------------------

double SumHyperbolaVerifier::UserMinFocalDiff(size_t j,
                                              const TileRegion& region,
                                              const Candidate& cand) {
  auto& table = memo_[j];
  auto it = table.find(cand.id);
  if (it != table.end() && it->second.region_size == region.size()) {
    ++stats_.memo_hits;
    return it->second.min_f;
  }
  double f = kInf;
  for (const Rect& t : region.rects()) {
    f = std::min(f, MinFocalDiffOverRect(cand.p, po_, t));
    ++stats_.focal_evals;
  }
  table[cand.id] = MemoEntry{f, region.size()};
  return f;
}

bool SumHyperbolaVerifier::VerifyTile(const std::vector<TileRegion>& regions,
                                      size_t user_i, const Rect& s,
                                      const Candidate& cand, const Point& po) {
  (void)po;  // fixed at construction (po_); parameter kept for interface
  ++stats_.calls;
  const double f_new = MinFocalDiffOverRect(cand.p, po_, s);
  ++stats_.focal_evals;
  double total = f_new;
  for (size_t j = 0; j < regions.size(); ++j) {
    if (j == user_i) continue;
    MPN_DCHECK(!regions[j].empty());
    total += UserMinFocalDiff(j, regions[j], cand);
    if (total < -1e12) break;  // early exit on hopeless sums
  }
  if (total < 0.0) return false;
  pending_[cand.id] = f_new;
  ++stats_.accepted;
  return true;
}

void SumHyperbolaVerifier::OnCommitted(size_t user_i, size_t new_region_size) {
  auto& table = memo_[user_i];
  for (const auto& [id, f] : pending_) {
    auto it = table.find(id);
    if (it != table.end()) {
      it->second.min_f = std::min(it->second.min_f, f);
      it->second.region_size = new_region_size;
    }
  }
  // Entries not refreshed above keep their old region_size and will be
  // recomputed on the next read (correctness under buffered candidate sets).
  pending_.clear();
}

}  // namespace mpn
