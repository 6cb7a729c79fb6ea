// Shared helpers for the safe-region test suites: random scenarios, region
// sampling, and brute-force optimality checks.
#pragma once

#include <vector>

#include "index/gnn.h"
#include "index/rtree.h"
#include "mpn/candidates.h"
#include "mpn/safe_region.h"
#include "util/macros.h"
#include "util/rng.h"

namespace mpn {
namespace testutil {

/// A random MPN scenario: POIs (indexed) and user locations.
struct Scenario {
  std::vector<Point> pois;
  std::vector<Point> users;
  RTree tree;
};

/// Uniform POIs in [0,extent]^2, users in the middle half of the world.
inline Scenario MakeScenario(size_t n_pois, size_t m_users, uint64_t seed,
                             double extent = 1000.0) {
  Rng rng(seed);
  Scenario s;
  s.pois.reserve(n_pois);
  for (size_t i = 0; i < n_pois; ++i) {
    s.pois.push_back({rng.Uniform(0, extent), rng.Uniform(0, extent)});
  }
  for (size_t i = 0; i < m_users; ++i) {
    s.users.push_back({rng.Uniform(extent * 0.25, extent * 0.75),
                       rng.Uniform(extent * 0.25, extent * 0.75)});
  }
  s.tree = RTree::BulkLoad(s.pois);
  return s;
}

/// A candidate without a TileSnapshot row, for the AoS verifiers, which
/// ignore the slot.
inline Candidate RowLess(uint32_t id, const Point& p) {
  return {id, Candidate::kNoSlot, p};
}

/// The POIs a Theorem-3/6 retrieval at `bound` must return: every one but
/// `po_id` whose point predicate holds, in id order.
inline std::vector<uint32_t> BruteForceIds(const Scenario& s, uint32_t po_id,
                                           Objective obj,
                                           const std::vector<double>& bound) {
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < s.pois.size(); ++id) {
    if (id == po_id) continue;
    bool keep = true;
    if (obj == Objective::kSum) {
      keep = AggDist(s.pois[id], s.users, Objective::kSum) <= bound[0];
    } else {
      for (size_t j = 0; j < s.users.size(); ++j) {
        keep = keep && Dist(s.pois[id], s.users[j]) <= bound[j];
      }
    }
    if (keep) ids.push_back(id);
  }
  return ids;
}

/// Uniform sample inside a safe region (circle or tiles).
inline Point SampleRegion(const SafeRegion& region, Rng* rng) {
  if (region.is_circle()) {
    const Circle& c = region.circle();
    // Polar sampling, area-uniform.
    const double r = c.radius * std::sqrt(rng->Uniform01());
    const double a = rng->Uniform(-3.14159265358979, 3.14159265358979);
    return c.center + UnitFromAngle(a) * r;
  }
  const TileRegion& tiles = region.tiles();
  MPN_ASSERT(!tiles.empty());
  // Pick a tile weighted by area, then a uniform point inside it.
  std::vector<double> weights;
  weights.reserve(tiles.size());
  for (const Rect& r : tiles.rects()) weights.push_back(r.Area());
  const Rect& r = tiles.rects()[rng->WeightedIndex(weights)];
  return {rng->Uniform(r.lo.x, r.hi.x), rng->Uniform(r.lo.y, r.hi.y)};
}

/// True when `po_id` is optimal (within relative tolerance for ties) for the
/// given instance of user locations.
inline bool IsOptimalMeetingPoint(const std::vector<Point>& pois,
                                  uint32_t po_id,
                                  const std::vector<Point>& locations,
                                  Objective obj, double tol = 1e-9) {
  const double reported = AggDist(pois[po_id], locations, obj);
  const auto best = FindGnnBruteForce(pois, locations, obj, 1);
  MPN_ASSERT(!best.empty());
  return reported <= best[0].agg + tol * (1.0 + best[0].agg);
}

}  // namespace testutil
}  // namespace mpn
