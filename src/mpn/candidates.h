// Candidate retrieval for tile verification.
//
// Divide-Verify (Algorithm 2) must test a tile against every POI that could
// displace the current optimum. Two sources are provided:
//
//  * FreshCandidateSource — prunes with Theorem 3 (MAX) or Theorem 6 (SUM).
//    Every tile, top-level or sub-tile, filters the widest retrieval made so
//    far (the envelope), traversing the R-tree only when its bounds outgrow
//    it. Exact either way; the traversals are the cost the Section-5.4
//    buffering removes.
//
//  * BufferedCandidateSource — retrieves the best b+1 GNNs once per safe-
//    region computation and serves verification from that buffer using the
//    distance-threshold slots of Theorem 4 / Theorem 7 (Algorithm 5). A
//    tile whose required displacement exceeds the largest threshold is
//    rejected outright (conservative).
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "index/gnn.h"
#include "mpn/safe_region.h"

namespace mpn {

/// A POI that must be checked during tile verification.
struct Candidate {
  /// The slot of a candidate that has no row (not built by Intern).
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  uint32_t id = 0;
  /// The candidate's row in the computation's TileSnapshot (Intern). The
  /// SoA verifier reads it; the AoS verifiers ignore it.
  uint32_t slot = kNoSlot;
  Point p;
};

/// The tile regions of one Tile-MSR computation plus every value derived
/// from them that cannot change during it. The optimum po and the user
/// locations are fixed and tiles are only ever appended, so each tile's
/// ||po,t||_max and ||u_j,t||_max are computed once, when the tile is
/// added, with the RectMaxDistLanes formula (geom/lanes.h). The per-region
/// maxima ||po,R_j||_max and r_up_j = ||u_j,R_j||_max are running maxima
/// of those values: max is a selection and the correctly-rounded sqrt is
/// monotone, so they equal a RectMaxDistReduce fold over the whole region
/// bit for bit. bot_po(j), the running min of ||po,t||_max, is kept the
/// same way. Both candidate retrieval (the Theorem-3/6 bounds) and the SoA
/// verification kernel (the hoisted ||po,t||_max lanes) read it.
///
/// The same holds per candidate: each distinct POI a computation verifies
/// gets one row (Intern) holding Dist(p,u_j) for every user and the running
/// min over R_j of squared ||p,t||_min, folded with the RectMinDist2Lane
/// formula when the row is created and again on every Add. Candidate
/// retrieval filters on the row's distances, and GT-Verify decides line 1
/// and the S- and T-group tests from top(j), bot_po(j) and the row
/// without a lane scan.
class TileSnapshot {
 public:
  /// Takes one region per user (tiles already in them are folded in).
  TileSnapshot(std::vector<TileRegion> regions, std::vector<Point> users,
               const Point& po);

  /// Appends grid tile `t` to user j's region and folds it in.
  void Add(size_t j, const GridTile& t);

  size_t users() const { return regions_.size(); }
  const std::vector<TileRegion>& regions() const { return regions_; }
  const TileRegion& region(size_t j) const { return regions_[j]; }
  const Point& po() const { return po_; }

  /// Per-tile ||po,t||_max of user j's tiles, parallel to region(j).lanes().
  const double* max_po(size_t j) const { return derived_[j].max_po.data(); }

  /// ||po,R_j||_max; 0 for an empty region.
  double top(size_t j) const { return derived_[j].top; }

  /// min over t in R_j of ||po,t||_max; +inf for an empty region.
  double bot_po(size_t j) const { return derived_[j].bot_po; }

  /// r_up_j = ||u_j,R_j||_max, user j's largest displacement inside R_j;
  /// 0 for an empty region.
  double r_up(size_t j) const { return derived_[j].r_up; }

  /// The candidate for POI `id` at `p`, with its row: looked up when `id`
  /// was interned before, else created and folded over every region.
  Candidate Intern(uint32_t id, const Point& p);

  /// Number of interned candidates.
  size_t rows() const { return row_points_.size(); }

  /// The location row `slot` was interned with.
  const Point& row_point(uint32_t slot) const { return row_points_[slot]; }

  /// Dist(p,u_j) of row `slot`'s candidate, j = 0..users()-1.
  const double* dist(uint32_t slot) const {
    return rows_.data() + size_t{slot} * 2 * users();
  }

  /// min over t in R_j of squared ||p,t||_min of row `slot`'s candidate,
  /// j = 0..users()-1; +inf for an empty region. Its sqrt is
  /// ||p,R_j||_min.
  const double* min_mn2(uint32_t slot) const { return dist(slot) + users(); }

  /// Moves the regions out; the snapshot is spent afterwards.
  std::vector<TileRegion> TakeRegions() { return std::move(regions_); }

 private:
  struct Derived {
    std::vector<double> max_po;
    double top = 0.0;
    double bot_po = std::numeric_limits<double>::infinity();
    double r_up = 0.0;
  };

  // Folds tile k of user j's region into derived_[j].
  void Fold(size_t j, size_t k);

  std::vector<TileRegion> regions_;
  std::vector<Point> users_;
  Point po_;
  std::vector<Derived> derived_;
  // Candidate rows, 2 * users() doubles each: Dist(p,u_j), then min_mn2.
  std::vector<double> rows_;
  std::vector<Point> row_points_;
  std::unordered_map<uint32_t, uint32_t> slot_of_;  // POI id -> row
};

/// Shared statistics across candidate retrievals.
struct CandidateStats {
  uint64_t retrievals = 0;        ///< calls to GetCandidates
  uint64_t candidates_total = 0;  ///< candidates returned in total
  uint64_t rejected_by_buffer = 0;  ///< tiles rejected for exceeding beta_b
};

/// Interface used by Divide-Verify.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  /// Computes the candidates that must be verified when tile `s` (geometric
  /// extent) is being allocated to `user_i`, given the current tile regions,
  /// into `out` (sorted by id for the fresh source, buffer order for the
  /// buffered one). Every returned candidate is interned in `snap`. Returns
  /// false when the tile must be rejected without verification (buffered
  /// mode: no valid distance-threshold slot). A source serves one snapshot:
  /// the slots it keeps between calls index that snapshot's rows.
  virtual bool GetCandidates(TileSnapshot* snap, size_t user_i,
                             const Rect& s, std::vector<Candidate>* out) = 0;

  const CandidateStats& stats() const { return stats_; }

  /// R-tree nodes touched by this source's own retrievals, accumulated as
  /// tight per-call deltas on the calling thread. ComputeTileMsr sums this
  /// with its setup-phase delta into MsrStats::rtree_node_accesses, so the
  /// per-recompute total is robust against any unrelated index traffic a
  /// pooled thread may run between setup and finish (the R-tree counter is
  /// thread-local and shared across computations).
  uint64_t node_accesses() const { return node_accesses_; }

 protected:
  CandidateStats stats_;
  uint64_t node_accesses_ = 0;
};

/// Theorem 3 / Theorem 6 pruned retrieval.
///
/// A traversal at bounds B returns exactly the POIs whose point predicate
/// holds at B: MBR pruning is sound. So any list retrieved at bounds >= B,
/// component by component, filtered with the predicate at B yields that
/// same set, and the predicate reads the candidate rows' cached distances.
/// The source keeps one such list, the envelope: the retrieval at the
/// componentwise max of every bound it has served. A tile whose bounds fit
/// inside the envelope filters it; otherwise the index is traversed once at
/// the componentwise max of the two, which becomes the new envelope. A
/// sub-tile's bounds are mathematically no larger than its parent's, but
/// its corners are recomputed from the grid and can exceed them by an ulp;
/// the envelope usually still holds them.
class FreshCandidateSource : public CandidateSource {
 public:
  /// `tree`, `users` must outlive the source. `po_id`/`po` identify the
  /// current optimum. With `use_pruning = false` the traversal degenerates
  /// to a full scan (ablation baseline for the Theorem-3/6 pruning).
  /// Candidates are returned sorted by id: the raw traversal order depends
  /// on the index layout (index/spatial_index.h), and downstream early-exit
  /// scans feed their counters into the engine digest, so the order must
  /// not.
  FreshCandidateSource(SpatialIndex tree, const std::vector<Point>* users,
                       Objective obj, uint32_t po_id, const Point& po,
                       bool use_pruning = true);

  bool GetCandidates(TileSnapshot* snap, size_t user_i, const Rect& s,
                     std::vector<Candidate>* out) override;

  /// The Theorem-3/6 bounds of tile `s` for `user_i` (MAX: one per user,
  /// SUM: one) into `bound`.
  void Bounds(const TileSnapshot& snap, size_t user_i, const Rect& s,
              std::vector<double>* bound) const;

  /// Fills `out` with the interned POIs (po excluded) whose predicate holds
  /// at `bound`, sorted by id, from the envelope; widens the envelope with
  /// one traversal first when `bound` outgrows it. GetCandidates is Bounds
  /// then Retrieve, plus the retrieval counters.
  void Retrieve(TileSnapshot* snap, const std::vector<double>& bound,
                std::vector<Candidate>* out);

 private:
  // Fills the empty `out` with the interned POIs (po excluded) whose
  // predicate holds at `bound`, sorted by id.
  void Traverse(TileSnapshot* snap, const std::vector<double>& bound,
                std::vector<Candidate>* out);
  // Appends the members of `from` whose predicate holds at `bound`.
  void Filter(const TileSnapshot& snap, const std::vector<Candidate>& from,
              const std::vector<double>& bound,
              std::vector<Candidate>* out) const;

  SpatialIndex tree_;
  const std::vector<Point>* users_;
  Objective obj_;
  uint32_t po_id_;
  Point po_;
  double po_sum_;  // ||po,U||_sum (Theorem 6)
  bool use_pruning_;
  std::vector<double> bound_;            // GetCandidates' bounds (reused)
  std::vector<double> envelope_;         // componentwise max of all bounds
  std::vector<Candidate> envelope_items_;  // the retrieval at envelope_
};

/// Theorem 4 / Theorem 7 buffered retrieval (Algorithm 5).
class BufferedCandidateSource : public CandidateSource {
 public:
  /// Fetches the best b+1 GNNs from the tree (one-time index access) and
  /// precomputes the distance thresholds beta_1..beta_b. Buffer order is
  /// the GNN (agg, id) order, identical for every index backend.
  BufferedCandidateSource(SpatialIndex tree, const std::vector<Point>& users,
                          Objective obj, int b);

  /// Buffered points are interned in buffer order, on first use.
  bool GetCandidates(TileSnapshot* snap, size_t user_i, const Rect& s,
                     std::vector<Candidate>* out) override;

  /// The optimum (first buffered GNN).
  const GnnCursor::Item& best() const { return buffer_.front(); }

  /// Distance threshold of slot z (1-based); +inf past the dataset end.
  double Beta(int z) const;

  /// Number of usable slots.
  int slot_count() const { return static_cast<int>(betas_.size()); }

 private:
  std::vector<Point> users_;
  Objective obj_;
  std::vector<GnnCursor::Item> buffer_;  // best b+1 GNNs (or fewer)
  std::vector<double> betas_;            // betas_[z-1] = beta_z, z = 1..b
  std::vector<Candidate> interned_;      // buffer_[1..] with their rows
};

}  // namespace mpn
