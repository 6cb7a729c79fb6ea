// Candidate retrieval for tile verification.
//
// Divide-Verify (Algorithm 2) must test a tile against every POI that could
// displace the current optimum. Two sources are provided:
//
//  * FreshCandidateSource — prunes with Theorem 3 (MAX) or Theorem 6 (SUM).
//    A top-level tile traverses the R-tree; a sub-tile filters its parent
//    tile's candidates instead whenever its bounds are no larger. Exact
//    either way; the traversals are the cost the Section-5.4 buffering
//    removes.
//
//  * BufferedCandidateSource — retrieves the best b+1 GNNs once per safe-
//    region computation and serves verification from that buffer using the
//    distance-threshold slots of Theorem 4 / Theorem 7 (Algorithm 5). A
//    tile whose required displacement exceeds the largest threshold is
//    rejected outright (conservative).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "index/gnn.h"
#include "mpn/safe_region.h"

namespace mpn {

/// A POI that must be checked during tile verification.
struct Candidate {
  uint32_t id = 0;
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
/// bit for bit. Both candidate retrieval (the Theorem-3/6 bounds) and the
/// SoA verification kernel (the hoisted ||po,t||_max lanes) read it.
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

  /// r_up_j = ||u_j,R_j||_max, user j's largest displacement inside R_j;
  /// 0 for an empty region.
  double r_up(size_t j) const { return derived_[j].r_up; }

  /// Moves the regions out; the snapshot is spent afterwards.
  std::vector<TileRegion> TakeRegions() { return std::move(regions_); }

 private:
  struct Derived {
    std::vector<double> max_po;
    double top = 0.0;
    double r_up = 0.0;
  };

  // Folds tile k of user j's region into derived_[j].
  void Fold(size_t j, size_t k);

  std::vector<TileRegion> regions_;
  std::vector<Point> users_;
  Point po_;
  std::vector<Derived> derived_;
};

/// One retrieval: the candidates (sorted by id) and the Theorem-3/6 bounds
/// that selected them (MAX: one per user, SUM: one; empty when the source
/// keeps none). Divide-Verify keeps one per recursion level and passes it
/// to the sub-tiles as their parent retrieval.
struct CandidateSet {
  std::vector<Candidate> items;
  std::vector<double> bound;
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
  /// extent) is being allocated to `user_i`, given the current tile regions.
  /// `parent`, when non-null, is the retrieval of a tile containing `s`
  /// made while the regions held a subset of their current tiles; a source
  /// may derive the result from it instead of querying the index. Returns
  /// false when the tile must be rejected without verification (buffered
  /// mode: no valid distance-threshold slot).
  virtual bool GetCandidates(const TileSnapshot& snap, size_t user_i,
                             const Rect& s, const CandidateSet* parent,
                             CandidateSet* out) = 0;

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
/// Without a parent the R-tree is traversed. With a parent whose every
/// bound is >= this tile's, the parent's candidates are filtered with the
/// same point predicate instead: a smaller bound prunes a superset of index
/// nodes and MBR pruning is sound, so that yields exactly the traversal's
/// set. A sub-tile's bounds are mathematically no larger than its parent's
/// (it lies inside the parent, and so does every tile committed since), but
/// its corners are recomputed from the grid and can exceed the parent's by
/// an ulp; any larger bound falls back to the traversal.
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

  bool GetCandidates(const TileSnapshot& snap, size_t user_i, const Rect& s,
                     const CandidateSet* parent, CandidateSet* out) override;

 private:
  SpatialIndex tree_;
  const std::vector<Point>* users_;
  Objective obj_;
  uint32_t po_id_;
  Point po_;
  double po_sum_;  // ||po,U||_sum (Theorem 6)
  bool use_pruning_;
};

/// Theorem 4 / Theorem 7 buffered retrieval (Algorithm 5).
class BufferedCandidateSource : public CandidateSource {
 public:
  /// Fetches the best b+1 GNNs from the tree (one-time index access) and
  /// precomputes the distance thresholds beta_1..beta_b. Buffer order is
  /// the GNN (agg, id) order, identical for every index backend.
  BufferedCandidateSource(SpatialIndex tree, const std::vector<Point>& users,
                          Objective obj, int b);

  /// Ignores `parent`: the buffer already bounds every call to O(b).
  bool GetCandidates(const TileSnapshot& snap, size_t user_i, const Rect& s,
                     const CandidateSet* parent, CandidateSet* out) override;

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
};

}  // namespace mpn
