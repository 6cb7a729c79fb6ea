// Per-tile verification back-ends for Divide-Verify (Algorithm 2).
//
// A TileVerifier answers: "given the current (already valid) tile regions R
// and the optimum po, does allocating tile s to user_i keep po optimal
// against candidate p for every location instance?" Three back-ends:
//
//  * MaxGtVerifier  — GT-Verify (Algorithm 4 / Theorem 2): partitions each
//    other user's tiles into the four dominance groups induced by
//    do = ||po,s||_max and dp = ||p,s||_min and tests the grouped region
//    sets with Lemma 1 in a single pass per user. Conservative and sound;
//    O(sum_j |R_j|) per (tile, candidate). The SoA kernel decides from the
//    snapshot's running values and the candidate's row in O(m) first and
//    scans lanes only for what those leave open.
//
//  * MaxItVerifier  — IT-Verify: exhaustively enumerates every tile group
//    <t_1..t_m> and applies Lemma 1 per group. Exact w.r.t. tile-group
//    granularity but exponential; reference implementation for tests and
//    the ablation benchmark.
//
//  * SumHyperbolaVerifier — Algorithm 6: minimizes the comparison function
//    F(p', po, L) = sum_i (||p',l_i|| - ||po,l_i||) per user independently
//    using the exact focal-difference minimum over each tile (hyperbola
//    analysis, Fig. 12), with per-user memo tables keyed by candidate id.
//    Memo entries are validated against the owning region's size so that
//    buffered candidate sets (which may skip a candidate while a region
//    grows) can never leave a stale, unsafely large minimum behind.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/focal_diff.h"
#include "geom/lanes.h"
#include "mpn/candidates.h"
#include "mpn/safe_region.h"

namespace mpn {

/// One candidate scan's view for the SoA kernel: every user's committed
/// tiles with their hoisted ||po,t||_max — the candidate-independent half
/// of every GT predicate, computed once per tile for the whole Tile-MSR
/// computation (TileSnapshot) — plus the tile under test's ||po,s||_max.
/// The kernel walks user j's lanes tiles->region(j).lanes() in parallel
/// with tiles->max_po(j).
struct TileLanes {
  const TileSnapshot* tiles = nullptr;
  double d_o = 0.0;  ///< s.MaxDist(po) of the tile under test
};

/// Verification statistics (shared across back-ends).
struct VerifyStats {
  uint64_t calls = 0;            ///< VerifyTile invocations
  uint64_t accepted = 0;         ///< calls returning true
  uint64_t tile_groups = 0;      ///< tile groups enumerated (IT only)
  uint64_t focal_evals = 0;      ///< focal-diff minimizations (SUM only)
  uint64_t memo_hits = 0;        ///< memo cache hits (SUM only)
};

/// Interface used by Divide-Verify.
class TileVerifier {
 public:
  virtual ~TileVerifier() = default;

  /// True iff tile `s` for `user_i` is verified safe against candidate
  /// `cand` given the current regions (optimum is `po`).
  virtual bool VerifyTile(const std::vector<TileRegion>& regions,
                          size_t user_i, const Rect& s, const Candidate& cand,
                          const Point& po) = 0;

  /// True when VerifyTileThreadSafe may run concurrently from several
  /// threads (the engine's per-user candidate fan-out). Back-ends with
  /// mutable cross-call state (memo tables) return false and are always
  /// driven sequentially.
  virtual bool parallel_safe() const { return false; }

  /// Re-entrant verification core: identical decision to VerifyTile but
  /// accumulates counters into `stats` instead of the member state. Only
  /// called when parallel_safe() is true.
  virtual bool VerifyTileThreadSafe(const std::vector<TileRegion>& regions,
                                    size_t user_i, const Rect& s,
                                    const Candidate& cand, const Point& po,
                                    VerifyStats* stats) const;

  /// True when the back-end has a lane (SoA) kernel: Divide-Verify then
  /// drives VerifyTileLanes over the computation's TileSnapshot instead of
  /// the AoS walk. Implies parallel_safe().
  virtual bool lanes_capable() const { return false; }

  /// SoA verification core: decision and counters bit-identical to
  /// VerifyTileThreadSafe, but reading the snapshot; `cand` must be
  /// interned in it (TileSnapshot::Intern). Lane scans run entirely in the
  /// squared-distance domain (no per-lane sqrt; see SqrtLtThreshold for the
  /// exactness argument).
  virtual bool VerifyTileLanes(const TileLanes& lanes, size_t user_i,
                               const Rect& s, const Candidate& cand,
                               VerifyStats* stats) const;

  /// Folds externally accumulated counters (one fan-out chunk) into the
  /// member statistics.
  void MergeStats(const VerifyStats& s) {
    stats_.calls += s.calls;
    stats_.accepted += s.accepted;
    stats_.tile_groups += s.tile_groups;
    stats_.focal_evals += s.focal_evals;
    stats_.memo_hits += s.memo_hits;
  }

  /// Called after `s` was accepted for all candidates and inserted;
  /// `new_region_size` is the region's tile count after insertion.
  virtual void OnCommitted(size_t user_i, size_t new_region_size) {
    (void)user_i;
    (void)new_region_size;
  }

  /// Called when the tile's candidate scan failed (before any split).
  virtual void OnRejected() {}

  const VerifyStats& stats() const { return stats_; }

 protected:
  VerifyStats stats_;
};

/// GT-Verify for the MAX objective (Algorithm 4, Theorem 2). Stateless
/// between calls, so the parallel fan-out is safe.
class MaxGtVerifier : public TileVerifier {
 public:
  bool VerifyTile(const std::vector<TileRegion>& regions, size_t user_i,
                  const Rect& s, const Candidate& cand,
                  const Point& po) override;

  bool parallel_safe() const override { return true; }

  bool VerifyTileThreadSafe(const std::vector<TileRegion>& regions,
                            size_t user_i, const Rect& s,
                            const Candidate& cand, const Point& po,
                            VerifyStats* stats) const override;

  bool lanes_capable() const override { return true; }

  bool VerifyTileLanes(const TileLanes& lanes, size_t user_i, const Rect& s,
                       const Candidate& cand,
                       VerifyStats* stats) const override;
};

/// IT-Verify for the MAX objective: exhaustive tile-group enumeration.
/// Aborts if the number of groups exceeds `max_groups` (guard against
/// accidental exponential blow-ups in production paths).
class MaxItVerifier : public TileVerifier {
 public:
  explicit MaxItVerifier(uint64_t max_groups = 2'000'000)
      : max_groups_(max_groups) {}

  bool VerifyTile(const std::vector<TileRegion>& regions, size_t user_i,
                  const Rect& s, const Candidate& cand,
                  const Point& po) override;

  bool parallel_safe() const override { return true; }

  bool VerifyTileThreadSafe(const std::vector<TileRegion>& regions,
                            size_t user_i, const Rect& s,
                            const Candidate& cand, const Point& po,
                            VerifyStats* stats) const override;

 private:
  uint64_t max_groups_;
};

/// Sum-GT-Verify (Algorithm 6) with memoization (Section 6.3.1).
class SumHyperbolaVerifier : public TileVerifier {
 public:
  /// `po` is the session optimum; `m` the group size.
  SumHyperbolaVerifier(const Point& po, size_t m) : po_(po), memo_(m) {}

  bool VerifyTile(const std::vector<TileRegion>& regions, size_t user_i,
                  const Rect& s, const Candidate& cand,
                  const Point& po) override;

  void OnCommitted(size_t user_i, size_t new_region_size) override;
  void OnRejected() override { pending_.clear(); }

 private:
  struct MemoEntry {
    double min_f = 0.0;       // min over tiles of the focal difference
    size_t region_size = 0;   // |R_j| when the entry was (re)computed
  };

  /// Memoized min_{l in R_j} (||p',l|| - ||po,l||); recomputed when R_j has
  /// grown since the entry was filled (unless refreshed by OnCommitted).
  double UserMinFocalDiff(size_t j, const TileRegion& region,
                          const Candidate& cand);

  Point po_;
  std::vector<std::unordered_map<uint32_t, MemoEntry>> memo_;
  // Focal minima of the tile currently under scan, keyed by candidate id;
  // committed into memo_[user] only when the tile is accepted.
  std::unordered_map<uint32_t, double> pending_;
};

}  // namespace mpn
