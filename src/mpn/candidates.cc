#include "mpn/candidates.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/macros.h"

namespace mpn {

namespace {

// Normalizes candidate order across index layouts: the traversal emits in
// layout order, but the verify loop early-exits per candidate and its
// counters go into the result digest, so the scan order must be a function
// of the candidate *set* only.
void SortCandidatesById(std::vector<Candidate>* out) {
  std::sort(out->begin(), out->end(),
            [](const Candidate& a, const Candidate& b) { return a.id < b.id; });
}

// True when every bound of `inner` is <= the matching bound of `outer`.
bool BoundsWithin(const std::vector<double>& inner,
                  const std::vector<double>& outer) {
  if (inner.size() != outer.size()) return false;
  for (size_t j = 0; j < inner.size(); ++j) {
    if (inner[j] > outer[j]) return false;
  }
  return true;
}

}  // namespace

TileSnapshot::TileSnapshot(std::vector<TileRegion> regions,
                           std::vector<Point> users, const Point& po)
    : regions_(std::move(regions)),
      users_(std::move(users)),
      po_(po),
      derived_(regions_.size()) {
  MPN_ASSERT(users_.size() == regions_.size());
  for (size_t j = 0; j < regions_.size(); ++j) {
    for (size_t k = 0; k < regions_[j].size(); ++k) Fold(j, k);
  }
}

void TileSnapshot::Add(size_t j, const GridTile& t) {
  regions_[j].Add(t);
  const size_t k = regions_[j].size() - 1;
  Fold(j, k);
  const RectLanes lanes = regions_[j].lanes();
  const size_t m = users();
  for (size_t r = 0; r < row_points_.size(); ++r) {
    double& min2 = rows_[r * 2 * m + m + j];
    min2 = std::min(min2, RectMinDist2Lane(lanes, k, row_points_[r].x,
                                           row_points_[r].y));
  }
}

Candidate TileSnapshot::Intern(uint32_t id, const Point& p) {
  const auto [it, fresh] =
      slot_of_.try_emplace(id, static_cast<uint32_t>(row_points_.size()));
  if (fresh) {
    const size_t m = users();
    row_points_.push_back(p);
    rows_.resize(rows_.size() + 2 * m);
    double* row = rows_.data() + rows_.size() - 2 * m;
    for (size_t j = 0; j < m; ++j) {
      row[j] = Dist(p, users_[j]);
      const RectLanes lanes = regions_[j].lanes();
      double min2 = std::numeric_limits<double>::infinity();
      for (size_t k = 0; k < lanes.n; ++k) {
        min2 = std::min(min2, RectMinDist2Lane(lanes, k, p.x, p.y));
      }
      row[m + j] = min2;
    }
  }
  return Candidate{id, it->second, p};
}

void TileSnapshot::Fold(size_t j, size_t k) {
  const RectLanes all = regions_[j].lanes();
  const RectLanes tile{all.lo_x + k, all.lo_y + k, all.hi_x + k, all.hi_y + k,
                       1};
  double to_po = 0.0, to_user = 0.0;
  RectMaxDistLanes(tile, po_, &to_po);
  RectMaxDistLanes(tile, users_[j], &to_user);
  Derived& d = derived_[j];
  d.max_po.push_back(to_po);
  d.top = std::max(d.top, to_po);
  d.bot_po = std::min(d.bot_po, to_po);
  d.r_up = std::max(d.r_up, to_user);
}

FreshCandidateSource::FreshCandidateSource(SpatialIndex tree,
                                           const std::vector<Point>* users,
                                           Objective obj, uint32_t po_id,
                                           const Point& po, bool use_pruning)
    : tree_(tree),
      users_(users),
      obj_(obj),
      po_id_(po_id),
      po_(po),
      po_sum_(AggDist(po, *users, Objective::kSum)),
      use_pruning_(use_pruning) {}

bool FreshCandidateSource::GetCandidates(TileSnapshot* snap, size_t user_i,
                                         const Rect& s,
                                         std::vector<Candidate>* out) {
  out->clear();
  ++stats_.retrievals;
  MPN_DCHECK(snap->users() == users_->size());
  if (use_pruning_) {
    Bounds(*snap, user_i, s, &bound_);
    Retrieve(snap, bound_, out);
  } else {  // ablation baseline: every non-result POI
    const uint64_t accesses_before = tree_.node_accesses();
    tree_.Traverse([](const Rect&) { return true; },
                   [&](const Point& p, uint32_t id) {
                     if (id != po_id_) out->push_back(snap->Intern(id, p));
                   });
    SortCandidatesById(out);
    node_accesses_ += tree_.node_accesses() - accesses_before;
  }
  stats_.candidates_total += out->size();
  return true;
}

void FreshCandidateSource::Bounds(const TileSnapshot& snap, size_t user_i,
                                  const Rect& s,
                                  std::vector<double>* bound) const {
  const std::vector<Point>& users = *users_;
  const size_t m = users.size();
  // Per-user displacement bounds r_up (tile s counts for user_i).
  bound->resize(m);
  for (size_t j = 0; j < m; ++j) (*bound)[j] = snap.r_up(j);
  (*bound)[user_i] = std::max((*bound)[user_i], s.MaxDist(users[user_i]));
  if (obj_ == Objective::kMax) {
    // Theorem 3: p survives iff ||p,u_j|| <= ||po,R||_top + r_up_j for all j.
    double top = s.MaxDist(po_);
    for (size_t j = 0; j < m; ++j) top = std::max(top, snap.top(j));
    for (size_t j = 0; j < m; ++j) (*bound)[j] = top + (*bound)[j];
  } else {
    // Theorem 6: p survives iff ||p,U||_sum <= ||po,U||_sum + 2*sum_j r_up_j.
    double sum_r = 0.0;
    for (size_t j = 0; j < m; ++j) sum_r += (*bound)[j];
    bound->assign(1, po_sum_ + 2.0 * sum_r);
  }
}

void FreshCandidateSource::Retrieve(TileSnapshot* snap,
                                    const std::vector<double>& bound,
                                    std::vector<Candidate>* out) {
  out->clear();
  if (!BoundsWithin(bound, envelope_)) {
    if (envelope_.size() != bound.size()) envelope_ = bound;
    for (size_t j = 0; j < bound.size(); ++j) {
      envelope_[j] = std::max(envelope_[j], bound[j]);
    }
    envelope_items_.clear();
    Traverse(snap, envelope_, &envelope_items_);
  }
  Filter(*snap, envelope_items_, bound, out);
}

void FreshCandidateSource::Traverse(TileSnapshot* snap,
                                    const std::vector<double>& bound,
                                    std::vector<Candidate>* out) {
  const std::vector<Point>& users = *users_;
  const size_t m = users.size();
  const auto visit = [&](const Rect& mbr) {
    if (obj_ == Objective::kSum) {
      return AggMinDist(mbr, users, Objective::kSum) <= bound[0];
    }
    for (size_t j = 0; j < m; ++j) {
      if (mbr.MinDist(users[j]) > bound[j]) return false;
    }
    return true;
  };
  const auto survives = [&](const Point& p) {
    if (obj_ == Objective::kSum) {
      return AggDist(p, users, Objective::kSum) <= bound[0];
    }
    for (size_t j = 0; j < m; ++j) {
      if (Dist(p, users[j]) > bound[j]) return false;
    }
    return true;
  };
  // Tight per-call delta on the calling thread (see node_accesses()).
  const uint64_t accesses_before = tree_.node_accesses();
  tree_.Traverse(visit, [&](const Point& p, uint32_t id) {
    if (id != po_id_ && survives(p)) out->push_back(snap->Intern(id, p));
  });
  node_accesses_ += tree_.node_accesses() - accesses_before;
  SortCandidatesById(out);
}

void FreshCandidateSource::Filter(const TileSnapshot& snap,
                                  const std::vector<Candidate>& from,
                                  const std::vector<double>& bound,
                                  std::vector<Candidate>* out) const {
  // The same predicate as Traverse, on the rows' Dist(p,u_j): summed in
  // user order from 0.0 it is the double AggDist(p, users, kSum) returns.
  const size_t m = snap.users();
  for (const Candidate& c : from) {
    const double* dist = snap.dist(c.slot);
    bool keep = true;
    if (obj_ == Objective::kSum) {
      double sum = 0.0;
      for (size_t j = 0; j < m; ++j) sum += dist[j];
      keep = sum <= bound[0];
    } else {
      for (size_t j = 0; j < m && keep; ++j) keep = dist[j] <= bound[j];
    }
    if (keep) out->push_back(c);
  }
}

BufferedCandidateSource::BufferedCandidateSource(
    SpatialIndex tree, const std::vector<Point>& users, Objective obj, int b)
    : users_(users), obj_(obj) {
  MPN_ASSERT(b >= 1);
  buffer_ = FindGnn(tree, users_, obj, static_cast<size_t>(b) + 1);
  MPN_ASSERT(!buffer_.empty());
  const double denom =
      obj == Objective::kMax ? 2.0 : 2.0 * static_cast<double>(users_.size());
  betas_.reserve(static_cast<size_t>(b));
  for (int z = 1; z <= b; ++z) {
    // beta_z = (agg(p^{z+1}) - agg(po)) / denom; +inf when the dataset has
    // no (z+1)-th point (then no point outside the buffer can ever win).
    if (static_cast<size_t>(z) < buffer_.size()) {
      betas_.push_back((buffer_[static_cast<size_t>(z)].agg - buffer_[0].agg) /
                       denom);
    } else {
      betas_.push_back(std::numeric_limits<double>::infinity());
    }
  }
}

double BufferedCandidateSource::Beta(int z) const {
  MPN_ASSERT(z >= 1 && static_cast<size_t>(z) <= betas_.size());
  return betas_[static_cast<size_t>(z) - 1];
}

bool BufferedCandidateSource::GetCandidates(TileSnapshot* snap,
                                            size_t user_i, const Rect& s,
                                            std::vector<Candidate>* out) {
  out->clear();
  ++stats_.retrievals;
  const size_t m = users_.size();
  MPN_DCHECK(snap->users() == m);
  // Algorithm 5 line 1: the largest displacement any user can have.
  double dist = s.MaxDist(users_[user_i]);
  for (size_t j = 0; j < m; ++j) dist = std::max(dist, snap->r_up(j));
  // Minimum slot z with dist <= beta_z (binary search; betas are sorted).
  const auto it = std::lower_bound(betas_.begin(), betas_.end(), dist);
  if (it == betas_.end()) {
    ++stats_.rejected_by_buffer;
    return false;  // Algorithm 5 lines 3-4
  }
  const int z = static_cast<int>(it - betas_.begin()) + 1;
  // Verify against P*_{1..z} - {po} = buffered points 2..z.
  const size_t n = std::min(static_cast<size_t>(z), buffer_.size()) - 1;
  while (interned_.size() < n) {
    const GnnCursor::Item& item = buffer_[interned_.size() + 1];
    interned_.push_back(snap->Intern(item.id, item.p));
  }
  out->assign(interned_.begin(), interned_.begin() + n);
  stats_.candidates_total += out->size();
  return true;
}

}  // namespace mpn
