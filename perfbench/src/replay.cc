#include "replay.h"

#include <exception>
#include <memory>
#include <utility>

#include "engine/session_codec.h"
#include "index/gnn.h"
#include "index/packed_rtree.h"
#include "mpn/compress.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using mpn::GroupSession;

// The recompute's meeting point must be optimal (brute force, within the
// tie tolerance GroupSession's own check uses) and every fresh region
// must contain its user. Returns the failure text, or "".
std::string CheckRecompute(const std::vector<mpn::Point>& pois,
                           mpn::Objective obj,
                           const GroupSession::Snapshot& snap,
                           const GroupSession::RecomputeOutcome& outcome) {
  const auto best = mpn::FindGnnBruteForce(pois, snap.locations, obj, 1);
  if (best.empty()) return "brute force found no meeting point";
  const double reported = mpn::AggDist(outcome.result.po, snap.locations, obj);
  if (reported > best[0].agg + 1e-7 * (1.0 + best[0].agg)) {
    return "non-optimal meeting point at tick " + std::to_string(snap.t);
  }
  if (outcome.result.regions.size() != snap.locations.size()) {
    return "region count differs from group size";
  }
  for (size_t i = 0; i < snap.locations.size(); ++i) {
    if (!outcome.result.regions[i].Contains(snap.locations[i])) {
      return "fresh region excludes its user at tick " + std::to_string(snap.t);
    }
  }
  return "";
}

// Step-3 region codec round trip of every fresh tile region: the decoded
// region must still contain its user. Returns the failure text, or "".
std::string ProbeRegionCodec(const GroupSession::Snapshot& snap,
                             const mpn::MsrResult& result, Tracer* tr,
                             uint32_t id, uint32_t t, uint32_t cause) {
  for (size_t i = 0; i < result.regions.size(); ++i) {
    if (result.regions[i].is_circle()) continue;
    mpn::TileRegion back;
    {
      ScopedSpan span(tr, Layer::kMpn, "EncodeTileRegion+DecodeTileRegion",
                      id, t, cause);
      back = mpn::DecodeTileRegion(
          mpn::EncodeTileRegion(result.regions[i].tiles()));
    }
    ScopedSpan span(tr, Layer::kCheck, "CheckRegionCodec", id, t, cause);
    if (!back.Contains(snap.locations[i])) {
      return "decoded region excludes its user at tick " + std::to_string(t);
    }
  }
  return "";
}

// Spill codec round trip of the session's state: Export, encode, decode,
// and re-encode must reproduce the bytes. Returns the failure text, or "".
std::string ProbeCodec(const GroupSession& s, Tracer* tr, uint32_t id,
                       uint32_t t, std::vector<double>* bytes) {
  GroupSession::State state;
  {
    ScopedSpan span(tr, Layer::kEngineStore, "GroupSession::ExportState", id, t);
    state = s.ExportState();
  }
  mpn::WireBuffer buf;
  {
    ScopedSpan span(tr, Layer::kEngineStore, "EncodeLiveSession", id, t);
    mpn::EncodeLiveSession(state, &buf);
  }
  bytes->push_back(static_cast<double>(buf.size()));
  GroupSession::State back;
  {
    ScopedSpan span(tr, Layer::kEngineStore, "DecodeLiveSession", id, t);
    mpn::WireReader reader(buf.data());
    if (mpn::ReadSnapshotHeader(&reader) != mpn::SnapshotKind::kLive) {
      return "codec header kind mismatch";
    }
    back = mpn::DecodeLiveSession(&reader);
  }
  ScopedSpan span(tr, Layer::kCheck, "CheckCodecRoundTrip", id, t);
  mpn::WireBuffer again;
  mpn::EncodeLiveSession(back, &again);
  return again.data() == buf.data() ? "" : "codec round trip changed the state";
}

}  // namespace

ReplayResult Replay(const Workload& w, const Inputs& in, Tracer* tr) {
  ReplayResult out;
  const mpn::PackedRTree tree = mpn::PackedRTree::Build(in.pois);
  mpn::SimOptions sim;
  sim.server = MakeServer(w);
  const mpn::Objective obj = sim.server.objective;
  const size_t gnn_k = GnnK(w);
  mpn::Timer wall;
  for (const uint32_t id : in.replay_ids) {
    std::string failure;
    const auto fail = [&failure](std::string what) {
      if (failure.empty() && !what.empty()) failure = std::move(what);
    };
    ScopedSpan session_span(tr, Layer::kBench, "session", id);
    try {
      std::unique_ptr<GroupSession> s;
      {
        ScopedSpan span(tr, Layer::kSim, "GroupSession::GroupSession", id);
        s = std::make_unique<GroupSession>(id, &in.pois, &tree, in.groups[id],
                                           sim, in.tuning[id]);
      }
      while (!s->AdvancesExhausted()) {
        const uint32_t t = static_cast<uint32_t>(s->next_timestamp());
        ScopedSpan tick_span(tr, Layer::kBench, "tick", id, t);
        GroupSession::Snapshot snap;
        bool violated = false;
        uint32_t advance_id = kNoSpan;
        {
          ScopedSpan span(tr, Layer::kSim, "GroupSession::AdvanceAndCheck",
                          id, t);
          advance_id = span.id();
          violated = s->AdvanceAndCheck(&snap);
        }
        if (violated) {
          GroupSession::RecomputeOutcome outcome;
          uint32_t recompute_id = kNoSpan;
          {
            ScopedSpan span(tr, Layer::kMpn, "GroupSession::Recompute", id, t,
                            advance_id);
            recompute_id = span.id();
            outcome = s->Recompute(snap);
          }
          {
            ScopedSpan span(tr, Layer::kCheck, "CheckRecompute", id, t,
                            recompute_id);
            fail(CheckRecompute(in.pois, obj, snap, outcome));
          }
          fail(ProbeRegionCodec(snap, outcome.result, tr, id, t, recompute_id));
          {
            ScopedSpan span(tr, Layer::kIndex, "FindGnn", id, t, recompute_id);
            if (mpn::FindGnn(&tree, snap.locations, obj, gnn_k).empty()) {
              fail("FindGnn probe returned nothing");
            }
          }
          ScopedSpan span(tr, Layer::kSim, "GroupSession::InstallResult", id,
                          t, recompute_id);
          s->InstallResult(std::move(outcome));
        }
        {
          ScopedSpan span(tr, Layer::kSim, "GroupSession::ReplayOne", id, t);
          GroupSession::Snapshot buffered;
          if (s->ReplayOne(&buffered) != GroupSession::Replay::kEmpty) {
            fail("sequential replay left a buffered update");
          }
        }
        if (w.store_sample_every > 0 && t % w.store_sample_every == 0) {
          fail(ProbeCodec(*s, tr, id, t, &out.snapshot_bytes));
        }
      }
      s->Finish();
      out.sessions.push_back(
          ToSessionResult(s->metrics(), s->has_result(), s->current_po()));
    } catch (const std::exception& e) {
      fail(std::string("replay threw: ") + e.what());
      out.sessions.emplace_back();
    }
    out.failures.push_back(failure);
  }
  out.wall_s = wall.ElapsedSeconds();
  return out;
}

}  // namespace perfbench
