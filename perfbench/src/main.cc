// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--scratch-dir <dir>]
//
// Repeats the workload (set up, admit, drain, read back) until --seconds
// have passed, checks every result, and prints each end-to-end metric as
// the median over repetitions. With --trace 1 it then runs (a) one more
// repetition with spans around the public engine calls and (b) a
// single-threaded replay of a seeded session subset with a span per
// GroupSession phase, and prints the per-layer metrics instead. The last
// line of stdout is the JSON result; see perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "replay.h"
#include "timed.h"
#include "trace.h"
#include "util/stats.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// A replay whose layer self times leave more than this share of its wall
/// time unaccounted is reported as such.
constexpr double kReplayGapShare = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scale = "full";
  std::string scratch_dir = ".bench_build/run";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = val == "1";
      have_trace = true;
    } else if (key == "--scale") {
      a.scale = val;
    } else if (key == "--scratch-dir") {
      a.scratch_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--scale full|tiny] [--scratch-dir <dir>]");
  }
  return a;
}

double Median(std::vector<double> v) { return mpn::Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Observations behind the value: repetitions, spans, or the recomputes
  /// or timestamps a ratio divides by (1 for a single reading).
  size_t samples;
};

// --- correctness -----------------------------------------------------------

struct Verdict {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> notes;

  void Fail(size_t sessions, const std::string& why) {
    failed += sessions;
    if (notes.size() < 20) notes.push_back(why);
  }
};

// Checks one repetition against the reference one (the first repetition
// that did not throw): same per-session results, same digest, every
// session completed its horizon.
void CheckRep(const Inputs& in, const RepResult& rep, const RepResult* ref,
              const std::string& label, Verdict* v) {
  const size_t n = in.groups.size();
  v->attempted += n;
  if (!rep.error.empty()) {
    v->Fail(n, label + " threw: " + rep.error);
    return;
  }
  size_t bad = 0;
  size_t first_bad = 0;
  for (size_t id = 0; id < n; ++id) {
    const SessionResult& s = rep.sessions[id];
    if (s.timestamps != in.expected_ticks[id] ||
        (ref != nullptr && s != ref->sessions[id])) {
      if (bad++ == 0) first_bad = id;
    }
  }
  if (bad > 0) {
    v->Fail(bad, label + ": " + std::to_string(bad) +
                     " sessions differ from the reference or did not finish"
                     " (first: " + std::to_string(first_bad) + ")");
  } else if (ref != nullptr && rep.digest != ref->digest) {
    v->Fail(1, label + ": ResultDigest differs from the reference");
  }
}

void CheckReplay(const Inputs& in, const ReplayResult& replay,
                 const RepResult* ref, Verdict* v) {
  v->attempted += in.replay_ids.size();
  for (size_t j = 0; j < in.replay_ids.size(); ++j) {
    const uint32_t id = in.replay_ids[j];
    if (!replay.failures[j].empty()) {
      v->Fail(1, "replay session " + std::to_string(id) + ": " +
                     replay.failures[j]);
    } else if (ref != nullptr && replay.sessions[j] != ref->sessions[id]) {
      v->Fail(1, "replay session " + std::to_string(id) +
                     " (po, updates, packets) differs from the timed run");
    }
  }
}

// --- metrics ---------------------------------------------------------------

// Per-repetition values; every end-to-end metric is their median over the
// timed repetitions.
std::vector<Metric> EndToEnd(const std::vector<const RepResult*>& reps) {
  std::vector<double> tps, cpu, spu, upt, ppt, setup, rss;
  for (const RepResult* r : reps) {
    const double ticks = static_cast<double>(r->total.timestamps);
    tps.push_back(Ratio(ticks, r->drain_s));
    cpu.push_back(Ratio(r->cpu_s * 1e6, ticks));
    spu.push_back(Ratio(r->total.server_seconds * 1e3,
                        static_cast<double>(r->total.updates)));
    upt.push_back(Ratio(static_cast<double>(r->total.updates), ticks));
    ppt.push_back(Ratio(static_cast<double>(r->total.comm.TotalPackets()), ticks));
    setup.push_back(r->setup_s);
    rss.push_back(r->peak_rss_mb);
  }
  const size_t n = reps.size();
  return {{"ticks_per_s", Median(tps), "1/s", n},
          {"cpu_us_per_tick", Median(cpu), "us", n},
          {"server_ms_per_update", Median(spu), "ms", n},
          {"updates_per_tick", Median(upt), "count", n},
          {"packets_per_tick", Median(ppt), "count", n},
          {"setup_s", Median(setup), "s", n},
          {"peak_rss_mb", Median(rss), "MB", n}};
}

struct SpanStats {
  std::vector<double> seconds;
  double total = 0.0;
};

std::map<std::string, SpanStats> ByName(const Tracer& tracer) {
  std::map<std::string, SpanStats> out;
  for (const Span& s : tracer.spans()) {
    SpanStats& st = out[s.name];
    st.seconds.push_back(s.seconds());
    st.total += s.seconds();
  }
  return out;
}

// Quantile `q` of the named spans' durations, times `scale` (0 when the
// workload made no such span).
double P(const std::map<std::string, SpanStats>& by, const std::string& name,
         double q, double scale) {
  const auto it = by.find(name);
  return it == by.end() ? 0.0 : mpn::Quantile(it->second.seconds, q) * scale;
}

double Total(const std::map<std::string, SpanStats>& by,
             const std::string& name) {
  const auto it = by.find(name);
  return it == by.end() ? 0.0 : it->second.total;
}

size_t Count(const std::map<std::string, SpanStats>& by,
             const std::string& name) {
  const auto it = by.find(name);
  return it == by.end() ? 0 : it->second.seconds.size();
}

// Prints the replay's layer table; returns the unaccounted share of its
// wall time.
double PrintLayerTable(const Tracer& tb, double wall_s) {
  std::vector<double> self_by_layer(kLayerCount, 0.0);
  std::vector<size_t> count(kLayerCount, 0);
  const std::vector<double> self = tb.SelfSeconds();
  double roots = 0.0;
  for (size_t i = 0; i < tb.spans().size(); ++i) {
    const Span& s = tb.spans()[i];
    self_by_layer[static_cast<size_t>(s.layer)] += self[i];
    ++count[static_cast<size_t>(s.layer)];
    if (s.parent == kNoSpan) roots += s.seconds();
  }
  const double unaccounted = Ratio(wall_s - roots, wall_s);
  std::printf("\nlayer table, replay (b): single-threaded, %.3f s wall\n", wall_s);
  std::printf("  %-16s %10s %12s %8s\n", "layer", "spans", "self_ms", "share");
  for (size_t l = 0; l < kLayerCount; ++l) {
    if (count[l] == 0) continue;
    std::printf("  %-16s %10zu %12.3f %7.2f%%\n",
                LayerName(static_cast<Layer>(l)), count[l],
                self_by_layer[l] * 1e3, 100.0 * Ratio(self_by_layer[l], wall_s));
  }
  std::printf("  %-16s %10s %12.3f %7.2f%%  (stated gap: %.0f%%, %s)\n",
              "unaccounted", "-", (wall_s - roots) * 1e3, 100.0 * unaccounted,
              100.0 * kReplayGapShare,
              std::fabs(unaccounted) <= kReplayGapShare ? "within" : "EXCEEDED");
  return unaccounted;
}

void PrintCallTable(const std::map<std::string, SpanStats>& by) {
  std::printf("\ncall table, traced run (a): spans around public calls\n");
  std::printf("  %-30s %8s %12s %12s\n", "call", "spans", "total_ms", "p50_us");
  for (const auto& [name, st] : by) {
    std::printf("  %-30s %8zu %12.3f %12.3f\n", name.c_str(),
                st.seconds.size(), st.total * 1e3,
                mpn::Quantile(st.seconds, 0.5) * 1e6);
  }
}

// Medians over the timed repetitions that feed per-layer metrics.
struct RepMedians {
  size_t reps = 0;
  double build_ms = 0.0;
  double start_ms = 0.0;
  double busy_share = 0.0;
  double recompute_cpu_share = 0.0;
  double wall_s = 0.0;  ///< set-up + drain, for the tracing overhead
};

RepMedians MedianOverReps(const Workload& w,
                          const std::vector<const RepResult*>& reps) {
  const double threads =
      static_cast<double>(w.cluster ? w.workers * w.threads : w.threads);
  std::vector<double> build, start, busy, share, wall;
  for (const RepResult* r : reps) {
    build.push_back(r->build_s * 1e3);
    start.push_back(r->start_s * 1e3);
    busy.push_back(Ratio(r->cpu_s, r->drain_s * threads));
    share.push_back(Ratio(r->total.server_seconds, r->cpu_s));
    wall.push_back(r->setup_s + r->drain_s);
  }
  return {reps.size(), Median(build), Median(start), Median(busy),
          Median(share), Median(wall)};
}

std::vector<Metric> PerLayer(const Workload& w, const RepMedians& med,
                             const Metric& host_probe, const RepResult& ra,
                             const Tracer& ta, const ReplayResult& rb,
                             const Tracer& tb) {
  const auto a = ByName(ta);
  const auto b = ByName(tb);
  const mpn::SimMetrics& tot = ra.total;
  const double updates = static_cast<double>(tot.updates);
  const double ticks = static_cast<double>(tot.timestamps);
  const mpn::MsrStats& msr = tot.msr;
  const auto count = [](uint64_t v) { return static_cast<double>(v); };

  PrintCallTable(a);
  const double unaccounted = PrintLayerTable(tb, rb.wall_s);
  const double traced_wall = ra.setup_s + ra.drain_s;
  const double overhead = Ratio(traced_wall - med.wall_s, med.wall_s);
  std::printf("\ntracing overhead (a): %.4f s traced vs %.4f s untraced median "
              "(%+.2f%%)\n",
              traced_wall, med.wall_s, 100.0 * overhead);

  const bool cl = w.cluster;
  const size_t reps = med.reps;
  const size_t recomputes = tot.updates;
  const size_t timestamps = tot.timestamps;
  const auto span_p = [](const std::map<std::string, SpanStats>& by,
                         const char* metric, const char* span, double q,
                         double scale, const char* unit) {
    return Metric{metric, P(by, span, q, scale), unit, Count(by, span)};
  };
  return {
      {"index.build_ms", med.build_ms, "ms", reps},
      span_p(b, "index.gnn_us_p50", "FindGnn", 0.5, 1e6, "us"),
      span_p(b, "index.gnn_us_p99", "FindGnn", 0.99, 1e6, "us"),
      {"index.node_accesses_per_recompute",
       Ratio(count(msr.rtree_node_accesses), updates), "count", recomputes},
      span_p(b, "mpn.recompute_ms_p50", "GroupSession::Recompute", 0.5, 1e3, "ms"),
      span_p(b, "mpn.recompute_ms_p99", "GroupSession::Recompute", 0.99, 1e3, "ms"),
      {"mpn.divide_calls_per_recompute", Ratio(count(msr.divide_calls), updates),
       "count", recomputes},
      {"mpn.verify_calls_per_recompute", Ratio(count(msr.verify.calls), updates),
       "count", recomputes},
      {"mpn.candidates_per_retrieval",
       Ratio(count(msr.candidates.candidates_total),
             count(msr.candidates.retrievals)), "count", msr.candidates.retrievals},
      {"mpn.verify_accept_ratio",
       Ratio(count(msr.verify.accepted), count(msr.verify.calls)), "ratio",
       msr.verify.calls},
      {"mpn.tiles_added_per_tried",
       Ratio(count(msr.tiles_added), count(msr.tiles_tried)), "ratio",
       msr.tiles_tried},
      {"mpn.focal_evals_per_recompute", Ratio(count(msr.verify.focal_evals), updates),
       "count", recomputes},
      {"mpn.buffer_reject_ratio",
       Ratio(count(msr.candidates.rejected_by_buffer),
             count(msr.candidates.retrievals)), "ratio", msr.candidates.retrievals},
      span_p(b, "mpn.encode_us_p50", "EncodeTileRegion+DecodeTileRegion", 0.5, 1e6,
             "us"),
      span_p(b, "sim.advance_us_p50", "GroupSession::AdvanceAndCheck", 0.5, 1e6, "us"),
      span_p(b, "sim.install_us_p50", "GroupSession::InstallResult", 0.5, 1e6, "us"),
      {"net.messages_per_update", Ratio(count(tot.comm.TotalMessages()), updates),
       "count", recomputes},
      {"net.values_per_update", Ratio(count(tot.comm.TotalValues()), updates),
       "count", recomputes},
      {"net.packets_per_update", Ratio(count(tot.comm.TotalPackets()), updates),
       "count", recomputes},
      {"engine.busy_share", med.busy_share, "ratio", reps},
      {"engine.recompute_cpu_share", med.recompute_cpu_share, "ratio", reps},
      span_p(a, "engine.admit_us_p50", "Engine::AdmitSession", 0.5, 1e6, "us"),
      {"engine.events_per_tick", Ratio(count(ra.events), ticks), "count", timestamps},
      {"engine.mailbox_stalls_per_session", ra.mailbox_stalls_mean, "count",
       ra.sessions.size()},
      {"engine.mailbox_peak_mean", ra.mailbox_peak_mean, "count", ra.sessions.size()},
      {"engine.store.spilled_per_ktick",
       Ratio(count(ra.mem.spilled_sessions) * 1e3, ticks), "count", timestamps},
      {"engine.store.rehydrated_per_ktick",
       Ratio(count(ra.mem.rehydrated_sessions) * 1e3, ticks), "count", timestamps},
      {"engine.store.peak_resident_kb", count(ra.mem.peak_resident_bytes) / 1024.0,
       "KiB", 1},
      span_p(b, "engine.store.encode_us_p50", "EncodeLiveSession", 0.5, 1e6, "us"),
      span_p(b, "engine.store.decode_us_p50", "DecodeLiveSession", 0.5, 1e6, "us"),
      {"engine.store.snapshot_bytes_p50", Median(rb.snapshot_bytes), "bytes",
       rb.snapshot_bytes.size()},
      {"engine.cluster.start_ms", cl ? med.start_ms : 0.0, "ms", cl ? reps : 0},
      span_p(a, "engine.cluster.admit_us_p50", "ClusterEngine::AdmitSession", 0.5,
             1e6, "us"),
      {"engine.cluster.drain_s", Total(a, "ClusterEngine::Wait"), "s",
       Count(a, "ClusterEngine::Wait")},
      {"engine.cluster.restarts", count(ra.recovery.restarts), "count", 1},
      {"engine.cluster.retries", count(ra.recovery.retries), "count", 1},
      {"engine.cluster.checksum_failures", count(ra.recovery.checksum_failures),
       "count", 1},
      {"engine.cluster.heartbeat_misses", count(ra.recovery.heartbeat_misses),
       "count", 1},
      {"engine.cluster.deadline_hits", count(ra.recovery.deadline_hits), "count", 1},
      {"trace.overhead_share", overhead, "ratio", 1},
      {"trace.unaccounted_share", unaccounted, "ratio", 1},
      host_probe,
  };
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[512];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(const Args& args) {
  const Workload w = FindWorkload(args.workload, args.scale);
  std::filesystem::create_directories(args.scratch_dir);
  mpn::Timer total;
  const Inputs in = MakeInputs(w, args.seed);
  std::printf("perfbench workload=%s seed=%llu scale=%s seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.scale.c_str(), args.seconds, args.trace ? 1 : 0);
  std::printf("sessions=%zu ticks=%zu m=%zu pois=%zu %s threads=%zu%s "
              "budget=%zuB replayed=%zu inputs_s=%.3f\n",
              w.sessions, w.ticks, w.m, in.pois.size(),
              w.cluster ? "cluster" : "engine", w.threads,
              w.cluster ? (" workers=" + std::to_string(w.workers)).c_str() : "",
              w.budget_bytes, in.replay_ids.size(), total.ElapsedSeconds());
  std::fflush(stdout);

  // Repetition 0 warms up (first fork, page faults, allocator growth) and
  // is checked but not timed; then at least two timed ones, so repeat
  // determinism is checked. The host probe runs before every repetition.
  std::vector<RepResult> reps;
  std::vector<double> probes;
  const double base_rss_kb = ResetPeakRss();
  mpn::Timer measure;
  while (reps.size() < 3 || measure.ElapsedSeconds() < args.seconds) {
    probes.push_back(HostProbeMs());
    reps.push_back(RunRep(w, in, base_rss_kb, nullptr, args.scratch_dir));
    const RepResult& r = reps.back();
    std::printf("rep %zu%s: setup_s=%.4f drain_s=%.4f cpu_s=%.4f ticks=%zu "
                "peak_rss_mb=%.1f host_probe_ms=%.3f%s%s\n",
                reps.size() - 1, reps.size() == 1 ? " (warm-up)" : "",
                r.setup_s, r.drain_s, r.cpu_s, r.total.timestamps,
                r.peak_rss_mb, probes.back(), r.error.empty() ? "" : " error=",
                r.error.c_str());
    std::fflush(stdout);
  }
  const RepResult* ref = nullptr;
  for (const RepResult& r : reps) {
    if (r.error.empty()) {
      ref = &r;
      break;
    }
  }
  Verdict verdict;
  std::vector<const RepResult*> good;
  for (size_t i = 0; i < reps.size(); ++i) {
    CheckRep(in, reps[i], ref, "rep " + std::to_string(i), &verdict);
    if (i > 0 && reps[i].error.empty()) good.push_back(&reps[i]);
  }
  const Metric host_probe{"bench.host_probe_ms", Median(probes), "ms",
                          probes.size()};

  Tracer tb;
  const ReplayResult replay = Replay(w, in, &tb);
  CheckReplay(in, replay, ref, &verdict);

  const std::vector<Metric> end_to_end =
      good.empty() ? std::vector<Metric>() : EndToEnd(good);
  std::printf("\n%zu timed repetitions, digest %016llx, end-to-end medians:\n",
              good.size(),
              ref != nullptr ? static_cast<unsigned long long>(ref->digest) : 0ULL);
  PrintMetrics(end_to_end);
  PrintMetrics({host_probe});

  std::vector<Metric> metrics = end_to_end;
  if (args.trace) {
    metrics.clear();
    Tracer ta;
    const RepResult traced = RunRep(w, in, base_rss_kb, &ta, args.scratch_dir);
    CheckRep(in, traced, ref, "traced rep", &verdict);
    if (traced.error.empty() && !good.empty()) {
      metrics = PerLayer(w, MedianOverReps(w, good), host_probe, traced, ta,
                         replay, tb);
    }
    std::string csv = "part,id,parent,cause,layer,name,session,tick,start_ns,end_ns\n";
    ta.AppendCsv("a", &csv);
    tb.AppendCsv("b", &csv);
    const std::string path = args.scratch_dir + "/trace-" + w.name + "-" +
                             std::to_string(args.seed) + ".csv";
    std::ofstream(path) << csv;
    std::printf("spans written to %s\n\nper-layer metrics:\n", path.c_str());
    PrintMetrics(metrics);
  }
  std::printf("sessions_failed=%zu of sessions_attempted=%zu\n", verdict.failed,
              verdict.attempted);
  for (const std::string& note : verdict.notes) {
    std::printf("  FAIL %s\n", note.c_str());
  }
  const bool correct = verdict.failed == 0 && !metrics.empty();
  PrintResult(correct, verdict.attempted, verdict.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
