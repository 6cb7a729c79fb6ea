#include "timed.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>

#include "engine/engine.h"
#include "index/packed_rtree.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using mpn::ClusterEngine;
using mpn::Engine;

// Keeps the host probe's loops observable so neither is folded away.
volatile double g_probe_sink = 0.0;

// `field` ("VmHWM" or "VmRSS") of /proc/<pid>/status in KiB (0 when
// unreadable).
double ReadStatusKb(const std::string& pid, const std::string& field) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::atof(line.c_str() + field.size() + 1);
    }
  }
  return 0.0;
}

// VmHWM in KiB of this process's live child processes (the cluster
// workers, which Start forks from the main thread).
double ChildrenPeakRssKb() {
  const std::string pid = std::to_string(::getpid());
  std::ifstream f("/proc/" + pid + "/task/" + pid + "/children");
  std::string child;
  double kb = 0.0;
  while (f >> child) kb += ReadStatusKb(child, "VmHWM");
  return kb;
}

// User + system CPU seconds of this process (`who` = RUSAGE_SELF) or of
// its reaped children (RUSAGE_CHILDREN).
double CpuSeconds(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

mpn::EngineOptions MakeEngineOptions(const Workload& w,
                                     const std::string& scratch_dir) {
  mpn::EngineOptions opt;
  opt.threads = w.threads;
  opt.sim.server = MakeServer(w);
  opt.budget.bytes_cap = w.budget_bytes;
  opt.budget.spill_dir = scratch_dir;
  return opt;
}

// Result read-back both engine types offer under the same names.
template <typename E>
void ReadTotals(const E& engine, RepResult* r) {
  r->total = engine.TotalMetrics();
  r->digest = engine.ResultDigest();
  r->mem = engine.memory_stats();
}

// The index build is the first step of every repetition's set-up.
mpn::PackedRTree BuildTree(const Inputs& in, Tracer* tracer, RepResult* r) {
  ScopedSpan span(tracer, Layer::kIndex, "PackedRTree::Build");
  mpn::Timer timer;
  mpn::PackedRTree tree = mpn::PackedRTree::Build(in.pois);
  r->build_s = timer.ElapsedSeconds();
  return tree;
}

void RunEngineRep(const Workload& w, const Inputs& in, Tracer* tracer,
                  const std::string& scratch_dir, RepResult* r) {
  const size_t n = in.groups.size();
  mpn::Timer timer;
  const mpn::PackedRTree tree = BuildTree(in, tracer, r);
  std::unique_ptr<Engine> engine;
  {
    ScopedSpan span(tracer, Layer::kEngine, "Engine::Engine");
    engine = std::make_unique<Engine>(&in.pois, &tree,
                                      MakeEngineOptions(w, scratch_dir));
  }
  for (size_t i = 0; i < in.pre_start; ++i) {
    ScopedSpan span(tracer, Layer::kEngine, "Engine::AdmitSession",
                    static_cast<uint32_t>(i));
    engine->AdmitSession(in.groups[i], in.tuning[i]);
  }
  Engine::Hold hold;
  if (in.pre_start < n) hold = engine->AcquireHold();
  {
    ScopedSpan span(tracer, Layer::kEngine, "Engine::Start");
    mpn::Timer start;
    engine->Start();
    r->start_s = start.ElapsedSeconds();
  }
  r->setup_s = timer.ElapsedSeconds();
  const double cpu0 = CpuSeconds(RUSAGE_SELF);
  timer.Reset();
  for (size_t i = in.pre_start; i < n; ++i) {
    ScopedSpan span(tracer, Layer::kEngine, "Engine::AdmitSession",
                    static_cast<uint32_t>(i));
    engine->AdmitSession(in.groups[i], in.tuning[i]);
  }
  hold.Reset();
  {
    ScopedSpan span(tracer, Layer::kEngine, "Engine::Wait");
    engine->Wait();
  }
  r->drain_s = timer.ElapsedSeconds();
  r->cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
  r->peak_rss_mb = ReadStatusKb("self", "VmHWM") / 1024.0;

  ReadTotals(*engine, r);
  r->events = engine->events_processed();
  r->sessions.resize(n);
  for (uint32_t id = 0; id < n; ++id) {
    // WithSessionResult streams spilled sessions without pinning them.
    engine->WithSessionResult(id, [&](const mpn::SessionFinalResult& fr) {
      r->sessions[id] = ToSessionResult(fr.metrics, fr.has_result, fr.po);
      r->mailbox_stalls_mean += static_cast<double>(fr.stall_count);
      r->mailbox_peak_mean += static_cast<double>(fr.mailbox_peak);
    });
  }
  r->mailbox_stalls_mean /= static_cast<double>(n);
  r->mailbox_peak_mean /= static_cast<double>(n);
  engine->Shutdown();
}

void RunClusterRep(const Workload& w, const Inputs& in, Tracer* tracer,
                   const std::string& scratch_dir, RepResult* r) {
  const size_t n = in.groups.size();
  const double children0 = CpuSeconds(RUSAGE_CHILDREN);
  mpn::Timer timer;
  const mpn::PackedRTree tree = BuildTree(in, tracer, r);
  mpn::ClusterOptions opt;
  opt.workers = w.workers;
  opt.engine = MakeEngineOptions(w, scratch_dir);
  std::unique_ptr<ClusterEngine> cluster;
  {
    ScopedSpan span(tracer, Layer::kEngineCluster, "ClusterEngine::ClusterEngine");
    cluster = std::make_unique<ClusterEngine>(&in.pois, &tree, opt);
  }
  // Admissions before Start ride the admit frames Start replays to the
  // freshly forked workers.
  for (size_t i = 0; i < n; ++i) {
    ScopedSpan span(tracer, Layer::kEngineCluster, "ClusterEngine::AdmitSession",
                    static_cast<uint32_t>(i));
    cluster->AdmitSession(in.groups[i], in.tuning[i]);
  }
  {
    ScopedSpan span(tracer, Layer::kEngineCluster, "ClusterEngine::Start");
    mpn::Timer start;
    cluster->Start();
    r->start_s = start.ElapsedSeconds();
  }
  r->setup_s = timer.ElapsedSeconds();
  const double cpu0 = CpuSeconds(RUSAGE_SELF);
  timer.Reset();
  {
    ScopedSpan span(tracer, Layer::kEngineCluster, "ClusterEngine::Wait");
    cluster->Wait();
  }
  r->drain_s = timer.ElapsedSeconds();
  const double self_cpu = CpuSeconds(RUSAGE_SELF) - cpu0;
  // Workers are still alive until Shutdown, so their VmHWM is readable.
  r->peak_rss_mb = (ReadStatusKb("self", "VmHWM") + ChildrenPeakRssKb()) / 1024.0;

  ReadTotals(*cluster, r);
  r->recovery = cluster->recovery_stats();
  r->sessions.resize(n);
  for (uint32_t id = 0; id < n; ++id) {
    r->sessions[id] = ToSessionResult(cluster->session_metrics(id),
                                      cluster->session_has_result(id),
                                      cluster->session_po(id));
    r->mailbox_stalls_mean += static_cast<double>(cluster->session_stall_count(id));
    r->mailbox_peak_mean += static_cast<double>(cluster->session_mailbox_peak(id));
  }
  r->mailbox_stalls_mean /= static_cast<double>(n);
  r->mailbox_peak_mean /= static_cast<double>(n);
  cluster->Shutdown();
  // Shutdown reaps the workers, which makes their CPU readable.
  r->cpu_s = self_cpu + CpuSeconds(RUSAGE_CHILDREN) - children0;
}

}  // namespace

SessionResult ToSessionResult(const mpn::SimMetrics& m, bool has_result,
                              uint32_t po) {
  SessionResult s;
  s.has_result = has_result;
  s.po = has_result ? po : 0;
  s.timestamps = m.timestamps;
  s.updates = m.updates;
  s.packets = m.comm.TotalPackets();
  s.result_changes = m.result_changes;
  return s;
}

double ResetPeakRss() {
  // Hand freed heap back first, or earlier repetitions' leftovers would
  // raise every later repetition's baseline.
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  if (f) f << "5";
  f.close();
  return ReadStatusKb("self", "VmRSS");
}

RepResult RunRep(const Workload& w, const Inputs& in, double base_rss_kb,
                 Tracer* tracer, const std::string& scratch_dir) {
  RepResult r;
  const double start_kb = ResetPeakRss();
  try {
    if (w.cluster) {
      RunClusterRep(w, in, tracer, scratch_dir, &r);
    } else {
      RunEngineRep(w, in, tracer, scratch_dir, &r);
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  // Charge the repetition its growth over its own start, on top of the
  // run's base: heap that malloc_trim cannot return (~4 MB over 30
  // circle_swarm repetitions) would otherwise raise every later
  // repetition's peak, and the median with the number of repetitions.
  r.peak_rss_mb += (base_rss_kb - start_kb) / 1024.0;
  return r;
}

double HostProbeMs() {
  // 32k-entry single-cycle permutation (256 KiB of indices), built once
  // with a fixed seed so every probe walks the same chain.
  static const std::vector<uint64_t> chain = [] {
    std::vector<uint64_t> order(32768);
    std::iota(order.begin(), order.end(), 0);
    mpn::Rng rng(0x5EED);
    rng.Shuffle(&order);
    std::vector<uint64_t> next(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      next[order[i]] = order[(i + 1) % order.size()];
    }
    return next;
  }();
  mpn::Timer timer;
  double acc = 0.0;
  for (int i = 1; i <= 2'000'000; ++i) acc += std::sqrt(static_cast<double>(i));
  uint64_t at = 0;
  for (int i = 0; i < 1'000'000; ++i) at = chain[at];
  const double ms = timer.ElapsedSeconds() * 1e3;
  g_probe_sink = acc + static_cast<double>(at);
  return ms;
}

}  // namespace perfbench
