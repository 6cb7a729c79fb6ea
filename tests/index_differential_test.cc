// Differential property test for the spatial-index backends (ctest label
// `unit`): replays the lifecycle fuzzer's seed-derived plans through the
// full engine on the dynamic RTree and on both packed layouts (STR and
// Hilbert), asserting Engine::ResultDigest bit-identity — across 1/2/4
// verify-thread counts and 1/2 process shards. This is the engine-wide
// enforcement of the index bit-identity contract (packed_rtree.h states
// the per-query argument; packed_rtree_test.cc checks single queries).
//
// Widen the seed set with MPN_INDEX_DIFF_SEEDS (a count or an explicit
// comma-separated list) and run the binary directly.
#include <gtest/gtest.h>

#include "engine_fuzz_util.h"

namespace mpn {
namespace {

using fuzz::FuzzPlan;
using fuzz::MakeFuzzPlan;
using fuzz::MakeFuzzWorld;
using fuzz::RunClusterPlan;
using fuzz::RunEnginePlan;
using fuzz::World;

std::vector<uint64_t> DiffSeeds() {
  return fuzz::SeedsFromEnv("MPN_INDEX_DIFF_SEEDS",
                            {0x1D001, 0x1D002, 0x1D003});
}

class IndexDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(IndexDifferentialTest, PackedIndexesProduceIdenticalDigests) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t n_groups = static_cast<size_t>(rng.UniformInt(3, 6));
  const size_t group_size = static_cast<size_t>(rng.UniformInt(1, 3));
  const size_t horizon = static_cast<size_t>(rng.UniformInt(40, 90));
  const World w = MakeFuzzWorld(&rng, n_groups, group_size, horizon);
  const FuzzPlan plan = MakeFuzzPlan(&rng, n_groups, horizon);

  // Reference: the dynamic tree, single-threaded.
  const uint64_t reference = RunEnginePlan(w, plan, 1);
  for (IndexKind kind : {IndexKind::kPackedStr, IndexKind::kPackedHilbert}) {
    for (size_t threads : {1u, 2u, 4u}) {
      EXPECT_EQ(RunEnginePlan(w, plan, threads, KernelKind::kSoA,
                              /*parallel_verify=*/false, kind),
                reference)
          << IndexKindName(kind) << " digest diverged from dynamic at "
          << threads << " threads (seed 0x" << std::hex << seed << ")";
    }
    // And across process shards (crash injection disabled: this test is
    // about index equivalence, not recovery).
    for (size_t workers : {1u, 2u}) {
      EXPECT_EQ(RunClusterPlan(w, plan, workers, 2, KernelKind::kSoA,
                               /*with_crashes=*/false, kind),
                reference)
          << IndexKindName(kind) << " digest diverged at " << workers
          << " shard(s) (seed 0x" << std::hex << seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferentialTest,
                         testing::ValuesIn(DiffSeeds()), fuzz::SeedName);

}  // namespace
}  // namespace mpn
