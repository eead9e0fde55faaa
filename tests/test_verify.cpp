#include "verify/differential.hpp"

#include <gtest/gtest.h>

#include "core/swg_affine.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"

namespace wfasic::verify {
namespace {

TEST(Differential, CleanOnDefaultConfig) {
  engine::HwBackendConfig cfg;
  const DifferentialReport report =
      run_differential(cfg, gen::InputSetSpec{200, 0.1, 6, 141}, true);
  EXPECT_EQ(report.pairs, 6u);
  EXPECT_TRUE(report.clean())
      << (report.details.empty() ? "" : report.details.front());
}

TEST(Differential, CleanWithoutBacktrace) {
  engine::HwBackendConfig cfg;
  const DifferentialReport report =
      run_differential(cfg, gen::InputSetSpec{300, 0.05, 4, 142}, false);
  EXPECT_TRUE(report.clean());
}

TEST(Differential, CleanOnMultiAligner) {
  engine::HwBackendConfig cfg;
  cfg.accel.num_aligners = 3;
  cfg.accel.parallel_sections = 32;
  const DifferentialReport report =
      run_differential(cfg, gen::InputSetSpec{150, 0.12, 9, 143}, true);
  EXPECT_TRUE(report.clean());
}

TEST(Differential, ReportsHardwareFailures) {
  // A tiny band makes most alignments overflow: the report must count the
  // Success=0 results rather than crash or call them matches.
  engine::HwBackendConfig cfg;
  cfg.accel.k_max = 3;
  const DifferentialReport report =
      run_differential(cfg, gen::InputSetSpec{100, 0.2, 4, 144}, false);
  EXPECT_GT(report.hw_failures, 0u);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.details.size(), report.hw_failures);
}

TEST(SocDataset, ChunkedRunMatchesSingleBatch) {
  const auto pairs = gen::generate_input_set({120, 0.1, 10, 145});
  engine::Engine chunked{engine::EngineConfig{}};
  const engine::BatchResult by3 = chunked.run_dataset(pairs, 3, true, false);
  engine::Engine whole{engine::EngineConfig{}};
  const engine::BatchResult all = whole.run_batch(pairs, true, false);
  ASSERT_EQ(by3.alignments.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(by3.alignments[i].ok);
    EXPECT_EQ(by3.alignments[i].score, all.alignments[i].score);
    EXPECT_EQ(by3.alignments[i].cigar, all.alignments[i].cigar);
  }
  EXPECT_EQ(by3.records.size(), pairs.size());
}

TEST(SocDataset, ChunkSizeOneWorks) {
  const auto pairs = gen::generate_input_set({80, 0.1, 4, 146});
  engine::Engine soc{engine::EngineConfig{}};
  const engine::BatchResult r = soc.run_dataset(pairs, 1, false, false);
  ASSERT_EQ(r.alignments.size(), 4u);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(r.alignments[i].score,
              core::swg_score(pairs[i].a, pairs[i].b, kDefaultPenalties));
  }
}

TEST(SocDataset, CyclesAccumulateAcrossChunks) {
  const auto pairs = gen::generate_input_set({100, 0.1, 6, 147});
  engine::Engine soc{engine::EngineConfig{}};
  const engine::BatchResult chunked = soc.run_dataset(pairs, 2, false, false);
  EXPECT_GT(chunked.accel_cycles, 0u);
  EXPECT_EQ(chunked.read_records.size(), 6u);
}

}  // namespace
}  // namespace wfasic::verify
