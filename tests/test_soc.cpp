// The co-designed flow of Figure 4 (the CPU encodes, the accelerator
// aligns, the CPU decodes and backtraces) on the paper's single-accelerator
// SoC: a K=1 engine::Engine.
#include <gtest/gtest.h>

#include "core/swg_affine.hpp"
#include "core/wfa.hpp"
#include "cpu/cpu_model.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"

namespace wfasic::engine {
namespace {

/// The default single-device engine with `num_aligners` Aligners.
EngineConfig soc_config(unsigned num_aligners = 1) {
  EngineConfig cfg;
  cfg.device.accel.num_aligners = num_aligners;
  return cfg;
}

TEST(Soc, NbtBatchScoresMatchSwg) {
  Engine soc(soc_config());
  const auto pairs = gen::generate_input_set({150, 0.08, 5, 51});
  const BatchResult result = soc.run_batch(pairs, false, false);
  EXPECT_GT(result.accel_cycles, 0u);
  EXPECT_EQ(result.cpu_bt_cycles, 0u);
  ASSERT_EQ(result.alignments.size(), 5u);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(result.alignments[i].ok);
    EXPECT_EQ(result.alignments[i].score,
              core::swg_score(pairs[i].a, pairs[i].b, kDefaultPenalties));
  }
}

TEST(Soc, BtBatchProducesExactCigars) {
  Engine soc(soc_config());
  const auto pairs = gen::generate_input_set({120, 0.1, 4, 52});
  const BatchResult result = soc.run_batch(pairs, true, false);
  EXPECT_GT(result.cpu_bt_cycles, 0u);
  core::WfaAligner sw;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(result.alignments[i].ok);
    EXPECT_EQ(result.alignments[i].cigar,
              sw.align(pairs[i].a, pairs[i].b).cigar);
  }
}

TEST(Soc, PerPairRecordsIndexedById) {
  Engine soc(soc_config());
  const auto pairs = gen::generate_input_set({100, 0.05, 6, 53});
  const BatchResult result = soc.run_batch(pairs, false, false);
  ASSERT_EQ(result.records.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.records[i].id, i);
    EXPECT_TRUE(result.records[i].success);
    EXPECT_GT(result.records[i].align_cycles, 0u);
  }
  ASSERT_EQ(result.read_records.size(), 6u);
}

TEST(Soc, MultiAlignerBatch) {
  Engine soc(soc_config(3));
  const auto pairs = gen::generate_input_set({200, 0.1, 9, 54});
  const BatchResult result = soc.run_batch(pairs, true, true);
  core::WfaAligner sw;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(result.alignments[i].ok) << i;
    EXPECT_EQ(result.alignments[i].cigar,
              sw.align(pairs[i].a, pairs[i].b).cigar);
  }
  EXPECT_GT(result.bt_counters.blocks_copied, 0u);
}

TEST(Soc, MultiAlignerWithoutSeparationAborts) {
  Engine soc(soc_config(2));
  const auto pairs = gen::generate_input_set({100, 0.1, 2, 55});
  EXPECT_DEATH((void)soc.run_batch(pairs, true, false), "data-separation");
}

TEST(Soc, BacktraceCostsExtraCpuTime) {
  const auto pairs = gen::generate_input_set({300, 0.1, 2, 56});
  Engine soc_nbt(soc_config());
  Engine soc_bt(soc_config());
  const BatchResult nbt = soc_nbt.run_batch(pairs, false, false);
  const BatchResult bt = soc_bt.run_batch(pairs, true, false);
  EXPECT_GT(bt.total_cycles(), nbt.total_cycles());
  EXPECT_EQ(nbt.cpu_bt_cycles, 0u);
  EXPECT_GT(bt.cpu_bt_cycles, 0u);
}

TEST(Soc, CpuBaselineSlowerThanAccelerator) {
  Engine soc(soc_config());
  const auto pairs = gen::generate_input_set({500, 0.1, 1, 57});
  const BatchResult accel = soc.run_batch(pairs, false, false);
  // The paper's WFA-CPU baseline on the in-order core model.
  const auto cpu = cpu::CpuModel().run_wfa(
      pairs[0].a, pairs[0].b, kDefaultPenalties, core::ExtendMode::kScalar,
      core::Traceback::kEnabled);
  ASSERT_TRUE(cpu.align.ok);
  EXPECT_EQ(cpu.align.score, accel.alignments[0].score);
  EXPECT_GT(cpu.stats.total(), accel.records[0].align_cycles);
}

TEST(Soc, SequentialBatchesOnSameSocAreIsolated) {
  Engine soc(soc_config());
  const auto batch1 = gen::generate_input_set({100, 0.05, 3, 58});
  const auto batch2 = gen::generate_input_set({100, 0.10, 4, 59});
  const BatchResult r1 = soc.run_batch(batch1, false, false);
  const BatchResult r2 = soc.run_batch(batch2, false, false);
  EXPECT_EQ(r1.records.size(), 3u);
  EXPECT_EQ(r2.records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r2.alignments[i].score,
              core::swg_score(batch2[i].a, batch2[i].b, kDefaultPenalties));
  }
}

TEST(Soc, UnsupportedPairFlaggedOthersUnaffected) {
  // A read containing 'N' must come back Success=0 through the full stack
  // (backtrace enabled) while its batch mates align normally (§4.2).
  Engine soc(soc_config());
  const std::vector<gen::SequencePair> pairs = {
      {0, "ACGTACGTACGTACGT", "ACGTACGAACGTACGT"},
      {1, "ACGTNCGTACGTACGT", "ACGTACGTACGTACGT"},  // 'N' base
      {2, "GGGGCCCCGGGGCCCC", "GGGGCCCCGGGGCCCC"},
  };
  const BatchResult r = soc.run_batch(pairs, true, false);
  EXPECT_TRUE(r.alignments[0].ok);
  EXPECT_FALSE(r.alignments[1].ok);
  EXPECT_TRUE(r.alignments[2].ok);
  EXPECT_EQ(r.alignments[2].score, 0);
  EXPECT_FALSE(r.records[1].success);
}

TEST(Soc, EmptySequencesThroughFullStack) {
  Engine soc(soc_config());
  const std::vector<gen::SequencePair> pairs = {
      {0, "", "ACGTACGTACGTACGT"},  // pure insertion
      {1, "ACGT", ""},              // pure deletion
      {2, "", ""},                  // empty vs empty
  };
  const BatchResult r = soc.run_batch(pairs, true, false);
  ASSERT_TRUE(r.alignments[0].ok);
  EXPECT_EQ(r.alignments[0].cigar.str(), std::string(16, 'I'));
  ASSERT_TRUE(r.alignments[1].ok);
  EXPECT_EQ(r.alignments[1].cigar.str(), "DDDD");
  ASSERT_TRUE(r.alignments[2].ok);
  EXPECT_EQ(r.alignments[2].score, 0);
  EXPECT_TRUE(r.alignments[2].cigar.empty());
}

TEST(Soc, ReadRecordsEqualForBothErrorRatesAtFixedLength) {
  // Table 1's property: reading cycles depend on MAX_READ_LEN, not errors.
  // Use a forced common padding via same nominal length and compare means.
  Engine s5(soc_config());
  Engine s10(soc_config());
  const auto p5 = gen::generate_input_set({400, 0.05, 2, 60});
  const auto p10 = gen::generate_input_set({400, 0.10, 2, 60});
  const BatchResult r5 = s5.run_batch(p5, false, false);
  const BatchResult r10 = s10.run_batch(p10, false, false);
  // Within ~20% of each other (max lengths differ slightly).
  const double m5 = static_cast<double>(r5.read_records[0].reading_cycles);
  const double m10 = static_cast<double>(r10.read_records[0].reading_cycles);
  EXPECT_NEAR(m5 / m10, 1.0, 0.2);
}

TEST(Soc, RunDatasetMatchesSingleBatchAcrossBoundaries) {
  // 11 pairs in batches of 4: two full launches plus a ragged tail of 3.
  // The dataset path must merge to exactly what one big launch produces.
  Engine dataset_soc(soc_config());
  Engine batch_soc(soc_config());
  const auto pairs = gen::generate_input_set({150, 0.1, 11, 61});
  const BatchResult merged = dataset_soc.run_dataset(pairs, 4, true, false);
  const BatchResult whole = batch_soc.run_batch(pairs, true, false);

  ASSERT_EQ(merged.alignments.size(), pairs.size());
  ASSERT_EQ(merged.records.size(), pairs.size());
  ASSERT_EQ(merged.read_records.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(merged.alignments[i].ok) << i;
    EXPECT_EQ(merged.alignments[i].score, whole.alignments[i].score) << i;
    EXPECT_EQ(merged.alignments[i].cigar, whole.alignments[i].cigar) << i;
    // Records carry launch-local ids, restarting at every batch boundary.
    EXPECT_EQ(merged.records[i].id, i % 4) << i;
  }
  EXPECT_GT(merged.accel_cycles, 0u);
  EXPECT_GT(merged.cpu_bt_cycles, 0u);
}

TEST(Soc, RunDatasetPipelinedAccountingOverlapsPhases) {
  const auto pairs = gen::generate_input_set({400, 0.12, 12, 62});

  Engine pipelined(soc_config());
  const BatchResult overlapped = pipelined.run_dataset(pairs, 3, true, false);
  ASSERT_GT(overlapped.pipeline_cycles, 0u);
  EXPECT_EQ(overlapped.total_cycles(), overlapped.pipeline_cycles);
  // Encode and decode hide behind the accelerator: the makespan beats the
  // serial align+backtrace sum.
  EXPECT_LT(overlapped.pipeline_cycles,
            overlapped.accel_cycles + overlapped.cpu_bt_cycles);
}

}  // namespace
}  // namespace wfasic::engine
