// Parameterized cross-checks of the whole accelerator against the SWG
// ground truth and the software WFA across design configurations — the
// §5.1 verification campaign ("we test the WFAsic with other
// configurations and with more Aligners").
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/swg_affine.hpp"
#include "core/wfa.hpp"
#include "drv/backtrace_cpu.hpp"
#include "drv/driver.hpp"
#include "gen/seqgen.hpp"
#include "soc/soc.hpp"

namespace wfasic::hw {
namespace {

struct HwSweepParam {
  unsigned aligners;
  unsigned parallel_sections;
  std::size_t length;
  double error_rate;
  std::uint64_t seed;
};

std::string param_name(const testing::TestParamInfo<HwSweepParam>& info) {
  const HwSweepParam& p = info.param;
  return std::to_string(p.aligners) + "al_" +
         std::to_string(p.parallel_sections) + "ps_len" +
         std::to_string(p.length) + "_err" +
         std::to_string(static_cast<int>(p.error_rate * 100));
}

class AcceleratorConfigSweep : public testing::TestWithParam<HwSweepParam> {};

TEST_P(AcceleratorConfigSweep, ScoresMatchSwgAndCigarsMatchWfa) {
  const HwSweepParam& p = GetParam();
  soc::SocConfig cfg;
  cfg.accel.num_aligners = p.aligners;
  cfg.accel.parallel_sections = p.parallel_sections;
  soc::Soc soc(cfg);
  const auto pairs =
      gen::generate_input_set({p.length, p.error_rate, 6, p.seed});
  const bool separate = p.aligners > 1;
  const soc::BatchResult result = soc.run_batch(pairs, true, separate);

  core::WfaAligner reference;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(result.alignments[i].ok) << "pair " << i;
    EXPECT_EQ(result.alignments[i].score,
              core::swg_score(pairs[i].a, pairs[i].b, kDefaultPenalties))
        << "pair " << i;
    EXPECT_EQ(result.alignments[i].cigar,
              reference.align(pairs[i].a, pairs[i].b).cigar)
        << "pair " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, AcceleratorConfigSweep,
    testing::Values(HwSweepParam{1, 64, 120, 0.10, 901},
                    HwSweepParam{1, 32, 120, 0.10, 902},
                    HwSweepParam{1, 16, 120, 0.10, 903},
                    HwSweepParam{1, 8, 120, 0.10, 904},
                    HwSweepParam{2, 32, 120, 0.10, 905},
                    HwSweepParam{3, 64, 120, 0.10, 906},
                    HwSweepParam{4, 16, 120, 0.10, 907},
                    HwSweepParam{1, 64, 400, 0.05, 908},
                    HwSweepParam{2, 64, 400, 0.10, 909},
                    HwSweepParam{1, 128, 250, 0.08, 910}),
    param_name);

class AcceleratorPenaltySweep : public testing::TestWithParam<Penalties> {};

TEST_P(AcceleratorPenaltySweep, NonDefaultPenaltiesStayExact) {
  const Penalties pen = GetParam();
  soc::SocConfig cfg;
  cfg.accel.pen = pen;
  soc::Soc soc(cfg);
  const auto pairs = gen::generate_input_set({150, 0.1, 5, 911});
  const soc::BatchResult result = soc.run_batch(pairs, true, false);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(result.alignments[i].ok);
    EXPECT_EQ(result.alignments[i].score,
              core::swg_score(pairs[i].a, pairs[i].b, pen));
    EXPECT_TRUE(result.alignments[i].cigar.is_valid_for(pairs[i].a,
                                                        pairs[i].b));
    EXPECT_EQ(result.alignments[i].cigar.score(pen),
              result.alignments[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Penalties, AcceleratorPenaltySweep,
    testing::Values(Penalties{2, 3, 1}, Penalties{1, 4, 2},
                    Penalties{6, 2, 1}, Penalties{5, 10, 3}),
    [](const testing::TestParamInfo<Penalties>& info) {
      std::ostringstream name;
      name << 'x' << info.param.mismatch << 'o' << info.param.gap_open << 'e'
           << info.param.gap_extend;
      return name.str();
    });

TEST(AcceleratorInvariants, PhaseCyclesAccountedPerBatch) {
  soc::SocConfig cfg;
  soc::Soc soc(cfg);
  const auto pairs = gen::generate_input_set({300, 0.1, 3, 912});
  const soc::BatchResult r = soc.run_batch(pairs, false, false);
  // All phases non-zero, and their sum is bounded by the aligner-visible
  // batch time (extraction and drain add the rest).
  EXPECT_GT(r.phase.extend, 0u);
  EXPECT_GT(r.phase.compute, 0u);
  EXPECT_GT(r.phase.overhead, 0u);
  std::uint64_t align_total = 0;
  for (const auto& rec : r.records) align_total += rec.align_cycles;
  EXPECT_LE(r.phase.extend + r.phase.compute, align_total);
}

TEST(AcceleratorInvariants, SecondBatchPhaseDeltasAreClean) {
  soc::SocConfig cfg;
  soc::Soc soc(cfg);
  const auto batch = gen::generate_input_set({200, 0.1, 2, 913});
  const soc::BatchResult r1 = soc.run_batch(batch, false, false);
  const soc::BatchResult r2 = soc.run_batch(batch, false, false);
  // Identical batches on a reused SoC must report identical deltas.
  EXPECT_EQ(r1.phase.extend, r2.phase.extend);
  EXPECT_EQ(r1.phase.compute, r2.phase.compute);
  EXPECT_EQ(r1.phase.overhead, r2.phase.overhead);
}

TEST(AcceleratorInvariants, BacktraceStallsOnlyWithBacktrace) {
  soc::SocConfig cfg;
  const auto pairs = gen::generate_input_set({2000, 0.1, 2, 914});
  soc::Soc nbt(cfg);
  const soc::BatchResult r_nbt = nbt.run_batch(pairs, false, false);
  EXPECT_EQ(r_nbt.output_stall_cycles, 0u);
  soc::Soc bt(cfg);
  const soc::BatchResult r_bt = bt.run_batch(pairs, true, false);
  EXPECT_GT(r_bt.output_stall_cycles, 0u);  // stream saturates the output
}

TEST(AcceleratorInvariants, DeterministicAcrossRuns) {
  const auto pairs = gen::generate_input_set({250, 0.08, 4, 915});
  soc::SocConfig cfg;
  soc::Soc a(cfg);
  soc::Soc b(cfg);
  const soc::BatchResult ra = a.run_batch(pairs, true, false);
  const soc::BatchResult rb = b.run_batch(pairs, true, false);
  EXPECT_EQ(ra.accel_cycles, rb.accel_cycles);
  EXPECT_EQ(ra.cpu_bt_cycles, rb.cpu_bt_cycles);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(ra.alignments[i].cigar, rb.alignments[i].cigar);
  }
}

}  // namespace
}  // namespace wfasic::hw
