// Parameterized cross-checks of the whole accelerator against the SWG
// ground truth and the software WFA across design configurations — the
// §5.1 verification campaign ("we test the WFAsic with other
// configurations and with more Aligners").
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/prng.hpp"
#include "core/swg_affine.hpp"
#include "core/wfa.hpp"
#include "drv/backtrace_cpu.hpp"
#include "drv/driver.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/regs.hpp"
#include "mem/main_memory.hpp"
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

// --- Whole-stream pin -------------------------------------------------------
//
// The CIGAR-equality sweeps above check origin codes only along the
// backtrace path. These runs pin every byte the DMA writes (in BT mode,
// one 5-bit origin code for every computed cell) and the device cycle
// count, for fixed seeded batches across P, two penalty sets, BT/NBT and
// exact/fast stepping. The constants were recorded from the reference
// implementation; a change to the Aligner's compute that alters any cell's
// value or origin, or any cycle, fails here.

std::vector<gen::SequencePair> stream_pin_pairs() {
  std::vector<gen::SequencePair> pairs =
      gen::generate_input_set({240, 0.10, 3, 4242});
  Prng prng(4243);
  // Tie-rich: homopolymer and tandem-repeat runs shifted by indels.
  pairs.push_back({3, std::string(60, 'A') + "CGT" + std::string(40, 'G'),
                   std::string(57, 'A') + "CGT" + std::string(43, 'G')});
  std::string repeat;
  for (int i = 0; i < 30; ++i) repeat += "ACG";
  pairs.push_back({4, repeat + gen::random_sequence(prng, 40),
                   repeat.substr(6) + gen::random_sequence(prng, 48)});
  // Lopsided lengths: the wavefront runs against the matrix edges.
  const std::string base = gen::random_sequence(prng, 90);
  pairs.push_back({5, base, base + gen::random_sequence(prng, 35)});
  pairs.push_back({6, base + gen::random_sequence(prng, 21), base});
  // Long enough for wavefronts several P=64 blocks wide.
  gen::SequencePair wide = gen::generate_input_set({900, 0.12, 1, 4244})[0];
  wide.id = 7;
  pairs.push_back(std::move(wide));
  return pairs;
}

struct StreamPin {
  unsigned parallel_sections;
  Penalties pen;
  bool backtrace;
  std::uint64_t cycles;     ///< the run's device cycles
  std::uint64_t beats;      ///< 16-byte beats the DMA wrote
  std::uint32_t crc;        ///< CRC-32 over those beats
};

struct StreamObservation {
  std::uint64_t cycles = 0;
  std::uint64_t beats = 0;
  std::uint32_t crc = 0;
};

StreamObservation run_stream(const std::vector<gen::SequencePair>& pairs,
                             const StreamPin& pin, bool fast) {
  constexpr std::uint64_t kIn = 0x1000;
  constexpr std::uint64_t kOut = 0x100000;
  mem::MainMemory memory(4u << 20);
  AcceleratorConfig cfg;
  cfg.parallel_sections = pin.parallel_sections;
  cfg.pen = pin.pen;
  cfg.idle_skip = fast;
  Accelerator accel(cfg, memory);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kIn, kOut);
  drv::Driver driver(accel);
  driver.start(layout, pin.backtrace);
  accel.write_reg(kRegWatchdog, 0);  // lets the fast path run mid-batch
  const drv::RunStatus status = driver.wait_idle();
  EXPECT_EQ(status.outcome, drv::RunOutcome::kOk);
  StreamObservation obs;
  obs.cycles = accel.last_run_cycles();
  obs.beats = accel.dma().beats_written();
  std::vector<std::uint8_t> out(obs.beats * mem::kBeatBytes);
  memory.read(kOut, out);
  obs.crc = crc32(out);
  return obs;
}

TEST(AcceleratorStreamPin, CyclesAndDmaBytesMatchRecordedValues) {
  const std::vector<gen::SequencePair> pairs = stream_pin_pairs();
  constexpr Penalties kAlt{2, 3, 1};
  const StreamPin pins[] = {
      {1, kDefaultPenalties, false, 419391, 2, 0x06e080b2u},
      {1, kDefaultPenalties, true, 419391, 104294, 0x174e1b97u},
      {1, kAlt, false, 418119, 2, 0x3de9f889u},
      {1, kAlt, true, 418119, 104294, 0x6b028050u},
      {7, kDefaultPenalties, false, 68057, 2, 0x06e080b2u},
      {7, kDefaultPenalties, true, 68057, 15174, 0xeb387749u},
      {7, kAlt, false, 66785, 2, 0x3de9f889u},
      {7, kAlt, true, 66785, 15174, 0x91909d69u},
      {16, kDefaultPenalties, false, 35233, 2, 0x06e080b2u},
      {16, kDefaultPenalties, true, 35233, 6841, 0x9aa62c92u},
      {16, kAlt, false, 33961, 2, 0x3de9f889u},
      {16, kAlt, true, 33961, 6841, 0xd77ca8edu},
      {64, kDefaultPenalties, false, 16015, 2, 0x06e080b2u},
      {64, kDefaultPenalties, true, 16231, 7820, 0x7d807bd1u},
      {64, kAlt, false, 14743, 2, 0x3de9f889u},
      {64, kAlt, true, 14959, 7820, 0x8adcb7b6u},
  };
  for (const StreamPin& pin : pins) {
    for (const bool fast : {false, true}) {
      const StreamObservation obs = run_stream(pairs, pin, fast);
      std::ostringstream label;
      label << "P=" << pin.parallel_sections << " pen=" << pin.pen.str()
            << (pin.backtrace ? " BT" : " NBT")
            << (fast ? " fast" : " exact") << " -> {" << obs.cycles << ", "
            << obs.beats << ", 0x" << std::hex << obs.crc << "u}";
      EXPECT_EQ(obs.cycles, pin.cycles) << label.str();
      EXPECT_EQ(obs.beats, pin.beats) << label.str();
      EXPECT_EQ(obs.crc, pin.crc) << label.str();
    }
  }
}

}  // namespace
}  // namespace wfasic::hw
