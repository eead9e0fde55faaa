// Robustness of the CPU backtrace decoder against corrupted output
// streams — the driver must detect inconsistencies loudly (abort with a
// message) rather than hang or fabricate alignments. Mirrors the paper's
// §5.1 broken-data campaign on the decode side. Each result format has
// one reader; the strict and tolerant entry points are two verdicts on
// it, so the ReaderVerdicts tests hold them to the same anomaly text and
// the same decoded results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/prng.hpp"
#include "drv/backtrace_cpu.hpp"
#include "drv/driver.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "mem/main_memory.hpp"

namespace wfasic::drv {
namespace {

struct StreamFixture {
  mem::MainMemory memory{64 << 20};
  hw::AcceleratorConfig cfg;
  hw::Accelerator accel{cfg, memory};
  BatchLayout layout;
  std::string a, b;

  StreamFixture() {
    Prng prng(111);
    a = gen::random_sequence(prng, 120);
    b = gen::mutate_sequence(prng, a, 0.1);
    const std::vector<gen::SequencePair> pairs = {{0, a, b}};
    layout = encode_input_set(memory, pairs, 0x1000, 0x100000);
    Driver driver(accel);
    driver.start(layout, true);
    (void)driver.wait_idle();
  }

  [[nodiscard]] std::uint64_t stream_beats() const {
    return accel.dma().beats_written();
  }

  void corrupt_byte(std::uint64_t beat, std::size_t byte, std::uint8_t xor_v) {
    const std::uint64_t addr = layout.out_addr + beat * 16 + byte;
    memory.write_u8(addr, memory.read_u8(addr) ^ xor_v);
  }
};

TEST(BtRobustness, CleanStreamDecodes) {
  StreamFixture f;
  const auto parsed = parse_bt_stream(f.memory, f.layout.out_addr, 1, false);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(
      reconstruct_alignment(parsed[0], f.a, f.b, f.cfg).cigar.is_valid_for(
          f.a, f.b));
}

TEST(BtRobustness, CorruptedCounterDetected) {
  StreamFixture f;
  ASSERT_GT(f.stream_beats(), 2u);
  f.corrupt_byte(1, 10, 0x5a);  // counter low byte of the second txn
  EXPECT_DEATH(
      (void)parse_bt_stream(f.memory, f.layout.out_addr, 1, false),
      "counter");
}

TEST(BtRobustness, CorruptedIdLooksInterleaved) {
  StreamFixture f;
  ASSERT_GT(f.stream_beats(), 2u);
  f.corrupt_byte(1, 13, 0x01);  // id low bits of the second txn
  EXPECT_DEATH(
      (void)parse_bt_stream(f.memory, f.layout.out_addr, 1, false),
      "data-separation|counter");
}

TEST(BtRobustness, TruncatedStreamDetected) {
  // Claiming two alignments when the stream holds one: the parser walks
  // into the zeroed area and must trip a consistency check rather than
  // spin forever. (Zero beats decode as counter-0 transactions of id 0,
  // which collide with the finished alignment's counters.)
  StreamFixture f;
  EXPECT_DEATH(
      (void)parse_bt_stream(f.memory, f.layout.out_addr, 2, false),
      "counter|data-separation|incomplete");
}

TEST(BtRobustness, CorruptedOriginPayloadDetectedDuringReconstruction) {
  StreamFixture f;
  // Flip origin bits in the middle of the stream; the walk either
  // produces an invalid path (caught by the walk/match asserts) or a
  // different-but-valid alignment whose score disagrees with the record
  // (caught by the CIGAR score check below).
  const std::uint64_t beats = f.stream_beats();
  for (std::uint64_t beat = 0; beat + 1 < beats; ++beat) {
    f.corrupt_byte(beat, 3, 0xff);
  }
  const auto parsed = parse_bt_stream(f.memory, f.layout.out_addr, 1, false);
  ASSERT_EQ(parsed.size(), 1u);
  // Either the walk itself aborts on an inconsistency, or it survives and
  // the transcript-level self-check catches the damage. Surviving with a
  // fully consistent result would mean the corruption went undetected —
  // then this death test rightly fails.
  EXPECT_DEATH(
      {
        const core::AlignResult r =
            reconstruct_alignment(parsed[0], f.a, f.b, f.cfg);
        if (!r.cigar.is_valid_for(f.a, f.b) ||
            r.cigar.score(f.cfg.pen) != r.score) {
          std::abort();
        }
      },
      "");
}

TEST(BtRobustness, ScoreRecordFailureFlagRespected) {
  StreamFixture f;
  // Force the Success byte of the last transaction (score record) to 0.
  const std::uint64_t last = f.stream_beats() - 1;
  const std::uint64_t addr = f.layout.out_addr + last * 16;
  f.memory.write_u8(addr, 0);
  const auto parsed = parse_bt_stream(f.memory, f.layout.out_addr, 1, false);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_FALSE(parsed[0].success);
  EXPECT_FALSE(reconstruct_alignment(parsed[0], f.a, f.b, f.cfg).ok);
}

TEST(BtRobustness, WrongSequencesRejected) {
  // Decoding a valid stream against the wrong pair must trip the geometry
  // or match-insertion checks, never silently return a bogus alignment.
  StreamFixture f;
  const auto parsed = parse_bt_stream(f.memory, f.layout.out_addr, 1, false);
  Prng prng(112);
  const std::string wrong_a = gen::random_sequence(prng, f.a.size());
  EXPECT_DEATH(
      (void)reconstruct_alignment(parsed[0], wrong_a, f.b, f.cfg), "");
}

// --- One reader, two verdicts ------------------------------------------

/// A genuine result area: `count` pairs through a device with `cfg`.
struct VerdictRun {
  static constexpr std::uint32_t kSalt = 21;
  mem::MainMemory memory{32 << 20};
  hw::AcceleratorConfig cfg;
  BatchLayout layout;
  std::uint64_t beats = 0;

  VerdictRun(const hw::AcceleratorConfig& config, bool backtrace,
             std::size_t count = 4)
      : cfg(config) {
    hw::Accelerator accel(cfg, memory);
    const std::vector<gen::SequencePair> pairs =
        gen::generate_input_set({300, 0.1, count, 113});
    layout = encode_input_set(memory, pairs, 0x1000, 0x400000, 0, cfg.crc,
                              kSalt);
    Driver driver(accel);
    EXPECT_EQ(driver.run(layout, backtrace).outcome, RunOutcome::kOk);
    beats = accel.dma().beats_written();
  }

  void flip(std::uint64_t beat, std::size_t byte, std::uint8_t xor_v) {
    const std::uint64_t addr = layout.out_addr + beat * mem::kBeatBytes + byte;
    memory.write_u8(addr, memory.read_u8(addr) ^ xor_v);
  }
};

hw::AcceleratorConfig config(bool crc, unsigned aligners = 1,
                             unsigned parallel_sections = 64) {
  hw::AcceleratorConfig cfg;
  cfg.crc = crc;
  cfg.num_aligners = aligners;
  cfg.parallel_sections = parallel_sections;
  return cfg;
}

/// The tolerant scan of a damaged stream must report an anomaly naming
/// `kind`, and the strict entry point must die with exactly that text.
void expect_bt_verdicts_agree(const VerdictRun& run, std::size_t num_pairs,
                              std::uint64_t max_bytes, std::uint32_t salt,
                              const char* kind) {
  const BtStreamScan scan = try_parse_bt_stream(
      run.memory, run.layout.out_addr, max_bytes, num_pairs,
      /*separate_data=*/false, nullptr, run.cfg.crc, salt);
  ASSERT_FALSE(scan.clean());
  EXPECT_NE(std::string(scan.anomaly).find(kind), std::string::npos)
      << scan.anomaly;
  EXPECT_DEATH((void)parse_bt_stream(run.memory, run.layout.out_addr,
                                     num_pairs, false, nullptr, run.cfg.crc,
                                     salt),
               scan.anomaly);
}

TEST(ReaderVerdicts, BtCorruptionsGiveBothEntryPointsOneAnomaly) {
  for (const bool crc : {false, true}) {
    SCOPED_TRACE(crc ? "crc on" : "crc off");
    {
      VerdictRun run(config(crc), true, 1);
      run.flip(1, 10, 0x5a);  // counter low byte of the second transaction
      expect_bt_verdicts_agree(run, 1, run.beats * mem::kBeatBytes,
                               VerdictRun::kSalt, "counter");
    }
    {
      VerdictRun run(config(crc), true, 1);
      run.flip(1, 13, 0x01);  // id low bit of the second transaction
      expect_bt_verdicts_agree(run, 1, run.beats * mem::kBeatBytes,
                               VerdictRun::kSalt, "data-separation");
    }
    {
      // Two alignments claimed, one in the stream: read on into the
      // zeroed area, both verdicts trip over its first transactions.
      const VerdictRun run(config(crc), true, 1);
      const std::uint64_t bytes = run.beats * mem::kBeatBytes;
      expect_bt_verdicts_agree(run, 2, bytes + 16 * mem::kBeatBytes,
                               VerdictRun::kSalt, "counter");
      // Bounded by the beats the DMA wrote, the tolerant scan stops at
      // the end of the stream instead.
      const BtStreamScan bounded = try_parse_bt_stream(
          run.memory, run.layout.out_addr, bytes, 2, false, nullptr, crc,
          VerdictRun::kSalt);
      ASSERT_FALSE(bounded.clean());
      EXPECT_NE(std::string(bounded.anomaly).find("incomplete"),
                std::string::npos);
      EXPECT_EQ(bounded.alignments.size(), 1u);
    }
  }
  {
    // A bit of the CRC value in the (only) footer, the stream's last beat.
    VerdictRun run(config(true), true, 1);
    run.flip(run.beats - 1, 0, 0x04);
    expect_bt_verdicts_agree(run, 1, run.beats * mem::kBeatBytes,
                             VerdictRun::kSalt, "stream CRC");
  }
  {
    // A stale salt: every footer fails.
    const VerdictRun run(config(true), true, 1);
    expect_bt_verdicts_agree(run, 1, run.beats * mem::kBeatBytes,
                             VerdictRun::kSalt + 1, "stream CRC");
  }
}

void expect_same_alignments(const std::vector<BtAlignment>& x,
                            const std::vector<BtAlignment>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].id, y[i].id) << i;
    EXPECT_EQ(x[i].success, y[i].success) << i;
    EXPECT_EQ(x[i].score, y[i].score) << i;
    EXPECT_EQ(x[i].k_reached, y[i].k_reached) << i;
    EXPECT_EQ(x[i].payload, y[i].payload) << i;
  }
}

TEST(ReaderVerdicts, BtCleanStreamsDecodeIdenticallyWithEqualCost) {
  for (const unsigned P : {16u, 64u}) {
    for (const unsigned aligners : {1u, 2u}) {
      for (const bool crc : {false, true}) {
        SCOPED_TRACE(testing::Message() << "P=" << P << " aligners="
                                        << aligners << " crc=" << crc);
        const VerdictRun run(config(crc, aligners, P), true);
        const bool separate = aligners > 1;  // the matching §4.5 method
        cpu::BtCpuCounters tolerant_cost;
        cpu::BtCpuCounters strict_cost;
        const BtStreamScan scan = try_parse_bt_stream(
            run.memory, run.layout.out_addr, run.beats * mem::kBeatBytes,
            run.layout.num_pairs, separate, &tolerant_cost, crc,
            VerdictRun::kSalt);
        EXPECT_TRUE(scan.clean()) << scan.anomaly;
        expect_same_alignments(
            scan.alignments,
            parse_bt_stream(run.memory, run.layout.out_addr,
                            run.layout.num_pairs, separate, &strict_cost, crc,
                            VerdictRun::kSalt));
        EXPECT_EQ(tolerant_cost, strict_cost);
        EXPECT_EQ(strict_cost.alignments, run.layout.num_pairs);
        EXPECT_GT(strict_cost.blocks_scanned, 0u);
      }
    }
  }
}

TEST(ReaderVerdicts, NbtCorruptionsGiveBothEntryPointsOneAnomaly) {
  const auto expect_agree = [](const mem::MainMemory& memory,
                               const BatchLayout& layout,
                               std::uint64_t beats, const char* kind) {
    const char* anomaly = nullptr;
    (void)try_decode_nbt_results(memory, layout, beats, &anomaly);
    ASSERT_NE(anomaly, nullptr);
    EXPECT_NE(std::string(anomaly).find(kind), std::string::npos) << anomaly;
    EXPECT_DEATH((void)decode_nbt_results(memory, layout), anomaly);
  };
  {
    VerdictRun run(config(true), false, 6);
    run.flip(0, hw::nbt_record_bytes(true) * 1 + 1, 0x10);  // record 1's word
    expect_agree(run.memory, run.layout, run.beats, "CRC");
  }
  {
    const VerdictRun run(config(true), false, 6);
    BatchLayout stale = run.layout;
    stale.crc_salt = VerdictRun::kSalt + 1;
    expect_agree(run.memory, stale, run.beats, "CRC");
  }
  {
    // More records claimed than the run wrote: the unwritten ones fail
    // their CRC for both verdicts; bounded by the written beats, the
    // tolerant read names the short area instead.
    const VerdictRun run(config(true), false, 6);
    BatchLayout claimed = run.layout;
    claimed.num_pairs += 3;
    expect_agree(run.memory, claimed, run.beats + 2, "CRC");
    const char* anomaly = nullptr;
    EXPECT_EQ(try_decode_nbt_results(run.memory, claimed, run.beats,
                                         &anomaly)
                  .size(),
              6u);
    ASSERT_NE(anomaly, nullptr);
    EXPECT_NE(std::string(anomaly).find("ends before"), std::string::npos);
  }
}

TEST(ReaderVerdicts, NbtCleanAreasDecodeIdentically) {
  for (const bool crc : {false, true}) {
    const VerdictRun run(config(crc), false, 7);
    const char* anomaly = "unset";
    const std::vector<hw::NbtResult> tolerant =
        try_decode_nbt_results(run.memory, run.layout, run.beats, &anomaly);
    EXPECT_EQ(anomaly, nullptr) << "crc=" << crc;
    EXPECT_EQ(tolerant, decode_nbt_results(run.memory, run.layout))
        << "crc=" << crc;
    EXPECT_TRUE(each_id_exactly_once(tolerant, run.layout.num_pairs));
  }
}

}  // namespace
}  // namespace wfasic::drv
