// End-to-end data-integrity tests (docs/RELIABILITY.md): the SECDED ECC
// codec and its deployment over main memory and the wavefront RAMs, the
// salted CRC-32 footers on the input descriptors and both result streams,
// the write-path fault classes only those footers can catch, and the
// error-register semantics (write-1-to-clear status, any-write-clear
// counters) the driver's RunStatus snapshot builds on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/ecc.hpp"
#include "common/prng.hpp"
#include "core/wfa.hpp"
#include "drv/backtrace_cpu.hpp"
#include "drv/driver.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/input_format.hpp"
#include "hw/regs.hpp"
#include "hw/result_format.hpp"
#include "mem/main_memory.hpp"
#include "sim/fault_injector.hpp"
#include "sim/ram.hpp"

namespace wfasic {
namespace {

constexpr std::uint64_t kInAddr = 0x1000;
constexpr std::uint64_t kOutAddr = 0x400000;

std::vector<gen::SequencePair> make_pairs(std::size_t count,
                                          std::size_t base_len,
                                          std::uint64_t seed = 99) {
  Prng prng(seed);
  std::vector<gen::SequencePair> pairs;
  for (std::size_t i = 0; i < count; ++i) {
    std::string a = gen::random_sequence(prng, base_len + i);
    const std::string b = gen::mutate_sequence(prng, a, 0.08);
    pairs.push_back({static_cast<std::uint32_t>(i), std::move(a), b});
  }
  return pairs;
}

score_t reference_score(const gen::SequencePair& pair, const Penalties& pen) {
  core::WfaConfig cfg;
  cfg.pen = pen;
  cfg.traceback = core::Traceback::kDisabled;
  core::WfaAligner aligner(cfg);
  return aligner.align(pair.a, pair.b).score;
}

// ---------------------------------------------------------------------------
// SECDED codec

TEST(EccCodec, CleanWordsDecodeClean) {
  Prng prng(1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t word = prng.next_u64();
    const std::uint8_t check = ecc::secded_encode(word);
    const ecc::EccDecode decode = ecc::secded_decode(word, check);
    EXPECT_EQ(decode.state, ecc::EccState::kClean);
    EXPECT_EQ(decode.data, word);
  }
}

TEST(EccCodec, EverySingleDataBitFlipIsCorrected) {
  Prng prng(2);
  const std::uint64_t words[] = {0, ~0ull, 0x0123456789abcdefull,
                                 prng.next_u64()};
  for (const std::uint64_t word : words) {
    const std::uint8_t check = ecc::secded_encode(word);
    for (unsigned bit = 0; bit < 64; ++bit) {
      const ecc::EccDecode decode =
          ecc::secded_decode(word ^ (std::uint64_t{1} << bit), check);
      EXPECT_EQ(decode.state, ecc::EccState::kCorrected) << "bit " << bit;
      EXPECT_EQ(decode.data, word) << "bit " << bit;
    }
  }
}

TEST(EccCodec, EveryCheckBitFlipIsCorrectedWithoutTouchingData) {
  const std::uint64_t word = 0xfeedface12345678ull;
  const std::uint8_t check = ecc::secded_encode(word);
  for (unsigned bit = 0; bit < 8; ++bit) {
    const ecc::EccDecode decode = ecc::secded_decode(
        word, static_cast<std::uint8_t>(check ^ (1u << bit)));
    EXPECT_EQ(decode.state, ecc::EccState::kCorrected) << "bit " << bit;
    EXPECT_EQ(decode.data, word) << "bit " << bit;
  }
}

TEST(EccCodec, DoubleDataBitFlipsAreDetectedNotMiscorrected) {
  Prng prng(3);
  const std::uint64_t word = prng.next_u64();
  const std::uint8_t check = ecc::secded_encode(word);
  // All adjacent pairs plus a spread of random pairs.
  for (unsigned bit = 0; bit + 1 < 64; ++bit) {
    const std::uint64_t bad =
        word ^ (std::uint64_t{1} << bit) ^ (std::uint64_t{1} << (bit + 1));
    EXPECT_EQ(ecc::secded_decode(bad, check).state,
              ecc::EccState::kUncorrectable)
        << "bits " << bit << "," << bit + 1;
  }
  for (int i = 0; i < 100; ++i) {
    const unsigned a = static_cast<unsigned>(prng.next_below(64));
    unsigned b = static_cast<unsigned>(prng.next_below(64));
    if (a == b) b = (b + 1) % 64;
    const std::uint64_t bad =
        word ^ (std::uint64_t{1} << a) ^ (std::uint64_t{1} << b);
    EXPECT_EQ(ecc::secded_decode(bad, check).state,
              ecc::EccState::kUncorrectable)
        << "bits " << a << "," << b;
  }
}

// ---------------------------------------------------------------------------
// ECC over the storage models

TEST(MainMemoryEcc, SingleFlipIsScrubbedOnReadAndCounted) {
  mem::MainMemory memory(1 << 16);
  memory.enable_ecc();
  const std::uint32_t value = 0xdeadbeef;
  memory.write_u32(0x100, value);
  memory.flip_bit(0x101, 3);  // inside the same 8-byte granule
  EXPECT_EQ(memory.read_u32(0x100), value);  // corrected transparently
  EXPECT_EQ(memory.ecc_corrected(), 1u);
  EXPECT_EQ(memory.ecc_uncorrectable(), 0u);
  // The scrub repaired storage: a second read is clean.
  EXPECT_EQ(memory.read_u32(0x100), value);
  EXPECT_EQ(memory.ecc_corrected(), 1u);
}

TEST(MainMemoryEcc, DoubleFlipRaisesTheUncorrectableFlag) {
  mem::MainMemory memory(1 << 16);
  memory.enable_ecc();
  memory.write_u32(0x200, 0x12345678);
  memory.flip_bit(0x200, 0);
  memory.flip_bit(0x200, 1);
  (void)memory.read_u32(0x200);
  EXPECT_GE(memory.ecc_uncorrectable(), 1u);
  EXPECT_TRUE(memory.take_uncorrectable());
  EXPECT_FALSE(memory.take_uncorrectable());  // consuming clears it
}

TEST(DualPortRamEcc, SingleCorrectsDoubleDetects) {
  sim::DualPortRam<std::uint32_t> ram("t", 16);
  ram.write(4, 0xa5a5a5a5u);
  ram.enable_ecc();
  ram.corrupt_bit(4, 7);
  EXPECT_EQ(ram.read(4), 0xa5a5a5a5u);
  EXPECT_EQ(ram.ecc_corrected(), 1u);
  EXPECT_FALSE(ram.take_uncorrectable());

  ram.corrupt_bit(4, 3);
  ram.corrupt_bit(4, 9);
  (void)ram.read(4);
  EXPECT_GE(ram.ecc_uncorrectable(), 1u);
  EXPECT_TRUE(ram.take_uncorrectable());
}

// ---------------------------------------------------------------------------
// CRC-32

TEST(Crc32Test, KnownAnswerAndSaltedVariant) {
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(msg, 9)), 0xCBF43926u);
  EXPECT_NE(crc32(std::span<const std::uint8_t>(msg, 9), /*salt=*/1),
            0xCBF43926u);

  // Incremental accumulation equals the one-shot helper.
  Crc32 acc(7);
  acc.update(msg, 4);
  acc.update(msg + 4, 5);
  EXPECT_EQ(acc.value(), crc32(std::span<const std::uint8_t>(msg, 9), 7));
}

// ---------------------------------------------------------------------------
// Input descriptor CRC (Extractor-side verification)

TEST(InputCrc, CleanBatchRunsToCompletionWithCrcOn) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  cfg.crc = true;
  hw::Accelerator accel(cfg, memory);
  const auto pairs = make_pairs(6, 120);
  const drv::BatchLayout layout = drv::encode_input_set(
      memory, pairs, kInAddr, kOutAddr, 0, /*crc=*/true, /*crc_salt=*/0x55);
  EXPECT_TRUE(layout.crc);
  drv::Driver driver(accel);
  const drv::RunStatus status = driver.run(layout, /*backtrace=*/false);
  ASSERT_EQ(status.outcome, drv::RunOutcome::kOk);

  const auto results = drv::decode_nbt_results_sorted(memory, layout);
  ASSERT_EQ(results.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_TRUE(results[i].success);
    EXPECT_EQ(static_cast<score_t>(results[i].score),
              reference_score(pairs[i], cfg.pen));
  }
}

TEST(InputCrc, CorruptedPairIsFlaggedNotSilentlyWrong) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  cfg.crc = true;
  hw::Accelerator accel(cfg, memory);
  const auto pairs = make_pairs(5, 100);
  const drv::BatchLayout layout = drv::encode_input_set(
      memory, pairs, kInAddr, kOutAddr, 0, /*crc=*/true, /*crc_salt=*/1);

  // Flip one base byte of pair 2's sequence `a` after encoding — the
  // descriptor no longer matches its footer.
  const std::uint64_t pair2 =
      kInAddr + 2 * hw::pair_bytes(layout.max_read_len, true);
  memory.flip_bit(pair2 + 3 * hw::kSectionBytes + 5, 2);

  drv::Driver driver(accel);
  const drv::RunStatus status = driver.run(layout, /*backtrace=*/false);
  EXPECT_EQ(status.outcome, drv::RunOutcome::kPartial);
  EXPECT_NE(status.err_status & hw::kErrCrc, 0u);
  EXPECT_GE(status.err_count, 1u);

  const auto results = drv::decode_nbt_results_sorted(memory, layout);
  ASSERT_EQ(results.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(results[i].success);  // failed, never a wrong score
    } else {
      EXPECT_TRUE(results[i].success);
      EXPECT_EQ(static_cast<score_t>(results[i].score),
                reference_score(pairs[i], cfg.pen));
    }
  }
}

// ---------------------------------------------------------------------------
// Result stream CRCs

TEST(ResultCrc, NbtRecordCorruptionIsRejectedByTheTolerantDecoder) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  cfg.crc = true;
  hw::Accelerator accel(cfg, memory);
  const auto pairs = make_pairs(8, 90);
  const drv::BatchLayout layout = drv::encode_input_set(
      memory, pairs, kInAddr, kOutAddr, 0, /*crc=*/true, /*crc_salt=*/9);
  drv::Driver driver(accel);
  ASSERT_EQ(driver.run(layout, false).outcome, drv::RunOutcome::kOk);
  const std::uint64_t beats = accel.dma().beats_written();

  // Undamaged: every record decodes.
  ASSERT_EQ(drv::try_decode_nbt_results(memory, layout, beats).size(),
            pairs.size());

  // Corrupt the packed word of record 3 (8-byte records with CRC on).
  memory.flip_bit(layout.out_addr + 3 * hw::nbt_record_bytes(true) + 1, 4);
  const auto partial =
      drv::try_decode_nbt_results(memory, layout, beats);
  EXPECT_EQ(partial.size(), pairs.size() - 1);  // the bad record dropped
  for (const hw::NbtResult& r : partial) {
    EXPECT_EQ(static_cast<score_t>(r.score),
              reference_score(pairs[r.id], cfg.pen));
  }
}

TEST(ResultCrc, BtStreamCorruptionIsRejectedAndSaltMismatchAcceptsNothing) {
  mem::MainMemory memory(32 << 20);
  hw::AcceleratorConfig cfg;
  cfg.crc = true;
  hw::Accelerator accel(cfg, memory);
  const auto pairs = make_pairs(6, 150);
  const drv::BatchLayout layout = drv::encode_input_set(
      memory, pairs, kInAddr, kOutAddr, 0, /*crc=*/true, /*crc_salt=*/33);
  drv::Driver driver(accel);
  ASSERT_EQ(driver.run(layout, /*backtrace=*/true).outcome,
            drv::RunOutcome::kOk);
  const std::uint64_t bytes = accel.dma().beats_written() * mem::kBeatBytes;

  // Clean stream, right salt: every alignment accepted.
  const drv::BtStreamScan good = drv::try_parse_bt_stream(
      memory, layout.out_addr, bytes, pairs.size(), /*separate_data=*/true,
      nullptr, true, 33);
  EXPECT_TRUE(good.clean());
  EXPECT_EQ(good.alignments.size(), pairs.size());

  // Wrong salt (a stale launch's decoder): nothing verifies.
  const drv::BtStreamScan stale = drv::try_parse_bt_stream(
      memory, layout.out_addr, bytes, pairs.size(), /*separate_data=*/true,
      nullptr, true, 34);
  EXPECT_FALSE(stale.clean());
  EXPECT_TRUE(stale.alignments.empty());

  // One payload bit flipped: exactly that alignment is dropped.
  memory.flip_bit(layout.out_addr + 2 * mem::kBeatBytes + 4, 6);
  const drv::BtStreamScan scan = drv::try_parse_bt_stream(
      memory, layout.out_addr, bytes, pairs.size(), /*separate_data=*/true,
      nullptr, true, 33);
  EXPECT_FALSE(scan.clean());
  EXPECT_LT(scan.alignments.size(), pairs.size());
}

// ---------------------------------------------------------------------------
// Write-path faults: only the CRC footer can catch these.

TEST(WriteFaults, WriteBeatCorruptionNeverEscapesWithCrcOn) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  cfg.crc = true;
  hw::Accelerator accel(cfg, memory);
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kWriteBeatCorrupt;
  ev.beat = 1;
  ev.bit = 13;
  injector.schedule(ev);
  accel.attach_fault_injector(&injector);

  const auto pairs = make_pairs(8, 100);
  const drv::BatchLayout layout = drv::encode_input_set(
      memory, pairs, kInAddr, kOutAddr, 0, /*crc=*/true, /*crc_salt=*/5);
  drv::Driver driver(accel);
  const drv::RunStatus status = driver.run(layout, false);
  ASSERT_TRUE(status.completed());
  EXPECT_EQ(injector.fired_count(), 1u);

  const auto partial = drv::try_decode_nbt_results(
      memory, layout, accel.dma().beats_written());
  EXPECT_LT(partial.size(), pairs.size());  // the damaged records dropped
  for (const hw::NbtResult& r : partial) {  // survivors are all correct
    EXPECT_EQ(static_cast<score_t>(r.score),
              reference_score(pairs[r.id], cfg.pen));
  }
}

TEST(WriteFaults, DroppedWriteBeatStaleDataDefeatedByTheLaunchSalt) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  cfg.crc = true;
  hw::Accelerator accel(cfg, memory);
  const auto pairs = make_pairs(8, 100);
  drv::Driver driver(accel);

  // Launch 1 (salt 1) fills the output window with well-formed records.
  const drv::BatchLayout first = drv::encode_input_set(
      memory, pairs, kInAddr, kOutAddr, 0, /*crc=*/true, /*crc_salt=*/1);
  ASSERT_EQ(driver.run(first, false).outcome, drv::RunOutcome::kOk);

  // Launch 2 (salt 2), same pairs, drops one write beat: that slot keeps
  // launch 1's bytes — well-formed records with the *old* salt.
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kWriteBeatDrop;
  ev.beat = accel.dma().beats_written() + 1;  // a write beat of launch 2
  injector.schedule(ev);
  accel.attach_fault_injector(&injector);
  const std::uint64_t before = accel.dma().beats_written();
  const drv::BatchLayout second = drv::encode_input_set(
      memory, pairs, kInAddr, kOutAddr, 0, /*crc=*/true, /*crc_salt=*/2);
  ASSERT_TRUE(driver.run(second, false).completed());
  EXPECT_EQ(injector.fired_count(), 1u);

  const auto partial = drv::try_decode_nbt_results(
      memory, second, accel.dma().beats_written() - before);
  // The stale slot fails its CRC under the new salt: dropped, not decoded
  // as a (coincidentally plausible) result of launch 2.
  EXPECT_LT(partial.size(), pairs.size());
  for (const hw::NbtResult& r : partial) {
    EXPECT_EQ(static_cast<score_t>(r.score),
              reference_score(pairs[r.id], cfg.pen));
  }
}

// ---------------------------------------------------------------------------
// Wavefront-RAM upsets under ECC

TEST(RamEcc, UpsetsNeverCorruptSilentlyWithEccOn) {
  const auto pairs = make_pairs(6, 400);
  hw::AcceleratorConfig cfg;
  cfg.ecc = true;

  // A barrage of single-bit upsets mid-run: every result still matches
  // the reference (corrected or the pair failed loudly — never wrong).
  mem::MainMemory memory(32 << 20);
  hw::Accelerator accel(cfg, memory);
  sim::FaultInjector::CampaignConfig fc;
  fc.ram_bit_flips = 20;
  fc.cycle_window = 30'000;
  sim::FaultInjector injector = sim::FaultInjector::make_campaign(11, fc);
  accel.attach_fault_injector(&injector);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
  drv::Driver driver(accel);
  const drv::RunStatus status = driver.run(layout, false);
  ASSERT_TRUE(status.completed());
  EXPECT_EQ(status.err_status & hw::kErrEccUnc, 0u);  // singles correct
  const auto results = drv::decode_nbt_results_sorted(memory, layout);
  ASSERT_EQ(results.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(results[i].success);
    EXPECT_EQ(static_cast<score_t>(results[i].score),
              reference_score(pairs[i], cfg.pen));
  }
}

TEST(RamEcc, DoubleBitUpsetFailsTheAlignmentLoudly) {
  // A fired event only lands when the aligner is mid-run (the upset must
  // hit a live wavefront row), so sweep seeds and demand that (a) every
  // seed keeps the no-silent-corruption invariant and (b) at least one
  // seed produces a live hit, observable as kErrEccUnc + a failed pair.
  const auto pairs = make_pairs(4, 600);
  hw::AcceleratorConfig cfg;
  cfg.ecc = true;
  bool saw_loud_failure = false;
  for (std::uint64_t seed = 1; seed <= 20 && !saw_loud_failure; ++seed) {
    mem::MainMemory memory(32 << 20);
    hw::Accelerator accel(cfg, memory);
    sim::FaultInjector::CampaignConfig fc;
    fc.ram_double_flips = 8;
    fc.cycle_window = 60'000;
    sim::FaultInjector injector = sim::FaultInjector::make_campaign(seed, fc);
    accel.attach_fault_injector(&injector);
    const drv::BatchLayout layout =
        drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
    drv::Driver driver(accel);
    const drv::RunStatus status = driver.run(layout, false);
    ASSERT_TRUE(status.completed() ||
                status.outcome == drv::RunOutcome::kDataError)
        << "seed " << seed;
    const auto results = drv::decode_nbt_results_sorted(memory, layout);
    bool any_failed = false;
    for (const hw::NbtResult& r : results) {
      if (r.success) {
        EXPECT_EQ(static_cast<score_t>(r.score),
                  reference_score(pairs[r.id], cfg.pen))
            << "seed " << seed;
      } else {
        any_failed = true;
      }
    }
    if ((status.err_status & hw::kErrEccUnc) != 0) {
      // The error architecture named the upset, and the victim failed
      // instead of reporting a wrong score.
      EXPECT_TRUE(any_failed || status.outcome == drv::RunOutcome::kDataError)
          << "seed " << seed;
      saw_loud_failure = true;
    }
  }
  EXPECT_TRUE(saw_loud_failure)
      << "no double-bit upset ever hit a live alignment across the sweep";
}

// ---------------------------------------------------------------------------
// Error-register semantics and the RunStatus snapshot

TEST(ErrRegs, StatusIsWriteOneToClearAndCountersAnyWriteClear) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  hw::Accelerator accel(cfg, memory);
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kAxiError;
  ev.beat = 3;
  injector.schedule(ev);
  accel.attach_fault_injector(&injector);

  const auto pairs = make_pairs(4, 100);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
  drv::Driver driver(accel);
  const drv::RunStatus status = driver.run(layout, false);
  ASSERT_EQ(status.outcome, drv::RunOutcome::kDmaError);
  EXPECT_EQ(status.err_status, accel.read_reg(hw::kRegErrStatus));
  EXPECT_EQ(status.err_count, accel.read_reg(hw::kRegErrCount));
  ASSERT_NE(status.err_status & hw::kErrDma, 0u);
  EXPECT_GE(status.err_count, 1u);

  // W1C: clearing an unrelated bit leaves the cause latched.
  accel.write_reg(hw::kRegErrStatus, hw::kErrWatchdog);
  EXPECT_NE(accel.read_reg(hw::kRegErrStatus) & hw::kErrDma, 0u);
  // W1C: writing the cause bit clears exactly it.
  accel.write_reg(hw::kRegErrStatus, hw::kErrDma);
  EXPECT_EQ(accel.read_reg(hw::kRegErrStatus) & hw::kErrDma, 0u);

  // kRegErrCount: any write clears.
  accel.write_reg(hw::kRegErrCount, 0xffffffffu);
  EXPECT_EQ(accel.read_reg(hw::kRegErrCount), 0u);
}

TEST(ErrRegs, EccCountReflectsCorrectionsAndAnyWriteClears) {
  mem::MainMemory memory(1 << 20);
  hw::AcceleratorConfig cfg;
  cfg.ecc = true;
  hw::Accelerator accel(cfg, memory);
  EXPECT_EQ(accel.read_reg(hw::kRegEccCount), 0u);

  memory.write_u32(0x40, 0xcafef00d);
  memory.flip_bit(0x40, 5);
  (void)memory.read_u32(0x40);  // scrub-on-read corrects and counts
  EXPECT_EQ(accel.read_reg(hw::kRegEccCount), 1u);

  accel.write_reg(hw::kRegEccCount, 0);  // any write rebases to zero
  EXPECT_EQ(accel.read_reg(hw::kRegEccCount), 0u);
}

TEST(ErrRegs, PerRunErrCountSnapshotResetsBetweenRuns) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  hw::Accelerator accel(cfg, memory);
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kAxiError;
  ev.beat = 3;
  injector.schedule(ev);
  accel.attach_fault_injector(&injector);

  const auto pairs = make_pairs(4, 100);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
  drv::Driver driver(accel);
  ASSERT_EQ(driver.run(layout, false).outcome, drv::RunOutcome::kDmaError);

  // The fault consumed itself; the next run is clean and its RunStatus
  // error counters start from zero (Driver::start rebases both).
  const drv::RunStatus second = driver.run(layout, false);
  EXPECT_EQ(second.outcome, drv::RunOutcome::kOk);
  EXPECT_EQ(second.err_status, 0u);
  EXPECT_EQ(second.err_count, 0u);
}

// ---------------------------------------------------------------------------
// Mixed campaign on one device: every fault class at once, ECC+CRC on,
// zero silent corruptions across seeds (the 200-seed version runs in
// tools/run_fault_campaign.sh; this is the in-tree smoke slice).

TEST(MixedCampaign, NoSilentCorruptionWithEccAndCrc) {
  const auto pairs = make_pairs(10, 120, 1234);
  core::WfaConfig ref_cfg;
  ref_cfg.traceback = core::Traceback::kEnabled;
  core::WfaAligner ref(ref_cfg);
  std::vector<core::AlignResult> expected;
  for (const auto& pair : pairs) expected.push_back(ref.align(pair.a, pair.b));

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    mem::MainMemory memory(32 << 20);
    hw::AcceleratorConfig cfg;
    cfg.ecc = true;
    cfg.crc = true;
    hw::Accelerator accel(cfg, memory);
    sim::FaultInjector::CampaignConfig fc;
    fc.mem_begin = kInAddr;
    fc.mem_end = kInAddr + 64 * 1024;
    fc.mem_bit_flips = 2;
    fc.mem_double_flips = 1;
    fc.axi_errors = 1;
    fc.dropped_beats = 1;
    fc.beat_corruptions = 1;
    fc.ram_bit_flips = 2;
    fc.ram_double_flips = 1;
    fc.write_beat_corruptions = 2;
    fc.write_beat_drops = 1;
    sim::FaultInjector injector = sim::FaultInjector::make_campaign(seed, fc);
    accel.attach_fault_injector(&injector);

    // The resilient path at K=1 on this device, watchdog at its reset
    // default (HwBackend programs the configured value at construction).
    engine::EngineConfig eng_cfg;
    eng_cfg.device.accel = cfg;
    eng_cfg.device.in_addr = kInAddr;
    eng_cfg.device.out_addr = kOutAddr;
    eng_cfg.device.watchdog = hw::kDefaultWatchdogCycles;
    engine::Engine eng(eng_cfg, memory, accel);
    const engine::ResilientReport report = eng.run_resilient(pairs);
    ASSERT_TRUE(report.complete()) << "seed " << seed;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(report.outcomes[i].result.score, expected[i].score)
          << "seed " << seed << " pair " << i;
      EXPECT_EQ(report.outcomes[i].result.cigar.rle(),
                expected[i].cigar.rle())
          << "seed " << seed << " pair " << i;
    }
  }
}

}  // namespace
}  // namespace wfasic
