#include "drv/driver.hpp"

#include <gtest/gtest.h>

#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/input_format.hpp"
#include "hw/regs.hpp"
#include "mem/main_memory.hpp"
#include "sim/fault_injector.hpp"

namespace wfasic::drv {
namespace {

TEST(InputFormat, RoundUpReadLen) {
  EXPECT_EQ(hw::round_up_read_len(1), 16u);
  EXPECT_EQ(hw::round_up_read_len(16), 16u);
  EXPECT_EQ(hw::round_up_read_len(17), 32u);
  EXPECT_EQ(hw::round_up_read_len(9010), 9024u);  // the paper's example
}

TEST(InputFormat, PairSections) {
  // 3 header sections + 2 sequences of MAX_READ_LEN/16 sections each.
  EXPECT_EQ(hw::pair_sections(16), 3u + 2u);
  EXPECT_EQ(hw::pair_sections(160), 3u + 20u);
  EXPECT_EQ(hw::pair_bytes(16), 5u * 16);
}

TEST(EncodeInputSet, LayoutFields) {
  mem::MainMemory memory(1 << 20);
  const std::vector<gen::SequencePair> pairs = {
      {0, "ACGTACGTACGTACGTA", "ACGT"}};  // longest = 17 -> MAX 32
  const BatchLayout layout = encode_input_set(memory, pairs, 0x100, 0x9000);
  EXPECT_EQ(layout.max_read_len, 32u);
  EXPECT_EQ(layout.num_pairs, 1u);
  EXPECT_EQ(layout.in_bytes, hw::pair_bytes(32));
  EXPECT_EQ(layout.in_addr, 0x100u);
  EXPECT_EQ(layout.out_addr, 0x9000u);
}

TEST(EncodeInputSet, HeaderSectionsHoldIdAndLengths) {
  mem::MainMemory memory(1 << 20);
  const std::vector<gen::SequencePair> pairs = {{42, "ACGTA", "AC"}};
  const BatchLayout layout = encode_input_set(memory, pairs, 0, 0x9000);
  EXPECT_EQ(layout.num_pairs, 1u);
  EXPECT_EQ(memory.read_u32(0), 42u);    // id
  EXPECT_EQ(memory.read_u32(16), 5u);    // len a
  EXPECT_EQ(memory.read_u32(32), 2u);    // len b
}

TEST(EncodeInputSet, SequenceBytesAreAsciiWithDummyPadding) {
  mem::MainMemory memory(1 << 20);
  const std::vector<gen::SequencePair> pairs = {{0, "ACGT", "TT"}};
  const BatchLayout layout = encode_input_set(memory, pairs, 0, 0x9000);
  EXPECT_EQ(layout.in_bytes, hw::pair_bytes(16));
  // Sequence a starts after the 3 header sections.
  EXPECT_EQ(memory.read_u8(48), 'A');
  EXPECT_EQ(memory.read_u8(49), 'C');
  EXPECT_EQ(memory.read_u8(50), 'G');
  EXPECT_EQ(memory.read_u8(51), 'T');
  EXPECT_EQ(memory.read_u8(52), hw::kDummyBase);
  // Sequence b in the next 16-byte-aligned region.
  EXPECT_EQ(memory.read_u8(64), 'T');
  EXPECT_EQ(memory.read_u8(65), 'T');
  EXPECT_EQ(memory.read_u8(66), hw::kDummyBase);
}

TEST(EncodeInputSet, MultiplePairsAreContiguous) {
  mem::MainMemory memory(1 << 20);
  const std::vector<gen::SequencePair> pairs = {{0, "AAAA", "CCCC"},
                                                {1, "GGGG", "TTTT"}};
  const BatchLayout layout = encode_input_set(memory, pairs, 0, 0x9000);
  EXPECT_EQ(layout.in_bytes, 2 * hw::pair_bytes(16));
  const std::uint64_t second = hw::pair_bytes(16);
  EXPECT_EQ(memory.read_u32(second), 1u);
  EXPECT_EQ(memory.read_u8(second + 48), 'G');
}

TEST(EncodeInputSet, ForcedMaxReadLenTruncatesStorageKeepsLength) {
  mem::MainMemory memory(1 << 20);
  const std::vector<gen::SequencePair> pairs = {
      {0, std::string(40, 'A'), "CC"}};
  const BatchLayout layout = encode_input_set(memory, pairs, 0, 0x9000, 16);
  EXPECT_EQ(layout.max_read_len, 16u);
  EXPECT_EQ(memory.read_u32(16), 40u);  // true length preserved
}

TEST(EncodeInputSet, NBasesStoredVerbatim) {
  mem::MainMemory memory(1 << 20);
  const std::vector<gen::SequencePair> pairs = {{0, "ACNT", "ACGT"}};
  const BatchLayout layout = encode_input_set(memory, pairs, 0, 0x9000);
  EXPECT_EQ(layout.num_pairs, 1u);
  EXPECT_EQ(memory.read_u8(50), 'N');
}

// --- Robustness: loud timeouts and tolerant result decoding ----------------

// Regression: wait_idle used to return a bare cycle count, so a hung
// accelerator was indistinguishable from a long run — callers happily
// decoded stale result memory. A hang must now come back kTimeout.
TEST(DriverTimeout, WaitIdleReportsHangLoudly) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  hw::Accelerator accel(cfg, memory);
  // A permanently stalled input FIFO with the watchdog disabled: the
  // hardware can neither finish nor abort, so only the wait budget ends it.
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kFifoStall;
  ev.at = 0;
  ev.duration = 0;
  ev.fifo = sim::FaultFifo::kInput;
  injector.schedule(ev);
  accel.attach_fault_injector(&injector);
  accel.write_reg(hw::kRegWatchdog, 0);

  const std::vector<gen::SequencePair> pairs = {{0, "ACGTACGT", "ACGGACGT"}};
  const BatchLayout layout = encode_input_set(memory, pairs, 0x1000, 0x9000);
  Driver driver(accel);
  driver.start(layout, /*backtrace=*/false);
  const RunStatus status = driver.wait_idle(20'000);

  EXPECT_EQ(status.outcome, RunOutcome::kTimeout);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(status.completed());
  EXPECT_EQ(status.cycles, 20'000u);
  EXPECT_FALSE(accel.idle());  // genuinely stuck, not silently "done"

  // soft reset recovers the device for the next batch.
  driver.soft_reset();
  EXPECT_TRUE(accel.idle());
}

TEST(DriverTimeout, WaitInterruptReportsMissingInterruptAsTimeout) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  hw::Accelerator accel(cfg, memory);
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kFifoStall;
  ev.at = 0;
  ev.duration = 0;
  ev.fifo = sim::FaultFifo::kInput;
  injector.schedule(ev);
  accel.attach_fault_injector(&injector);
  accel.write_reg(hw::kRegWatchdog, 0);

  const std::vector<gen::SequencePair> pairs = {{0, "ACGTACGT", "ACGGACGT"}};
  const BatchLayout layout = encode_input_set(memory, pairs, 0x1000, 0x9000);
  Driver driver(accel);
  driver.start(layout, /*backtrace=*/false, /*enable_interrupt=*/true);
  const RunStatus status = driver.wait_interrupt(20'000);

  EXPECT_EQ(status.outcome, RunOutcome::kTimeout);
  EXPECT_FALSE(status.completed());
  EXPECT_FALSE(accel.interrupt_pending());
}

TEST(DecodeNbt, ReadsPackedWordsInStreamOrder) {
  mem::MainMemory memory(1 << 16);
  BatchLayout layout;
  layout.out_addr = 0x200;
  layout.num_pairs = 5;
  for (std::uint32_t i = 0; i < 5; ++i) {
    memory.write_u32(0x200 + i * 4,
                     hw::pack_nbt_result({true, 100 + i, i}));
  }
  const auto results = decode_nbt_results(memory, layout);
  ASSERT_EQ(results.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(results[i].score, 100 + i);
    EXPECT_EQ(results[i].id, i);
  }
}

// Multi-aligner collection interleaves completion order; the sorted
// decoder restores id order so callers can index results by pair id.
TEST(DecodeNbt, SortedDecoderRestoresIdOrder) {
  mem::MainMemory memory(1 << 16);
  BatchLayout layout;
  layout.out_addr = 0x200;
  layout.num_pairs = 5;
  const std::uint32_t stream_ids[5] = {3, 0, 4, 1, 2};
  for (std::uint32_t i = 0; i < 5; ++i) {
    memory.write_u32(0x200 + i * 4,
                     hw::pack_nbt_result({true, 100 + stream_ids[i],
                                          stream_ids[i]}));
  }
  const auto results = decode_nbt_results_sorted(memory, layout);
  ASSERT_EQ(results.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(results[i].id, i);
    EXPECT_EQ(results[i].score, 100 + i);
  }
}

// An aborted run leaves the tail of the result area unwritten; the
// tolerant decoder must stop at what the DMA actually delivered instead of
// decoding stale memory as results.
TEST(DecodeNbt, PartialDecodeStopsAtWrittenBeats) {
  mem::MainMemory memory(1 << 16);
  BatchLayout layout;
  layout.out_addr = 0x200;
  layout.num_pairs = 5;
  for (std::uint32_t i = 0; i < 5; ++i) {
    memory.write_u32(0x200 + i * 4,
                     hw::pack_nbt_result({true, 100 + i, i}));
  }
  // One 16-byte beat written = four decodable words, not five.
  const auto partial = try_decode_nbt_results(memory, layout, 1);
  ASSERT_EQ(partial.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(partial[i].id, i);
  }
  // Zero beats written decodes nothing; enough beats decodes everything.
  EXPECT_TRUE(try_decode_nbt_results(memory, layout, 0).empty());
  EXPECT_EQ(try_decode_nbt_results(memory, layout, 2).size(), 5u);
}

// The strict decoder trusts num_pairs; aiming it past the end of memory
// must die on the memory bounds check, not read garbage.
TEST(DecodeNbtDeathTest, ShortResultAreaIsLoud) {
  mem::MainMemory memory(1 << 12);
  BatchLayout layout;
  layout.out_addr = (1 << 12) - 8;  // room for two words, not five
  layout.num_pairs = 5;
  EXPECT_DEATH((void)decode_nbt_results(memory, layout), "OOB");
}

}  // namespace
}  // namespace wfasic::drv
