// Decode-robustness fuzzing: the one reader of each result format —
// try_parse_bt_stream and try_decode_nbt_results — plus
// try_reconstruct_alignment and the harvest_verified_results pipeline
// over them must reject arbitrary garbage cleanly: random buffers,
// truncated streams and bit-flipped valid streams never crash, never read
// out of bounds (the suite runs under -DWFASIC_SANITIZE in CI) and never
// yield a result that fails verification. The strict entry points are the
// same readers aborting (WFASIC_REQUIRE) on the first anomaly, so only
// the tolerant verdict is fuzzed; the verdicts are compared in
// test_bt_robustness.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/prng.hpp"
#include "core/wfa.hpp"
#include "drv/backtrace_cpu.hpp"
#include "drv/driver.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/input_format.hpp"
#include "hw/result_format.hpp"
#include "mem/main_memory.hpp"

namespace wfasic {
namespace {

constexpr std::uint64_t kInAddr = 0x1000;
constexpr std::uint64_t kOutAddr = 0x400000;

std::vector<gen::SequencePair> make_pairs(std::size_t count,
                                          std::size_t base_len,
                                          std::uint64_t seed = 4242) {
  Prng prng(seed);
  std::vector<gen::SequencePair> pairs;
  for (std::size_t i = 0; i < count; ++i) {
    std::string a = gen::random_sequence(prng, base_len + i);
    const std::string b = gen::mutate_sequence(prng, a, 0.08);
    pairs.push_back({static_cast<std::uint32_t>(i), std::move(a), b});
  }
  return pairs;
}

void fill_random(mem::MainMemory& memory, std::uint64_t addr,
                 std::size_t bytes, Prng& prng) {
  std::vector<std::uint8_t> buf(bytes);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(prng.next_u64());
  memory.write(addr, buf);
}

// ---------------------------------------------------------------------------
// Pure-garbage buffers

TEST(DecodeFuzz, RandomBuffersThroughBtScanNeverCrash) {
  mem::MainMemory memory(8 << 20);
  Prng prng(1);
  for (int round = 0; round < 50; ++round) {
    const std::size_t bytes =
        static_cast<std::size_t>(prng.next_below(64)) * mem::kBeatBytes;
    fill_random(memory, kOutAddr, bytes == 0 ? mem::kBeatBytes : bytes, prng);
    for (const bool crc : {false, true}) {
      const drv::BtStreamScan scan = drv::try_parse_bt_stream(
          memory, kOutAddr, bytes, /*num_pairs=*/8, /*separate_data=*/true,
          nullptr, crc, static_cast<std::uint32_t>(prng.next_u64()));
      // Whatever it salvaged must at least be internally consistent ids.
      for (const drv::BtAlignment& bt : scan.alignments) {
        EXPECT_LT(bt.id, 8u);
      }
      if (bytes == 0) {
        EXPECT_TRUE(scan.alignments.empty());
      }
    }
  }
}

TEST(DecodeFuzz, RandomBuffersThroughNbtPartialNeverCrash) {
  mem::MainMemory memory(8 << 20);
  Prng prng(2);
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t beats = prng.next_below(32);
    fill_random(memory, kOutAddr,
                static_cast<std::size_t>((beats + 1) * mem::kBeatBytes), prng);
    for (const bool crc : {false, true}) {
      drv::BatchLayout layout;
      layout.out_addr = kOutAddr;
      layout.num_pairs = 8;
      layout.crc = crc;
      layout.crc_salt = static_cast<std::uint32_t>(prng.next_u64());
      // Id-range filtering is the caller's job (each_id_exactly_once /
      // harvest_verified_results); the decoder only guarantees it never
      // crashes, never reads past the written beats, and never returns
      // more records than the layout holds.
      const auto results =
          drv::try_decode_nbt_results(memory, layout, beats);
      EXPECT_LE(results.size(), layout.num_pairs);
    }
  }
}

TEST(DecodeFuzz, RandomBacktracePayloadsNeverReconstructToNonsense) {
  Prng prng(3);
  hw::AcceleratorConfig cfg;
  const auto pairs = make_pairs(1, 80);
  for (int round = 0; round < 100; ++round) {
    drv::BtAlignment bt;
    bt.id = 0;
    bt.success = true;
    bt.score = static_cast<std::uint16_t>(prng.next_u64());
    bt.k_reached = static_cast<std::int16_t>(prng.next_below(200)) - 100;
    bt.payload.resize(prng.next_below(40) * 10);
    for (std::uint8_t& b : bt.payload) {
      b = static_cast<std::uint8_t>(prng.next_u64());
    }
    const char* why = nullptr;
    const auto result = drv::try_reconstruct_alignment(
        bt, pairs[0].a, pairs[0].b, cfg, &why);
    if (result.has_value()) {
      // The deep self-checks passed: the CIGAR must actually re-score to
      // the reported score over the real sequences.
      EXPECT_TRUE(result->ok);
      EXPECT_EQ(result->score, bt.score);
    }
  }
}

// ---------------------------------------------------------------------------
// Truncations and bit flips of genuine streams

class StreamFuzz : public ::testing::Test {
 protected:
  void run_genuine(bool crc, bool backtrace) {
    memory_ = std::make_unique<mem::MainMemory>(32 << 20);
    cfg_ = hw::AcceleratorConfig{};
    cfg_.crc = crc;
    accel_ = std::make_unique<hw::Accelerator>(cfg_, *memory_);
    pairs_ = make_pairs(6, 120);
    layout_ = drv::encode_input_set(*memory_, pairs_, kInAddr, kOutAddr, 0,
                                    crc, /*crc_salt=*/77);
    drv::Driver driver(*accel_);
    ASSERT_EQ(driver.run(layout_, backtrace).outcome, drv::RunOutcome::kOk);
    beats_ = accel_->dma().beats_written();
  }

  std::unique_ptr<mem::MainMemory> memory_;
  std::unique_ptr<hw::Accelerator> accel_;
  hw::AcceleratorConfig cfg_;
  std::vector<gen::SequencePair> pairs_;
  drv::BatchLayout layout_;
  std::uint64_t beats_ = 0;
};

TEST_F(StreamFuzz, EveryBtTruncationPointIsHandled) {
  run_genuine(/*crc=*/true, /*backtrace=*/true);
  for (std::uint64_t keep = 0; keep <= beats_; ++keep) {
    const drv::BtStreamScan scan = drv::try_parse_bt_stream(
        *memory_, layout_.out_addr, keep * mem::kBeatBytes, pairs_.size(),
        /*separate_data=*/true, nullptr, true, 77);
    EXPECT_LE(scan.alignments.size(), pairs_.size());
    if (keep < beats_) {
      EXPECT_FALSE(scan.clean());  // something is missing
    }
  }
}

TEST_F(StreamFuzz, EveryNbtTruncationPointIsHandled) {
  run_genuine(/*crc=*/true, /*backtrace=*/false);
  for (std::uint64_t keep = 0; keep <= beats_; ++keep) {
    const auto results =
        drv::try_decode_nbt_results(*memory_, layout_, keep);
    EXPECT_LE(results.size(),
              keep * hw::nbt_records_per_beat(true));
    for (const hw::NbtResult& r : results) EXPECT_LT(r.id, pairs_.size());
  }
}

TEST_F(StreamFuzz, BitFlippedBtStreamsNeverYieldUnverifiedAlignments) {
  run_genuine(/*crc=*/true, /*backtrace=*/true);
  Prng prng(11);
  const std::uint64_t bytes = beats_ * mem::kBeatBytes;
  for (int round = 0; round < 60; ++round) {
    const std::uint64_t addr = layout_.out_addr + prng.next_below(bytes);
    const unsigned bit = static_cast<unsigned>(prng.next_below(8));
    memory_->flip_bit(addr, bit);
    const drv::BtStreamScan scan = drv::try_parse_bt_stream(
        *memory_, layout_.out_addr, bytes, pairs_.size(),
        /*separate_data=*/true, nullptr, true, 77);
    // Accepted alignments passed their stream CRC; reconstruction must
    // then also verify or cleanly refuse.
    for (const drv::BtAlignment& bt : scan.alignments) {
      ASSERT_LT(bt.id, pairs_.size());
      const char* why = nullptr;
      const auto rec = drv::try_reconstruct_alignment(
          bt, pairs_[bt.id].a, pairs_[bt.id].b, cfg_, &why);
      if (rec.has_value()) {
        EXPECT_EQ(rec->score, bt.score);
      }
    }
    memory_->flip_bit(addr, bit);  // restore for the next round
  }
}

TEST_F(StreamFuzz, BitFlippedStreamsThroughHarvestStayVerified) {
  run_genuine(/*crc=*/true, /*backtrace=*/true);
  core::WfaConfig ref_cfg;
  ref_cfg.pen = cfg_.pen;
  ref_cfg.traceback = core::Traceback::kEnabled;
  core::WfaAligner ref(ref_cfg);
  Prng prng(12);
  const std::uint64_t bytes = beats_ * mem::kBeatBytes;
  for (int round = 0; round < 40; ++round) {
    const std::uint64_t addr = layout_.out_addr + prng.next_below(bytes);
    const unsigned bit = static_cast<unsigned>(prng.next_below(8));
    memory_->flip_bit(addr, bit);
    const auto harvest = drv::harvest_verified_results(
        *memory_, layout_, beats_, /*backtrace=*/true, pairs_, cfg_);
    for (const drv::HarvestedPair& h : harvest) {
      ASSERT_LT(h.local_id, pairs_.size());
      if (!h.hw_rejected) {
        const auto expected =
            ref.align(pairs_[h.local_id].a, pairs_[h.local_id].b);
        EXPECT_EQ(h.result.score, expected.score) << "round " << round;
      }
    }
    memory_->flip_bit(addr, bit);
  }
}

}  // namespace
}  // namespace wfasic
