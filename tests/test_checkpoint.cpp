// Differential tests for the checkpoint/restore subsystem (ISSUE 9,
// docs/RELIABILITY.md §7). Two families:
//
//  1. Bit-identity: a run that is checkpointed, or snapshotted mid-run and
//     restored onto a *fresh* device, must finish observationally identical
//     to an uninterrupted run — simulated cycle count, error state, the
//     full PMU bank and the complete output memory image — under both
//     stepping strategies (exact / fast), across strategies (a blob saved
//     under one strategy resumed under the other), and mid-fault-campaign
//     with the injector runtime carried through a kStrict restore.
//
//  2. Blob hardening: corrupted, truncated, version-skewed, config-skewed
//     and garbage blobs must be rejected with the right typed
//     sim::SnapshotError while the target device is left untouched —
//     restore fails loudly, never resumes silently wrong state.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "drv/driver.hpp"
#include "engine/engine.hpp"
#include "engine/hw_backend.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/perf.hpp"
#include "hw/regs.hpp"
#include "mem/main_memory.hpp"
#include "sim/fault_injector.hpp"
#include "sim/snapshot.hpp"

namespace wfasic {
namespace {

constexpr std::uint64_t kInAddr = 0x1000;
constexpr std::uint64_t kOutAddr = 0x100000;
constexpr std::size_t kMemBytes = 8u << 20;

std::vector<gen::SequencePair> make_pairs(std::uint64_t seed,
                                          std::size_t count,
                                          std::size_t base_len,
                                          double error_rate) {
  Prng prng(seed);
  std::vector<gen::SequencePair> pairs;
  for (std::size_t i = 0; i < count; ++i) {
    std::string a = gen::random_sequence(prng, base_len + i);
    const std::string b = gen::mutate_sequence(prng, a, error_rate);
    pairs.push_back({static_cast<std::uint32_t>(i), std::move(a), b});
  }
  return pairs;
}

/// Same exact-vs-fast matrix as tests/test_perf_equivalence.cpp: every
/// checkpoint property must hold under both stepping strategies.
enum class StepStrategy { kExact, kFast };

constexpr StepStrategy kAllStrategies[] = {StepStrategy::kExact,
                                           StepStrategy::kFast};

const char* strategy_name(StepStrategy s) {
  return s == StepStrategy::kExact ? "exact" : "fast";
}

hw::AcceleratorConfig make_cfg(StepStrategy s) {
  hw::AcceleratorConfig cfg;
  cfg.idle_skip = s == StepStrategy::kFast;
  return cfg;
}

/// One device under test: memory + accelerator + driver, constructed
/// together so lifetimes line up.
struct Device {
  mem::MainMemory memory;
  hw::Accelerator accel;
  drv::Driver driver;

  explicit Device(const hw::AcceleratorConfig& cfg)
      : memory(kMemBytes), accel(cfg, memory), driver(accel) {}
  explicit Device(StepStrategy s) : Device(make_cfg(s)) {}
};

/// Everything observable about a finished run.
struct Observation {
  sim::cycle_t final_now = 0;
  std::uint64_t run_cycles = 0;
  std::uint32_t err_status = 0;
  hw::PerfSnapshot perf;
  std::vector<std::uint8_t> memory;

  friend bool operator==(const Observation&, const Observation&) = default;
};

Observation observe(const Device& d) {
  Observation obs;
  obs.final_now = d.accel.now();
  obs.run_cycles = d.accel.last_run_cycles();
  obs.err_status = d.accel.read_reg(hw::kRegErrStatus);
  obs.perf = d.accel.perf_counters();
  obs.memory.resize(kMemBytes);
  d.memory.read(0, obs.memory);
  return obs;
}

void launch(Device& d, const std::vector<gen::SequencePair>& pairs,
            bool backtrace) {
  const drv::BatchLayout layout =
      drv::encode_input_set(d.memory, pairs, kInAddr, kOutAddr);
  d.driver.start(layout, backtrace);
  d.accel.write_reg(hw::kRegWatchdog, 0);
}

/// The uninterrupted reference: one plain wait_idle run.
Observation reference_run(const std::vector<gen::SequencePair>& pairs,
                          bool backtrace, StepStrategy s,
                          sim::FaultInjector* injector = nullptr) {
  Device d(s);
  if (injector != nullptr) d.accel.attach_fault_injector(injector);
  launch(d, pairs, backtrace);
  (void)d.driver.wait_idle();
  return observe(d);
}

// ---------------------------------------------------------------------------
// Bit-identity under checkpointing.
// ---------------------------------------------------------------------------

/// HwBackend settings for a device borrowed from a Device: the test's
/// arena and a small poll quantum, so a run crosses many poll boundaries.
engine::HwBackendConfig backend_config(StepStrategy s) {
  engine::HwBackendConfig cfg;
  cfg.accel = make_cfg(s);
  cfg.in_addr = kInAddr;
  cfg.out_addr = kOutAddr;
  cfg.poll_quantum = 512;
  return cfg;
}

TEST(CheckpointEquivalence, CheckpointedWaitBitIdentical) {
  // HwBackendConfig::checkpoint_interval snapshots the device at poll
  // boundaries while a run is in flight; the capture must never perturb
  // the simulation. The same batch goes through a borrowing K=1 Engine
  // with checkpointing on and off.
  for (const bool backtrace : {false, true}) {
    const auto pairs = make_pairs(backtrace ? 902 : 901, 5, 140, 0.07);
    for (const StepStrategy s : kAllStrategies) {
      const auto run = [&](std::uint64_t interval,
                           std::uint64_t& checkpoints) {
        Device d(s);
        engine::EngineConfig cfg;
        cfg.device = backend_config(s);
        cfg.device.checkpoint_interval = interval;
        engine::Engine eng(cfg, d.memory, d.accel);
        (void)eng.run_batch(pairs, backtrace, /*separate_data=*/false);
        checkpoints = eng.metrics().recovery.checkpoints;
        return observe(d);
      };
      std::uint64_t off_checkpoints = 0;
      std::uint64_t on_checkpoints = 0;
      const Observation off = run(0, off_checkpoints);
      const Observation on = run(1000, on_checkpoints);
      EXPECT_EQ(off_checkpoints, 0u);
      EXPECT_GT(on_checkpoints, 0u)
          << "run too short to checkpoint at interval 1000";
      EXPECT_EQ(off, on)
          << "strategy: " << strategy_name(s) << ", bt=" << backtrace;
    }
  }
}

TEST(CheckpointEquivalence, MidRunRestoreResumesBitIdentical) {
  // Snapshot mid-run, restore onto a freshly constructed device, resume:
  // the migrated run must finish bit-identically to the uninterrupted
  // reference — clock continuity included (the restored device continues
  // the source timeline).
  for (const bool backtrace : {false, true}) {
    const auto pairs = make_pairs(backtrace ? 912 : 911, 5, 130, 0.06);
    for (const StepStrategy s : kAllStrategies) {
      const Observation ref = reference_run(pairs, backtrace, s);
      ASSERT_GT(ref.final_now, 100u);
      for (const double fraction : {0.25, 0.6}) {
        const auto cut =
            static_cast<std::uint64_t>(ref.final_now * fraction);
        Device src(s);
        launch(src, pairs, backtrace);
        src.accel.advance(cut);
        ASSERT_FALSE(src.accel.idle())
            << "cut point " << cut << " landed after completion";
        const std::vector<std::uint8_t> blob = src.accel.snapshot();

        Device dst(s);
        ASSERT_EQ(dst.accel.restore(blob), std::nullopt);
        (void)dst.driver.wait_idle();
        EXPECT_EQ(ref, observe(dst))
            << "strategy: " << strategy_name(s) << ", bt=" << backtrace
            << ", cut=" << cut;
      }
    }
  }
}

TEST(CheckpointEquivalence, CrossStrategyRestoreBitIdentical) {
  // The config signature deliberately excludes the stepping-strategy
  // knobs: a checkpoint taken under one strategy must resume under any
  // other, still bit-identical to the exact-stepping reference.
  const auto pairs = make_pairs(921, 4, 120, 0.08);
  const Observation ref =
      reference_run(pairs, /*backtrace=*/true, StepStrategy::kExact);
  for (const StepStrategy save_s : kAllStrategies) {
    Device src(save_s);
    launch(src, pairs, true);
    src.accel.advance(ref.final_now / 2);
    ASSERT_FALSE(src.accel.idle());
    const std::vector<std::uint8_t> blob = src.accel.snapshot();
    for (const StepStrategy resume_s : kAllStrategies) {
      Device dst(resume_s);
      ASSERT_EQ(dst.accel.restore(blob), std::nullopt);
      (void)dst.driver.wait_idle();
      EXPECT_EQ(ref, observe(dst))
          << "saved under " << strategy_name(save_s) << ", resumed under "
          << strategy_name(resume_s);
    }
  }
}

sim::FaultInjector::CampaignConfig campaign_config() {
  sim::FaultInjector::CampaignConfig fc;
  fc.mem_begin = kInAddr;
  fc.mem_end = kInAddr + 0x400;
  fc.mem_bit_flips = 2;
  fc.axi_errors = 1;
  fc.cycle_window = 20'000;
  return fc;
}

TEST(CheckpointEquivalence, MidFaultCampaignRestoreBitIdentical) {
  // Checkpoints taken mid-fault-campaign: the blob carries the injector
  // runtime (clock + fired flags), and a kStrict restore onto a device
  // wired with the identical schedule replays the remaining faults —
  // error latching included — exactly as the uninterrupted run does.
  const auto pairs = make_pairs(931, 4, 120, 0.08);
  for (const std::uint64_t seed : {7u, 19u, 43u}) {
    const sim::FaultInjector::CampaignConfig fc = campaign_config();
    sim::FaultInjector ref_inj = sim::FaultInjector::make_campaign(seed, fc);
    const Observation ref =
        reference_run(pairs, false, StepStrategy::kExact, &ref_inj);

    sim::FaultInjector src_inj = sim::FaultInjector::make_campaign(seed, fc);
    Device src(StepStrategy::kExact);
    src.accel.attach_fault_injector(&src_inj);
    launch(src, pairs, false);
    src.accel.advance(ref.final_now / 2);
    if (src.accel.idle()) continue;  // faulted run aborted before the cut
    const std::vector<std::uint8_t> blob = src.accel.snapshot();

    sim::FaultInjector dst_inj = sim::FaultInjector::make_campaign(seed, fc);
    Device dst(StepStrategy::kExact);
    dst.accel.attach_fault_injector(&dst_inj);
    ASSERT_EQ(dst.accel.restore(blob, hw::InjectorRestorePolicy::kStrict),
              std::nullopt)
        << "seed " << seed;
    (void)dst.driver.wait_idle();
    EXPECT_EQ(ref, observe(dst)) << "seed " << seed;
  }
}

TEST(CheckpointEquivalence, IdleRoundTripBlobStable) {
  // snapshot → restore → snapshot must reproduce the original blob byte
  // for byte: the dirty working set, every component section and the
  // register file all survive the round trip exactly.
  const auto pairs = make_pairs(951, 4, 110, 0.05);
  Device src(StepStrategy::kFast);
  launch(src, pairs, false);
  (void)src.driver.wait_idle();
  const std::vector<std::uint8_t> blob = src.accel.snapshot();

  Device dst(StepStrategy::kFast);
  ASSERT_EQ(dst.accel.restore(blob), std::nullopt);
  EXPECT_EQ(blob, dst.accel.snapshot());
}

TEST(CheckpointEquivalence, BlobSizeDoesNotGrowAcrossLaunches) {
  // A blob carries one run's per-pair records, not those of every launch
  // since the device was built: the same batch leaves a blob of the same
  // size after 1 launch and after 100.
  const auto pairs = make_pairs(953, 4, 110, 0.05);
  Device d(StepStrategy::kFast);
  launch(d, pairs, false);
  (void)d.driver.wait_idle();
  const std::size_t after_one = d.accel.snapshot().size();
  for (int run = 1; run < 100; ++run) {
    launch(d, pairs, false);
    (void)d.driver.wait_idle();
  }
  EXPECT_EQ(d.accel.snapshot().size(), after_one);
}

// ---------------------------------------------------------------------------
// Blob hardening: reject loudly, never resume silently wrong state.
// ---------------------------------------------------------------------------

/// A mid-run blob for fuzzing: real content in every section.
std::vector<std::uint8_t> make_fuzz_blob() {
  const auto pairs = make_pairs(961, 3, 100, 0.06);
  Device src(StepStrategy::kExact);
  launch(src, pairs, true);
  src.accel.advance(1500);
  return src.accel.snapshot();
}

TEST(SnapshotFuzz, TruncationRejected) {
  const std::vector<std::uint8_t> blob = make_fuzz_blob();
  Device target(StepStrategy::kExact);
  const auto try_len = [&](std::size_t len) {
    const auto err = target.accel.restore(
        std::span<const std::uint8_t>(blob.data(), len));
    ASSERT_TRUE(err.has_value()) << "length " << len;
    // A truncated blob either loses its trailer (kTruncated) or keeps a
    // CRC that no longer covers the shortened body (kCrcMismatch); both
    // are loud, typed rejections.
    EXPECT_TRUE(*err == sim::SnapshotError::kTruncated ||
                *err == sim::SnapshotError::kCrcMismatch)
        << "length " << len << ": " << snapshot_error_name(*err);
  };
  for (std::size_t len = 0; len < 64 && len < blob.size(); ++len) {
    try_len(len);
  }
  for (std::size_t len = 64; len < blob.size(); len += 97) try_len(len);
  try_len(blob.size() - 1);
  // The device was never touched: a fresh run on it still works.
  const auto pairs = make_pairs(962, 2, 90, 0.05);
  launch(target, pairs, false);
  EXPECT_TRUE(target.driver.wait_idle().ok());
}

TEST(SnapshotFuzz, BitCorruptionRejected) {
  const std::vector<std::uint8_t> blob = make_fuzz_blob();
  Device target(StepStrategy::kExact);
  Prng prng(963);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bad = blob;
    const std::size_t byte = prng.next_below(bad.size());
    bad[byte] ^= static_cast<std::uint8_t>(1u << prng.next_below(8));
    const auto err = target.accel.restore(bad);
    ASSERT_TRUE(err.has_value()) << "flipped byte " << byte;
    // Flips in the magic word surface as kBadMagic (magic is checked
    // before the CRC so foreign blobs get the clearer error); everything
    // else — payload, version word, the trailer itself — as kCrcMismatch.
    EXPECT_TRUE(*err == sim::SnapshotError::kCrcMismatch ||
                (byte < 4 && *err == sim::SnapshotError::kBadMagic))
        << "flipped byte " << byte << ": " << snapshot_error_name(*err);
  }
}

TEST(SnapshotFuzz, BadMagicAndVersionSkewRejected) {
  // Craft blobs with *valid* CRCs so the header checks themselves are
  // exercised, not masked by kCrcMismatch.
  Device target(StepStrategy::kExact);
  {
    sim::SnapshotWriter w(0x600dd065u, hw::Accelerator::kSnapshotVersion);
    const auto blob = std::move(w).finish(hw::Accelerator::kSnapshotCrcSalt);
    EXPECT_EQ(target.accel.restore(blob), sim::SnapshotError::kBadMagic);
  }
  {
    sim::SnapshotWriter w(hw::Accelerator::kSnapshotMagic,
                          hw::Accelerator::kSnapshotVersion + 1);
    const auto blob = std::move(w).finish(hw::Accelerator::kSnapshotCrcSalt);
    EXPECT_EQ(target.accel.restore(blob), sim::SnapshotError::kBadVersion);
  }
  {
    // Right magic and version but an unsalted CRC: the salt must bind the
    // trailer to this container type.
    sim::SnapshotWriter w(hw::Accelerator::kSnapshotMagic,
                          hw::Accelerator::kSnapshotVersion);
    const auto blob = std::move(w).finish(/*crc_salt=*/0);
    EXPECT_EQ(target.accel.restore(blob), sim::SnapshotError::kCrcMismatch);
  }
}

TEST(SnapshotFuzz, ConfigMismatchRejected) {
  // A structurally different device (here: half the parallel sections —
  // different wavefront geometry) must reject the blob before touching
  // any state, even though the blob itself is pristine.
  const std::vector<std::uint8_t> blob = make_fuzz_blob();
  hw::AcceleratorConfig narrow = make_cfg(StepStrategy::kExact);
  narrow.parallel_sections = 32;
  Device target(narrow);
  EXPECT_EQ(target.accel.restore(blob),
            sim::SnapshotError::kConfigMismatch);
}

TEST(SnapshotFuzz, InjectorPolicyGatesCampaignBlobs) {
  // A blob saved mid-campaign carries the injector runtime. kStrict
  // demands a target wired with the identical schedule; kKeepAttached is
  // the failover path — the target keeps its own fault environment (none,
  // here) and the blob's injector runtime is ignored.
  const auto pairs = make_pairs(971, 3, 100, 0.06);
  // Bit flips only — an AXI abort could end the run before the cut point.
  sim::FaultInjector::CampaignConfig fc = campaign_config();
  fc.axi_errors = 0;
  sim::FaultInjector inj = sim::FaultInjector::make_campaign(5, fc);
  Device src(StepStrategy::kExact);
  src.accel.attach_fault_injector(&inj);
  launch(src, pairs, false);
  src.accel.advance(800);
  ASSERT_FALSE(src.accel.idle());
  const std::vector<std::uint8_t> blob = src.accel.snapshot();

  {
    Device bare(StepStrategy::kExact);
    EXPECT_EQ(bare.accel.restore(blob, hw::InjectorRestorePolicy::kStrict),
              sim::SnapshotError::kConfigMismatch)
        << "kStrict must reject a campaign blob without the schedule";
  }
  {
    sim::FaultInjector other = sim::FaultInjector::make_campaign(6, fc);
    Device skewed(StepStrategy::kExact);
    skewed.accel.attach_fault_injector(&other);
    EXPECT_EQ(skewed.accel.restore(blob, hw::InjectorRestorePolicy::kStrict),
              sim::SnapshotError::kConfigMismatch)
        << "kStrict must reject a different fault schedule";
  }
  {
    Device adopted(StepStrategy::kExact);
    EXPECT_EQ(
        adopted.accel.restore(blob, hw::InjectorRestorePolicy::kKeepAttached),
        std::nullopt);
    (void)adopted.driver.wait_idle();
    EXPECT_TRUE(adopted.accel.idle());
  }
}

TEST(SnapshotFuzz, RandomGarbageRejected) {
  Device target(StepStrategy::kExact);
  Prng prng(981);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> junk(prng.next_below(4096));
    for (auto& b : junk) b = static_cast<std::uint8_t>(prng.next_u64());
    EXPECT_TRUE(target.accel.restore(junk).has_value())
        << "garbage blob of " << junk.size() << " bytes accepted";
  }
}

TEST(SnapshotFuzz, RejectedRestoreLeavesMidRunTargetUntouched) {
  // Attempting a (corrupt) restore against a device with its own run in
  // flight must not disturb that run: it still completes bit-identically
  // to a never-interfered-with reference.
  const auto pairs = make_pairs(991, 4, 120, 0.07);
  const Observation ref =
      reference_run(pairs, /*backtrace=*/true, StepStrategy::kFast);

  std::vector<std::uint8_t> bad = make_fuzz_blob();
  bad[bad.size() / 2] ^= 0x40;

  Device d(StepStrategy::kFast);
  launch(d, pairs, true);
  d.accel.advance(ref.final_now / 2);
  ASSERT_FALSE(d.accel.idle());
  EXPECT_EQ(d.accel.restore(bad), sim::SnapshotError::kCrcMismatch);
  (void)d.driver.wait_idle();
  EXPECT_EQ(ref, observe(d));
}

TEST(SnapshotFuzz, AdoptRejectsCorruptBlobLoudly) {
  // The engine's restore-failure path: a migration whose checkpoint no
  // longer validates completes loudly as kDataError on the adopting
  // device. Nothing is resumed, no restore is counted, and the device
  // stays usable.
  const engine::HwBackendConfig cfg = backend_config(StepStrategy::kExact);
  Device src_dev(StepStrategy::kExact);
  engine::HwBackend src(cfg, src_dev.memory, src_dev.accel);
  engine::BatchJob job;
  job.pairs = make_pairs(1001, 3, 400, 0.05);
  const engine::JobHandle handle = src.submit(std::move(job));
  (void)src.poll();
  std::optional<engine::HwBackend::Migration> migration = src.preempt(handle);
  ASSERT_TRUE(migration.has_value()) << "run finished within one poll";
  migration->job.checkpoint[12] ^= 0x01;

  Device dst_dev(StepStrategy::kExact);
  engine::HwBackend dst(cfg, dst_dev.memory, dst_dev.accel);
  (void)dst.adopt(std::move(*migration));
  (void)dst.poll();
  const std::vector<engine::Completion> rejected = dst.drain();
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].outcome, drv::RunOutcome::kDataError);
  EXPECT_EQ(rejected[0].restores, 0u);
  EXPECT_TRUE(dst_dev.accel.idle()) << "nothing may be resumed from a bad blob";

  engine::BatchJob next;
  next.pairs = make_pairs(1002, 2, 120, 0.05);
  const engine::JobHandle next_handle = dst.submit(std::move(next));
  while (dst.poll()) {
  }
  const std::vector<engine::Completion> done = dst.drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].handle.value, next_handle.value);
  EXPECT_EQ(done[0].outcome, drv::RunOutcome::kOk);
}

}  // namespace
}  // namespace wfasic
