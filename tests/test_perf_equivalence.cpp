// Differential tests for the wall-clock fast paths: every host-side
// optimisation must be observationally identical to the exact slow path
// it replaces. Three families are covered:
//
//  1. The stepping fast path vs exact per-cycle stepping (idle_skip off —
//     the reference; idle_skip on — quiet-span skips and macro-steps).
//     Simulated cycle counts, decoded results, the entire output memory
//     image and the full PMU bank must match bit for bit — with the
//     watchdog disarmed (fast path active mid-run), with the watchdog
//     armed (fast path suppressed while running), and across seeded
//     fault campaigns (injector attached, fast path suppressed entirely,
//     faulty timeline and error latching replayed exactly).
//
//  2. The word-parallel (64-bit XOR+ctz) extend kernel vs the reference
//     byte/block loops in core::WfaAligner and core::WfaLinearAligner:
//     scores, CIGARs and every probe counter must match, including on
//     inputs with 'N' bases where the word path must fall back.
//
//  3. Driver wait loops over the batched stepper vs what a per-cycle
//     poll would observe: completion is detected at the same cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "core/wfa.hpp"
#include "core/wfa_linear.hpp"
#include "drv/driver.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/perf.hpp"
#include "hw/regs.hpp"
#include "mem/main_memory.hpp"
#include "sim/fault_injector.hpp"

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

/// The two stepping strategies under differential test: exact stepping
/// (idle_skip off) is the reference, and the fast path (idle_skip on)
/// must be observationally indistinguishable from it.
hw::AcceleratorConfig stepping_cfg(bool fast) {
  hw::AcceleratorConfig cfg;
  cfg.idle_skip = fast;
  return cfg;
}

/// Everything observable about one accelerator run: the simulated
/// timeline, the error state, the full PMU bank and the complete output
/// memory image.
struct RunObservation {
  sim::cycle_t final_now = 0;
  std::uint64_t run_cycles = 0;
  std::uint64_t wait_cycles = 0;
  std::uint32_t err_status = 0;
  drv::RunOutcome outcome = drv::RunOutcome::kOk;
  hw::PerfSnapshot perf;
  std::vector<std::uint8_t> memory;

  friend bool operator==(const RunObservation&,
                         const RunObservation&) = default;
};

RunObservation run_batch(const std::vector<gen::SequencePair>& pairs,
                         bool backtrace, bool fast, bool disarm_watchdog,
                         sim::FaultInjector* injector = nullptr) {
  mem::MainMemory memory(kMemBytes);
  hw::Accelerator accel(stepping_cfg(fast), memory);
  if (injector != nullptr) accel.attach_fault_injector(injector);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
  drv::Driver driver(accel);
  driver.start(layout, backtrace);
  if (disarm_watchdog) accel.write_reg(hw::kRegWatchdog, 0);
  RunObservation obs;
  const drv::RunStatus status = driver.wait_idle();
  obs.outcome = status.outcome;
  obs.wait_cycles = status.cycles;
  obs.final_now = accel.now();
  obs.run_cycles = accel.last_run_cycles();
  obs.err_status = accel.read_reg(hw::kRegErrStatus);
  obs.perf = accel.perf_counters();
  obs.memory.resize(kMemBytes);
  memory.read(0, obs.memory);
  return obs;
}

/// Runs one batch exact and fast and expects identical observations.
void expect_strategies_identical(const std::vector<gen::SequencePair>& pairs,
                                 bool backtrace, bool disarm_watchdog) {
  EXPECT_EQ(run_batch(pairs, backtrace, /*fast=*/false, disarm_watchdog),
            run_batch(pairs, backtrace, /*fast=*/true, disarm_watchdog));
}

TEST(IdleSkipEquivalence, NbtRunBitIdentical) {
  expect_strategies_identical(make_pairs(101, 6, 150, 0.08),
                              /*backtrace=*/false, /*disarm_watchdog=*/true);
}

TEST(IdleSkipEquivalence, BtRunBitIdentical) {
  expect_strategies_identical(make_pairs(102, 5, 120, 0.06),
                              /*backtrace=*/true, /*disarm_watchdog=*/true);
}

TEST(IdleSkipEquivalence, WatchdogArmedBitIdentical) {
  // With the (default) watchdog armed, the fast paths are suppressed
  // while the run is in flight; the run must still complete identically
  // and the watchdog must still observe real progress.
  expect_strategies_identical(make_pairs(103, 4, 100, 0.05),
                              /*backtrace=*/false, /*disarm_watchdog=*/false);
}

TEST(IdleSkipEquivalence, FaultCampaignBitIdentical) {
  // A fault injector forces exact stepping regardless of the configured
  // strategy: the whole faulty timeline — error latching included — must
  // replay bit-identically under both. Several seeds so campaigns that
  // trip different error paths (bit flips absorbed vs AXI aborts) are all
  // exercised.
  const auto pairs = make_pairs(104, 4, 120, 0.08);
  for (const std::uint64_t seed : {7u, 19u, 43u}) {
    sim::FaultInjector::CampaignConfig fc;
    fc.mem_begin = kInAddr;
    fc.mem_end = kInAddr + 0x400;
    fc.mem_bit_flips = 2;
    fc.axi_errors = 1;
    fc.cycle_window = 20'000;
    sim::FaultInjector inj_exact = sim::FaultInjector::make_campaign(seed, fc);
    sim::FaultInjector inj_fast = sim::FaultInjector::make_campaign(seed, fc);
    EXPECT_EQ(run_batch(pairs, false, /*fast=*/false,
                        /*disarm_watchdog=*/true, &inj_exact),
              run_batch(pairs, false, /*fast=*/true,
                        /*disarm_watchdog=*/true, &inj_fast))
        << "seed " << seed;
  }
}

TEST(IdleSkipEquivalence, InterruptWaitBitIdentical) {
  // The interrupt-driven wait path uses the same run-until-event stepper;
  // the interrupt must be seen at the same simulated cycle under both
  // strategies.
  const auto pairs = make_pairs(105, 3, 90, 0.05);
  auto run = [&](bool fast) {
    mem::MainMemory memory(kMemBytes);
    hw::Accelerator accel(stepping_cfg(fast), memory);
    const drv::BatchLayout layout =
        drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
    drv::Driver driver(accel);
    driver.start(layout, false, /*enable_interrupt=*/true);
    accel.write_reg(hw::kRegWatchdog, 0);
    (void)driver.wait_interrupt();
    return accel.now();
  };
  EXPECT_EQ(run(/*fast=*/false), run(/*fast=*/true));
}

TEST(IdleSkipEquivalence, BackToBackRunsBitIdentical) {
  // Two launches on the same accelerator instance: the idle gap between
  // runs is skipped, the register pokes land between probes, and the
  // second run must still be bit-identical.
  auto run_two = [&](bool fast) {
    mem::MainMemory memory(kMemBytes);
    hw::Accelerator accel(stepping_cfg(fast), memory);
    drv::Driver driver(accel);
    std::vector<sim::cycle_t> stamps;
    for (const std::uint64_t seed : {106u, 107u}) {
      const auto pairs = make_pairs(seed, 4, 110, 0.07);
      const drv::BatchLayout layout =
          drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
      driver.start(layout, seed % 2 == 0);
      accel.write_reg(hw::kRegWatchdog, 0);
      (void)driver.wait_idle();
      stamps.push_back(accel.now());
    }
    std::vector<std::uint8_t> image(kMemBytes);
    memory.read(0, image);
    return std::pair(stamps, image);
  };
  EXPECT_EQ(run_two(/*fast=*/false), run_two(/*fast=*/true));
}

// ---------------------------------------------------------------------------
// Word-parallel extend vs reference kernels.
// ---------------------------------------------------------------------------

/// Probe counters as a comparable value (mem_trace excluded).
std::vector<std::uint64_t> probe_values(const core::WfaProbe& p) {
  return {p.score_iterations, p.wavefronts_computed, p.cells_computed,
          p.extend_cells,     p.chars_compared,      p.blocks_compared,
          p.wf_cells_read,    p.wf_cells_written,    p.bt_steps,
          p.wf_bytes_allocated, p.peak_live_wf_bytes};
}

void expect_wfa_paths_identical(const std::string& a, const std::string& b,
                                core::ExtendMode mode,
                                core::Traceback traceback) {
  core::WfaConfig ref_cfg;
  ref_cfg.extend = mode;
  ref_cfg.traceback = traceback;
  ref_cfg.reference_extend = true;
  core::WfaConfig fast_cfg = ref_cfg;
  fast_cfg.reference_extend = false;

  core::WfaAligner ref(ref_cfg);
  core::WfaAligner fast(fast_cfg);
  const core::AlignResult r = ref.align(a, b);
  const core::AlignResult f = fast.align(a, b);
  EXPECT_EQ(r.ok, f.ok);
  EXPECT_EQ(r.score, f.score);
  EXPECT_EQ(r.cigar.str(), f.cigar.str());
  EXPECT_EQ(probe_values(ref.probe()), probe_values(fast.probe()));
}

TEST(WordExtendEquivalence, WfaAllModesRandomPairs) {
  Prng prng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    const std::string a = gen::random_sequence(prng, 80 + trial * 37);
    const std::string b = gen::mutate_sequence(prng, a, 0.10);
    for (const auto mode :
         {core::ExtendMode::kScalar, core::ExtendMode::kBlocked}) {
      for (const auto tb :
           {core::Traceback::kEnabled, core::Traceback::kDisabled}) {
        expect_wfa_paths_identical(a, b, mode, tb);
      }
    }
  }
}

TEST(WordExtendEquivalence, WfaFallsBackOnAmbiguousBases) {
  // 'N' bases keep the word kernel off (it only packs ACGT); both paths
  // must still agree exactly via the byte-wise comparison.
  const std::string a = "ACGTNACGTACGTTTTNACGT";
  const std::string b = "ACGTNACGAACGTTTTNACGT";
  expect_wfa_paths_identical(a, b, core::ExtendMode::kScalar,
                             core::Traceback::kEnabled);
}

TEST(WordExtendEquivalence, WfaEdgeShapes) {
  for (const auto& [a, b] :
       std::vector<std::pair<std::string, std::string>>{
           {"A", "A"},
           {"A", "C"},
           {"ACGT", "ACGT"},
           {std::string(64, 'G'), std::string(64, 'G')},
           {std::string(33, 'T'), std::string(31, 'T')},
           {"ACGTACGTACGTACGTACGTACGTACGTACGTA",  // 33: crosses a word
            "ACGTACGTACGTACGTACGTACGTACGTACGTC"},
       }) {
    expect_wfa_paths_identical(a, b, core::ExtendMode::kScalar,
                               core::Traceback::kEnabled);
    expect_wfa_paths_identical(a, b, core::ExtendMode::kBlocked,
                               core::Traceback::kDisabled);
  }
}

TEST(WordExtendEquivalence, WfaLinearMatchesReference) {
  Prng prng(555);
  for (int trial = 0; trial < 6; ++trial) {
    const std::string a = gen::random_sequence(prng, 60 + trial * 29);
    const std::string b = gen::mutate_sequence(prng, a, 0.12);
    for (const auto tb :
         {core::Traceback::kEnabled, core::Traceback::kDisabled}) {
      core::WfaLinearConfig ref_cfg;
      ref_cfg.traceback = tb;
      ref_cfg.reference_extend = true;
      core::WfaLinearConfig fast_cfg = ref_cfg;
      fast_cfg.reference_extend = false;
      core::WfaLinearAligner ref(ref_cfg);
      core::WfaLinearAligner fast(fast_cfg);
      const core::AlignResult r = ref.align(a, b);
      const core::AlignResult f = fast.align(a, b);
      EXPECT_EQ(r.ok, f.ok);
      EXPECT_EQ(r.score, f.score);
      EXPECT_EQ(r.cigar.str(), f.cigar.str());
    }
  }
}

TEST(WordExtendEquivalence, WfaLinearFallsBackOnAmbiguousBases) {
  core::WfaLinearConfig ref_cfg;
  ref_cfg.reference_extend = true;
  core::WfaLinearConfig fast_cfg;
  fast_cfg.reference_extend = false;
  core::WfaLinearAligner ref(ref_cfg);
  core::WfaLinearAligner fast(fast_cfg);
  const std::string a = "NNACGTACGTNN";
  const std::string b = "NNACGAACGTNN";
  const core::AlignResult r = ref.align(a, b);
  const core::AlignResult f = fast.align(a, b);
  EXPECT_EQ(r.score, f.score);
  EXPECT_EQ(r.cigar.str(), f.cigar.str());
}

}  // namespace
}  // namespace wfasic
