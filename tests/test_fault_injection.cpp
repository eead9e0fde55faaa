// Seeded fault-injection campaign over the full accelerator + driver
// stack (the paper's §5.1 broken-data verification, generalised into a
// deterministic campaign framework).
//
// Covered fault classes: input-memory bit flips, AXI SLVERR/DECERR on DMA
// beats, dropped beats, duplicated beats, in-flight beat corruption, and
// FIFO stalls (including the permanent-stall "hard hang" the watchdog
// must catch). The tests assert the three robustness contracts:
//   1. the accelerator never spins to the 4-billion-cycle deadlock guard —
//      every fault ends in an error interrupt with kRegErrStatus naming
//      the cause;
//   2. the engine's resilient path (Engine::run_resilient at K=1, the
//      test's arena and injector on the engine's device) retries,
//      bisects and falls back to software until every batch completes
//      with scores and CIGARs identical to the software core::wfa
//      reference, with pinned launch, retry, fallback and cycle counts;
//   3. campaigns replay exactly: the same (seed, config) produces a
//      bit-identical fault schedule and bit-identical outcomes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/prng.hpp"
#include "core/wfa.hpp"
#include "drv/driver.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/regs.hpp"
#include "mem/main_memory.hpp"
#include "sim/fault_injector.hpp"

namespace wfasic::drv {
namespace {

constexpr std::uint64_t kInAddr = 0x1000;
constexpr std::uint64_t kOutAddr = 0x400000;

std::vector<gen::SequencePair> make_pairs(std::size_t count,
                                          std::size_t base_len) {
  Prng prng(777);
  std::vector<gen::SequencePair> pairs;
  for (std::size_t i = 0; i < count; ++i) {
    std::string a = gen::random_sequence(prng, base_len + i);
    const std::string b = gen::mutate_sequence(prng, a, 0.08);
    pairs.push_back({static_cast<std::uint32_t>(i), std::move(a), b});
  }
  return pairs;
}

core::AlignResult reference_alignment(const gen::SequencePair& pair,
                                      const Penalties& pen) {
  core::WfaConfig cfg;
  cfg.pen = pen;
  cfg.traceback = core::Traceback::kEnabled;
  cfg.extend = core::ExtendMode::kScalar;  // copes with 'N' bases
  core::WfaAligner aligner(cfg);
  return aligner.align(pair.a, pair.b);
}

/// The resilient path at K=1: the engine's device gets the test's 16 MB
/// memory and arena, a 20k-cycle watchdog and `injector`.
engine::ResilientReport run_resilient(
    sim::FaultInjector& injector,
    const std::vector<gen::SequencePair>& pairs) {
  engine::EngineConfig cfg;
  cfg.device.memory_bytes = 16 << 20;
  cfg.device.in_addr = kInAddr;
  cfg.device.out_addr = kOutAddr;
  cfg.device.watchdog = 20'000;
  engine::Engine eng(cfg);
  eng.device(0).attach_fault_injector(&injector);
  return eng.run_resilient(pairs);
}

void expect_matches_reference(const engine::ResilientReport& report,
                              const std::vector<gen::SequencePair>& pairs,
                              const Penalties& pen) {
  ASSERT_EQ(report.outcomes.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const engine::PairOutcome& out = report.outcomes[i];
    const core::AlignResult ref = reference_alignment(pairs[i], pen);
    EXPECT_TRUE(out.resolved) << "pair " << i;
    EXPECT_EQ(out.result.ok, ref.ok) << "pair " << i;
    EXPECT_EQ(out.result.score, ref.score) << "pair " << i;
    EXPECT_EQ(out.result.cigar.rle(), ref.cigar.rle()) << "pair " << i;
  }
}

// ---------------------------------------------------------------------------
// Schedule determinism

TEST(FaultInjection, CampaignScheduleIsDeterministic) {
  sim::FaultInjector::CampaignConfig fc;
  fc.mem_begin = kInAddr;
  fc.mem_end = kInAddr + 4096;
  fc.mem_bit_flips = 5;
  fc.axi_errors = 2;
  fc.dropped_beats = 2;
  fc.duplicated_beats = 2;
  fc.beat_corruptions = 3;
  fc.fifo_stalls = 2;
  const sim::FaultInjector a = sim::FaultInjector::make_campaign(42, fc);
  const sim::FaultInjector b = sim::FaultInjector::make_campaign(42, fc);
  EXPECT_EQ(a.events(), b.events());
  const sim::FaultInjector c = sim::FaultInjector::make_campaign(43, fc);
  EXPECT_NE(a.events(), c.events());
}

// ---------------------------------------------------------------------------
// Single-class faults: the error architecture names the cause, and the run
// ends in bounded time (never the 4-billion-cycle deadlock guard).

TEST(FaultInjection, AxiErrorAbortsRunAndNamesCause) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  hw::Accelerator accel(cfg, memory);
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kAxiError;
  ev.beat = 5;
  injector.schedule(ev);
  accel.attach_fault_injector(&injector);

  const auto pairs = make_pairs(4, 100);
  const BatchLayout layout =
      encode_input_set(memory, pairs, kInAddr, kOutAddr);
  Driver driver(accel);
  driver.start(layout, /*backtrace=*/false);
  const RunStatus status = driver.wait_idle(1'000'000);

  EXPECT_EQ(status.outcome, RunOutcome::kDmaError);
  EXPECT_NE(status.err_status & hw::kErrDma, 0u);
  EXPECT_TRUE(accel.idle());
  EXPECT_LT(status.cycles, 1'000'000u);
  EXPECT_EQ(accel.read_reg(hw::kRegErrCount), 1u);
  EXPECT_EQ(injector.fired_count(), 1u);
}

TEST(FaultInjection, DroppedBeatStarvesPipelineWatchdogFires) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  hw::Accelerator accel(cfg, memory);
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kDropBeat;
  ev.beat = 7;
  injector.schedule(ev);
  accel.attach_fault_injector(&injector);
  accel.write_reg(hw::kRegWatchdog, 3'000);

  const auto pairs = make_pairs(4, 100);
  const BatchLayout layout =
      encode_input_set(memory, pairs, kInAddr, kOutAddr);
  Driver driver(accel);
  driver.start(layout, /*backtrace=*/false);
  const RunStatus status = driver.wait_idle(1'000'000);

  EXPECT_EQ(status.outcome, RunOutcome::kTimeout);
  EXPECT_NE(status.err_status & hw::kErrWatchdog, 0u);
  EXPECT_TRUE(accel.idle());  // aborted and flushed, not hung
  EXPECT_LT(status.cycles, 1'000'000u);
}

TEST(FaultInjection, DuplicatedBeatShiftsStreamWatchdogFires) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  hw::Accelerator accel(cfg, memory);
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kDuplicateBeat;
  ev.beat = 3;
  injector.schedule(ev);
  accel.attach_fault_injector(&injector);
  accel.write_reg(hw::kRegWatchdog, 3'000);

  const auto pairs = make_pairs(3, 100);
  const BatchLayout layout =
      encode_input_set(memory, pairs, kInAddr, kOutAddr);
  Driver driver(accel);
  driver.start(layout, /*backtrace=*/false);
  const RunStatus status = driver.wait_idle(1'000'000);

  // One inserted beat leaves residue in the pipeline: the run cannot
  // complete cleanly and must end in a watchdog abort, not a hang.
  EXPECT_EQ(status.outcome, RunOutcome::kTimeout);
  EXPECT_NE(status.err_status & hw::kErrWatchdog, 0u);
  EXPECT_TRUE(accel.idle());
}

TEST(FaultInjection, PermanentFifoStallIsCaughtByWatchdog) {
  mem::MainMemory memory(16 << 20);
  hw::AcceleratorConfig cfg;
  hw::Accelerator accel(cfg, memory);
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kFifoStall;
  ev.at = 0;
  ev.duration = 0;  // stalled forever: a hard hardware hang
  ev.fifo = sim::FaultFifo::kInput;
  injector.schedule(ev);
  accel.attach_fault_injector(&injector);
  accel.write_reg(hw::kRegWatchdog, 3'000);

  const auto pairs = make_pairs(2, 100);
  const BatchLayout layout =
      encode_input_set(memory, pairs, kInAddr, kOutAddr);
  Driver driver(accel);
  driver.start(layout, /*backtrace=*/false);
  const RunStatus status = driver.wait_idle(1'000'000);

  EXPECT_EQ(status.outcome, RunOutcome::kTimeout);
  EXPECT_NE(status.err_status & hw::kErrWatchdog, 0u);
  EXPECT_TRUE(accel.idle());
  EXPECT_LT(status.cycles, 1'000'000u);
}

// ---------------------------------------------------------------------------
// Memory corruption: detected by the decode self-checks, repaired by the
// resilient path's re-encode + retry.

TEST(FaultInjection, InputBitFlipDetectedAndRepairedByRetry) {
  const auto pairs = make_pairs(1, 120);

  // Flip bit 3 of the length-of-a header field (120 -> 112) at cycle 0:
  // after the driver encodes, before the DMA reads it. The hardware then
  // aligns a truncated sequence; the reconstructed path stops short of the
  // real sequence ends, so the decode self-checks reject the result.
  sim::FaultInjector injector;
  sim::FaultEvent ev;
  ev.cls = sim::FaultClass::kMemBitFlip;
  ev.at = 0;
  ev.addr = kInAddr + 16;  // section 1: length of a (little-endian u32)
  ev.bit = 3;
  injector.schedule(ev);

  const engine::ResilientReport report = run_resilient(injector, pairs);

  // The corrupted launch produced a stream inconsistent with the real
  // sequences; the retry re-encoded (repairing the flip) and succeeded.
  EXPECT_EQ(injector.fired_count(), 1u);
  EXPECT_EQ(report.launches, 2u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.cpu_fallbacks, 0u);
  EXPECT_EQ(report.total_cycles, 1235u);
  EXPECT_TRUE(report.complete());
  expect_matches_reference(report, pairs, kDefaultPenalties);
}

// ---------------------------------------------------------------------------
// The full campaign: every fault class at once, against the resilient
// path. The batch must complete with reference-identical CIGARs.

struct CampaignOutcome {
  std::vector<sim::FaultEvent> schedule;
  unsigned launches = 0;
  unsigned retries = 0;
  unsigned cpu_fallbacks = 0;
  std::uint64_t total_cycles = 0;
  std::vector<score_t> scores;
  std::vector<std::string> cigars;

  friend bool operator==(const CampaignOutcome&,
                         const CampaignOutcome&) = default;
};

CampaignOutcome run_campaign(std::uint64_t seed,
                             std::vector<gen::SequencePair> pairs) {
  sim::FaultInjector::CampaignConfig fc;
  fc.mem_begin = kInAddr;
  fc.mem_end = kInAddr + 8'000;
  fc.cycle_window = 30'000;
  fc.beat_window = 400;
  fc.mem_bit_flips = 3;
  fc.axi_errors = 1;
  fc.dropped_beats = 1;
  fc.duplicated_beats = 1;
  fc.beat_corruptions = 2;
  fc.fifo_stalls = 1;
  sim::FaultInjector injector = sim::FaultInjector::make_campaign(seed, fc);

  const engine::ResilientReport report = run_resilient(injector, pairs);

  CampaignOutcome outcome;
  outcome.schedule = injector.events();
  outcome.launches = report.launches;
  outcome.retries = report.retries;
  outcome.cpu_fallbacks = report.cpu_fallbacks;
  outcome.total_cycles = report.total_cycles;
  for (const engine::PairOutcome& o : report.outcomes) {
    outcome.scores.push_back(o.result.score);
    outcome.cigars.push_back(o.result.cigar.rle());
  }
  EXPECT_TRUE(report.complete());
  return outcome;
}

TEST(FaultInjection, ResilientCampaignCompletesWithReferenceCigars) {
  auto pairs = make_pairs(24, 100);
  pairs[5].a[20] = 'N';  // unsupported read: hardware rejects, CPU resolves

  sim::FaultInjector::CampaignConfig fc;
  fc.mem_begin = kInAddr;
  fc.mem_end = kInAddr + 8'000;
  fc.cycle_window = 30'000;
  fc.beat_window = 400;
  fc.mem_bit_flips = 3;
  fc.axi_errors = 1;
  fc.dropped_beats = 1;
  fc.duplicated_beats = 1;
  fc.beat_corruptions = 2;
  fc.fifo_stalls = 1;
  sim::FaultInjector injector =
      sim::FaultInjector::make_campaign(0xfeed, fc);

  const engine::ResilientReport report = run_resilient(injector, pairs);

  EXPECT_TRUE(report.complete());
  // Faults forced retries; the 'N' pair is among the CPU fallbacks.
  EXPECT_EQ(report.launches, 7u);
  EXPECT_EQ(report.retries, 6u);
  EXPECT_EQ(report.cpu_fallbacks, 3u);
  EXPECT_EQ(report.total_cycles, 50463u);
  expect_matches_reference(report, pairs, kDefaultPenalties);
}

TEST(FaultInjection, CampaignOutcomeIsBitIdenticalAcrossRuns) {
  auto pairs = make_pairs(12, 90);
  pairs[3].b[7] = 'N';
  const CampaignOutcome first = run_campaign(0xabcd, pairs);
  const CampaignOutcome second = run_campaign(0xabcd, pairs);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.launches, 1u);
  EXPECT_EQ(first.retries, 0u);
  EXPECT_EQ(first.cpu_fallbacks, 3u);
  EXPECT_EQ(first.total_cycles, 3613u);

  // A different seed draws a different schedule (and, in general, a
  // different recovery path) — determinism is per-seed, not vacuous.
  const CampaignOutcome other = run_campaign(0xabce, pairs);
  EXPECT_NE(first.schedule, other.schedule);
  EXPECT_EQ(other.launches, 4u);
  EXPECT_EQ(other.retries, 3u);
  EXPECT_EQ(other.cpu_fallbacks, 1u);
  EXPECT_EQ(other.total_cycles, 24697u);
}

}  // namespace
}  // namespace wfasic::drv
