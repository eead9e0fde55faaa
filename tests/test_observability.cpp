// Observability layer tests (docs/OBSERVABILITY.md): the modeled PMU
// register bank, the cycle-level trace sink and its Chrome JSON writer,
// and the engine metrics export. The load-bearing properties:
//
//  1. Zero perturbation: enabling tracing and reading the PMU never
//     changes simulated cycle counts, results or the output memory image.
//  2. Stepping invariance: a PMU snapshot is bit-identical whether the
//     run was stepped cycle by cycle, in bounded quanta, by the driver's
//     batched wait, with idle-skip on or off.
//  3. Fault determinism: a seeded fault campaign reproduces the same
//     snapshot on every replay.
//  4. Completeness: every RunStatus the driver produces — including every
//     error path — carries the full PMU snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "common/trace_json.hpp"
#include "drv/driver.hpp"
#include "engine/engine.hpp"
#include "engine/metrics.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/perf.hpp"
#include "hw/regs.hpp"
#include "mem/main_memory.hpp"
#include "sim/fault_injector.hpp"
#include "sim/trace.hpp"

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

/// How a test drives the accelerator from Start to Idle.
enum class Stepping {
  kDriverWait,        ///< Driver::wait_idle (batched advance)
  kSingleStep,        ///< step() one cycle at a time
  kBoundedQuanta,     ///< step_many() in small quanta (the engine's poll)
  kRunToCompletion,   ///< run_to_completion()
};

struct PmuRun {
  drv::RunStatus status;
  hw::PerfSnapshot perf;         ///< read back through the register window
  std::uint64_t final_now = 0;
  std::vector<std::uint8_t> memory;
};

PmuRun run_batch(const std::vector<gen::SequencePair>& pairs, bool backtrace,
                 bool idle_skip, Stepping stepping,
                 sim::FaultInjector* injector = nullptr, bool trace = false) {
  hw::AcceleratorConfig cfg;
  cfg.idle_skip = idle_skip;
  cfg.trace = trace;
  mem::MainMemory memory(kMemBytes);
  hw::Accelerator accel(cfg, memory);
  if (injector != nullptr) accel.attach_fault_injector(injector);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
  drv::Driver driver(accel);
  driver.start(layout, backtrace);
  accel.write_reg(hw::kRegWatchdog, 0);

  PmuRun run;
  switch (stepping) {
    case Stepping::kDriverWait:
      run.status = driver.wait_idle();
      break;
    case Stepping::kSingleStep: {
      std::uint64_t spent = 0;
      while (!accel.idle() && spent < 4'000'000ULL) {
        accel.step();
        ++spent;
      }
      run.status = driver.classify_run(spent, accel.idle());
      break;
    }
    case Stepping::kBoundedQuanta: {
      std::uint64_t spent = 0;
      while (!accel.idle() && spent < 4'000'000ULL) {
        spent += accel.step_many(777);
      }
      run.status = driver.classify_run(spent, accel.idle());
      break;
    }
    case Stepping::kRunToCompletion: {
      const std::uint64_t spent = accel.run_to_completion();
      run.status = driver.classify_run(spent, accel.idle());
      break;
    }
  }
  run.perf = driver.read_perf_counters();
  run.final_now = accel.now();
  run.memory.resize(kMemBytes);
  memory.read(0, run.memory);
  return run;
}

// ---------------------------------------------------------------------------
// PMU determinism.
// ---------------------------------------------------------------------------

TEST(PmuDeterminism, IdleSkipInvariant) {
  for (const bool backtrace : {false, true}) {
    const auto pairs = make_pairs(301, 5, 140, 0.07);
    const PmuRun exact = run_batch(pairs, backtrace, /*idle_skip=*/false,
                                   Stepping::kDriverWait);
    const PmuRun fast = run_batch(pairs, backtrace, /*idle_skip=*/true,
                                  Stepping::kDriverWait);
    EXPECT_EQ(exact.perf, fast.perf) << "backtrace=" << backtrace;
    EXPECT_EQ(exact.final_now, fast.final_now);
    EXPECT_EQ(exact.memory, fast.memory);
  }
}

TEST(PmuDeterminism, SteppingStrategyInvariant) {
  const auto pairs = make_pairs(302, 4, 120, 0.08);
  const PmuRun reference =
      run_batch(pairs, false, /*idle_skip=*/false, Stepping::kSingleStep);
  for (const Stepping stepping :
       {Stepping::kDriverWait, Stepping::kBoundedQuanta,
        Stepping::kRunToCompletion}) {
    const PmuRun other =
        run_batch(pairs, false, /*idle_skip=*/false, stepping);
    EXPECT_EQ(reference.perf, other.perf);
    EXPECT_EQ(reference.final_now, other.final_now);
  }
  // And across idle-skip for the quantised stepper, the engine's shape.
  const PmuRun skipped =
      run_batch(pairs, false, /*idle_skip=*/true, Stepping::kBoundedQuanta);
  EXPECT_EQ(reference.perf, skipped.perf);
}

TEST(PmuDeterminism, StableUnderSeededFaultCampaign) {
  const auto pairs = make_pairs(303, 4, 120, 0.08);
  sim::FaultInjector::CampaignConfig fc;
  fc.mem_begin = kInAddr;
  fc.mem_end = kInAddr + 0x400;
  fc.mem_bit_flips = 2;
  fc.axi_errors = 1;
  fc.cycle_window = 20'000;
  sim::FaultInjector inj_a = sim::FaultInjector::make_campaign(11, fc);
  sim::FaultInjector inj_b = sim::FaultInjector::make_campaign(11, fc);
  const PmuRun a = run_batch(pairs, false, /*idle_skip=*/false,
                             Stepping::kDriverWait, &inj_a);
  const PmuRun b = run_batch(pairs, false, /*idle_skip=*/true,
                             Stepping::kDriverWait, &inj_b);
  // An attached injector forces exact stepping under both settings, so
  // the snapshots must agree exactly — diagnostic included.
  EXPECT_EQ(a.perf, b.perf);
  EXPECT_EQ(a.status.outcome, b.status.outcome);
}

TEST(PmuDeterminism, CountersSane) {
  const auto pairs = make_pairs(304, 6, 150, 0.08);
  const PmuRun run =
      run_batch(pairs, false, /*idle_skip=*/true, Stepping::kDriverWait);
  const hw::PerfSnapshot& p = run.perf;
  EXPECT_EQ(p.extractor_pairs_accepted, pairs.size());
  EXPECT_EQ(p.extractor_pairs_rejected, 0u);
  EXPECT_GT(p.aligner_wavefront_steps, 0u);
  EXPECT_GT(p.extend_invocations, 0u);
  EXPECT_GT(p.extend_matched_bases, 0u);
  EXPECT_GT(p.aligner_busy_cycles, 0u);
  EXPECT_GT(p.dma_beats_read, 0u);
  EXPECT_GT(p.dma_beats_written, 0u);
  EXPECT_GT(p.input_fifo_occupancy_cycles, 0u);
  EXPECT_GE(p.input_fifo_high_water, 1u);
  EXPECT_EQ(p.err_count, 0u);
}

TEST(PmuRegisterWindow, ClearedOnStartAndByWrites) {
  const auto pairs = make_pairs(305, 3, 100, 0.05);
  hw::AcceleratorConfig cfg;
  mem::MainMemory memory(kMemBytes);
  hw::Accelerator accel(cfg, memory);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
  drv::Driver driver(accel);

  driver.start(layout, false);
  accel.write_reg(hw::kRegWatchdog, 0);
  ASSERT_TRUE(driver.wait_idle().completed());
  const hw::PerfSnapshot first = driver.read_perf_counters();
  EXPECT_EQ(first.extractor_pairs_accepted, pairs.size());

  // Start clears: a second identical run reads the same per-run values,
  // not accumulated ones.
  driver.start(layout, false);
  accel.write_reg(hw::kRegWatchdog, 0);
  ASSERT_TRUE(driver.wait_idle().completed());
  const hw::PerfSnapshot second = driver.read_perf_counters();
  EXPECT_EQ(first, second);

  // Any write into the window rebases mid-flight too.
  accel.write_reg(hw::perf_reg_lo(0), 0);
  const hw::PerfSnapshot cleared = driver.read_perf_counters();
  EXPECT_EQ(cleared.extractor_pairs_accepted, 0u);
  EXPECT_EQ(cleared.dma_beats_read, 0u);
  EXPECT_EQ(cleared.aligner_busy_cycles, 0u);

  // The lo/hi halves recombine to the direct perf_counters() reading.
  driver.start(layout, false);
  accel.write_reg(hw::kRegWatchdog, 0);
  ASSERT_TRUE(driver.wait_idle().completed());
  const hw::PerfSnapshot direct = accel.perf_counters();
  const hw::PerfSnapshot via_regs = driver.read_perf_counters();
  EXPECT_EQ(direct, via_regs);
}

// ---------------------------------------------------------------------------
// Zero perturbation.
// ---------------------------------------------------------------------------

TEST(ZeroPerturbation, TracingDoesNotChangeTimingOrResults) {
  for (const bool backtrace : {false, true}) {
    const auto pairs = make_pairs(306, 4, 130, 0.07);
    const PmuRun off = run_batch(pairs, backtrace, /*idle_skip=*/true,
                                 Stepping::kDriverWait, nullptr,
                                 /*trace=*/false);
    const PmuRun on = run_batch(pairs, backtrace, /*idle_skip=*/true,
                                Stepping::kDriverWait, nullptr,
                                /*trace=*/true);
    EXPECT_EQ(off.final_now, on.final_now) << "backtrace=" << backtrace;
    EXPECT_EQ(off.memory, on.memory);
    EXPECT_EQ(off.perf, on.perf);
    EXPECT_EQ(off.status.cycles, on.status.cycles);
  }
}

TEST(ZeroPerturbation, ReadingPmuMidRunDoesNotChangeTheRun) {
  const auto pairs = make_pairs(307, 4, 120, 0.06);
  auto run = [&](bool read_pmu) {
    hw::AcceleratorConfig cfg;
    mem::MainMemory memory(kMemBytes);
    hw::Accelerator accel(cfg, memory);
    const drv::BatchLayout layout =
        drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
    drv::Driver driver(accel);
    driver.start(layout, false);
    accel.write_reg(hw::kRegWatchdog, 0);
    while (!accel.idle()) {
      accel.step_many(500);
      if (read_pmu) (void)driver.read_perf_counters();
    }
    return accel.now();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// RunStatus audit: every driver return path carries the full snapshot.
// ---------------------------------------------------------------------------

TEST(RunStatusAudit, CleanRunCarriesSnapshot) {
  const auto pairs = make_pairs(308, 4, 110, 0.06);
  const PmuRun run =
      run_batch(pairs, false, /*idle_skip=*/true, Stepping::kDriverWait);
  ASSERT_EQ(run.status.outcome, drv::RunOutcome::kOk);
  // The status snapshot is the same reading a fresh register-window pass
  // produces (nothing stepped in between).
  EXPECT_EQ(run.status.perf, run.perf);
  EXPECT_EQ(run.status.perf.extractor_pairs_accepted, pairs.size());
}

TEST(RunStatusAudit, PartialRunCarriesSnapshot) {
  // Force MAX_READ_LEN below the longest read: the Extractor flags those
  // pairs unsupported and the run classifies kPartial.
  auto pairs = make_pairs(309, 4, 100, 0.05);
  pairs[2].a.assign(200, 'A');
  pairs[2].b.assign(200, 'A');
  hw::AcceleratorConfig cfg;
  mem::MainMemory memory(kMemBytes);
  hw::Accelerator accel(cfg, memory);
  const drv::BatchLayout layout = drv::encode_input_set(
      memory, pairs, kInAddr, kOutAddr, /*force_max_read_len=*/112);
  drv::Driver driver(accel);
  driver.start(layout, false);
  accel.write_reg(hw::kRegWatchdog, 0);
  const drv::RunStatus status = driver.wait_idle();
  ASSERT_EQ(status.outcome, drv::RunOutcome::kPartial);
  EXPECT_GE(status.perf.extractor_pairs_rejected, 1u);
  EXPECT_EQ(status.perf, driver.read_perf_counters());
}

TEST(RunStatusAudit, TimeoutCarriesSnapshot) {
  const auto pairs = make_pairs(310, 6, 200, 0.08);
  hw::AcceleratorConfig cfg;
  mem::MainMemory memory(kMemBytes);
  hw::Accelerator accel(cfg, memory);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
  drv::Driver driver(accel);
  driver.start(layout, false);
  accel.write_reg(hw::kRegWatchdog, 0);
  // A wait budget far too small: the run is still in flight when the
  // driver gives up, and the timeout status still carries live counters.
  const drv::RunStatus status = driver.wait_idle(/*max_cycles=*/300);
  ASSERT_EQ(status.outcome, drv::RunOutcome::kTimeout);
  EXPECT_GT(status.perf.dma_beats_read, 0u);
  EXPECT_EQ(status.perf, driver.read_perf_counters());
}

TEST(RunStatusAudit, FaultAbortCarriesSnapshot) {
  const auto pairs = make_pairs(311, 4, 120, 0.08);
  sim::FaultInjector::CampaignConfig fc;
  fc.mem_begin = kInAddr;
  fc.mem_end = kInAddr + 0x400;
  fc.axi_errors = 2;
  fc.cycle_window = 5'000;
  sim::FaultInjector injector = sim::FaultInjector::make_campaign(13, fc);
  hw::AcceleratorConfig cfg;
  mem::MainMemory memory(kMemBytes);
  hw::Accelerator accel(cfg, memory);
  accel.attach_fault_injector(&injector);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
  drv::Driver driver(accel);
  driver.start(layout, false);
  accel.write_reg(hw::kRegWatchdog, 0);
  const drv::RunStatus status = driver.wait_idle();
  // Whatever the campaign produced (DMA abort or a surviving run), the
  // status must carry the same complete snapshot a fresh read returns.
  EXPECT_EQ(status.perf, driver.read_perf_counters());
  if (status.outcome == drv::RunOutcome::kDmaError) {
    EXPECT_GT(status.perf.err_count, 0u);
  }
}

// ---------------------------------------------------------------------------
// Trace sink and Chrome JSON writer.
// ---------------------------------------------------------------------------

TEST(TraceSink, DisabledSinkCollectsNothing) {
  sim::TraceSink sink;
  const auto track = sink.register_track("unit");
  sink.span(track, "work", "pipeline", 5, 9);
  sink.instant(track, "oops", "error", 7);
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceJson, GoldenDocument) {
  sim::TraceSink sink;
  sink.set_enabled(true);
  const auto alpha = sink.register_track("alpha");
  const auto beta = sink.register_track("beta");
  sink.span(alpha, "work", "pipeline", 10, 19, /*id=*/3);
  sink.instant(beta, "oops", "error", 42);
  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"wfasic\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"alpha\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"beta\"}},"
      "{\"name\":\"work\",\"cat\":\"pipeline\",\"ph\":\"X\",\"pid\":0,"
      "\"tid\":0,\"ts\":10,\"dur\":10,\"args\":{\"id\":3}},"
      "{\"name\":\"oops\",\"cat\":\"error\",\"ph\":\"i\",\"pid\":0,"
      "\"tid\":1,\"ts\":42,\"s\":\"t\"}"
      "]}";
  EXPECT_EQ(common::to_chrome_trace_json(sink), expected);
}

TEST(TraceJson, EscapesHostileNames) {
  sim::TraceSink sink;
  sink.set_enabled(true);
  const auto track = sink.register_track("a\"b\\c\nd");
  sink.instant(track, "x\ty", "error", 1);
  const std::string json = common::to_chrome_trace_json(sink);
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
  EXPECT_NE(json.find("x\\ty"), std::string::npos);
}

TEST(TraceJson, RealRunEmitsPipelineLifecycle) {
  const auto pairs = make_pairs(312, 3, 110, 0.06);
  hw::AcceleratorConfig cfg;
  cfg.trace = true;
  mem::MainMemory memory(kMemBytes);
  hw::Accelerator accel(cfg, memory);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
  drv::Driver driver(accel);
  driver.start(layout, true);
  accel.write_reg(hw::kRegWatchdog, 0);
  ASSERT_TRUE(driver.wait_idle().completed());

  const sim::TraceSink& sink = accel.trace();
  ASSERT_FALSE(sink.events().empty());
  std::size_t extracts = 0;
  std::size_t aligns = 0;
  std::size_t collects = 0;
  std::size_t dma_streams = 0;
  bool run_span = false;
  for (const sim::TraceEvent& ev : sink.events()) {
    if (ev.name == "extract") ++extracts;
    if (ev.name == "align") ++aligns;
    if (ev.name == "collect") ++collects;
    if (ev.name == "dma-read-stream") ++dma_streams;
    if (ev.name == "run") run_span = true;
  }
  EXPECT_EQ(extracts, pairs.size());
  EXPECT_EQ(aligns, pairs.size());
  EXPECT_EQ(collects, pairs.size());
  EXPECT_GE(dma_streams, 1u);
  EXPECT_TRUE(run_span);

  // The document stays well-formed JSON for the viewer: bounded check of
  // the envelope (full parsing is the CI smoke job's python step).
  const std::string json = common::to_chrome_trace_json(sink);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
}

TEST(TraceJson, TraceIsIdleSkipInvariant) {
  const auto pairs = make_pairs(313, 4, 120, 0.06);
  auto collect = [&](bool idle_skip) {
    hw::AcceleratorConfig cfg;
    cfg.trace = true;
    cfg.idle_skip = idle_skip;
    mem::MainMemory memory(kMemBytes);
    hw::Accelerator accel(cfg, memory);
    const drv::BatchLayout layout =
        drv::encode_input_set(memory, pairs, kInAddr, kOutAddr);
    drv::Driver driver(accel);
    driver.start(layout, false);
    accel.write_reg(hw::kRegWatchdog, 0);
    (void)driver.wait_idle();
    return common::to_chrome_trace_json(accel.trace());
  };
  EXPECT_EQ(collect(false), collect(true));
}

// ---------------------------------------------------------------------------
// Engine metrics.
// ---------------------------------------------------------------------------

TEST(Log2Histogram, BucketsAndMoments) {
  engine::Log2Histogram h;
  EXPECT_EQ(engine::Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(engine::Log2Histogram::bucket_of(1), 1u);
  EXPECT_EQ(engine::Log2Histogram::bucket_of(2), 2u);
  EXPECT_EQ(engine::Log2Histogram::bucket_of(3), 2u);
  EXPECT_EQ(engine::Log2Histogram::bucket_of(4), 3u);
  EXPECT_EQ(engine::Log2Histogram::bucket_of(~std::uint64_t{0}), 63u);
  h.record(0);
  h.record(3);
  h.record(1000);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1003u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1000u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.buckets[10], 1u);  // 1000 in [512, 1024)
  EXPECT_DOUBLE_EQ(h.mean(), 1003.0 / 3.0);
}

TEST(EngineMetrics, DeterministicAcrossIdenticalRuns) {
  const auto pairs = make_pairs(314, 12, 100, 0.06);
  auto run = [&] {
    engine::EngineConfig cfg;
    cfg.num_devices = 2;
    cfg.device.memory_bytes = 16ull << 20;
    cfg.device.out_addr = 12ull << 20;
    engine::Engine eng(cfg);
    (void)eng.run_dataset(pairs, 3, /*backtrace=*/false,
                          /*separate_data=*/false);
    return eng.metrics();
  };
  const engine::EngineMetrics a = run();
  const engine::EngineMetrics b = run();
  EXPECT_EQ(a.submits, b.submits);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.in_flight_high_water, b.in_flight_high_water);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t d = 0; d < a.devices.size(); ++d) {
    EXPECT_EQ(a.devices[d].jobs_completed, b.devices[d].jobs_completed);
    EXPECT_EQ(a.devices[d].jobs_failed, b.devices[d].jobs_failed);
    EXPECT_EQ(a.devices[d].busy_cycles, b.devices[d].busy_cycles);
    EXPECT_EQ(a.devices[d].total_cycles, b.devices[d].total_cycles);
    EXPECT_EQ(a.devices[d].queue_depth_high_water,
              b.devices[d].queue_depth_high_water);
  }
  EXPECT_EQ(a.health_transitions.size(), b.health_transitions.size());
}

TEST(EngineMetrics, AccountsJobsAndLatency) {
  const auto pairs = make_pairs(315, 8, 90, 0.05);
  engine::EngineConfig cfg;
  cfg.num_devices = 2;
  cfg.device.memory_bytes = 16ull << 20;
  cfg.device.out_addr = 12ull << 20;
  engine::Engine eng(cfg);
  (void)eng.run_dataset(pairs, 2, /*backtrace=*/false,
                        /*separate_data=*/false);
  const engine::EngineMetrics m = eng.metrics();
  EXPECT_EQ(m.submits, 4u);  // 8 pairs in shards of 2
  EXPECT_EQ(m.completions, 4u);
  EXPECT_EQ(m.latency.count, 4u);
  EXPECT_GT(m.latency.min, 0u);
  ASSERT_EQ(m.devices.size(), 3u);  // 2 devices + software
  std::uint64_t jobs = 0;
  for (const engine::DeviceMetrics& dm : m.devices) {
    jobs += dm.jobs_completed;
    EXPECT_EQ(dm.jobs_failed, 0u);
    EXPECT_LE(dm.busy_cycles, dm.total_cycles);
  }
  EXPECT_EQ(jobs, 4u);
  EXPECT_TRUE(m.health_transitions.empty());
}

TEST(EngineMetrics, HealthTransitionLogRecordsQuarantine) {
  engine::HealthConfig cfg;
  cfg.failure_threshold = 2;
  cfg.probe_attempts = 1;
  cfg.max_readmissions = 1;
  engine::HealthMonitor monitor(cfg, 2);
  monitor.record_failure(1);
  EXPECT_TRUE(monitor.transitions().empty());
  monitor.record_failure(1);  // trips quarantine
  monitor.record_probe(1, true);   // readmitted
  monitor.record_failure(1);
  monitor.record_failure(1);  // quarantined again
  monitor.record_probe(1, false);  // retires (budget spent)
  const auto& log = monitor.transitions();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].device, 1u);
  EXPECT_EQ(log[0].from, engine::DeviceHealth::kHealthy);
  EXPECT_EQ(log[0].to, engine::DeviceHealth::kQuarantined);
  EXPECT_EQ(log[1].to, engine::DeviceHealth::kHealthy);
  EXPECT_EQ(log[2].to, engine::DeviceHealth::kQuarantined);
  EXPECT_EQ(log[3].to, engine::DeviceHealth::kRetired);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].seq, i);
  }
}

}  // namespace
}  // namespace wfasic
