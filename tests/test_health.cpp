// Engine-level device health management (engine/health.hpp,
// docs/RELIABILITY.md): the HealthMonitor state machine in isolation,
// golden-pair self-test probes, quarantine + re-admission + retirement
// driven through real fault schedules, graceful degradation of a dead
// device's work onto the software backend, and the determinism of the
// whole arrangement (same seed => same schedule, same merged results).
#include "engine/health.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/prng.hpp"
#include "core/wfa.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"
#include "sim/fault_injector.hpp"

namespace wfasic::engine {
namespace {

core::AlignResult reference_alignment(const gen::SequencePair& pair,
                                      const Penalties& pen,
                                      bool traceback = true) {
  core::WfaConfig cfg;
  cfg.pen = pen;
  cfg.traceback =
      traceback ? core::Traceback::kEnabled : core::Traceback::kDisabled;
  cfg.extend = core::ExtendMode::kScalar;
  core::WfaAligner aligner(cfg);
  return aligner.align(pair.a, pair.b);
}

// ---------------------------------------------------------------------------
// HealthMonitor state machine, in isolation

TEST(HealthMonitor, ConsecutiveFailuresTripQuarantineSuccessesReset) {
  HealthConfig cfg;
  cfg.failure_threshold = 3;
  HealthMonitor mon(cfg, 2);
  EXPECT_TRUE(mon.usable(0));
  EXPECT_TRUE(mon.any_usable());

  EXPECT_FALSE(mon.record_failure(0));
  EXPECT_FALSE(mon.record_failure(0));
  mon.record_success(0);  // the run of failures resets
  EXPECT_FALSE(mon.record_failure(0));
  EXPECT_FALSE(mon.record_failure(0));
  EXPECT_TRUE(mon.usable(0));
  EXPECT_TRUE(mon.record_failure(0));  // third consecutive: quarantined
  EXPECT_EQ(mon.board(0).health, DeviceHealth::kQuarantined);
  EXPECT_FALSE(mon.usable(0));
  EXPECT_TRUE(mon.any_usable());  // device 1 is untouched
  EXPECT_EQ(mon.board(0).total_failures, 5u);
  EXPECT_EQ(mon.board(0).quarantines, 1u);

  // Further failures while quarantined never re-trip.
  EXPECT_FALSE(mon.record_failure(0));
}

TEST(HealthMonitor, ProbePassReadmitsUntilTheBudgetThenRetires) {
  HealthConfig cfg;
  cfg.failure_threshold = 1;
  cfg.max_readmissions = 1;
  HealthMonitor mon(cfg, 1);

  ASSERT_TRUE(mon.record_failure(0));
  mon.record_probe(0, true);  // first readmission
  EXPECT_EQ(mon.board(0).health, DeviceHealth::kHealthy);
  EXPECT_EQ(mon.board(0).readmissions, 1u);

  // The flapping device fails again; the budget is spent, so even a
  // passing probe retires it.
  ASSERT_TRUE(mon.record_failure(0));
  mon.record_probe(0, true);
  EXPECT_EQ(mon.board(0).health, DeviceHealth::kRetired);
  EXPECT_FALSE(mon.usable(0));
  EXPECT_FALSE(mon.any_usable());
}

TEST(HealthMonitor, FailedProbesRetireAfterProbeAttempts) {
  HealthConfig cfg;
  cfg.failure_threshold = 1;
  cfg.probe_attempts = 2;
  HealthMonitor mon(cfg, 1);

  ASSERT_TRUE(mon.record_failure(0));
  mon.record_probe(0, false);
  EXPECT_EQ(mon.board(0).health, DeviceHealth::kQuarantined);  // one left
  mon.record_probe(0, false);
  EXPECT_EQ(mon.board(0).health, DeviceHealth::kRetired);
  EXPECT_EQ(mon.board(0).probes_total, 2u);
}

TEST(HealthMonitor, DisabledMonitorNeverQuarantines) {
  HealthConfig cfg;
  cfg.enabled = false;
  cfg.failure_threshold = 1;
  HealthMonitor mon(cfg, 1);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(mon.record_failure(0));
  EXPECT_TRUE(mon.usable(0));
  EXPECT_TRUE(mon.any_usable());
  EXPECT_EQ(mon.board(0).health, DeviceHealth::kHealthy);
  EXPECT_EQ(mon.board(0).total_failures, 10u);
}

// ---------------------------------------------------------------------------
// Golden probes on a real device

TEST(Health, ProbePassesOnAHealthyDevice) {
  Engine engine{EngineConfig{}};
  EXPECT_TRUE(engine.probe_device(0));
  // Probes bypass the scoreboard: still pristine.
  EXPECT_EQ(engine.health().board(0).successes, 0u);
  EXPECT_EQ(engine.health().board(0).probes_total, 0u);
}

// ---------------------------------------------------------------------------
// Quarantine, re-admission and retirement under real fault schedules.
//
// With CRC on, every NBT launch of four pairs writes two 16-byte beats
// (8-byte records, two per beat) and the DMA write-beat counter is
// cumulative, so dropping write beats at chosen indices deterministically
// fails chosen launches: a dropped beat leaves stale bytes whose CRC
// (salted per launch) cannot verify -> kDataError.

EngineConfig crc_engine_config() {
  EngineConfig cfg;
  cfg.num_devices = 1;
  cfg.device.accel.crc = true;
  return cfg;
}

sim::FaultInjector drop_write_beats(std::initializer_list<std::uint64_t> beats) {
  sim::FaultInjector injector;
  for (const std::uint64_t beat : beats) {
    sim::FaultEvent ev;
    ev.cls = sim::FaultClass::kWriteBeatDrop;
    ev.beat = beat;
    injector.schedule(ev);
  }
  return injector;
}

TEST(Health, QuarantinedDeviceIsReadmittedByAPassingProbe) {
  const auto pairs = gen::generate_input_set({100, 0.08, 4, 31});
  EngineConfig cfg = crc_engine_config();
  cfg.dataset_retry_budget = 5;
  Engine engine(cfg);
  // Launch 1 writes beats {0,1}, retries write {2,3} and {4,5}: dropping
  // 0, 2 and 4 fails three consecutive launches, tripping quarantine.
  // The probe (beats {6,7}) is clean -> the device is readmitted and the
  // fourth attempt (beats {8,9}) succeeds.
  sim::FaultInjector injector = drop_write_beats({0, 2, 4});
  engine.device(0).attach_fault_injector(&injector);

  const BatchResult merged = engine.run_dataset(pairs, 4, false, false);
  EXPECT_EQ(injector.fired_count(), 3u);

  const DeviceScoreboard& board = engine.health().board(0);
  EXPECT_EQ(board.health, DeviceHealth::kHealthy);
  EXPECT_EQ(board.quarantines, 1u);
  EXPECT_EQ(board.readmissions, 1u);
  EXPECT_EQ(board.probes_total, 1u);
  EXPECT_EQ(board.total_failures, 3u);
  EXPECT_GE(board.successes, 1u);

  ASSERT_EQ(merged.alignments.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const core::AlignResult ref =
        reference_alignment(pairs[i], kDefaultPenalties, false);
    EXPECT_TRUE(merged.alignments[i].ok) << i;
    EXPECT_EQ(merged.alignments[i].score, ref.score) << i;
  }
}

TEST(Health, DeadDeviceRetiresAndItsShardDegradesOntoSoftware) {
  const auto pairs = gen::generate_input_set({100, 0.08, 4, 32});
  EngineConfig cfg = crc_engine_config();
  cfg.dataset_retry_budget = 6;
  Engine engine(cfg);
  // Every launch loses its first write beat — scheduled work AND the
  // golden probe fail, so quarantine goes straight to retirement and the
  // shard lands on the software backend.
  sim::FaultInjector injector =
      drop_write_beats({0, 2, 4, 6, 8, 10, 12, 14, 16, 18});
  engine.device(0).attach_fault_injector(&injector);

  const BatchResult merged = engine.run_dataset(pairs, 4, false, false);

  const DeviceScoreboard& board = engine.health().board(0);
  EXPECT_EQ(board.health, DeviceHealth::kRetired);
  EXPECT_EQ(board.quarantines, 1u);
  EXPECT_EQ(board.readmissions, 0u);
  EXPECT_EQ(board.probes_total, 1u);
  EXPECT_FALSE(engine.health().any_usable());

  // The results still arrive, correct, from the software path.
  ASSERT_EQ(merged.alignments.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const core::AlignResult ref =
        reference_alignment(pairs[i], kDefaultPenalties, false);
    EXPECT_TRUE(merged.alignments[i].ok) << i;
    EXPECT_EQ(merged.alignments[i].score, ref.score) << i;
  }
}

TEST(Health, RetiredDeviceReceivesNoFurtherScheduledWork) {
  const auto pairs = gen::generate_input_set({100, 0.08, 8, 33});
  EngineConfig cfg = crc_engine_config();
  cfg.num_devices = 2;
  cfg.dataset_retry_budget = 6;
  Engine engine(cfg);
  sim::FaultInjector injector =
      drop_write_beats({0, 2, 4, 6, 8, 10, 12, 14, 16, 18});
  engine.device(0).attach_fault_injector(&injector);

  const BatchResult merged = engine.run_dataset(pairs, 4, false, false);
  EXPECT_EQ(engine.health().board(0).health, DeviceHealth::kRetired);
  EXPECT_EQ(engine.health().board(1).health, DeviceHealth::kHealthy);
  EXPECT_TRUE(engine.health().any_usable());

  ASSERT_EQ(merged.alignments.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const core::AlignResult ref =
        reference_alignment(pairs[i], kDefaultPenalties, false);
    EXPECT_TRUE(merged.alignments[i].ok) << i;
    EXPECT_EQ(merged.alignments[i].score, ref.score) << i;
  }

  // New work goes to the surviving device, not the retired one.
  BatchJob job;
  job.pairs = pairs;
  const JobHandle handle = engine.submit(job);
  EXPECT_EQ(engine.device(0).pending(), 0u);
  EXPECT_EQ(engine.device(1).pending(), 1u);
  const Completion done = engine.wait(handle);
  EXPECT_EQ(done.outcome, drv::RunOutcome::kOk);
}

// ---------------------------------------------------------------------------
// Determinism: the quarantine schedule is a pure function of the fault
// schedule, so identical seeds replay bit-identically — for K=1, 2, 4.

TEST(Health, QuarantineScheduleIsDeterministicAcrossReplays) {
  const auto pairs = gen::generate_input_set({150, 0.1, 12, 34});

  struct Snapshot {
    Engine::ResilientReport report;
    std::vector<DeviceScoreboard> boards;
  };
  auto run_campaign = [&](unsigned k) {
    EngineConfig cfg;
    cfg.num_devices = k;
    cfg.device.watchdog = 20'000;
    cfg.device.accel.crc = true;
    Engine engine(cfg);

    std::vector<sim::FaultInjector> injectors;
    injectors.reserve(k);
    for (unsigned dev = 0; dev < k; ++dev) {
      sim::FaultInjector::CampaignConfig campaign;
      campaign.mem_begin = cfg.device.in_addr;
      campaign.mem_end = cfg.device.in_addr + 16'384;
      campaign.mem_bit_flips = 2;
      campaign.axi_errors = 1;
      campaign.write_beat_drops = 1;
      campaign.write_beat_corruptions = 1;
      injectors.push_back(
          sim::FaultInjector::make_campaign(0xABC0 + dev, campaign));
    }
    for (unsigned dev = 0; dev < k; ++dev) {
      engine.device(dev).attach_fault_injector(&injectors[dev]);
    }

    Engine::ResilientConfig rc;
    rc.launch_cycle_budget = 2'000'000;
    Snapshot snap{engine.run_resilient(pairs, rc), {}};
    for (unsigned dev = 0; dev < k; ++dev) {
      snap.boards.push_back(engine.health().board(dev));
    }
    return snap;
  };

  for (const unsigned k : {1u, 2u, 4u}) {
    const Snapshot first = run_campaign(k);
    EXPECT_TRUE(first.report.complete()) << "K=" << k;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const core::AlignResult ref =
          reference_alignment(pairs[i], kDefaultPenalties);
      EXPECT_EQ(first.report.outcomes[i].result.score, ref.score)
          << "K=" << k << " pair " << i;
      EXPECT_EQ(first.report.outcomes[i].result.cigar.rle(), ref.cigar.rle())
          << "K=" << k << " pair " << i;
    }

    const Snapshot replay = run_campaign(k);
    EXPECT_EQ(replay.report.launches, first.report.launches) << "K=" << k;
    EXPECT_EQ(replay.report.retries, first.report.retries) << "K=" << k;
    EXPECT_EQ(replay.report.cpu_fallbacks, first.report.cpu_fallbacks)
        << "K=" << k;
    EXPECT_EQ(replay.report.total_cycles, first.report.total_cycles)
        << "K=" << k;
    for (unsigned dev = 0; dev < k; ++dev) {
      EXPECT_EQ(replay.boards[dev].health, first.boards[dev].health)
          << "K=" << k << " dev " << dev;
      EXPECT_EQ(replay.boards[dev].total_failures,
                first.boards[dev].total_failures)
          << "K=" << k << " dev " << dev;
      EXPECT_EQ(replay.boards[dev].quarantines, first.boards[dev].quarantines)
          << "K=" << k << " dev " << dev;
      EXPECT_EQ(replay.boards[dev].probes_total,
                first.boards[dev].probes_total)
          << "K=" << k << " dev " << dev;
    }
  }
}

// ---------------------------------------------------------------------------
// The engine-level mixed campaign: every fault class, ECC + CRC on, across
// seeds — merged results bit-identical to the fault-free reference.

TEST(Health, MixedCampaignWithEccAndCrcNeverCorruptsSilently) {
  const auto pairs = gen::generate_input_set({130, 0.1, 10, 35});
  std::vector<core::AlignResult> expected;
  for (const auto& pair : pairs) {
    expected.push_back(reference_alignment(pair, kDefaultPenalties));
  }

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EngineConfig cfg;
    cfg.num_devices = 2;
    cfg.device.watchdog = 20'000;
    cfg.device.accel.ecc = true;
    cfg.device.accel.crc = true;
    Engine engine(cfg);

    std::vector<sim::FaultInjector> injectors;
    injectors.reserve(cfg.num_devices);
    for (unsigned dev = 0; dev < cfg.num_devices; ++dev) {
      sim::FaultInjector::CampaignConfig campaign;
      campaign.mem_begin = cfg.device.in_addr;
      campaign.mem_end = cfg.device.in_addr + 16'384;
      campaign.mem_bit_flips = 2;
      campaign.mem_double_flips = 1;
      campaign.axi_errors = 1;
      campaign.dropped_beats = 1;
      campaign.beat_corruptions = 1;
      campaign.ram_bit_flips = 2;
      campaign.ram_double_flips = 1;
      campaign.write_beat_corruptions = 1;
      campaign.write_beat_drops = 1;
      injectors.push_back(sim::FaultInjector::make_campaign(
          seed * 1000 + dev, campaign));
    }
    for (unsigned dev = 0; dev < cfg.num_devices; ++dev) {
      engine.device(dev).attach_fault_injector(&injectors[dev]);
    }

    Engine::ResilientConfig rc;
    rc.launch_cycle_budget = 2'000'000;
    const Engine::ResilientReport report = engine.run_resilient(pairs, rc);
    ASSERT_TRUE(report.complete()) << "seed " << seed;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(report.outcomes[i].result.score, expected[i].score)
          << "seed " << seed << " pair " << i;
      EXPECT_EQ(report.outcomes[i].result.cigar.rle(), expected[i].cigar.rle())
          << "seed " << seed << " pair " << i;
    }
  }
}

}  // namespace
}  // namespace wfasic::engine
