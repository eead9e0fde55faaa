// The asynchronous alignment engine (src/engine): K=1 equivalence with
// the legacy blocking flow, the async submit/poll/wait/cancel surface,
// pipelined phase accounting, K-device sharding determinism, and the
// resilient requeue path under an active fault campaign.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "core/wfa.hpp"
#include "drv/backtrace_cpu.hpp"
#include "drv/driver.hpp"
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
  cfg.extend = core::ExtendMode::kScalar;  // copes with 'N' bases
  core::WfaAligner aligner(cfg);
  return aligner.align(pair.a, pair.b);
}

// The pre-engine blocking flow, inlined: encode -> start -> wait_idle ->
// decode, straight through the driver with no queues, staging or slots.
// This is the reference the engine's K=1 path must match bit for bit.
struct LegacyRun {
  std::uint64_t accel_cycles = 0;
  std::vector<core::AlignResult> alignments;
};

LegacyRun legacy_blocking_run(const std::vector<gen::SequencePair>& pairs,
                              bool backtrace) {
  const HwBackendConfig cfg;  // the defaults every engine device uses
  mem::MainMemory memory(cfg.memory_bytes);
  hw::Accelerator accelerator(cfg.accel, memory);
  drv::Driver driver(accelerator);
  const drv::BatchLayout layout =
      drv::encode_input_set(memory, pairs, cfg.in_addr, cfg.out_addr);
  const drv::RunStatus status = driver.run(layout, backtrace);
  EXPECT_TRUE(status.completed());

  LegacyRun run;
  run.accel_cycles = status.cycles;
  run.alignments.resize(pairs.size());
  if (backtrace) {
    for (const drv::BtAlignment& bt : drv::parse_bt_stream(
             memory, layout.out_addr, layout.num_pairs, false)) {
      run.alignments[bt.id] = drv::reconstruct_alignment(
          bt, pairs[bt.id].a, pairs[bt.id].b, cfg.accel);
    }
  } else {
    for (const hw::NbtResult& nbt :
         drv::decode_nbt_results_sorted(memory, layout)) {
      run.alignments[nbt.id].ok = nbt.success;
      run.alignments[nbt.id].score = static_cast<score_t>(nbt.score);
    }
  }
  return run;
}

TEST(Engine, K1BitIdenticalToLegacyBlockingFlow) {
  const auto pairs = gen::generate_input_set({220, 0.1, 12, 91});
  for (const bool backtrace : {false, true}) {
    Engine engine{EngineConfig{}};
    const BatchResult result = engine.run_batch(pairs, backtrace, false);
    const LegacyRun legacy = legacy_blocking_run(pairs, backtrace);

    EXPECT_EQ(result.accel_cycles, legacy.accel_cycles)
        << "backtrace=" << backtrace;
    ASSERT_EQ(result.alignments.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(result.alignments[i].ok, legacy.alignments[i].ok) << i;
      EXPECT_EQ(result.alignments[i].score, legacy.alignments[i].score) << i;
      if (backtrace) {
        EXPECT_EQ(result.alignments[i].cigar.rle(),
                  legacy.alignments[i].cigar.rle())
            << i;
      }
    }
    // Single batch keeps the serial accounting.
    EXPECT_EQ(result.pipeline_cycles, 0u);
    EXPECT_EQ(result.total_cycles(),
              result.accel_cycles + result.cpu_bt_cycles);
  }
}

TEST(Engine, AsyncSubmitPollWaitCancel) {
  const auto pairs = gen::generate_input_set({120, 0.08, 4, 92});
  Engine engine{EngineConfig{}};
  EXPECT_FALSE(engine.poll());  // nothing submitted

  BatchJob first;
  first.pairs = pairs;
  BatchJob second;
  second.pairs = pairs;
  second.backtrace = true;
  const JobHandle h1 = engine.submit(std::move(first));
  const JobHandle h2 = engine.submit(std::move(second));
  EXPECT_NE(h1.value, h2.value);
  EXPECT_EQ(engine.in_flight(), 2u);

  // The second job is still queued (nothing has been polled): cancellable.
  EXPECT_TRUE(engine.cancel(h2));
  EXPECT_EQ(engine.in_flight(), 1u);
  EXPECT_FALSE(engine.cancel(h2));  // already gone

  const Completion done = engine.wait(h1);
  EXPECT_EQ(done.outcome, drv::RunOutcome::kOk);
  EXPECT_GT(done.accel_cycles, 0u);
  EXPECT_GT(done.encode_cycles, 0u);
  ASSERT_EQ(done.result.alignments.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(done.result.alignments[i].score,
              reference_alignment(pairs[i], kDefaultPenalties).score);
  }
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_FALSE(engine.cancel(h1));  // completed jobs cannot be cancelled
}

// Cancellation edge cases (the service layer's deadline recall leans on
// these semantics): a job is cancellable only in the queued/staged window
// before launch; double-cancel, cancel-in-flight and cancel-after-collect
// all return false without perturbing anything.

TEST(Engine, CancelBeforeAnyPollRemovesTheQueuedJob) {
  const auto pairs = gen::generate_input_set({120, 0.08, 3, 97});
  Engine engine{EngineConfig{}};
  BatchJob job;
  job.pairs = pairs;
  const JobHandle h = engine.submit(std::move(job));
  EXPECT_EQ(engine.in_flight(), 1u);

  EXPECT_TRUE(engine.cancel(h));  // never polled: still queued
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_FALSE(engine.poll());     // nothing left to run
  EXPECT_FALSE(engine.cancel(h));  // double-cancel: the handle is gone
  EXPECT_FALSE(engine.ready(h));
  EXPECT_FALSE(engine.try_collect(h).has_value());
}

TEST(Engine, CancelInFlightJobFailsAndTheJobStillCompletes) {
  // One long pair: a single poll quantum cannot finish it, so after one
  // poll the job is launched and past the point of recall.
  Prng prng(4711);
  std::string a = gen::random_sequence(prng, 4000);
  const std::string b = gen::mutate_sequence(prng, a, 0.10);
  std::vector<gen::SequencePair> pairs;
  pairs.push_back({0, std::move(a), b});

  auto run = [&]() {
    Engine engine{EngineConfig{}};
    BatchJob job;
    job.pairs = pairs;
    const JobHandle h = engine.submit(std::move(job));
    EXPECT_TRUE(engine.poll());      // launched, not yet finished
    EXPECT_FALSE(engine.cancel(h));  // in flight: cannot be recalled
    const Completion done = engine.wait(h);
    EXPECT_EQ(done.outcome, drv::RunOutcome::kOk);
    EXPECT_EQ(done.result.alignments[0].score,
              reference_alignment(pairs[0], kDefaultPenalties, false).score);
    EXPECT_FALSE(engine.cancel(h));  // cancel-after-complete
    return done.accel_cycles;
  };
  // The whole sequence — including the failed cancels — replays
  // deterministically under the fixed seed.
  const std::uint64_t cycles = run();
  EXPECT_EQ(run(), cycles);
}

TEST(Engine, CancelOfAStagedSuccessorSucceedsBeforeItsLaunch) {
  const auto pairs = gen::generate_input_set({150, 0.1, 4, 98});
  Engine engine{EngineConfig{}};
  // A long first job keeps the device busy; the second job is encoded
  // into the other arena slot (staged) but not launched — still
  // recallable, and cancelling it must not disturb the active job.
  Prng prng(4712);
  std::string a = gen::random_sequence(prng, 4000);
  const std::string b = gen::mutate_sequence(prng, a, 0.10);
  BatchJob big;
  big.pairs.push_back({0, std::move(a), b});
  BatchJob staged;
  staged.pairs = pairs;
  const JobHandle h_big = engine.submit(std::move(big));
  const JobHandle h_staged = engine.submit(std::move(staged));
  EXPECT_TRUE(engine.poll());  // launches big, stages the successor

  EXPECT_TRUE(engine.cancel(h_staged));
  EXPECT_FALSE(engine.cancel(h_staged));
  const Completion done = engine.wait(h_big);
  EXPECT_EQ(done.outcome, drv::RunOutcome::kOk);
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(Engine, RunDatasetMergesInDatasetOrderAcrossBatchBoundaries) {
  const auto pairs = gen::generate_input_set({180, 0.1, 10, 93});
  Engine engine{EngineConfig{}};
  // 10 pairs in batches of 4: boundaries at 4 and 8, final batch ragged.
  const BatchResult merged = engine.run_dataset(pairs, 4, true, false);

  ASSERT_EQ(merged.alignments.size(), pairs.size());
  ASSERT_EQ(merged.records.size(), pairs.size());
  ASSERT_EQ(merged.read_records.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const core::AlignResult ref =
        reference_alignment(pairs[i], kDefaultPenalties);
    ASSERT_TRUE(merged.alignments[i].ok) << i;
    EXPECT_EQ(merged.alignments[i].score, ref.score) << i;
    EXPECT_EQ(merged.alignments[i].cigar.rle(), ref.cigar.rle()) << i;
    // Per-batch ids restart at 0: the merged record at dataset position i
    // carries its launch-local id.
    EXPECT_EQ(merged.records[i].id, i % 4) << i;
  }

  // Cycle counters accumulate across batches: the dataset totals equal
  // the sum of the same batches run individually.
  std::uint64_t accel_sum = 0;
  std::uint64_t bt_sum = 0;
  for (std::size_t base = 0; base < pairs.size(); base += 4) {
    const std::size_t count = std::min<std::size_t>(4, pairs.size() - base);
    std::vector<gen::SequencePair> batch(pairs.begin() + base,
                                         pairs.begin() + base + count);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].id = static_cast<std::uint32_t>(i);
    }
    Engine single{EngineConfig{}};
    const BatchResult part = single.run_batch(batch, true, false);
    accel_sum += part.accel_cycles;
    bt_sum += part.cpu_bt_cycles;
  }
  EXPECT_EQ(merged.accel_cycles, accel_sum);
  EXPECT_EQ(merged.cpu_bt_cycles, bt_sum);
}

TEST(Engine, PipelinedDatasetBeatsSerialSum) {
  const auto pairs = gen::generate_input_set({500, 0.15, 16, 94});
  Engine engine{EngineConfig{}};
  const BatchResult merged = engine.run_dataset(pairs, 4, true, false);

  // The acceptance inequality: with encode N+1 and decode N-1 overlapping
  // the aligning of batch N, the modelled makespan must beat the serial
  // encode+align+decode sum — and even the legacy accel+bt sum alone.
  ASSERT_GT(merged.pipeline_cycles, 0u);
  EXPECT_LT(merged.pipeline_cycles,
            merged.accel_cycles + merged.cpu_bt_cycles);
  EXPECT_EQ(merged.total_cycles(), merged.pipeline_cycles);
  // And it stays physical: no shorter than either resource's busy time.
  EXPECT_GT(merged.pipeline_cycles, merged.accel_cycles / 2);
  EXPECT_GE(merged.pipeline_cycles, merged.cpu_bt_cycles);
}

TEST(Engine, ShardingIsDeterministicAcrossDeviceCounts) {
  const auto pairs = gen::generate_input_set({200, 0.1, 20, 95});
  auto run_with_devices = [&](unsigned devices) {
    EngineConfig cfg;
    cfg.num_devices = devices;
    Engine engine(cfg);
    return engine.run_dataset(pairs, 5, true, false);
  };

  const BatchResult k1 = run_with_devices(1);
  for (const unsigned k : {2u, 4u}) {
    const BatchResult shard = run_with_devices(k);
    ASSERT_EQ(shard.alignments.size(), k1.alignments.size()) << "K=" << k;
    for (std::size_t i = 0; i < k1.alignments.size(); ++i) {
      EXPECT_EQ(shard.alignments[i].score, k1.alignments[i].score)
          << "K=" << k << " pair " << i;
      EXPECT_EQ(shard.alignments[i].cigar.rle(), k1.alignments[i].cigar.rle())
          << "K=" << k << " pair " << i;
    }
    // Every device starts from identical reset state, so per-batch device
    // cycles — and their merged sum — do not depend on the shard count.
    EXPECT_EQ(shard.accel_cycles, k1.accel_cycles) << "K=" << k;
    EXPECT_EQ(shard.cpu_bt_cycles, k1.cpu_bt_cycles) << "K=" << k;

    // Bit-identical replay: the same config and dataset reproduce the
    // same outcome, including the pipelined makespan.
    const BatchResult replay = run_with_devices(k);
    EXPECT_EQ(replay.accel_cycles, shard.accel_cycles) << "K=" << k;
    EXPECT_EQ(replay.pipeline_cycles, shard.pipeline_cycles) << "K=" << k;
  }

  // More devices shorten the modelled makespan on this accel-heavy set.
  const BatchResult k4 = run_with_devices(4);
  EXPECT_LT(k4.pipeline_cycles, k1.pipeline_cycles);
}

TEST(Engine, DefaultConfigRunsTheFastPath) {
  // The default engine device must actually leave exact stepping: a
  // backend that left the watchdog armed, for one, would silently demote
  // every run to per-cycle stepping without changing a single result.
  const auto pairs = gen::generate_input_set({150, 0.05, 16, 96});
  EngineConfig cfg;
  cfg.num_devices = 2;
  Engine fast(cfg);
  cfg.device.accel.idle_skip = false;
  Engine exact(cfg);
  EXPECT_EQ(fast.run_dataset(pairs, 4, false, false),
            exact.run_dataset(pairs, 4, false, false));
  for (unsigned d = 0; d < 2; ++d) {
    const hw::Accelerator& f = fast.device(d).accelerator();
    const hw::Accelerator& e = exact.device(d).accelerator();
    EXPECT_GT(f.dispatch_stats().macro_dispatches, 0u) << "device " << d;
    EXPECT_GT(f.dispatch_stats().skipped_cycles, 0u) << "device " << d;
    EXPECT_EQ(e.dispatch_stats().macro_dispatches, 0u) << "device " << d;
    EXPECT_EQ(e.dispatch_stats().skipped_cycles, 0u) << "device " << d;
    EXPECT_EQ(f.perf_counters(), e.perf_counters()) << "device " << d;
  }
}

TEST(Engine, ResilientCompletesUnderFaultCampaignWithRequeues) {
  auto make_pairs = [](std::size_t count) {
    Prng prng(777);
    std::vector<gen::SequencePair> pairs;
    for (std::size_t i = 0; i < count; ++i) {
      std::string a = gen::random_sequence(prng, 150 + i);
      const std::string b = gen::mutate_sequence(prng, a, 0.08);
      pairs.push_back({static_cast<std::uint32_t>(i), std::move(a), b});
    }
    return pairs;
  };
  const auto pairs = make_pairs(12);

  auto run_campaign = [&]() {
    EngineConfig cfg;
    cfg.device.watchdog = 20'000;
    Engine engine(cfg);

    sim::FaultInjector::CampaignConfig campaign;
    campaign.mem_begin = cfg.device.in_addr;
    campaign.mem_end = cfg.device.in_addr + 16'384;
    campaign.mem_bit_flips = 4;
    campaign.axi_errors = 1;
    campaign.dropped_beats = 1;
    campaign.fifo_stalls = 1;
    sim::FaultInjector injector =
        sim::FaultInjector::make_campaign(0x5eed, campaign);
    engine.device(0).attach_fault_injector(&injector);

    Engine::ResilientConfig rc;
    rc.launch_cycle_budget = 2'000'000;
    return engine.run_resilient(pairs, rc);
  };

  const Engine::ResilientReport report = run_campaign();
  EXPECT_TRUE(report.complete());
  EXPECT_GT(report.launches, 1u);  // the campaign forced requeues
  EXPECT_GT(report.retries, 0u);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const core::AlignResult ref =
        reference_alignment(pairs[i], kDefaultPenalties);
    EXPECT_TRUE(report.outcomes[i].resolved) << i;
    EXPECT_EQ(report.outcomes[i].result.score, ref.score) << i;
    EXPECT_EQ(report.outcomes[i].result.cigar.rle(), ref.cigar.rle()) << i;
  }

  // The campaign and the requeue schedule replay bit-identically.
  const Engine::ResilientReport replay = run_campaign();
  EXPECT_EQ(replay.launches, report.launches);
  EXPECT_EQ(replay.retries, report.retries);
  EXPECT_EQ(replay.cpu_fallbacks, report.cpu_fallbacks);
  EXPECT_EQ(replay.total_cycles, report.total_cycles);
}

TEST(Engine, ResilientRoutesOversizedPairsToSoftwareBackend) {
  Prng prng(4242);
  std::vector<gen::SequencePair> pairs;
  std::string a0 = gen::random_sequence(prng, 180);
  const std::string b0 = gen::mutate_sequence(prng, a0, 0.05);
  pairs.push_back({0, std::move(a0), b0});
  // Longer than max_supported_read_len: the chip cannot launch it at all.
  std::string a1 = gen::random_sequence(prng, 10'500);
  const std::string b1 = gen::mutate_sequence(prng, a1, 0.002);
  pairs.push_back({1, std::move(a1), b1});

  Engine engine{EngineConfig{}};
  const Engine::ResilientReport report = engine.run_resilient(pairs);
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.outcomes[0].cpu_fallback);
  EXPECT_TRUE(report.outcomes[1].cpu_fallback);
  EXPECT_EQ(report.outcomes[1].hw_attempts, 0u);
  EXPECT_EQ(report.cpu_fallbacks, 1u);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].result.score,
              reference_alignment(pairs[i], kDefaultPenalties).score)
        << i;
  }
}

TEST(Engine, SwBackendMatchesHardwareScores) {
  const auto pairs = gen::generate_input_set({160, 0.1, 6, 96});
  Engine engine{EngineConfig{}};

  BatchJob hw_job;
  hw_job.pairs = pairs;
  hw_job.backtrace = true;
  BatchJob sw_job;
  sw_job.pairs = pairs;
  sw_job.backtrace = true;
  const JobHandle hw_handle = engine.submit(std::move(hw_job));
  const JobHandle sw_handle = engine.submit_software(std::move(sw_job));

  const Completion hw_done = engine.wait(hw_handle);
  const Completion sw_done = engine.wait(sw_handle);
  EXPECT_GT(sw_done.sw_align_cycles, 0u);
  ASSERT_EQ(sw_done.result.alignments.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(sw_done.result.alignments[i].score,
              hw_done.result.alignments[i].score)
        << i;
    EXPECT_EQ(sw_done.result.alignments[i].cigar.rle(),
              hw_done.result.alignments[i].cigar.rle())
        << i;
  }
}

TEST(Engine, BorrowedArenaMustFitTheBorrowedMemory) {
  // The borrowing constructor checks the arena against the memory it is
  // handed: the default 128 MB out_addr past a 16 MB memory fails at
  // construction, not mid-run inside the DMA.
  mem::MainMemory memory(16 << 20);
  const HwBackendConfig cfg;
  hw::Accelerator accel(cfg.accel, memory);
  EXPECT_DEATH({ HwBackend backend(cfg, memory, accel); }, "arena addresses");
}

// --- Checkpoint/failover/preemption (docs/RELIABILITY.md §7) ------------

TEST(EngineRecovery, MetricsStayZeroWithCheckpointingOff) {
  // checkpoint_interval defaults to 0: the recovery layer must cost
  // nothing and count nothing on the ordinary path.
  const auto pairs = gen::generate_input_set({180, 0.1, 8, 181});
  Engine engine{EngineConfig{}};
  const BatchResult merged = engine.run_dataset(pairs, 4, true, false);
  ASSERT_EQ(merged.alignments.size(), pairs.size());

  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.recovery.checkpoints, 0u);
  EXPECT_EQ(m.recovery.restores, 0u);
  EXPECT_EQ(m.recovery.migrations, 0u);
  EXPECT_EQ(m.recovery.preemptions, 0u);
  EXPECT_EQ(m.recovery.resumes, 0u);
  EXPECT_EQ(m.recovery.recomputed_cycles, 0u);
  EXPECT_EQ(m.recovery.dataset_retries, 0u);
  EXPECT_EQ(m.recovery.sw_degradations, 0u);
}

TEST(EngineRecovery, FailoverMigratesCheckpointedShardWithBoundedRecompute) {
  // Long pairs so each shard runs tens of thousands of cycles — dozens of
  // checkpoint intervals. Device 0 silently drops its first result write
  // beat; with CRC transport protection the damage surfaces as a
  // kDataError completion at the end of the shard, and the shard must
  // resume from its last checkpoint on device 1 — rewriting the output
  // there — instead of re-running ~100k cycles from scratch.
  Prng prng(0xfa11);
  std::vector<gen::SequencePair> pairs;
  for (std::size_t i = 0; i < 6; ++i) {
    std::string a = gen::random_sequence(prng, 3000);
    const std::string b = gen::mutate_sequence(prng, a, 0.10);
    pairs.push_back({static_cast<std::uint32_t>(i), std::move(a), b});
  }

  EngineConfig cfg;
  cfg.num_devices = 2;
  cfg.device.poll_quantum = 2048;
  cfg.device.checkpoint_interval = 4096;
  cfg.device.accel.crc = true;
  Engine engine(cfg);

  sim::FaultInjector injector;
  sim::FaultEvent drop;
  drop.cls = sim::FaultClass::kWriteBeatDrop;
  drop.beat = 0;  // the first output beat device 0 ever writes
  injector.schedule(drop);
  engine.device(0).attach_fault_injector(&injector);

  const BatchResult merged = engine.run_dataset(pairs, 2, false, false);
  ASSERT_EQ(merged.alignments.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(merged.alignments[i].score,
              reference_alignment(pairs[i], kDefaultPenalties, false).score)
        << i;
  }

  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.recovery.migrations, 1u);  // the drop forced one failover
  EXPECT_EQ(m.recovery.restores, 1u);
  EXPECT_GT(m.recovery.checkpoints, 0u);
  EXPECT_EQ(m.recovery.dataset_retries, 0u);  // no scratch re-run needed
  EXPECT_EQ(m.recovery.sw_degradations, 0u);
  // The ISSUE bound: recompute is limited to what ran since the last
  // checkpoint — at most one interval plus the poll quantum slack.
  EXPECT_GT(m.recovery.recomputed_cycles, 0u);
  EXPECT_LE(m.recovery.recomputed_cycles,
            m.recovery.restores *
                (cfg.device.checkpoint_interval + cfg.device.poll_quantum));
}

TEST(EngineRecovery, CrcBacktraceShardWithADroppedResultBeatRetries) {
  // Under CRC a damaged BT stream is a transport fault, not a simulator
  // bug: the run's one read of its result area fails verification, the
  // shard completes as kDataError and run_dataset runs the whole shard
  // again (checkpointing is off) — the host never aborts in the decoder.
  const auto pairs = gen::generate_input_set({300, 0.08, 8, 184});
  EngineConfig cfg;
  cfg.device.accel.crc = true;
  Engine engine(cfg);

  sim::FaultInjector injector;
  sim::FaultEvent drop;
  drop.cls = sim::FaultClass::kWriteBeatDrop;
  drop.beat = 3;  // inside the first shard's result stream
  injector.schedule(drop);
  engine.device(0).attach_fault_injector(&injector);

  const BatchResult merged = engine.run_dataset(pairs, 4, true, false);
  EXPECT_EQ(injector.fired_count(), 1u);
  ASSERT_EQ(merged.alignments.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(merged.alignments[i].cigar,
              reference_alignment(pairs[i], kDefaultPenalties).cigar)
        << i;
  }
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.devices[0].jobs_failed, 1u);
  EXPECT_EQ(m.recovery.dataset_retries, 1u);
}

TEST(EngineRecovery, PreemptParkResumeCompletesCorrectly) {
  // One long job on a K=1 engine is preempted mid-run so a short job can
  // use the device, then resumed from its eviction checkpoint.
  Prng prng(0x9ee1);
  std::string a = gen::random_sequence(prng, 4000);
  const std::string b = gen::mutate_sequence(prng, a, 0.10);
  std::vector<gen::SequencePair> long_pairs;
  long_pairs.push_back({0, std::move(a), b});
  const auto short_pairs = gen::generate_input_set({150, 0.08, 4, 182});

  Engine engine{EngineConfig{}};
  BatchJob long_job;
  long_job.pairs = long_pairs;
  const JobHandle h_long = engine.submit(std::move(long_job));
  EXPECT_FALSE(engine.preempt(h_long));  // not launched yet: nothing to evict
  EXPECT_TRUE(engine.poll());            // launch + first quantum
  ASSERT_TRUE(engine.preempt(h_long));
  EXPECT_TRUE(engine.preempted(h_long));
  EXPECT_FALSE(engine.preempt(h_long));  // already parked

  // The device is free for the urgent job while the long one is parked.
  BatchJob urgent;
  urgent.pairs = short_pairs;
  const Completion urgent_done = engine.wait(engine.submit(std::move(urgent)));
  EXPECT_EQ(urgent_done.outcome, drv::RunOutcome::kOk);
  EXPECT_TRUE(engine.preempted(h_long));

  ASSERT_TRUE(engine.resume(h_long));
  EXPECT_FALSE(engine.preempted(h_long));
  EXPECT_FALSE(engine.resume(h_long));  // not parked any more
  const Completion done = engine.wait(h_long);
  EXPECT_EQ(done.outcome, drv::RunOutcome::kOk);
  EXPECT_EQ(done.result.alignments[0].score,
            reference_alignment(long_pairs[0], kDefaultPenalties, false).score);
  // Preemption is lossless: the eviction checkpoint is taken at the
  // moment the device stops, so nothing is recomputed.
  EXPECT_EQ(done.restores, 1u);
  EXPECT_EQ(done.recomputed_cycles, 0u);

  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.recovery.preemptions, 1u);
  EXPECT_EQ(m.recovery.resumes, 1u);
  EXPECT_EQ(m.recovery.restores, 1u);
  EXPECT_EQ(m.recovery.recomputed_cycles, 0u);
}

TEST(EngineRecovery, PreemptThenCancelDropsTheParkedJob) {
  Prng prng(0x9ee2);
  std::string a = gen::random_sequence(prng, 4000);
  const std::string b = gen::mutate_sequence(prng, a, 0.10);
  std::vector<gen::SequencePair> pairs;
  pairs.push_back({0, std::move(a), b});

  Engine engine{EngineConfig{}};
  BatchJob job;
  job.pairs = pairs;
  const JobHandle h = engine.submit(std::move(job));
  EXPECT_TRUE(engine.poll());
  ASSERT_TRUE(engine.preempt(h));
  EXPECT_EQ(engine.in_flight(), 1u);  // parked still counts as in flight

  EXPECT_TRUE(engine.cancel(h));  // dropping the checkpoint cancels the job
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_FALSE(engine.resume(h));
  EXPECT_FALSE(engine.cancel(h));

  // The device is unharmed: fresh work completes normally.
  const auto fresh = gen::generate_input_set({150, 0.08, 4, 183});
  BatchJob next;
  next.pairs = fresh;
  const Completion done = engine.wait(engine.submit(std::move(next)));
  EXPECT_EQ(done.outcome, drv::RunOutcome::kOk);
}

TEST(PipelinedMakespan, OverlapsPhasesAndRespectsBounds) {
  // Three identical jobs on one device: enc=10, accel=100, dec=20.
  std::vector<PhaseSample> jobs(3, PhaseSample{10, 100, 20, 0});
  const std::uint64_t makespan = pipelined_makespan(jobs, 1);
  // Serial sum would be 390. Device-bound pipeline: first encode (10),
  // three back-to-back aligns (300), last decode (20) = 330.
  EXPECT_EQ(makespan, 330u);
  EXPECT_LT(makespan, 390u);

  // Two devices halve the align backbone; the single CPU serialises the
  // encodes and decodes around it.
  const std::uint64_t two_dev = pipelined_makespan(
      std::vector<PhaseSample>{{10, 100, 20, 0}, {10, 100, 20, 1}}, 2);
  // enc0(10) enc1(20); aligns end at 110 and 120; decodes at 130 and 150.
  EXPECT_EQ(two_dev, 150u);

  // A single job cannot overlap with anything: pure serial.
  const std::uint64_t one = pipelined_makespan(
      std::vector<PhaseSample>{{10, 100, 20, 0}}, 4);
  EXPECT_EQ(one, 130u);
}

TEST(PipelinedMakespan, RejectsAnOutOfRangeDeviceBeforeScheduling) {
  // The bad index is the first job's, so a schedule that looked it up
  // before checking would read past the per-device state.
  const std::vector<PhaseSample> jobs{{10, 100, 20, 5}, {10, 100, 20, 0}};
  EXPECT_DEATH((void)pipelined_makespan(jobs, 2), "device index out of range");
}

/// The greedy list schedule written as a scan over all jobs at every step:
/// the specification pipelined_makespan must reproduce.
std::uint64_t scan_makespan(std::span<const PhaseSample> jobs,
                            unsigned num_devices, unsigned slots_per_device) {
  const std::size_t n = jobs.size();
  std::vector<std::uint64_t> align_end(n, 0);
  std::vector<std::uint64_t> device_free(num_devices, 0);
  std::vector<unsigned> in_flight(num_devices, 0);
  std::vector<char> encoded(n, 0);
  std::vector<char> decoded(n, 0);
  std::uint64_t cpu_t = 0;
  std::size_t next_encode = 0;
  std::size_t remaining = n;
  while (remaining > 0) {
    std::size_t decode_pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (encoded[i] && !decoded[i] &&
          (decode_pick == n || align_end[i] < align_end[decode_pick])) {
        decode_pick = i;
      }
    }
    const bool can_encode =
        next_encode < n &&
        in_flight[jobs[next_encode].device] < slots_per_device;
    if (decode_pick < n && (align_end[decode_pick] <= cpu_t || !can_encode)) {
      const PhaseSample& job = jobs[decode_pick];
      cpu_t = std::max(cpu_t, align_end[decode_pick]) + job.decode;
      decoded[decode_pick] = 1;
      --in_flight[job.device];
      --remaining;
    } else {
      const std::size_t i = next_encode++;
      const PhaseSample& job = jobs[i];
      cpu_t += job.encode;
      align_end[i] = std::max(device_free[job.device], cpu_t) + job.accel;
      device_free[job.device] = align_end[i];
      ++in_flight[job.device];
      encoded[i] = 1;
    }
  }
  return cpu_t;
}

TEST(PipelinedMakespan, MatchesFullScanScheduleOnRandomJobs) {
  Prng prng(37);
  for (int trial = 0; trial < 12000; ++trial) {
    const auto devices = static_cast<unsigned>(prng.next_range(1, 5));
    const auto slots = static_cast<unsigned>(prng.next_range(1, 3));
    // Small phase ranges make equal align ends (decode ties) common.
    const std::uint64_t phase_max = prng.next_below(6) + 1;
    std::vector<PhaseSample> jobs(prng.next_below(41));
    for (PhaseSample& job : jobs) {
      job.encode = prng.next_below(phase_max);
      job.accel = prng.next_below(2 * phase_max);
      job.decode = prng.next_below(phase_max);
      job.device = static_cast<unsigned>(prng.next_below(devices));
    }
    ASSERT_EQ(pipelined_makespan(jobs, devices, slots),
              scan_makespan(jobs, devices, slots))
        << "trial " << trial << ": " << jobs.size() << " jobs, " << devices
        << " devices, " << slots << " slots";
  }
}

}  // namespace
}  // namespace wfasic::engine
