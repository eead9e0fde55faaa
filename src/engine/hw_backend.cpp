#include "engine/hw_backend.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "drv/backtrace_cpu.hpp"
#include "hw/input_format.hpp"

namespace wfasic::engine {

HwBackend::HwBackend(const HwBackendConfig& cfg)
    : cfg_(cfg),
      owned_memory_(std::make_unique<mem::MainMemory>(cfg.memory_bytes)),
      owned_accelerator_(
          std::make_unique<hw::Accelerator>(cfg.accel, *owned_memory_)),
      memory_(owned_memory_.get()),
      accelerator_(owned_accelerator_.get()),
      driver_(*accelerator_),
      cpu_(cfg.cpu) {
  init_device();
}

HwBackend::HwBackend(const HwBackendConfig& cfg, mem::MainMemory& memory,
                     hw::Accelerator& accelerator)
    : cfg_(cfg),
      memory_(&memory),
      accelerator_(&accelerator),
      driver_(accelerator),
      cpu_(cfg.cpu) {
  init_device();
}

void HwBackend::init_device() {
  // Checked against the memory actually driven, owned or borrowed: an
  // out_addr past its end would otherwise abort mid-run inside the DMA.
  WFASIC_REQUIRE(cfg_.in_addr < cfg_.out_addr &&
                     cfg_.out_addr < memory_->size(),
                 "HwBackend: arena addresses out of order or out of memory");
  // Program the configured watchdog unconditionally: the device resets
  // with the watchdog armed (hw::kDefaultWatchdogCycles), so a config of
  // 0 ("disabled") must explicitly disarm it — otherwise every engine run
  // inherits the armed reset default, which suppresses the stepping fast
  // paths (Accelerator::idle_skip_allowed) for the whole run.
  accelerator_->write_reg(hw::kRegWatchdog, cfg_.watchdog);
}

void HwBackend::attach_fault_injector(sim::FaultInjector* injector) {
  accelerator_->attach_fault_injector(injector);
}

std::uint64_t HwBackend::predicted_in_bytes(const BatchJob& job) const {
  std::uint32_t longest = 0;
  for (const gen::SequencePair& pair : job.pairs) {
    longest = std::max<std::uint32_t>(
        longest,
        static_cast<std::uint32_t>(std::max(pair.a.size(), pair.b.size())));
  }
  const std::uint32_t rounded =
      hw::round_up_read_len(std::max(longest, 16u));
  return job.pairs.size() * hw::pair_bytes(rounded, cfg_.accel.crc);
}

JobHandle HwBackend::submit(BatchJob job) {
  WFASIC_REQUIRE(!job.pairs.empty(), "HwBackend::submit: empty batch");
  WFASIC_REQUIRE(
      !job.backtrace || job.separate_data || cfg_.accel.num_aligners == 1,
      "HwBackend::submit: multi-Aligner accelerators require the "
      "data-separation backtrace method");
  WFASIC_REQUIRE(
      job.pairs.size() <= (job.backtrace ? (1u << 23) : (1u << 16)),
      "HwBackend::submit: batch exceeds the result-ID width");
  for (std::size_t idx = 0; idx < job.pairs.size(); ++idx) {
    WFASIC_REQUIRE(job.pairs[idx].id == idx,
                   "HwBackend::submit: pair ids must be launch-local 0..n-1");
  }
  WFASIC_REQUIRE(predicted_in_bytes(job) <= cfg_.out_addr - cfg_.in_addr,
                 "HwBackend::submit: batch exceeds the input region");

  const JobHandle handle{next_handle_++};
  queue_.emplace_back(handle, std::move(job));
  return handle;
}

HwBackend::StagedJob HwBackend::encode_front(unsigned slot) {
  StagedJob staged;
  staged.handle = queue_.front().first;
  staged.job = std::move(queue_.front().second);
  queue_.pop_front();

  const std::uint64_t need = predicted_in_bytes(staged.job);
  staged.exclusive = need > input_slot_bytes();
  staged.slot = staged.exclusive ? 0 : slot;
  const std::uint64_t in_addr =
      cfg_.in_addr + staged.slot * input_slot_bytes();
  // Each launch gets a fresh CRC salt so stale result beats of an earlier
  // launch can never verify against this one's footers.
  staged.layout =
      drv::encode_input_set(*memory_, staged.job.pairs, in_addr,
                            cfg_.out_addr, /*force_max_read_len=*/0,
                            cfg_.accel.crc, next_salt_++);
  staged.encode_cycles = static_cast<std::uint64_t>(std::llround(
      static_cast<double>(staged.layout.in_bytes) *
      cfg_.encode_cycles_per_byte));
  return staged;
}

void HwBackend::launch(StagedJob&& staged) {
  ActiveJob active;
  active.staged = std::move(staged);

  // Phase and stall counters accumulate across runs of the same
  // accelerator; remember where this run starts. Per-pair records need no
  // baseline: Accelerator::start clears them.
  for (const auto& aligner : accelerator_->aligners()) {
    active.phase_before.extend += aligner->phase_cycles().extend;
    active.phase_before.compute += aligner->phase_cycles().compute;
    active.phase_before.overhead += aligner->phase_cycles().overhead;
    active.stalls_before += aligner->output_stall_cycles();
  }
  active.beats_before = accelerator_->dma().beats_written();
  active.budget = active.staged.job.cycle_budget != 0
                      ? active.staged.job.cycle_budget
                      : cfg_.launch_cycle_budget;

  driver_.start(active.staged.layout, active.staged.job.backtrace);
  active.start_cycle = accelerator_->now();
  // Correlation marker: the caller's trace tag (svc shard id) lands on the
  // device's cycle trace right at launch, next to the fetch/align spans
  // this run is about to emit. Observational only.
  if (active.staged.job.trace_tag != 0) {
    driver_.annotate_trace("shard-launch", active.staged.job.trace_tag);
  }
  active_ = std::move(active);
}

bool HwBackend::poll() {
  if (!active_.has_value()) {
    if (!adopted_.empty()) {
      // Migrated jobs launch first: they already consumed device time
      // elsewhere and hold a checkpoint of it.
      launch_adopted();
    } else if (staged_.has_value()) {
      StagedJob staged = std::move(*staged_);
      staged_.reset();
      launch(std::move(staged));
    } else if (!queue_.empty()) {
      // Device drained and nothing staged: encode straight into slot 0
      // (the legacy blocking addresses) and launch.
      launch(encode_front(0));
    }
  }
  if (active_.has_value()) {
    // Stage the next batch into the other arena slot while the device
    // runs — the overlap the double-buffered input arena exists for. An
    // exclusive (oversized) job cannot share the region, in either role.
    if (!staged_.has_value() && !queue_.empty() &&
        !active_->staged.exclusive &&
        predicted_in_bytes(queue_.front().second) <= input_slot_bytes()) {
      staged_ = encode_front(1 - active_->staged.slot);
    }

    // One bounded run-until-idle slice. The quantum caps how much device
    // time one poll may consume (the engine interleaves several device
    // simulations); inside the slice the accelerator's fast path skips
    // quiet spans and fuses macro-steps, so a quantum costs far fewer
    // than poll_quantum rounds of virtual ticks.
    accelerator_->step_many(cfg_.poll_quantum);
    maybe_checkpoint();
    const std::uint64_t elapsed =
        accelerator_->now() - active_->start_cycle;
    if (accelerator_->idle() || elapsed >= active_->budget) {
      complete_active();
      // Keep the device busy inside the same poll: the staged successor
      // launches as soon as its predecessor is decoded. Adopted
      // migrations still come first.
      if (!active_.has_value()) {
        if (!adopted_.empty()) {
          launch_adopted();
        } else if (staged_.has_value()) {
          StagedJob staged = std::move(*staged_);
          staged_.reset();
          launch(std::move(staged));
        }
      }
    }
  }
  return pending() > 0;
}

void HwBackend::maybe_checkpoint() {
  if (cfg_.checkpoint_interval == 0 || accelerator_->idle()) return;
  // step_many always exits at a flushed stepping boundary, so poll
  // boundaries are safe snapshot points by construction.
  // checkpoint_cycle (not the counter) keys the base: a migrated job's
  // counters restart at zero, but its restored checkpoint still anchors
  // the interval.
  const std::uint64_t base = active_->checkpoint_cycle != 0
                                 ? active_->checkpoint_cycle
                                 : active_->start_cycle;
  if (accelerator_->now() - base < cfg_.checkpoint_interval) return;
  active_->checkpoint = accelerator_->snapshot();
  active_->checkpoint_cycle = accelerator_->now();
  ++active_->checkpoints;
}

void HwBackend::launch_adopted() {
  auto [handle, migration] = std::move(adopted_.front());
  adopted_.pop_front();
  // The restore overwrites device memory with the checkpoint's pages, so
  // anything staged into the other arena slot is stale afterwards. Put
  // it back at the queue front; it re-encodes on its next launch.
  if (staged_.has_value()) {
    queue_.emplace_front(staged_->handle, std::move(staged_->job));
    staged_.reset();
  }
  // kKeepAttached: the migrated run continues under *this* device's
  // fault environment (usually none). Faults that fired on the source
  // before the checkpoint are baked into the restored state and are not
  // replayed.
  const std::optional<sim::SnapshotError> err = accelerator_->restore(
      migration.job.checkpoint, hw::InjectorRestorePolicy::kKeepAttached);
  if (err.has_value()) {
    // The blob did not validate against this device. A mid-apply error
    // can leave the device indeterminate, so reset before anything else
    // launches; the failure surfaces as a completion the engine can
    // retry from scratch.
    driver_.soft_reset();
    Completion completion;
    completion.handle = handle;
    completion.outcome = drv::RunOutcome::kDataError;
    completion.checkpoints = migration.job.checkpoints;
    completion.restores = migration.job.restores;
    completion.recomputed_cycles = migration.job.recomputed_cycles;
    completion.trace_tag = migration.job.staged.job.trace_tag;
    done_.push_back(std::move(completion));
    return;
  }
  ActiveJob active = std::move(migration.job);
  active.staged.handle = handle;
  active.restores += 1;
  // Everything between the last checkpoint and the point the job left
  // its device is simulated again here — the bounded loss this layer
  // exists to bound (<= checkpoint_interval + poll_quantum).
  active.recomputed_cycles +=
      migration.failure_cycle - active.checkpoint_cycle;
  active_ = std::move(active);
}

void HwBackend::complete_active() {
  ActiveJob active = std::move(*active_);
  active_.reset();

  const std::uint64_t elapsed = accelerator_->now() - active.start_cycle;
  const drv::RunStatus status =
      driver_.classify_run(elapsed, accelerator_->idle());
  // A watchdog/DMA abort leaves the device flushed and idle; only a
  // wait-budget timeout needs an explicit soft reset before relaunching.
  if (!accelerator_->idle()) driver_.soft_reset();

  Completion completion;
  completion.handle = active.staged.handle;
  completion.outcome = status.outcome;
  completion.encode_cycles = active.staged.encode_cycles;
  completion.accel_cycles = elapsed;
  completion.checkpoints = active.checkpoints;
  completion.restores = active.restores;
  completion.recomputed_cycles = active.recomputed_cycles;
  completion.perf = status.perf;
  completion.trace_tag = active.staged.job.trace_tag;

  if (active.staged.job.tolerant) {
    // Resilient path: salvage every verifiable result the run managed to
    // write, bounded by the beats the DMA actually moved.
    const std::uint64_t beat_delta =
        accelerator_->dma().beats_written() - active.beats_before;
    completion.harvest = drv::harvest_verified_results(
        *memory_, active.staged.layout, beat_delta,
        active.staged.job.backtrace, active.staged.job.pairs,
        accelerator_->config());
  } else if (status.completed()) {
    decode_into(completion, active, status);
  }
  if (!completion.completed_run() && !active.staged.job.tolerant &&
      !active.checkpoint.empty()) {
    // Stash the failed run behind its last checkpoint so the engine can
    // migrate it (take_migration -> adopt on a healthy device) instead
    // of re-running it from scratch. Tolerant jobs are excluded: the
    // resilient path re-encodes shrinking sub-batches by design.
    Migration migration;
    migration.failure_cycle = active.start_cycle + elapsed;
    migration.job = std::move(active);
    // The failed completion above just reported these counters; the
    // continuation restarts them at zero so that summing over completion
    // records counts each recovery event exactly once.
    migration.job.checkpoints = 0;
    migration.job.restores = 0;
    migration.job.recomputed_cycles = 0;
    if (failed_migrations_.size() >= kMigrationStashDepth) {
      failed_migrations_.erase(failed_migrations_.begin());
    }
    failed_migrations_.emplace_back(completion.handle, std::move(migration));
  }
  done_.push_back(std::move(completion));
}

std::optional<HwBackend::Migration> HwBackend::take_migration(
    JobHandle handle) {
  for (auto it = failed_migrations_.begin(); it != failed_migrations_.end();
       ++it) {
    if (it->first == handle) {
      Migration migration = std::move(it->second);
      failed_migrations_.erase(it);
      return migration;
    }
  }
  return std::nullopt;
}

std::optional<HwBackend::Migration> HwBackend::preempt(JobHandle handle) {
  if (!active_.has_value() || !(active_->staged.handle == handle)) {
    return std::nullopt;
  }
  Migration migration;
  migration.job = std::move(*active_);
  active_.reset();
  // poll() always leaves the device at a flushed stepping boundary, so
  // snapshotting here is legal. The eviction is lossless: nothing runs
  // between this checkpoint and the hand-off.
  migration.job.checkpoint = accelerator_->snapshot();
  migration.job.checkpoint_cycle = accelerator_->now();
  ++migration.job.checkpoints;
  migration.failure_cycle = migration.job.checkpoint_cycle;
  if (!accelerator_->idle()) driver_.soft_reset();
  return migration;
}

JobHandle HwBackend::adopt(Migration migration) {
  WFASIC_REQUIRE(!migration.job.checkpoint.empty(),
                 "HwBackend::adopt: migration carries no checkpoint");
  const JobHandle handle{next_handle_++};
  adopted_.emplace_back(handle, std::move(migration));
  return handle;
}

namespace {

/// The all-or-nothing policy for a non-tolerant job's read. Under CRC an
/// inconsistent read — an anomaly, or ids that did not come back exactly
/// once — is a transport fault the engine retries: false, and the run
/// completes as kDataError. Without CRC there is no fault verdict to give:
/// a damaged stream from a completed run is a simulator bug and aborts.
bool read_verifies(const drv::BatchLayout& layout, const char* anomaly,
                   bool each_id_once) {
  if (layout.crc) return anomaly == nullptr && each_id_once;
  WFASIC_REQUIRE(anomaly == nullptr, anomaly);
  return true;
}

}  // namespace

void HwBackend::decode_into(Completion& completion, const ActiveJob& active,
                            const drv::RunStatus& status) {
  const BatchJob& job = active.staged.job;
  const drv::BatchLayout& layout = active.staged.layout;
  BatchResult result;
  result.accel_cycles = status.cycles;
  result.encode_cycles = active.staged.encode_cycles;

  result.records.resize(job.pairs.size());
  for (const auto& aligner : accelerator_->aligners()) {
    for (const hw::Aligner::PairRecord& record : aligner->records()) {
      WFASIC_REQUIRE(record.id < result.records.size(),
                     "HwBackend: unexpected alignment id in records");
      result.records[record.id] = record;
    }
  }
  result.read_records = accelerator_->extractor().records();
  for (const auto& aligner : accelerator_->aligners()) {
    result.phase.extend += aligner->phase_cycles().extend;
    result.phase.compute += aligner->phase_cycles().compute;
    result.phase.overhead += aligner->phase_cycles().overhead;
    result.output_stall_cycles += aligner->output_stall_cycles();
  }
  result.phase.extend -= active.phase_before.extend;
  result.phase.compute -= active.phase_before.compute;
  result.phase.overhead -= active.phase_before.overhead;
  result.output_stall_cycles -= active.stalls_before;

  const std::size_t n = job.pairs.size();
  const std::uint64_t beats =
      accelerator_->dma().beats_written() - active.beats_before;
  result.alignments.resize(n);
  if (job.backtrace) {
    const drv::BtStreamScan scan = drv::try_parse_bt_stream(
        *memory_, layout.out_addr, beats * mem::kBeatBytes, n,
        job.separate_data, &result.bt_counters, layout.crc, layout.crc_salt);
    if (!read_verifies(layout, scan.anomaly,
                       drv::each_id_exactly_once(scan.alignments, n))) {
      completion.outcome = drv::RunOutcome::kDataError;
      return;
    }
    for (const drv::BtAlignment& bt : scan.alignments) {
      WFASIC_REQUIRE(bt.id < n,
                     "HwBackend: unexpected alignment id in stream");
      result.alignments[bt.id] = drv::reconstruct_alignment(
          bt, job.pairs[bt.id].a, job.pairs[bt.id].b, accelerator_->config(),
          &result.bt_counters);
    }
    result.cpu_bt_cycles = cpu_.backtrace_cycles(result.bt_counters);
    completion.decode_cycles = result.cpu_bt_cycles;
  } else {
    const char* anomaly = nullptr;
    const std::vector<hw::NbtResult> words =
        drv::try_decode_nbt_results(*memory_, layout, beats, &anomaly);
    if (!read_verifies(layout, anomaly, drv::each_id_exactly_once(words, n))) {
      completion.outcome = drv::RunOutcome::kDataError;
      return;
    }
    // Stream order: a repeated id (possible only without CRC) keeps its
    // last record.
    for (const hw::NbtResult& nbt : words) {
      WFASIC_REQUIRE(nbt.id < n,
                     "HwBackend: unexpected alignment id in results");
      core::AlignResult& out = result.alignments[nbt.id];
      out.ok = nbt.success;
      out.score = static_cast<score_t>(nbt.score);
    }
    completion.decode_cycles = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(layout.num_pairs) *
        cfg_.nbt_decode_cycles_per_pair));
  }
  completion.result = std::move(result);
}

bool HwBackend::cancel(JobHandle handle) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->first == handle) {
      queue_.erase(it);
      return true;
    }
  }
  if (staged_.has_value() && staged_->handle == handle) {
    staged_.reset();
    return true;
  }
  // An adopted migration that has not relaunched yet can still be
  // recalled (preempt-then-cancel): its device work is all in the blob.
  for (auto it = adopted_.begin(); it != adopted_.end(); ++it) {
    if (it->first == handle) {
      adopted_.erase(it);
      return true;
    }
  }
  return false;
}

std::size_t HwBackend::pending() const {
  return queue_.size() + (staged_.has_value() ? 1 : 0) +
         (active_.has_value() ? 1 : 0) + adopted_.size();
}

std::vector<Completion> HwBackend::drain() {
  std::vector<Completion> out = std::move(done_);
  done_.clear();
  return out;
}

}  // namespace wfasic::engine
