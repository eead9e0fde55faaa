#include "engine/engine.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/assert.hpp"
#include "core/wfa.hpp"
#include "hw/input_format.hpp"

namespace wfasic::engine {

namespace {

/// run_resilient's overall launch guard across retries.
constexpr unsigned kMaxLaunches = 256;
/// Hardware tries an isolated pair gets before it degrades to software
/// (transient faults fade; the schedule is finite).
constexpr unsigned kSingletonAttempts = 2;

// The golden self-test batch health probes run (health.hpp): scores are
// precomputed with the software WFA at engine construction, so the batch
// is deterministic in its seed.
constexpr std::size_t kGoldenPairs = 4;
constexpr std::size_t kGoldenLength = 64;
constexpr double kGoldenErrorRate = 0.05;
constexpr std::uint64_t kGoldenSeed = 0xC0FFEE;
/// Device cycle budget for one probe launch.
constexpr std::uint64_t kProbeCycleBudget = 10'000'000;

}  // namespace

std::uint64_t pipelined_makespan(std::span<const PhaseSample> jobs,
                                 unsigned num_devices,
                                 unsigned slots_per_device) {
  WFASIC_REQUIRE(num_devices > 0 && slots_per_device > 0,
                 "pipelined_makespan: empty machine");
  for (const PhaseSample& job : jobs) {
    WFASIC_REQUIRE(job.device < num_devices,
                   "pipelined_makespan: device index out of range");
  }
  // Encoded-but-undecoded jobs as (align end, index): never more than
  // num_devices * slots_per_device entries, so each step's scan is short.
  std::vector<std::pair<std::uint64_t, std::size_t>> aligning;
  std::vector<std::uint64_t> device_free(num_devices, 0);
  std::vector<unsigned> in_flight(num_devices, 0);

  std::uint64_t cpu_t = 0;
  std::size_t next_encode = 0;
  while (next_encode < jobs.size() || !aligning.empty()) {
    // Earliest-finishing aligned-but-undecoded job (ties: lowest index).
    const auto pick = std::min_element(aligning.begin(), aligning.end());
    const bool can_encode =
        next_encode < jobs.size() &&
        in_flight[jobs[next_encode].device] < slots_per_device;

    if (pick != aligning.end() && (pick->first <= cpu_t || !can_encode)) {
      // Decode: preferred when ready (frees an arena slot), or forced when
      // the next encode is blocked on a full arena.
      const PhaseSample& job = jobs[pick->second];
      cpu_t = std::max(cpu_t, pick->first) + job.decode;
      --in_flight[job.device];
      *pick = aligning.back();
      aligning.pop_back();
    } else if (can_encode) {
      const std::size_t i = next_encode++;
      const PhaseSample& job = jobs[i];
      cpu_t += job.encode;
      const std::uint64_t align_end =
          std::max(device_free[job.device], cpu_t) + job.accel;
      device_free[job.device] = align_end;
      ++in_flight[job.device];
      aligning.emplace_back(align_end, i);
    } else {
      WFASIC_REQUIRE(false, "pipelined_makespan: schedule wedged");
    }
  }
  return cpu_t;
}

namespace {

// The software fallback must score with the device's penalties, or the
// resilient path's CPU-resolved pairs would disagree with the hardware.
SwBackendConfig software_config(const EngineConfig& cfg) {
  SwBackendConfig sw = cfg.software;
  sw.pen = cfg.device.accel.pen;
  return sw;
}

}  // namespace

Engine::Engine(const EngineConfig& cfg)
    : cfg_(cfg),
      software_(software_config(cfg)),
      health_(cfg.health, cfg.num_devices) {
  WFASIC_REQUIRE(cfg_.num_devices > 0, "Engine: needs at least one device");
  cfg_.software = software_.config();
  for (unsigned d = 0; d < cfg_.num_devices; ++d) {
    devices_.push_back(std::make_unique<HwBackend>(cfg_.device));
  }
  local_to_engine_.resize(devices_.size() + 1);
  metric_devices_.resize(devices_.size() + 1);
  init_health();
}

void Engine::init_health() {
  if (!cfg_.health.enabled) return;
  gen::InputSetSpec spec;
  spec.length = kGoldenLength;
  spec.error_rate = kGoldenErrorRate;
  spec.num_pairs = kGoldenPairs;
  spec.seed = kGoldenSeed;
  golden_ = gen::generate_input_set(spec);
  // Expected scores come from the software reference with the device's
  // penalties — the same ground truth the resilient path verifies against.
  core::WfaConfig wfa;
  wfa.pen = cfg_.device.accel.pen;
  wfa.traceback = core::Traceback::kDisabled;
  core::WfaAligner aligner(wfa);
  golden_scores_.reserve(golden_.size());
  for (const gen::SequencePair& pair : golden_) {
    golden_scores_.push_back(aligner.align(pair.a, pair.b).score);
  }
}

bool Engine::probe_device(unsigned dev) {
  WFASIC_REQUIRE(dev < devices_.size(), "Engine::probe_device: bad device");
  WFASIC_REQUIRE(!golden_.empty(),
                 "Engine::probe_device: health management is disabled");
  // Tolerant + NBT: a faulted device yields a short/empty harvest (a
  // failed probe), never an aborting decode.
  BatchJob job;
  job.pairs = golden_;
  job.backtrace = false;
  job.tolerant = true;
  job.cycle_budget = kProbeCycleBudget;
  const JobHandle local = devices_[dev]->submit(std::move(job));
  const Completion completion = wait(file_submission(dev, local));
  if (completion.harvest.size() != golden_.size()) return false;
  std::vector<char> seen(golden_.size(), 0);
  for (const drv::HarvestedPair& h : completion.harvest) {
    if (h.local_id >= golden_.size() || seen[h.local_id] != 0 ||
        h.hw_rejected) {
      return false;
    }
    seen[h.local_id] = 1;
    if (!h.result.ok || h.result.score != golden_scores_[h.local_id]) {
      return false;
    }
  }
  return true;
}

void Engine::note_device_outcome(unsigned dev, drv::RunOutcome outcome) {
  if (!cfg_.health.enabled || dev >= devices_.size()) return;
  const bool failed = outcome == drv::RunOutcome::kTimeout ||
                      outcome == drv::RunOutcome::kDmaError ||
                      outcome == drv::RunOutcome::kDataError;
  if (!failed) {
    health_.record_success(dev);
    return;
  }
  if (!health_.record_failure(dev)) return;
  // Quarantine tripped: golden probes decide readmission or retirement.
  // record_probe always leaves kQuarantined within probe_attempts calls.
  while (health_.board(dev).health == DeviceHealth::kQuarantined) {
    health_.record_probe(dev, probe_device(dev));
  }
}

AlignmentBackend& Engine::backend(unsigned idx) {
  return idx < devices_.size()
             ? static_cast<AlignmentBackend&>(*devices_[idx])
             : static_cast<AlignmentBackend&>(software_);
}

unsigned Engine::least_loaded_device() const {
  // Quarantined/retired devices receive no scheduled work. If every
  // device is unusable the plain rule applies — submit() must still file
  // the job somewhere; resilient callers check any_usable() and degrade
  // to software instead of submitting.
  unsigned best = 0;
  bool best_usable = health_.usable(0);
  for (unsigned d = 1; d < devices_.size(); ++d) {
    const bool usable = health_.usable(d);
    if (usable && !best_usable) {
      best = d;
      best_usable = true;
      continue;
    }
    if (usable == best_usable &&
        devices_[d]->pending() < devices_[best]->pending()) {
      best = d;
    }
  }
  return best;
}

JobHandle Engine::file_submission(unsigned backend_idx, JobHandle local) {
  const JobHandle handle{next_ticket_++};
  tickets_.emplace(handle.value,
                   Ticket{backend_idx, local, next_seq_++});
  local_to_engine_[backend_idx].emplace(local.value, handle.value);
  ++metric_submits_;
  DeviceMetrics& dm = metric_devices_[backend_idx];
  dm.queue_depth_high_water =
      std::max(dm.queue_depth_high_water, backend(backend_idx).pending());
  metric_inflight_high_water_ =
      std::max(metric_inflight_high_water_, in_flight());
  return handle;
}

JobHandle Engine::submit(BatchJob job) {
  const unsigned dev = least_loaded_device();
  const JobHandle local = devices_[dev]->submit(std::move(job));
  return file_submission(dev, local);
}

JobHandle Engine::submit_on(unsigned device, BatchJob job) {
  WFASIC_REQUIRE(device < devices_.size(), "Engine::submit_on: bad device");
  const JobHandle local = devices_[device]->submit(std::move(job));
  return file_submission(device, local);
}

unsigned Engine::handle_device(JobHandle handle) const {
  const auto it = tickets_.find(handle.value);
  WFASIC_REQUIRE(it != tickets_.end(), "Engine::handle_device: unknown handle");
  return it->second.device;
}

JobHandle Engine::submit_software(BatchJob job) {
  const JobHandle local = software_.submit(std::move(job));
  return file_submission(static_cast<unsigned>(devices_.size()), local);
}

bool Engine::poll_once() {
  bool any = false;
  const auto service = [&](unsigned idx, AlignmentBackend& b) {
    if (b.pending() > 0) any = b.poll() || any;
    for (Completion& c : b.drain()) {
      auto& map = local_to_engine_[idx];
      const auto it = map.find(c.handle.value);
      WFASIC_REQUIRE(it != map.end(), "Engine: completion for unknown job");
      const std::uint64_t engine_handle = it->second;
      map.erase(it);
      c.handle = JobHandle{engine_handle};
      // Metrics: latency is the job's modelled cycle cost (encode + device
      // + decode for hardware, the alignment cycles for software) — a
      // deterministic function of the completion, not of host wall time.
      const bool is_sw = idx == devices_.size();
      DeviceMetrics& dm = metric_devices_[idx];
      if (c.completed_run()) {
        ++dm.jobs_completed;
      } else {
        ++dm.jobs_failed;
      }
      dm.busy_cycles += is_sw ? c.sw_align_cycles : c.accel_cycles;
      // Each recovery event is reported by exactly one completion (a
      // migrated continuation's counters restart at zero), so summing
      // here counts every checkpoint/restore once.
      metric_recovery_.checkpoints += c.checkpoints;
      metric_recovery_.restores += c.restores;
      metric_recovery_.recomputed_cycles += c.recomputed_cycles;
      metric_latency_.record(
          is_sw ? c.sw_align_cycles
                : c.encode_cycles + c.accel_cycles + c.decode_cycles);
      ++metric_completions_;
      completed_.emplace(engine_handle, std::move(c));
    }
  };
  for (unsigned d = 0; d < devices_.size(); ++d) service(d, *devices_[d]);
  service(static_cast<unsigned>(devices_.size()), software_);
  return any;
}

bool Engine::poll() {
  poll_once();
  return in_flight() > 0;
}

std::size_t Engine::in_flight() const {
  return tickets_.size() - completed_.size();
}

EngineMetrics Engine::metrics() const {
  EngineMetrics m;
  m.devices = metric_devices_;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    m.devices[d].total_cycles = devices_[d]->accelerator().now();
  }
  // The software backend's clock only advances while it aligns (modelled
  // CPU op cycles), so its lane is fully utilized over its own clock.
  m.devices.back().total_cycles = m.devices.back().busy_cycles;
  m.submits = metric_submits_;
  m.completions = metric_completions_;
  m.latency = metric_latency_;
  m.in_flight_high_water = metric_inflight_high_water_;
  m.health_transitions = health_.transitions();
  m.recovery = metric_recovery_;
  return m;
}

std::optional<Completion> Engine::try_take(JobHandle handle) {
  const auto it = completed_.find(handle.value);
  if (it == completed_.end()) return std::nullopt;
  Completion out = std::move(it->second);
  completed_.erase(it);
  tickets_.erase(handle.value);
  return out;
}

Completion Engine::wait(JobHandle handle) {
  WFASIC_REQUIRE(tickets_.find(handle.value) != tickets_.end(),
                 "Engine::wait: unknown handle");
  while (true) {
    if (std::optional<Completion> done = try_take(handle)) {
      return std::move(*done);
    }
    const bool progressed = poll_once();
    WFASIC_REQUIRE(progressed || completed_.count(handle.value) != 0,
                   "Engine::wait: backends idle but the job never finished");
  }
}

bool Engine::cancel(JobHandle handle) {
  const auto parked = parked_.find(handle.value);
  if (parked != parked_.end()) {
    // A parked job holds no backend resources — dropping its checkpoint
    // is the whole cancellation (preempt-then-cancel).
    parked_.erase(parked);
    tickets_.erase(handle.value);
    return true;
  }
  const auto it = tickets_.find(handle.value);
  if (it == tickets_.end()) return false;
  const Ticket ticket = it->second;
  if (!backend(ticket.device).cancel(ticket.local)) return false;
  local_to_engine_[ticket.device].erase(ticket.local.value);
  tickets_.erase(it);
  return true;
}

bool Engine::preempt(JobHandle handle) {
  if (parked_.count(handle.value) != 0 ||
      completed_.count(handle.value) != 0) {
    return false;
  }
  const auto it = tickets_.find(handle.value);
  if (it == tickets_.end()) return false;
  const Ticket& ticket = it->second;
  if (ticket.device >= devices_.size()) return false;  // software job
  std::optional<HwBackend::Migration> migration =
      devices_[ticket.device]->preempt(ticket.local);
  if (!migration.has_value()) return false;
  local_to_engine_[ticket.device].erase(ticket.local.value);
  parked_.emplace(handle.value, std::move(*migration));
  ++metric_recovery_.preemptions;
  return true;
}

bool Engine::resume(JobHandle handle) {
  const auto it = parked_.find(handle.value);
  if (it == parked_.end()) return false;
  HwBackend::Migration migration = std::move(it->second);
  parked_.erase(it);
  const unsigned dev = least_loaded_device();
  const JobHandle local = devices_[dev]->adopt(std::move(migration));
  Ticket& ticket = tickets_.at(handle.value);
  ticket.device = dev;
  ticket.local = local;
  local_to_engine_[dev].emplace(local.value, handle.value);
  ++metric_recovery_.resumes;
  return true;
}

std::optional<JobHandle> Engine::failover(unsigned failed_dev,
                                          JobHandle failed_local) {
  std::optional<HwBackend::Migration> migration =
      devices_[failed_dev]->take_migration(failed_local);
  if (!migration.has_value()) return std::nullopt;
  // Prefer any other usable device over the one that just failed; among
  // those, least loaded (ties: lowest index). With nowhere else to go the
  // failed device readopts its own checkpoint — still cheaper than a
  // scratch re-run.
  unsigned target = failed_dev;
  bool found_other = false;
  for (unsigned d = 0; d < static_cast<unsigned>(devices_.size()); ++d) {
    if (d == failed_dev || !health_.usable(d)) continue;
    if (!found_other ||
        devices_[d]->pending() < devices_[target]->pending()) {
      target = d;
      found_other = true;
    }
  }
  const JobHandle local = devices_[target]->adopt(std::move(*migration));
  ++metric_recovery_.migrations;
  return file_submission(target, local);
}

BatchResult Engine::run_batch(std::span<const gen::SequencePair> pairs,
                              bool backtrace, bool separate_data) {
  BatchJob job;
  job.pairs.assign(pairs.begin(), pairs.end());
  job.backtrace = backtrace;
  job.separate_data = separate_data;
  Completion completion = wait(submit(std::move(job)));
  WFASIC_REQUIRE(completion.outcome == drv::RunOutcome::kOk ||
                     completion.outcome == drv::RunOutcome::kPartial,
                 "Engine::run_batch: accelerator run did not complete");
  // Single batch: nothing overlaps, keep the serial accounting.
  return std::move(completion.result);
}

BatchResult Engine::run_dataset(std::span<const gen::SequencePair> pairs,
                                std::size_t batch_pairs, bool backtrace,
                                bool separate_data) {
  WFASIC_REQUIRE(batch_pairs > 0, "Engine::run_dataset: zero batch size");

  // Shard: submit every chunk up front so the devices stream through them
  // back to back while earlier chunks are decoded and merged.
  const auto shard_job = [&](std::size_t base, std::size_t count) {
    BatchJob job;
    job.backtrace = backtrace;
    job.separate_data = separate_data;
    job.pairs.assign(pairs.begin() + static_cast<std::ptrdiff_t>(base),
                     pairs.begin() + static_cast<std::ptrdiff_t>(base + count));
    for (std::size_t i = 0; i < job.pairs.size(); ++i) {
      job.pairs[i].id = static_cast<std::uint32_t>(i);
    }
    return job;
  };
  std::vector<JobHandle> handles;
  std::vector<unsigned> device_of;
  std::vector<JobHandle> local_of;  ///< backend handle, for failover lookup
  std::vector<std::pair<std::size_t, std::size_t>> shards;  // (base, count)
  for (std::size_t base = 0; base < pairs.size(); base += batch_pairs) {
    const std::size_t count = std::min(batch_pairs, pairs.size() - base);
    const JobHandle handle = submit(shard_job(base, count));
    device_of.push_back(tickets_.at(handle.value).device);
    local_of.push_back(tickets_.at(handle.value).local);
    handles.push_back(handle);
    shards.emplace_back(base, count);
  }

  // In-order merge: completions are consumed in submission (= dataset)
  // order regardless of which device finished first.
  BatchResult merged;
  merged.alignments.reserve(pairs.size());
  merged.records.reserve(pairs.size());
  std::vector<PhaseSample> samples;
  samples.reserve(handles.size());
  bool used_software = false;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    Completion completion = wait(handles[i]);
    unsigned dev = device_of[i];
    note_device_outcome(dev, completion.outcome);
    // A shard whose run failed (fault, timeout) retries on a healthy
    // device; when the budget or the fleet is exhausted it degrades onto
    // the software backend — the dataset always completes. With device
    // checkpointing on, a failed shard migrates first: its last
    // checkpoint resumes on a healthy device and only the cycles past
    // the checkpoint are recomputed, instead of the whole shard.
    unsigned attempts = 0;
    JobHandle failed_local = local_of[i];
    while (!completion.completed_run()) {
      if (attempts < cfg_.dataset_retry_budget && health_.any_usable()) {
        ++attempts;
        JobHandle handle;
        if (std::optional<JobHandle> moved = failover(dev, failed_local)) {
          handle = *moved;
        } else {
          const unsigned retry_dev = least_loaded_device();
          const JobHandle local = devices_[retry_dev]->submit(
              shard_job(shards[i].first, shards[i].second));
          handle = file_submission(retry_dev, local);
          ++metric_recovery_.dataset_retries;
        }
        dev = tickets_.at(handle.value).device;
        failed_local = tickets_.at(handle.value).local;
        completion = wait(handle);
        note_device_outcome(dev, completion.outcome);
      } else {
        completion = wait(
            submit_software(shard_job(shards[i].first, shards[i].second)));
        dev = num_devices();  // the CPU lane of the pipeline schedule
        used_software = true;
        ++metric_recovery_.sw_degradations;
        break;
      }
    }
    WFASIC_REQUIRE(completion.completed_run(),
                   "Engine::run_dataset: shard never completed");
    const BatchResult& part = completion.result;
    merged.accel_cycles += part.accel_cycles;
    merged.cpu_bt_cycles += part.cpu_bt_cycles;
    merged.encode_cycles += part.encode_cycles;
    merged.alignments.insert(merged.alignments.end(),
                             part.alignments.begin(), part.alignments.end());
    merged.records.insert(merged.records.end(), part.records.begin(),
                          part.records.end());
    if (part.records.size() < shards[i].second) {
      // Software-degraded shard: no per-pair device measurements; pad so
      // records stay index-aligned with alignments.
      merged.records.resize(merged.records.size() +
                            (shards[i].second - part.records.size()));
    }
    merged.read_records.insert(merged.read_records.end(),
                               part.read_records.begin(),
                               part.read_records.end());
    merged.phase.extend += part.phase.extend;
    merged.phase.compute += part.phase.compute;
    merged.phase.overhead += part.phase.overhead;
    merged.output_stall_cycles += part.output_stall_cycles;
    merged.bt_counters.alignments += part.bt_counters.alignments;
    merged.bt_counters.blocks_scanned += part.bt_counters.blocks_scanned;
    merged.bt_counters.blocks_copied += part.bt_counters.blocks_copied;
    merged.bt_counters.path_steps += part.bt_counters.path_steps;
    merged.bt_counters.match_chars += part.bt_counters.match_chars;
    samples.push_back(PhaseSample{completion.encode_cycles,
                                  completion.accel_cycles,
                                  completion.decode_cycles, dev});
  }
  if (!samples.empty()) {
    // A software-degraded shard occupies an extra "device" lane in the
    // schedule (the CPU pool aligning while the accelerators run).
    merged.pipeline_cycles = pipelined_makespan(
        samples, used_software ? num_devices() + 1 : num_devices());
  }
  return merged;
}

ResilientReport Engine::run_resilient(
    std::span<const gen::SequencePair> pairs, const ResilientConfig& cfg) {
  const hw::AcceleratorConfig& hw_cfg = cfg_.device.accel;
  WFASIC_REQUIRE(pairs.size() <= (cfg.backtrace ? (1u << 23) : (1u << 16)),
                 "Engine::run_resilient: batch exceeds the result-ID width");

  ResilientReport report;
  report.outcomes.resize(pairs.size());
  for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
    report.outcomes[idx].id = pairs[idx].id;
  }

  // Pairs destined for the software backend (oversized reads, hardware
  // rejections, launch-guard leftovers), resolved in one batch at the end.
  std::vector<std::size_t> sw_queue;
  std::vector<char> sent_to_sw(pairs.size(), 0);
  const auto route_to_sw = [&](std::size_t idx) {
    if (sent_to_sw[idx] != 0 || report.outcomes[idx].resolved) return;
    sent_to_sw[idx] = 1;
    sw_queue.push_back(idx);
  };

  // Pre-screen: a pair too long for the chip would make the launch itself
  // reject; it goes straight to the software path.
  std::vector<std::size_t> initial;
  for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
    const std::size_t longest =
        std::max(pairs[idx].a.size(), pairs[idx].b.size());
    const std::uint32_t rounded = hw::round_up_read_len(
        std::max<std::uint32_t>(static_cast<std::uint32_t>(longest), 16));
    if (rounded > hw_cfg.max_supported_read_len) {
      route_to_sw(idx);
    } else {
      initial.push_back(idx);
    }
  }

  std::deque<std::vector<std::size_t>> work;
  if (!initial.empty()) work.push_back(std::move(initial));
  std::vector<unsigned> isolated_tries(pairs.size(), 0);
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> in_flight_segs;

  const auto dispatch = [&]() {
    while (!work.empty() && report.launches < kMaxLaunches) {
      if (!health_.any_usable()) {
        // Every device quarantined/retired: the remaining hardware work
        // degrades onto the software backend instead of queueing on a
        // fleet that cannot run it.
        for (const std::vector<std::size_t>& seg : work) {
          for (const std::size_t idx : seg) route_to_sw(idx);
        }
        work.clear();
        break;
      }
      std::vector<std::size_t> seg = std::move(work.front());
      work.pop_front();
      if (seg.size() == 1) ++isolated_tries[seg[0]];

      // Re-encoding every launch is deliberate: it repairs any bit flips
      // a campaign event landed in the input region. Launch-local ids
      // 0..n-1 map back through `seg`.
      BatchJob job;
      job.backtrace = cfg.backtrace;
      job.tolerant = true;
      job.cycle_budget = cfg.launch_cycle_budget;
      job.pairs.reserve(seg.size());
      for (std::size_t local = 0; local < seg.size(); ++local) {
        job.pairs.push_back({static_cast<std::uint32_t>(local),
                             pairs[seg[local]].a, pairs[seg[local]].b});
      }
      if (report.launches > 0) ++report.retries;
      ++report.launches;
      for (const std::size_t idx : seg) ++report.outcomes[idx].hw_attempts;

      const JobHandle handle = submit(std::move(job));
      in_flight_segs.emplace(handle.value, std::move(seg));
    }
  };

  dispatch();
  while (!in_flight_segs.empty()) {
    poll_once();

    // Consume ready completions in submission order — the same order the
    // blocking driver processed its launches, so requeue decisions (and
    // with them the whole campaign outcome) stay deterministic.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ready;  // (seq, h)
    for (const auto& [handle_value, seg] : in_flight_segs) {
      if (completed_.count(handle_value) != 0) {
        ready.emplace_back(tickets_.at(handle_value).seq, handle_value);
      }
    }
    std::sort(ready.begin(), ready.end());

    for (const auto& [seq, handle_value] : ready) {
      std::vector<std::size_t> seg =
          std::move(in_flight_segs.at(handle_value));
      in_flight_segs.erase(handle_value);
      // The ticket dies inside try_take — capture its device first.
      const unsigned dev = tickets_.at(handle_value).device;
      Completion completion = *try_take(JobHandle{handle_value});
      report.total_cycles += completion.accel_cycles;
      note_device_outcome(dev, completion.outcome);

      std::vector<bool> resolved_local(seg.size(), false);
      for (const drv::HarvestedPair& h : completion.harvest) {
        const std::size_t idx = seg[h.local_id];
        if (report.outcomes[idx].resolved || sent_to_sw[idx] != 0) continue;
        if (h.hw_rejected) {
          // Deterministic hardware rejection (unsupported read, band or
          // score overflow): retrying cannot help, the software path can.
          route_to_sw(idx);
        } else {
          report.outcomes[idx].result = h.result;
          report.outcomes[idx].resolved = true;
        }
        resolved_local[h.local_id] = true;
      }

      std::vector<std::size_t> unresolved;
      for (std::size_t local = 0; local < seg.size(); ++local) {
        const std::size_t idx = seg[local];
        if (!resolved_local[local] && !report.outcomes[idx].resolved &&
            sent_to_sw[idx] == 0) {
          unresolved.push_back(idx);
        }
      }
      if (unresolved.empty()) continue;
      if (unresolved.size() == 1) {
        // Isolated pair: a few more hardware tries, then degrade to
        // software.
        const std::size_t idx = unresolved[0];
        if (isolated_tries[idx] >= kSingletonAttempts) {
          route_to_sw(idx);
        } else {
          work.push_back({idx});
        }
      } else {
        // Bisect: split the failing segment until the poisoned pair is
        // isolated. Healthy halves complete on the next launch.
        const auto mid = unresolved.begin() +
                         static_cast<std::ptrdiff_t>(unresolved.size() / 2);
        work.emplace_back(unresolved.begin(), mid);
        work.emplace_back(mid, unresolved.end());
      }
    }
    dispatch();
  }

  // Launch guard exhausted (or pathological schedule): whatever is still
  // unresolved completes in software. The batch never fails as a whole.
  for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
    if (!report.outcomes[idx].resolved) route_to_sw(idx);
  }

  if (!sw_queue.empty()) {
    BatchJob job;
    job.backtrace = cfg.backtrace;
    job.pairs.reserve(sw_queue.size());
    for (std::size_t local = 0; local < sw_queue.size(); ++local) {
      job.pairs.push_back({static_cast<std::uint32_t>(local),
                           pairs[sw_queue[local]].a,
                           pairs[sw_queue[local]].b});
    }
    Completion completion = wait(submit_software(std::move(job)));
    for (std::size_t local = 0; local < sw_queue.size(); ++local) {
      PairOutcome& out = report.outcomes[sw_queue[local]];
      out.result = completion.result.alignments[local];
      out.resolved = true;
      out.cpu_fallback = true;
      ++report.cpu_fallbacks;
    }
  }
  return report;
}

}  // namespace wfasic::engine
