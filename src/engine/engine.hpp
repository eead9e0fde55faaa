// The asynchronous alignment engine: submission/completion queues over a
// fleet of AlignmentBackends.
//
// The engine replaces the SoC's blocking run_batch loop as the host-side
// orchestrator (Soc stays as a thin facade over a K=1 engine):
//   - submit() assigns each batch to the least-loaded hardware device
//     (ties break to the lowest index — deterministic) and returns an
//     engine-level handle; poll()/wait() advance all devices in bounded
//     interleaved quanta and collect completions;
//   - run_dataset() shards an arbitrarily large dataset across the K
//     devices, merges results back in submission (= dataset) order, and
//     accounts the run as a three-stage pipeline: encode batch N+1 and
//     decode batch N-1 overlap the aligning of batch N, so the reported
//     pipeline_cycles is the makespan of that schedule, not the serial
//     sum (pipelined_makespan below);
//   - run_resilient() is the one fault-tolerant flow: tolerant jobs
//     harvest every verifiable result, failing segments requeue through
//     bisection across whichever device is free, and pairs the hardware
//     cannot complete land on the SwBackend as the terminal fallback.
// See docs/ENGINE.md for the full design.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "engine/backend.hpp"
#include "engine/health.hpp"
#include "engine/hw_backend.hpp"
#include "engine/metrics.hpp"
#include "engine/sw_backend.hpp"
#include "gen/seqgen.hpp"

namespace wfasic::engine {

struct EngineConfig {
  /// Simulated accelerator devices to shard over.
  unsigned num_devices = 1;
  /// Template for every device (each gets its own memory + accelerator).
  HwBackendConfig device;
  SwBackendConfig software;
  /// Report run_dataset() totals as the pipelined makespan instead of the
  /// serial encode+align+decode sum.
  bool pipelined_accounting = true;
  /// Device health management: error scoreboards, quarantine after
  /// repeated failures, golden-pair self-test probes for re-admission
  /// (see engine/health.hpp and docs/RELIABILITY.md).
  HealthConfig health;
  /// run_dataset(): hardware retries a failed shard gets on healthy
  /// devices before it degrades onto the software backend.
  unsigned dataset_retry_budget = 2;
};

/// Per-job phase durations feeding the pipelined schedule.
struct PhaseSample {
  std::uint64_t encode = 0;  ///< CPU input staging
  std::uint64_t accel = 0;   ///< device busy time
  std::uint64_t decode = 0;  ///< CPU result decode + backtrace
  unsigned device = 0;       ///< which accelerator ran the batch
};

/// One pair's final outcome from Engine::run_resilient.
struct PairOutcome {
  std::uint32_t id = 0;
  bool resolved = false;      ///< a trustworthy result was produced
  core::AlignResult result;   ///< score + CIGAR (CIGAR in BT mode only)
  bool cpu_fallback = false;  ///< resolved by the software backend
  unsigned hw_attempts = 0;   ///< hardware launches that included it
};

struct ResilientConfig {
  bool backtrace = true;  ///< BT mode: CIGARs + deep stream self-checks
  /// Per-launch wait budget; generous, the watchdog usually fires first.
  std::uint64_t launch_cycle_budget = 50'000'000;
};

struct ResilientReport {
  std::vector<PairOutcome> outcomes;  ///< one per input pair, in order
  std::uint64_t total_cycles = 0;     ///< accelerator cycles, all launches
  unsigned launches = 0;
  unsigned retries = 0;  ///< launches beyond the first
  unsigned cpu_fallbacks = 0;

  [[nodiscard]] bool complete() const {
    for (const PairOutcome& o : outcomes) {
      if (!o.resolved) return false;
    }
    return true;
  }
};

/// Makespan of the three-stage pipeline: one CPU (encoding and decoding,
/// decode preferred when both are ready) feeding `num_devices`
/// accelerators, each with `slots_per_device` input arena slots bounding
/// how far encode may run ahead. Greedy list schedule in submission
/// order — the schedule HwBackend's double-buffered staging actually
/// executes.
[[nodiscard]] std::uint64_t pipelined_makespan(
    std::span<const PhaseSample> jobs, unsigned num_devices,
    unsigned slots_per_device = 2);

class Engine {
 public:
  explicit Engine(const EngineConfig& cfg);
  /// Borrowing: device 0 drives an externally owned memory/accelerator
  /// (the Soc facade); additional devices are engine-owned.
  Engine(const EngineConfig& cfg, mem::MainMemory& memory,
         hw::Accelerator& accelerator);

  // --- Asynchronous surface -------------------------------------------------
  /// Queues a batch on the least-loaded device and returns an engine-level
  /// handle. Pair ids must be launch-local 0..n-1.
  JobHandle submit(BatchJob job);
  /// Queues a batch on the software backend instead (the resilient path's
  /// terminal fallback; also usable as a baseline).
  JobHandle submit_software(BatchJob job);
  /// Directed submission: queues a batch on device `device` regardless of
  /// load. The service layer's hedged retries use this to place a copy
  /// away from the straggling device; plain submit() remains the
  /// least-loaded default.
  JobHandle submit_on(unsigned device, BatchJob job);
  /// Advances every backend by one bounded quantum and collects finished
  /// completions. Returns true while any submitted work remains.
  bool poll();
  /// Polls until `handle` completes, then moves its completion out.
  Completion wait(JobHandle handle);
  /// True once `handle` has completed and its record awaits collection.
  [[nodiscard]] bool ready(JobHandle handle) const {
    return completed_.count(handle.value) != 0;
  }
  /// Non-blocking completion pickup: moves the record out when the job
  /// has finished, nullopt while it is still queued or running.
  std::optional<Completion> try_collect(JobHandle handle) {
    return try_take(handle);
  }
  /// Cancels a still-queued job. Returns true when it was removed. Also
  /// recalls preempted (parked) jobs and adopted migrations that have not
  /// relaunched.
  bool cancel(JobHandle handle);
  /// Checkpoint-evicts `handle` from its device if it is the device's
  /// active run (the preemption path: a deadline-critical tenant needs
  /// the device now). The engine handle stays valid; the job is parked —
  /// poll()/wait() make no progress on it — until resume() or cancel().
  /// False when the job is not a device's active run (still queued,
  /// already parked, software, or finished).
  bool preempt(JobHandle handle);
  /// Re-dispatches a parked job onto the least-loaded usable device; it
  /// continues from its eviction checkpoint (lossless — no recompute).
  /// False when `handle` is not parked.
  bool resume(JobHandle handle);
  /// True while `handle` sits parked between preempt() and resume().
  [[nodiscard]] bool preempted(JobHandle handle) const {
    return parked_.count(handle.value) != 0;
  }
  /// The backend index a live handle was filed on (num_devices() = the
  /// software backend). Valid until the completion is collected.
  [[nodiscard]] unsigned handle_device(JobHandle handle) const;
  [[nodiscard]] std::size_t in_flight() const;

  // --- Batch facades --------------------------------------------------------
  /// One batch through the co-design flow (what Soc::run_batch always
  /// did). Serial accounting: pipeline_cycles stays 0.
  [[nodiscard]] BatchResult run_batch(std::span<const gen::SequencePair> pairs,
                                      bool backtrace, bool separate_data);
  /// An arbitrarily large dataset in batches of at most `batch_pairs`,
  /// sharded across the devices, merged in dataset order. With
  /// pipelined_accounting the result's pipeline_cycles is the overlapped
  /// makespan.
  [[nodiscard]] BatchResult run_dataset(
      std::span<const gen::SequencePair> pairs, std::size_t batch_pairs,
      bool backtrace, bool separate_data);

  // --- Resilient execution --------------------------------------------------
  using PairOutcome = engine::PairOutcome;
  using ResilientConfig = engine::ResilientConfig;
  using ResilientReport = engine::ResilientReport;

  /// Runs `pairs` to completion in the face of faults, on the engine's
  /// queues: tolerant jobs harvest every verifiable result; failing
  /// segments bisect and requeue (re-encoding repairs input corruption);
  /// pairs too long for the chip, hardware rejections and pairs still
  /// unresolved after two isolated launches fall back to the SwBackend.
  /// Every pair ends up resolved; deterministic given a deterministic
  /// fault schedule.
  ResilientReport run_resilient(std::span<const gen::SequencePair> pairs,
                                const ResilientConfig& cfg = {});

  [[nodiscard]] unsigned num_devices() const {
    return static_cast<unsigned>(devices_.size());
  }
  [[nodiscard]] HwBackend& device(unsigned idx) { return *devices_[idx]; }
  [[nodiscard]] SwBackend& software() { return software_; }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }

  // --- Observability --------------------------------------------------------
  /// Cumulative engine metrics (engine/metrics.hpp): per-backend job and
  /// busy-cycle accounting, queue-depth and in-flight high-waters,
  /// submit→complete latency histogram, health transition log. Purely
  /// observational — reading it never perturbs scheduling or cycle counts.
  [[nodiscard]] EngineMetrics metrics() const;

  // --- Device health --------------------------------------------------------
  /// Scoreboards, quarantine state and probe history (health.hpp).
  [[nodiscard]] const HealthMonitor& health() const { return health_; }
  /// Feeds one completion outcome into the health scoreboard (quarantine
  /// after repeated failures, golden probes to readmit or retire). The
  /// batch facades call this themselves; callers that collect completions
  /// through try_collect() — the service layer — report outcomes here so
  /// the scoreboard keeps acting as their per-device circuit breaker.
  void note_outcome(unsigned dev, drv::RunOutcome outcome) {
    note_device_outcome(dev, outcome);
  }
  /// Runs one golden-pair self-test batch on device `dev` and compares
  /// the scores against the software-computed expectation. Does not touch
  /// the scoreboard — callers feed the verdict to HealthMonitor.
  [[nodiscard]] bool probe_device(unsigned dev);

 private:
  struct Ticket {
    unsigned device = 0;       ///< index into devices_
    JobHandle local;           ///< the backend's handle
    std::uint64_t seq = 0;     ///< submission order
  };

  [[nodiscard]] unsigned least_loaded_device() const;
  JobHandle file_submission(unsigned backend_idx, JobHandle local);
  [[nodiscard]] AlignmentBackend& backend(unsigned idx);
  /// One engine tick: polls every backend, drains, and files completions
  /// under their engine handles.
  bool poll_once();
  /// Non-blocking completion pickup; erases the ticket when found.
  std::optional<Completion> try_take(JobHandle handle);
  /// Generates the golden probe batch and its software-expected scores.
  void init_health();
  /// Feeds one scheduled completion's outcome into the scoreboard; when
  /// it trips quarantine, runs golden probes until the device is either
  /// readmitted or retired. Probe completions never re-enter here.
  void note_device_outcome(unsigned dev, drv::RunOutcome outcome);
  /// Failover: takes the failed run's checkpoint migration off device
  /// `failed_dev` (if one survived) and adopts it on the best healthy
  /// device, preferring any other usable device over the one that just
  /// failed. Returns the new engine handle, or nullopt when no
  /// checkpoint exists — the caller falls back to a scratch re-run.
  std::optional<JobHandle> failover(unsigned failed_dev,
                                    JobHandle failed_local);

  EngineConfig cfg_;
  std::vector<std::unique_ptr<HwBackend>> devices_;
  SwBackend software_;
  HealthMonitor health_;
  std::vector<gen::SequencePair> golden_;  ///< probe batch (launch-local)
  std::vector<score_t> golden_scores_;     ///< software-expected scores

  std::uint64_t next_ticket_ = 1;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<std::uint64_t, Ticket> tickets_;  ///< by engine handle
  /// Per backend (devices, then software): local handle -> engine handle.
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> local_to_engine_;
  std::unordered_map<std::uint64_t, Completion> completed_;
  /// Preempted jobs awaiting resume(), by engine handle. Their tickets
  /// stay alive (device = where they ran; local = stale).
  std::unordered_map<std::uint64_t, HwBackend::Migration> parked_;

  // Metrics accumulators (observational only; updated in file_submission
  // and poll_once, never read by any scheduling decision).
  std::vector<DeviceMetrics> metric_devices_;  ///< devices, then software
  std::uint64_t metric_submits_ = 0;
  std::uint64_t metric_completions_ = 0;
  Log2Histogram metric_latency_;
  std::size_t metric_inflight_high_water_ = 0;
  /// checkpoints/restores/recomputed_cycles accumulate from completion
  /// records in poll_once; the event counters tick at their call sites.
  RecoveryMetrics metric_recovery_;
};

}  // namespace wfasic::engine
