// The asynchronous alignment engine's backend contract.
//
// A backend accepts alignment batches (submit -> JobHandle), makes
// progress when polled — a bounded quantum of simulated device cycles, or
// a slice of software alignment — and hands finished batches back as
// completion records (drain). Two implementations exist:
//   - HwBackend (hw_backend.hpp): one simulated WFAsic device behind
//     drv::Driver, with double-buffered input/output arenas so the next
//     batch is encoded while the current one aligns;
//   - SwBackend (sw_backend.hpp): the core::wfa reference running over
//     common/parallel_for — the terminal fallback of the resilient path
//     and a baseline backend in its own right.
// The Engine (engine.hpp) owns the submission/completion queues and
// shards batches across several backends.
#pragma once

#include <cstdint>
#include <vector>

#include "core/align_result.hpp"
#include "cpu/cpu_model.hpp"
#include "drv/driver.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"

namespace wfasic::engine {

/// Opaque job identifier, unique within one backend (0 = invalid).
struct JobHandle {
  std::uint64_t value = 0;

  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(const JobHandle&, const JobHandle&) = default;
};

/// One batch submitted to a backend. Pair ids must be launch-local
/// (0..n-1, the hardware result-ID fields are narrow); the engine maps
/// them back to dataset order on completion.
struct BatchJob {
  std::vector<gen::SequencePair> pairs;
  bool backtrace = false;
  bool separate_data = false;
  /// Tolerant mode (the resilient path): decode only what the DMA wrote,
  /// verify every result against the sequences, and report a per-pair
  /// harvest instead of aborting on a damaged stream.
  bool tolerant = false;
  /// Per-launch device cycle budget (0 = the backend's default).
  std::uint64_t cycle_budget = 0;
  /// Caller-chosen correlation id (svc shard id). Purely observational:
  /// carried through to the completion and the device trace annotations,
  /// never consulted by scheduling.
  std::uint64_t trace_tag = 0;
};

/// Outcome of one batch run — what Soc::run_batch has always returned,
/// now produced by the engine. Legacy fields keep their meaning;
/// `encode_cycles`/`pipeline_cycles` are the engine's per-phase view.
struct BatchResult {
  std::uint64_t accel_cycles = 0;   ///< device busy time (start to Idle)
  std::uint64_t cpu_bt_cycles = 0;  ///< CPU backtrace (0 when disabled)
  /// CPU input staging (encode) time, modelled. 0 on the legacy path.
  std::uint64_t encode_cycles = 0;
  /// Modelled makespan of the pipelined schedule (encode N+1 and decode
  /// N-1 overlap the aligning of batch N). 0 when the run was not
  /// pipelined; then total_cycles() degrades to the serial sum.
  std::uint64_t pipeline_cycles = 0;

  [[nodiscard]] std::uint64_t total_cycles() const {
    return pipeline_cycles != 0 ? pipeline_cycles
                                : accel_cycles + cpu_bt_cycles;
  }

  /// Per-pair accelerator measurements, indexed by alignment id.
  std::vector<hw::Aligner::PairRecord> records;
  std::vector<hw::Extractor::PairReadRecord> read_records;
  /// Aligner cycle breakdown summed over all Aligners, this batch only.
  hw::Aligner::PhaseCycles phase;
  std::uint64_t output_stall_cycles = 0;
  /// Decoded alignments, indexed by alignment id. With backtrace disabled
  /// only ok/score are populated.
  std::vector<core::AlignResult> alignments;
  cpu::BtCpuCounters bt_counters;

  bool operator==(const BatchResult&) const = default;
};

/// One finished job, reported through AlignmentBackend::drain.
struct Completion {
  JobHandle handle;
  drv::RunOutcome outcome = drv::RunOutcome::kOk;

  /// The run completed and its results are decodable (mirrors
  /// drv::RunStatus::completed()).
  [[nodiscard]] bool completed_run() const {
    return outcome == drv::RunOutcome::kOk ||
           outcome == drv::RunOutcome::kPartial;
  }
  /// Fully decoded batch (non-tolerant jobs whose run completed).
  BatchResult result;
  /// Tolerant jobs: the verified per-pair harvest (launch-local ids);
  /// pairs absent here did not produce a trustworthy result.
  std::vector<drv::HarvestedPair> harvest;

  // Per-phase cycle samples feeding the engine's pipelined accounting.
  std::uint64_t encode_cycles = 0;    ///< CPU input staging
  std::uint64_t accel_cycles = 0;     ///< device busy time
  std::uint64_t decode_cycles = 0;    ///< CPU result decode + backtrace
  std::uint64_t sw_align_cycles = 0;  ///< SwBackend only: modelled op cycles

  // Recovery-cost accounting (docs/RELIABILITY.md §7). All zero when
  // checkpointing is off: periodic device snapshots captured while this
  // job ran, snapshot restores applied to it (failover adoptions /
  // preemption resumes), and the cycles re-simulated between the last
  // checkpoint and the failure each restore recovered from.
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
  std::uint64_t recomputed_cycles = 0;

  /// The run's PMU bank delta (drv::RunStatus::perf), read back through
  /// the register window at completion. All-zero for SwBackend jobs and
  /// runs that died before classification. Lets a request trace correlate
  /// its device-run span with the hardware counters it generated.
  hw::PerfSnapshot perf;
  /// BatchJob::trace_tag, echoed back.
  std::uint64_t trace_tag = 0;
};

/// The backend interface the engine schedules over.
class AlignmentBackend {
 public:
  AlignmentBackend() = default;
  virtual ~AlignmentBackend() = default;

  AlignmentBackend(const AlignmentBackend&) = delete;
  AlignmentBackend& operator=(const AlignmentBackend&) = delete;

  /// Queues a batch. Never blocks; work happens under poll().
  virtual JobHandle submit(BatchJob job) = 0;

  /// Advances the backend by one bounded quantum. Returns true while any
  /// submitted work remains unfinished.
  virtual bool poll() = 0;

  /// Cancels a still-queued job (a launched job cannot be recalled).
  /// Returns true when the job was found and removed.
  virtual bool cancel(JobHandle handle) = 0;

  /// Jobs submitted but not yet completed (queued, staged or running) —
  /// the load figure least-loaded dispatch keys on.
  [[nodiscard]] virtual std::size_t pending() const = 0;

  /// Moves out finished completion records, oldest first.
  virtual std::vector<Completion> drain() = 0;

  [[nodiscard]] virtual const char* kind() const = 0;
};

}  // namespace wfasic::engine
