// The Aligner module (§4.3): performs one pairwise alignment at a time with
// `parallel_sections` Extend/Compute sub-module pairs working on wavefront
// cells in parallel.
//
// The model is functionally exact (it shares the Eq.-3 kernel with the
// software WFA, so scores and origins are bit-identical) and
// cycle-approximate at batch granularity: every score iteration is turned
// into a schedule of timed batches derived from the pipeline structure of
// the Extend (Figure 7) and Compute sub-modules and the banked wavefront
// RAM access pattern (Figure 6). Backtrace blocks are released at batch
// boundaries and are subject to Collector/Output-FIFO backpressure.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/packed_seq.hpp"
#include "common/types.hpp"
#include "core/wavefront.hpp"
#include "core/wfa_kernel.hpp"
#include "hw/config.hpp"
#include "hw/result_format.hpp"
#include "hw/wavefront_geometry.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"

namespace wfasic::hw {

/// One extracted pair, handed to the Aligner by the Extractor.
struct AlignJob {
  std::uint32_t id = 0;
  bool unsupported = false;  ///< 'N' base or length > MAX_READ_LEN (§4.2)
  bool crc_error = false;    ///< input footer CRC mismatch (kErrCrc)
  PackedSeq a;
  PackedSeq b;
};

class Aligner final : public sim::Component {
 public:
  Aligner(std::string name, const AcceleratorConfig& cfg);

  /// Per-run mode switch (the BT_ENABLE register).
  void set_backtrace(bool enabled) { bt_enabled_ = enabled; }

  // --- Extractor interface -------------------------------------------------
  [[nodiscard]] bool idle() const { return state_ == State::kIdle; }
  /// Reserves the Aligner while the Extractor streams a pair in.
  void begin_load();
  /// Completes the load; alignment starts next cycle.
  void finish_load(AlignJob job, sim::cycle_t now);

  // --- Error architecture ---------------------------------------------------
  /// Drops the in-flight job and output queues (hardware soft reset /
  /// error abort). Records of finished pairs are preserved.
  void abort();
  /// Sticky error-cause bits (hw/regs.hpp ErrBits) latched since the last
  /// clear_errors(); surfaced to the CPU through the Collector.
  [[nodiscard]] std::uint32_t error_flags() const { return error_flags_; }
  void clear_errors() { error_flags_ = 0; }
  /// Monotone progress indicator for the watchdog: advances every cycle
  /// the Aligner does useful work, stands still while it is idle or
  /// stalled on Output-FIFO backpressure.
  [[nodiscard]] std::uint64_t progress() const {
    return busy_cycles_ - output_stall_cycles_;
  }
  /// Fault-injection hook: an SRAM upset in the wavefront RAM banks. Only
  /// flips landing in the live window of a running alignment have any
  /// effect (idle banks are rewritten before reuse). With cfg_.ecc a
  /// single bit is scrubbed (counted in ecc_corrected()); a double flip
  /// poisons the alignment and latches kErrEccUnc. Without ECC the upset
  /// silently lands in the stored M/I/D offsets.
  void inject_ram_flip(std::uint64_t row, unsigned bit, bool double_bit);
  [[nodiscard]] std::uint64_t ecc_corrected() const { return ecc_corrected_; }

  // --- Collector interface -------------------------------------------------
  [[nodiscard]] std::deque<BtTransaction>& bt_queue() { return bt_queue_; }
  [[nodiscard]] std::deque<NbtResult>& nbt_queue() { return nbt_queue_; }
  [[nodiscard]] const std::deque<BtTransaction>& bt_queue() const {
    return bt_queue_;
  }
  [[nodiscard]] const std::deque<NbtResult>& nbt_queue() const {
    return nbt_queue_;
  }

  // --- Statistics -----------------------------------------------------------
  struct PairRecord {
    std::uint32_t id = 0;
    bool success = false;
    score_t score = 0;
    std::uint64_t align_cycles = 0;  ///< finish_load to result queued

    bool operator==(const PairRecord&) const = default;
  };
  /// This run's finished pairs (cleared by Accelerator::start).
  [[nodiscard]] const std::vector<PairRecord>& records() const {
    return records_;
  }
  void clear_records() { records_.clear(); }
  [[nodiscard]] std::uint64_t output_stall_cycles() const {
    return output_stall_cycles_;
  }
  [[nodiscard]] std::uint64_t busy_cycles() const { return busy_cycles_; }

  /// Where the Aligner's scheduled cycles go, accumulated across pairs.
  struct PhaseCycles {
    std::uint64_t extend = 0;    ///< Extend sub-module batches
    std::uint64_t compute = 0;   ///< Compute sub-module batches
    std::uint64_t overhead = 0;  ///< per-score bookkeeping, null scores

    bool operator==(const PhaseCycles&) const = default;
  };
  [[nodiscard]] const PhaseCycles& phase_cycles() const {
    return phase_cycles_;
  }

  // PMU counters (hw/perf.hpp): monotone, observational only.
  /// Score iterations executed (advance_score calls with a live wavefront).
  [[nodiscard]] std::uint64_t wavefront_steps() const {
    return wavefront_steps_;
  }
  /// ExtendUnit invocations (one per valid M cell per extend phase).
  [[nodiscard]] std::uint64_t extend_invocations() const {
    return extend_invocations_;
  }
  /// Total bases matched across all extend runs.
  [[nodiscard]] std::uint64_t extend_matched_bases() const {
    return extend_matched_bases_;
  }

  void tick(sim::cycle_t now) override;

  // Quiescence contract (see sim::Component): ticks that only burn a
  // batch countdown (or the init countdown) are pure counter updates and
  // can be bulk-applied; any tick that releases transactions, pops a
  // batch with observable consequences, or runs step_score() is a
  // boundary and reports 0. Finite reports depend only on this Aligner's
  // own schedule, so they cannot be invalidated early; kIdle/kLoading end
  // only via the Extractor's dispatch, a non-quiet Extractor tick. A stall
  // on a full Collector-facing queue reports 0 (not forever).
  [[nodiscard]] sim::cycle_t quiet_for(sim::cycle_t now) const override;
  void skip_quiet(sim::cycle_t n) override;

  // Compiled macro-step (see sim::Component::macro_step): in an NBT run
  // the entire alignment — init aside — is externally invisible until the
  // single release tick that queues the NbtResult, so the whole
  // wavefront-score inner loop can run fused: score iterations execute
  // back to back with their schedule cycles accounted arithmetically (no
  // per-cycle re-dispatch, no timed-batch deques), stopping one cycle
  // before the release. A budget stop mid-iteration materializes the
  // remaining schedule as one merged txn-free batch — observationally
  // identical under the quiescence contract. BT mode declines (0):
  // transaction releases against Collector backpressure are externally
  // visible at every batch boundary.
  [[nodiscard]] sim::cycle_t macro_step(sim::cycle_t now,
                                        sim::cycle_t budget) override;

  /// Snapshot contract (sim/snapshot.hpp): the complete job, wavefront
  /// ring, batch schedule, queue and statistics state.
  void save_state(sim::SnapshotWriter& w) const;
  void restore_state(sim::SnapshotReader& r);

 private:
  enum class State { kIdle, kLoading, kInit, kRun };

  /// One timed batch of work; its transactions are released when the
  /// countdown expires.
  struct Batch {
    unsigned cycles = 1;
    std::vector<BtTransaction> txns;
  };

  void start_alignment();
  /// What one score iteration cost, by phase. The compute and overhead
  /// cycles are zero when the iteration ended the alignment.
  struct ScoreStep {
    unsigned extend = 0;    ///< Extend sub-module batches (0: none)
    unsigned compute = 0;   ///< compute batches: blocks * ii + pipeline
    unsigned overhead = 0;  ///< per-score bookkeeping, or the null-score tick
    unsigned width = 0;     ///< diagonals computed (0: none)
    diag_t k_reached = 0;   ///< the BT score record's k once done_
  };
  /// One score iteration's functional work, shared by step_score() and
  /// step_score_fused(): extend, the end check, the Eq.-6 overflow check,
  /// the next wavefront's bounds and row compute (origin codes into codes_
  /// when `codes`), and the PMU and phase tallies. Sets done_ when the
  /// alignment finishes (success or overflow); schedules nothing.
  ScoreStep advance_score(bool codes);
  /// advance_score() rendered as timed batches: one per P-block, carrying
  /// the block's BT transactions in BT mode, then the result on finish.
  void step_score();
  /// advance_score() rendered as one sum for the NBT macro-step: the
  /// iteration's schedule cost, excluding the release cycle when it
  /// finishes the alignment.
  unsigned step_score_fused();
  /// Replaces the pending (all txn-free) schedule with one merged batch
  /// of `remaining` cycles. Batch boundaries inside a txn-free schedule
  /// are unobservable — quiet_for()/skip_quiet()/tick() behave
  /// identically on the merged form — so this is how macro_step leaves
  /// bit-identical observable state after a budget stop.
  void set_schedule(sim::cycle_t remaining);
  /// Records the alignment's result (done_, pending_record_).
  void conclude(bool success, score_t score);
  /// conclude(), then schedules the result release.
  void finish_alignment(bool success, score_t score, diag_t k_reached);
  /// Appends the result-release batch: the BT score record, or in NBT the
  /// cycle that queues the result word.
  void queue_result(diag_t k_reached);

  [[nodiscard]] core::Wavefront* wavefront(score_t s);
  /// Activates the ring slot for score s, recycling the slot's previous
  /// buffer (core::Wavefront::reset) instead of reallocating. Pass
  /// fill = false only when every cell of [lo, hi] is written before any
  /// read (the compute phase does; see Wavefront::reset_unfilled).
  core::Wavefront& make_wavefront(score_t s, diag_t lo, diag_t hi,
                                  bool fill = true);
  /// Invalidates all ring slots, keeping their buffers for reuse.
  void clear_ring();

  // Configuration.
  const AcceleratorConfig cfg_;
  bool bt_enabled_ = false;

  // Job state.
  State state_ = State::kIdle;
  AlignJob job_;
  offset_t n_ = 0;
  offset_t m_len_ = 0;
  diag_t k_align_ = 0;
  std::optional<WavefrontGeometry> geom_;
  score_t s_ = 0;
  core::Wavefront* current_ = nullptr;
  std::uint32_t txn_counter_ = 0;
  sim::cycle_t start_cycle_ = 0;
  bool done_ = false;
  PairRecord pending_record_;

  // Wavefront ring buffer (the rotating frame-column window of Figure 6).
  struct Slot {
    score_t score = -1;
    std::unique_ptr<core::Wavefront> wf;
  };
  std::vector<Slot> ring_;
  score_t window_;

  // Origin codes of the wavefront being computed (BT mode), reused across
  // scores; each P-block's transactions are packed straight from it.
  std::vector<std::uint8_t> codes_;

  // Timed batch schedule of the current score iteration.
  std::deque<Batch> batches_;
  unsigned countdown_ = 0;
  unsigned init_countdown_ = 0;

  // Output queues drained by the Collector.
  std::deque<BtTransaction> bt_queue_;
  std::deque<NbtResult> nbt_queue_;
  static constexpr std::size_t kBtQueueCapacity = 16;

  // Statistics.
  std::vector<PairRecord> records_;
  std::uint64_t output_stall_cycles_ = 0;
  std::uint64_t busy_cycles_ = 0;
  std::uint64_t wavefront_steps_ = 0;
  std::uint64_t extend_invocations_ = 0;
  std::uint64_t extend_matched_bases_ = 0;
  PhaseCycles phase_cycles_;
  std::uint32_t error_flags_ = 0;
  std::uint64_t ecc_corrected_ = 0;
  bool ecc_poisoned_ = false;
};

}  // namespace wfasic::hw
