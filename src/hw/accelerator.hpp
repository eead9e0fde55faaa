// The WFAsic accelerator top level (Figure 5): DMA + Input FIFO +
// Extractor + N Aligners + Collector + Output FIFO, exposed to the CPU
// through AXI-Lite registers (hw/regs.hpp) and to main memory through the
// AXI-Full DMA.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hw/aligner.hpp"
#include "hw/collector.hpp"
#include "hw/config.hpp"
#include "hw/extractor.hpp"
#include "hw/input_format.hpp"
#include "hw/perf.hpp"
#include "hw/regs.hpp"
#include "mem/dma.hpp"
#include "mem/main_memory.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fifo.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"
#include "sim/trace.hpp"

namespace wfasic::hw {

/// What Accelerator::restore does with the fault-injector runtime state a
/// snapshot blob may carry (the schedule itself is wiring, never
/// serialized).
enum class InjectorRestorePolicy : std::uint8_t {
  /// The blob's injector runtime must apply: an injector with the
  /// identical fault schedule must be attached (kConfigMismatch
  /// otherwise). Same-device resume and bit-identity replay use this —
  /// the remaining campaign faults re-fire exactly as they would have.
  kStrict,
  /// Ignore the blob's injector runtime and keep whatever injector (and
  /// fired state) is attached here. Cross-device failover uses this: the
  /// adopted job continues under the target device's own fault
  /// environment.
  kKeepAttached,
};

class Accelerator {
 public:
  Accelerator(AcceleratorConfig cfg, mem::MainMemory& memory);

  // --- AXI-Lite interface ---------------------------------------------------
  void write_reg(std::uint32_t offset, std::uint32_t value);
  [[nodiscard]] std::uint32_t read_reg(std::uint32_t offset) const;

  [[nodiscard]] bool idle() const { return !running_; }
  [[nodiscard]] bool interrupt_pending() const { return int_pending_; }
  [[nodiscard]] std::uint32_t err_status() const { return err_status_; }
  /// Total single-bit ECC corrections (main memory + wavefront RAMs).
  [[nodiscard]] std::uint64_t ecc_corrected_total() const {
    std::uint64_t total = memory_.ecc_corrected();
    for (const auto& aligner : aligners_) total += aligner->ecc_corrected();
    return total;
  }

  // --- Observability ---------------------------------------------------------
  /// The PMU bank, rebased to the current run (counters clear on Start).
  /// The same values are exposed 32 bits at a time through the register
  /// window at kRegPerfBase (Driver::read_perf_counters reads it back).
  [[nodiscard]] PerfSnapshot perf_counters() const {
    return perf_counters_raw().rebased(perf_base_);
  }
  /// The pipeline trace sink (enabled iff AcceleratorConfig::trace, or via
  /// set_enabled at runtime). Emission is observational only.
  [[nodiscard]] sim::TraceSink& trace() { return trace_; }
  [[nodiscard]] const sim::TraceSink& trace() const { return trace_; }

  // --- Fault injection -------------------------------------------------------
  /// Attaches (or detaches, with nullptr) a deterministic fault injector:
  /// wires the DMA beat-fault hook and the FIFO stall probes, and makes
  /// step() apply due memory bit flips and advance the injector clock.
  void attach_fault_injector(sim::FaultInjector* injector);

  // --- Checkpoint / restore --------------------------------------------------
  /// Snapshot blob format identity (sim/snapshot.hpp): bump the version on
  /// any layout change so stale blobs are rejected, never misdecoded.
  static constexpr std::uint32_t kSnapshotMagic = 0x4e534657;  // "WFSN"
  static constexpr std::uint32_t kSnapshotVersion = 2;
  /// Salt for the blob-trailer CRC. Fixed at compile time: the reader must
  /// know it before a single payload byte is decoded, so it cannot come
  /// from any register. Non-zero so an unsalted CRC-32 of the payload does
  /// not validate by accident.
  static constexpr std::uint32_t kSnapshotCrcSalt = 0x57465348;  // "WFSH"

  /// Serializes the complete architectural state of the device — scheduler
  /// clock, register file, run state, PMU baselines, FIFOs, DMA,
  /// Extractor, Aligners (wavefront RAM contents included), Collector and
  /// the main-memory working set — into a versioned, CRC-protected blob.
  /// Taken between advance calls, which is where drv/engine checkpointing
  /// calls it. Restoring the blob onto a structurally identical device
  /// resumes bit-identically under either stepping strategy
  /// (docs/RELIABILITY.md §7).
  [[nodiscard]] std::vector<std::uint8_t> snapshot() const;

  /// Applies a snapshot blob. Header, CRC, version and config-signature
  /// validation all happen before any device state is touched, so a
  /// rejected blob leaves the device exactly as it was — with one
  /// exception: a kBadValue/kTruncated failure *during* apply (impossible
  /// for a blob that passed its CRC unless it was produced by a different
  /// build) leaves the device indeterminate, and the caller must
  /// soft-reset or discard it. Faulted campaign state restores under
  /// kStrict only onto a device whose attached injector carries the same
  /// fault schedule; a blob saved with no injector restores regardless.
  [[nodiscard]] std::optional<sim::SnapshotError> restore(
      std::span<const std::uint8_t> blob,
      InjectorRestorePolicy policy = InjectorRestorePolicy::kStrict);

  // --- Simulation control ---------------------------------------------------
  /// Advances the whole accelerator by one clock cycle.
  void step();
  /// Advances at most `max_cycles` cycles, stopping early once idle.
  /// Returns the cycles actually advanced (skipped quiescent cycles
  /// count). This is the engine's poll quantum: the asynchronous host
  /// interleaves bounded slices of several device simulations instead of
  /// blocking on any one of them.
  std::uint64_t step_many(std::uint64_t max_cycles);
  /// Advances exactly `max_cycles` cycles (no early stop) — the batched
  /// stepper behind driver wait loops that burn simulated time while the
  /// device is idle. Bit-identical to calling step() that many times.
  std::uint64_t advance(std::uint64_t cycles);
  /// Runs until idle; aborts after `max_cycles` (deadlock guard).
  /// Returns the cycles elapsed during this call.
  std::uint64_t run_to_completion(std::uint64_t max_cycles = 4'000'000'000ULL);
  /// Advances until `done()` returns true or `max_cycles` elapse, and
  /// returns the cycles advanced. The predicate is evaluated wherever
  /// simulated state can change — after every active cycle and around
  /// bulk-advanced quiet spans — against fully-synced component state, so
  /// the stop cycle is bit-identical to checking after every step(). This
  /// is the driver wait-loop primitive: on the fast path a wait costs one
  /// probe per quiet span or macro-step, not one step() per cycle.
  std::uint64_t run_until_event(const std::function<bool()>& done,
                                std::uint64_t max_cycles);

  [[nodiscard]] sim::cycle_t now() const { return scheduler_.now(); }
  [[nodiscard]] std::uint64_t last_run_cycles() const {
    return last_run_cycles_;
  }

  // --- Introspection for tests and benches ----------------------------------
  [[nodiscard]] const AcceleratorConfig& config() const { return cfg_; }
  [[nodiscard]] const Extractor& extractor() const { return *extractor_; }
  [[nodiscard]] const Collector& collector() const { return *collector_; }
  [[nodiscard]] const mem::Dma& dma() const { return *dma_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Aligner>>& aligners() const {
    return aligners_;
  }
  [[nodiscard]] const sim::ShowAheadFifo<mem::Beat>& input_fifo() const {
    return input_fifo_;
  }
  [[nodiscard]] const sim::ShowAheadFifo<mem::Beat>& output_fifo() const {
    return output_fifo_;
  }
  /// Host-side kernel accounting: per-component tick count, macro-step
  /// grants and the cycles they covered, and the cycles skipped as quiet.
  [[nodiscard]] const sim::Scheduler::DispatchStats& dispatch_stats() const {
    return scheduler_.dispatch_stats();
  }

 private:
  /// PMU helper component: integrates FIFO occupancy over time. It is
  /// always quiet (kQuietForever) so it never perturbs idle-skip spans;
  /// its tick and skip_quiet apply the same linear update, which keeps
  /// occupancy-cycles bit-identical across stepping strategies (occupancy
  /// is constant inside a quiescent span by the quiescence contract).
  class FifoOccupancyProbe final : public sim::Component {
   public:
    FifoOccupancyProbe(const sim::ShowAheadFifo<mem::Beat>& input,
                       const sim::ShowAheadFifo<mem::Beat>& output)
        : sim::Component("pmu"), input_(input), output_(output) {}

    void tick(sim::cycle_t /*now*/) override {
      input_occupancy_cycles_ += input_.size();
      output_occupancy_cycles_ += output_.size();
    }
    [[nodiscard]] sim::cycle_t quiet_for(sim::cycle_t /*now*/) const override {
      return kQuietForever;
    }
    void skip_quiet(sim::cycle_t n) override {
      input_occupancy_cycles_ += n * input_.size();
      output_occupancy_cycles_ += n * output_.size();
    }

    [[nodiscard]] std::uint64_t input_occupancy_cycles() const {
      return input_occupancy_cycles_;
    }
    [[nodiscard]] std::uint64_t output_occupancy_cycles() const {
      return output_occupancy_cycles_;
    }

    /// Snapshot contract (sim/snapshot.hpp).
    void save_state(sim::SnapshotWriter& w) const {
      w.u64(input_occupancy_cycles_);
      w.u64(output_occupancy_cycles_);
    }
    void restore_state(sim::SnapshotReader& r) {
      input_occupancy_cycles_ = r.u64();
      output_occupancy_cycles_ = r.u64();
    }

   private:
    const sim::ShowAheadFifo<mem::Beat>& input_;
    const sim::ShowAheadFifo<mem::Beat>& output_;
    std::uint64_t input_occupancy_cycles_ = 0;
    std::uint64_t output_occupancy_cycles_ = 0;
  };

  void start();
  void soft_reset();
  /// Gathers the monotone hardware counters (not yet rebased to the run).
  [[nodiscard]] PerfSnapshot perf_counters_raw() const;
  /// True when the fast path may replace exact stepping: never with a
  /// fault injector attached (per-cycle beat faults, memory flips and
  /// FIFO stall probes need every cycle), never while a run has the
  /// no-progress watchdog armed (its firing cycle must stay exact).
  /// Evaluated at every probe, so demotion to exact stepping happens the
  /// exact cycle a disqualifier appears.
  [[nodiscard]] bool idle_skip_allowed() const {
    return cfg_.idle_skip && injector_ == nullptr &&
           !(running_ && regs_.watchdog != 0);
  }
  /// The extra veto for macro-steps on top of idle_skip_allowed(): no
  /// ECC/CRC checking active (an uncorrectable-upset poison must be
  /// handled on its own tick, and CRC-protected streams keep the
  /// Extractor/Collector checking per beat).
  [[nodiscard]] bool macro_step_allowed() const {
    return !cfg_.ecc && !cfg_.crc;
  }
  /// Shared stepping loop behind step_many/advance/run_to_completion/
  /// run_until_event. On the fast path each probe (Scheduler::
  /// fast_advance) skips a quiescent span or grants a macro-step; a
  /// failed probe replays the boundary exactly via step() and re-probes
  /// on a coarser grid (doubling stride, capped). Exact per-cycle
  /// stepping whenever the fast path is not allowed. `done`, when
  /// non-null, is an additional stop predicate checked wherever simulated
  /// state can change.
  std::uint64_t advance_core(std::uint64_t max_cycles, bool stop_when_idle,
                             const std::function<bool()>* done = nullptr);
  /// Latches `cause` into kRegErrStatus/kRegErrCount.
  void latch_error(std::uint32_t cause);
  /// Terminal error path: latch the cause, flush the datapath, go idle and
  /// raise the completion interrupt (if enabled) so the CPU wakes up.
  void abort_run(std::uint32_t cause);
  void flush_pipeline();
  [[nodiscard]] bool work_complete() const;
  /// Monotone counter that advances whenever any pipeline stage does
  /// useful work; standing still feeds the no-progress watchdog.
  [[nodiscard]] std::uint64_t progress_signature() const;

  AcceleratorConfig cfg_;
  mem::MainMemory& memory_;

  sim::ShowAheadFifo<mem::Beat> input_fifo_;
  sim::ShowAheadFifo<mem::Beat> output_fifo_;
  std::unique_ptr<mem::Dma> dma_;
  std::vector<std::unique_ptr<Aligner>> aligners_;
  std::unique_ptr<Extractor> extractor_;
  std::unique_ptr<Collector> collector_;
  std::unique_ptr<FifoOccupancyProbe> pmu_probe_;
  sim::Scheduler scheduler_;

  // Observability (all observational: never read by the datapath).
  sim::TraceSink trace_;
  std::uint32_t trace_track_ = 0;  ///< the top-level "accelerator" track
  PerfSnapshot perf_base_;         ///< Start-time snapshot (counters clear)

  RegValues regs_;
  bool running_ = false;
  bool int_pending_ = false;
  sim::cycle_t run_start_ = 0;
  std::uint64_t last_run_cycles_ = 0;

  // Error architecture + fault injection.
  sim::FaultInjector* injector_ = nullptr;
  std::uint32_t err_status_ = 0;
  std::uint32_t err_count_ = 0;
  /// kRegEccCount baseline: a write sets it to the current total so the
  /// register reads zero ("any write clears") without losing the
  /// monotone hardware counters.
  std::uint64_t ecc_count_base_ = 0;
  std::uint64_t last_progress_sig_ = 0;
  sim::cycle_t last_progress_cycle_ = 0;
};

}  // namespace wfasic::hw
