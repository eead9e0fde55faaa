// Modeled performance-monitoring unit (PMU) of the WFAsic accelerator
// (docs/OBSERVABILITY.md §2).
//
// Real RISC-V SoC flows expose hardware event counters through memory-
// mapped CSR banks; we model that as a read-only register window at
// kRegPerfBase. Every counter is 64 bits, exposed as a lo/hi register
// pair, cleared on Start (the accelerator rebases against a snapshot
// taken when the run launches, like kRegEccCount's any-write rebase).
//
// Counters are OBSERVATIONAL: they are derived from state the datapath
// already maintains and never feed back into timing, so cycle counts and
// results are bit-identical whether anyone reads them or not. They are
// also maintained identically on the exact-stepping and idle-skip paths
// (each component's skip_quiet applies the same linear updates its ticks
// would have), so a snapshot is invariant across stepping strategies —
// enforced by tests/test_observability.cpp. The bank holds architectural
// counters only: how many cycles the simulator's fast path skipped is
// host-side accounting and lives in sim::Scheduler::DispatchStats.
#pragma once

#include <cstdint>

namespace wfasic::hw {

/// Counter indices, in register-bank order: counter i occupies the lo/hi
/// pair at kRegPerfBase + 8*i (+0 lo, +4 hi).
enum class PerfIdx : std::uint32_t {
  kExtractorPairsAccepted = 0,  ///< pairs handed to an Aligner
  kExtractorPairsRejected,      ///< unsupported or CRC-failed pairs
  kExtractorWaitCycles,         ///< cycles stalled waiting for an idle Aligner
  kExtendInvocations,           ///< ExtendUnit calls (one per valid cell)
  kExtendMatchedBases,          ///< total bases matched by extend runs
  kAlignerWavefrontSteps,       ///< score iterations across all Aligners
  kAlignerBusyCycles,           ///< cycles any Aligner was non-idle
  kAlignerStallCycles,          ///< output (BT queue) backpressure cycles
  kDmaBeatsRead,                ///< input beats fetched from memory
  kDmaBeatsWritten,             ///< result beats written to memory
  kDmaStallFifoFull,            ///< read beats held: input FIFO not ready
  kDmaStallPortBusy,            ///< read beats held: write had the port
  kInputFifoOccupancyCycles,    ///< sum over cycles of input FIFO occupancy
  kInputFifoHighWater,          ///< input FIFO high-water mark (this run)
  kOutputFifoOccupancyCycles,   ///< sum over cycles of output FIFO occupancy
  kOutputFifoHighWater,         ///< output FIFO high-water mark (this run)
  kEccCorrected,                ///< ECC single-bit corrections (all RAMs)
  kErrCount,                    ///< errors latched (mirror of kRegErrCount)
  kCount,
};

inline constexpr std::uint32_t kNumPerfCounters =
    static_cast<std::uint32_t>(PerfIdx::kCount);

/// Stable display/key name of a counter ("extractor_pairs_accepted"…),
/// used by the --stats CLI output and docs/OBSERVABILITY.md's catalog.
inline constexpr const char* perf_counter_name(PerfIdx idx) {
  switch (idx) {
    case PerfIdx::kExtractorPairsAccepted: return "extractor_pairs_accepted";
    case PerfIdx::kExtractorPairsRejected: return "extractor_pairs_rejected";
    case PerfIdx::kExtractorWaitCycles: return "extractor_wait_cycles";
    case PerfIdx::kExtendInvocations: return "extend_invocations";
    case PerfIdx::kExtendMatchedBases: return "extend_matched_bases";
    case PerfIdx::kAlignerWavefrontSteps: return "aligner_wavefront_steps";
    case PerfIdx::kAlignerBusyCycles: return "aligner_busy_cycles";
    case PerfIdx::kAlignerStallCycles: return "aligner_stall_cycles";
    case PerfIdx::kDmaBeatsRead: return "dma_beats_read";
    case PerfIdx::kDmaBeatsWritten: return "dma_beats_written";
    case PerfIdx::kDmaStallFifoFull: return "dma_stall_fifo_full";
    case PerfIdx::kDmaStallPortBusy: return "dma_stall_port_busy";
    case PerfIdx::kInputFifoOccupancyCycles:
      return "input_fifo_occupancy_cycles";
    case PerfIdx::kInputFifoHighWater: return "input_fifo_high_water";
    case PerfIdx::kOutputFifoOccupancyCycles:
      return "output_fifo_occupancy_cycles";
    case PerfIdx::kOutputFifoHighWater: return "output_fifo_high_water";
    case PerfIdx::kEccCorrected: return "ecc_corrected";
    case PerfIdx::kErrCount: return "err_count";
    case PerfIdx::kCount: break;
  }
  return "?";
}

/// One coherent reading of the whole PMU bank. Produced by
/// Accelerator::perf_counters() (already rebased to the current run) and by
/// Driver::read_perf_counters() (read back through the register window).
struct PerfSnapshot {
  std::uint64_t extractor_pairs_accepted = 0;
  std::uint64_t extractor_pairs_rejected = 0;
  std::uint64_t extractor_wait_cycles = 0;
  std::uint64_t extend_invocations = 0;
  std::uint64_t extend_matched_bases = 0;
  std::uint64_t aligner_wavefront_steps = 0;
  std::uint64_t aligner_busy_cycles = 0;
  std::uint64_t aligner_stall_cycles = 0;
  std::uint64_t dma_beats_read = 0;
  std::uint64_t dma_beats_written = 0;
  std::uint64_t dma_stall_fifo_full = 0;
  std::uint64_t dma_stall_port_busy = 0;
  std::uint64_t input_fifo_occupancy_cycles = 0;
  std::uint64_t input_fifo_high_water = 0;
  std::uint64_t output_fifo_occupancy_cycles = 0;
  std::uint64_t output_fifo_high_water = 0;
  std::uint64_t ecc_corrected = 0;
  std::uint64_t err_count = 0;

  bool operator==(const PerfSnapshot&) const = default;

  [[nodiscard]] std::uint64_t counter(PerfIdx idx) const {
    switch (idx) {
      case PerfIdx::kExtractorPairsAccepted: return extractor_pairs_accepted;
      case PerfIdx::kExtractorPairsRejected: return extractor_pairs_rejected;
      case PerfIdx::kExtractorWaitCycles: return extractor_wait_cycles;
      case PerfIdx::kExtendInvocations: return extend_invocations;
      case PerfIdx::kExtendMatchedBases: return extend_matched_bases;
      case PerfIdx::kAlignerWavefrontSteps: return aligner_wavefront_steps;
      case PerfIdx::kAlignerBusyCycles: return aligner_busy_cycles;
      case PerfIdx::kAlignerStallCycles: return aligner_stall_cycles;
      case PerfIdx::kDmaBeatsRead: return dma_beats_read;
      case PerfIdx::kDmaBeatsWritten: return dma_beats_written;
      case PerfIdx::kDmaStallFifoFull: return dma_stall_fifo_full;
      case PerfIdx::kDmaStallPortBusy: return dma_stall_port_busy;
      case PerfIdx::kInputFifoOccupancyCycles:
        return input_fifo_occupancy_cycles;
      case PerfIdx::kInputFifoHighWater: return input_fifo_high_water;
      case PerfIdx::kOutputFifoOccupancyCycles:
        return output_fifo_occupancy_cycles;
      case PerfIdx::kOutputFifoHighWater: return output_fifo_high_water;
      case PerfIdx::kEccCorrected: return ecc_corrected;
      case PerfIdx::kErrCount: return err_count;
      case PerfIdx::kCount: break;
    }
    return 0;
  }

  void set_counter(PerfIdx idx, std::uint64_t v) {
    switch (idx) {
      case PerfIdx::kExtractorPairsAccepted: extractor_pairs_accepted = v; return;
      case PerfIdx::kExtractorPairsRejected: extractor_pairs_rejected = v; return;
      case PerfIdx::kExtractorWaitCycles: extractor_wait_cycles = v; return;
      case PerfIdx::kExtendInvocations: extend_invocations = v; return;
      case PerfIdx::kExtendMatchedBases: extend_matched_bases = v; return;
      case PerfIdx::kAlignerWavefrontSteps: aligner_wavefront_steps = v; return;
      case PerfIdx::kAlignerBusyCycles: aligner_busy_cycles = v; return;
      case PerfIdx::kAlignerStallCycles: aligner_stall_cycles = v; return;
      case PerfIdx::kDmaBeatsRead: dma_beats_read = v; return;
      case PerfIdx::kDmaBeatsWritten: dma_beats_written = v; return;
      case PerfIdx::kDmaStallFifoFull: dma_stall_fifo_full = v; return;
      case PerfIdx::kDmaStallPortBusy: dma_stall_port_busy = v; return;
      case PerfIdx::kInputFifoOccupancyCycles:
        input_fifo_occupancy_cycles = v; return;
      case PerfIdx::kInputFifoHighWater: input_fifo_high_water = v; return;
      case PerfIdx::kOutputFifoOccupancyCycles:
        output_fifo_occupancy_cycles = v; return;
      case PerfIdx::kOutputFifoHighWater: output_fifo_high_water = v; return;
      case PerfIdx::kEccCorrected: ecc_corrected = v; return;
      case PerfIdx::kErrCount: err_count = v; return;
      case PerfIdx::kCount: return;
    }
  }

  /// Absolute fields are taken as-is when rebasing: the FIFO high-water
  /// marks are per-run maxima (rearmed on Start, a max cannot be rebased
  /// by subtraction), and the ECC/error counts mirror the live
  /// kRegEccCount/kRegErrCount registers, which carry their own clear
  /// semantics. Everything else is a monotone count rebased against the
  /// Start-time snapshot.
  [[nodiscard]] static bool is_absolute(PerfIdx idx) {
    return idx == PerfIdx::kInputFifoHighWater ||
           idx == PerfIdx::kOutputFifoHighWater ||
           idx == PerfIdx::kEccCorrected || idx == PerfIdx::kErrCount;
  }

  /// The per-run reading: monotone counters are rebased (this - base),
  /// absolute fields are taken as-is.
  [[nodiscard]] PerfSnapshot rebased(const PerfSnapshot& base) const {
    PerfSnapshot out;
    for (std::uint32_t i = 0; i < kNumPerfCounters; ++i) {
      const auto idx = static_cast<PerfIdx>(i);
      const std::uint64_t cur = counter(idx);
      out.set_counter(idx,
                      is_absolute(idx) ? cur : cur - base.counter(idx));
    }
    return out;
  }
};

}  // namespace wfasic::hw
