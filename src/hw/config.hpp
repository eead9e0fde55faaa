// Static configuration of the WFAsic accelerator model.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "mem/axi.hpp"

namespace wfasic::hw {

/// Microarchitectural timing of one Aligner, calibrated against Table 1 of
/// the paper (see DESIGN.md §4 for the calibration):
///
/// A score iteration costs
///   per_score_overhead
///   + compute: compute_batch_ii * ceil(width / P) + compute_pipeline
///   + extend:  extend_fill + sum over batches (1 + max ceil((run+1)/16))
/// where P is the number of parallel sections. The Extend sub-module
/// compares 16 bases per cycle after its pipeline fill (§4.3.2, Figure 7);
/// fills overlap across consecutive batches, so only the first batch of a
/// phase pays the full fill.
struct AlignerTiming {
  unsigned compute_batch_ii = 2;   ///< two sequential M-window RAM rounds
  unsigned compute_pipeline = 3;   ///< compute-phase fill/drain
  unsigned extend_fill = 3;        ///< first-batch extend pipeline fill
  unsigned extend_batch_overhead = 1;
  unsigned per_score_overhead = 2; ///< end check, score bump, column rotate
  unsigned init_cycles = 8;        ///< read id/lengths, reset column tags
};

/// Build-time configuration (the paper's final chip: 1 Aligner x 64
/// parallel sections, k_max sized for a max score of 8000 — Eq. 6).
struct AcceleratorConfig {
  unsigned num_aligners = 1;
  unsigned parallel_sections = 64;
  /// Wavefront band: diagonals in [-k_max, k_max] (§4.3.1).
  diag_t k_max = 3998;
  std::size_t input_fifo_depth = 256;   ///< 16-byte words (§4.6)
  std::size_t output_fifo_depth = 256;
  mem::AxiTiming axi;
  AlignerTiming timing;
  Penalties pen = kDefaultPenalties;
  /// Largest supported MAX_READ_LEN. The paper's chip targets 10K-base
  /// reads; its Input_Seq RAMs are sized "at least 627 words" (10,032
  /// bases). We keep a little extra headroom so nominal-10K synthetic
  /// reads whose mutations drift past 10,000 bases still fit.
  std::uint32_t max_supported_read_len = 10'240;

  /// Host-simulation knob (not a hardware parameter): exact vs fast
  /// stepping. Off = exact per-cycle stepping (the differential-testing
  /// reference). On = the fast path (docs/PERFORMANCE.md §1–2): each
  /// quiescence probe skips a span in which every component is quiet,
  /// grants a fused macro-step to the one component that must tick, or
  /// replays the boundary exactly. Bit-identical either way — simulated
  /// cycle counts, records, memory contents and PMU counters do not
  /// change (enforced by tests/test_perf_equivalence); only host
  /// wall-clock does. Ignored (exact stepping) whenever a fault injector
  /// is attached or the watchdog is armed during a run; macro-steps are
  /// additionally vetoed while ECC or CRC checking is on.
  bool idle_skip = true;

  /// Data-integrity knobs (docs/RELIABILITY.md). Both default off so the
  /// paper-fidelity data formats and cycle counts are untouched; fault
  /// campaigns and the engine's health machinery turn them on.
  /// SECDED ECC over main memory and the wavefront RAMs: single-bit
  /// upsets are corrected and counted (kRegEccCount), double-bit upsets
  /// raise kErrEccUnc.
  bool ecc = false;
  /// CRC32 footers: one extra input section per pair the Extractor
  /// verifies (kErrCrc on mismatch), and a CRC the Collector appends to
  /// every result record (NBT: 8-byte records; BT: a footer transaction),
  /// salted per launch via kRegCrcSalt.
  bool crc = false;

  /// Cycle-level pipeline tracing (docs/OBSERVABILITY.md §3): when on,
  /// components emit span/instant events into the accelerator's
  /// sim::TraceSink for serialization as Chrome trace-event JSON. Purely
  /// observational — simulated cycles, records and memory contents are
  /// bit-identical with tracing on or off (enforced by
  /// tests/test_observability); off by default so the disabled emit path
  /// costs one pointer test.
  bool trace = false;

  /// Eq. 6: the maximum alignment score the band supports.
  [[nodiscard]] score_t score_max() const { return k_max * 2 + 4; }

  [[nodiscard]] bool valid() const {
    return num_aligners >= 1 && parallel_sections >= 1 && k_max >= 1 &&
           pen.valid();
  }
};

}  // namespace wfasic::hw
