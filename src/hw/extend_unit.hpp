// The Extend sub-module (§4.3.2, Figure 7), emulated cycle by cycle.
//
// Datapath: every cycle one 4-byte word (16 packed bases) is read from
// each Input_Seq RAM into REG_1, whose previous value shifts to REG_2;
// once both registers hold valid bases, the two words are concatenated to
// 64 bits and shifted so the starting base sits at bit 0, and a 32-bit
// comparator checks 16 bases per cycle. The pipeline delivers its first
// comparison after kPipelineFill cycles; the comparison that discovers the
// terminating mismatch (or sequence end) is part of the last block.
//
// The Aligner runs one wavefront row's extend phase at a time through
// extend_row(), which yields both the functional result (each cell's
// match run) and the phase's batch schedule cost.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/assert.hpp"
#include "common/packed_seq.hpp"
#include "common/types.hpp"

namespace wfasic::hw {

class ExtendUnit {
 public:
  /// Cycles from start strobe to the first comparator result (Figure 7:
  /// two RAM reads, register shift, concatenate/align, compare).
  static constexpr unsigned kPipelineFill = 5;

  /// Binds the unit to its two Input_Seq RAM replicas.
  ExtendUnit(const PackedSeq& a, const PackedSeq& b) : a_(a), b_(b) {}

  struct Result {
    offset_t run = 0;        ///< matching bases consumed
    unsigned blocks = 0;     ///< 16-base comparator activations
    unsigned cycles = 0;     ///< standalone latency: fill + blocks
  };

  /// Extends from pattern position i / text position j until the bases
  /// differ or either sequence ends (§2.3's extend operator for one cell)
  /// by explicit lane-by-lane emulation of the Figure-7 datapath (register
  /// shifts, one comparator activation per cycle). Slow; it is the
  /// reference the tests hold extend_row() to.
  [[nodiscard]] Result extend_datapath(offset_t i, offset_t j) const;

  /// Fused row kernel: consumes the whole extend-phase request queue of
  /// one wavefront row in a tight batch — every valid M cell is advanced
  /// in place, and the phase's batch schedule cost plus the PMU tallies
  /// come out of the same pass. The packed-word comparison computes the
  /// run the datapath produces, and a cell's comparator blocks are
  /// ceil((run+1)/16) because the activation that discovers the
  /// mismatch/end belongs to the last block. The pipeline fill is charged
  /// once per phase; each `sections`-wide batch of the compacted
  /// valid-cell stream adds `batch_overhead` plus its block maximum.
  struct RowResult {
    unsigned cycles = 0;            ///< batch schedule cost (0: no valid cell)
    std::uint64_t invocations = 0;  ///< valid cells extended
    std::uint64_t matched = 0;      ///< total matched bases
  };
  [[nodiscard]] RowResult extend_row(offset_t* row_m, diag_t lo,
                                     std::size_t width, unsigned sections,
                                     unsigned fill_cycles,
                                     unsigned batch_overhead) const {
    RowResult r;
    unsigned in_batch = 0;
    unsigned max_blocks = 0;
    for (std::size_t idx = 0; idx < width; ++idx) {
      const offset_t off = row_m[idx];
      if (off == kOffsetNull) continue;
      const diag_t k = lo + static_cast<diag_t>(idx);
      const offset_t i = off - k;
      WFASIC_REQUIRE(i >= 0 && off >= 0 &&
                         i <= static_cast<offset_t>(a_.size()) &&
                         off <= static_cast<offset_t>(b_.size()),
                     "ExtendUnit::extend_row: start position out of range");
      const std::size_t run = a_.match_run64(static_cast<std::size_t>(i), b_,
                                             static_cast<std::size_t>(off));
      if (run > 0) row_m[idx] = off + static_cast<offset_t>(run);
      ++r.invocations;
      r.matched += run;
      max_blocks = std::max(
          max_blocks,
          static_cast<unsigned>(run / PackedSeq::kBasesPerWord + 1));
      if (++in_batch == sections) {
        r.cycles += batch_overhead + max_blocks;
        in_batch = 0;
        max_blocks = 0;
      }
    }
    if (in_batch > 0) r.cycles += batch_overhead + max_blocks;
    if (r.invocations > 0) r.cycles += fill_cycles;
    return r;
  }

 private:
  /// One comparator activation: compares up to 16 bases starting at
  /// (i, j), returns how many matched before a mismatch/end.
  [[nodiscard]] unsigned compare_block(offset_t i, offset_t j,
                                       bool& terminated) const;

  const PackedSeq& a_;
  const PackedSeq& b_;
};

}  // namespace wfasic::hw
