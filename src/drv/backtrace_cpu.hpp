// CPU-side backtrace of the accelerator's output stream (§4.5).
//
// Two methods, matching the paper's Figure 11 configurations:
//  - single-Aligner ("No Sep"): the stream is consecutive per alignment;
//    the CPU only identifies boundaries (Last flags) and walks in place.
//  - multi-Aligner ("Sep"): transactions of different alignments
//    interleave, so the CPU first separates them by alignment ID into
//    per-alignment buffers (the expensive copy pass), then walks.
//
// One scan reads the stream for both verdicts: try_parse_bt_stream drops
// damaged alignments and reports the first anomaly, parse_bt_stream
// aborts on it, so the strict and tolerant readers cannot disagree.
//
// The walk decodes the 5-bit origin codes from (score, diagonal) cell
// coordinates using the deterministic wavefront geometry, collects the
// difference operations, and finally re-traverses the two sequences to
// insert the matches between differences (§4.5).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/align_result.hpp"
#include "cpu/cpu_model.hpp"
#include "hw/config.hpp"
#include "mem/main_memory.hpp"

namespace wfasic::drv {

/// One alignment's reassembled backtrace data.
struct BtAlignment {
  std::uint32_t id = 0;
  bool success = false;
  std::uint16_t score = 0;
  std::int16_t k_reached = 0;
  /// Concatenated 10-byte transaction payloads in counter order (the
  /// score-record transaction excluded).
  std::vector<std::uint8_t> payload;
};

/// What one walk over a backtrace stream found.
struct BtStreamScan {
  std::vector<BtAlignment> alignments;  ///< complete, internally consistent
  /// The first inconsistency in stream order — a transaction counter gap,
  /// an interleaved stream under the single-Aligner method, a failed or
  /// missing CRC footer, a stream that ends early — or nullptr when there
  /// was none. parse_bt_stream aborts with exactly this text.
  const char* anomaly = nullptr;

  [[nodiscard]] bool clean() const { return anomaly == nullptr; }
};

/// The one reader of the backtrace stream: walks at most `max_bytes` at
/// `out_addr` (bound it by the beats the DMA actually wrote) until
/// `num_pairs` Last flags — and, with `crc`, their footers — have been
/// seen. It never aborts: an alignment whose transactions are
/// inconsistent is dropped, the walk goes on, and the first anomaly is
/// reported.
///
/// `separate_data` selects the §4.5 method. `false` is the single-Aligner
/// method, whose stream must be consecutive per alignment (an interleaved
/// transaction is an anomaly); `true` is the multi-Aligner method.
/// `counters`, if given, is charged that method's CPU parse cost and the
/// alignments returned.
///
/// With `crc` (AcceleratorConfig::crc), an alignment is only accepted once
/// a footer transaction carrying the matching salted CRC-32 over all its
/// beats has been seen — write-path corruption and dropped beats
/// (including stale beats of an earlier launch, defeated by the per-launch
/// salt) are rejected here instead of escaping as silently wrong CIGARs.
[[nodiscard]] BtStreamScan try_parse_bt_stream(
    const mem::MainMemory& memory, std::uint64_t out_addr,
    std::uint64_t max_bytes, std::size_t num_pairs, bool separate_data,
    cpu::BtCpuCounters* counters = nullptr, bool crc = false,
    std::uint32_t crc_salt = 0);

/// Strict entry point over the same walk: no read bound, and it aborts
/// with the anomaly's text at the first one instead of walking on.
[[nodiscard]] std::vector<BtAlignment> parse_bt_stream(
    const mem::MainMemory& memory, std::uint64_t out_addr,
    std::size_t num_pairs, bool separate_data,
    cpu::BtCpuCounters* counters = nullptr, bool crc = false,
    std::uint32_t crc_salt = 0);

/// Rebuilds the full alignment (score + CIGAR) of (a, b) from backtrace
/// data, replaying the wavefront geometry to locate each cell's origin
/// bits and inserting matches by traversing the sequences.
[[nodiscard]] core::AlignResult reconstruct_alignment(
    const BtAlignment& bt, std::string_view a, std::string_view b,
    const hw::AcceleratorConfig& cfg, cpu::BtCpuCounters* counters = nullptr);

/// Non-aborting variant for the resilient driver: returns std::nullopt
/// (with the failing check's message in *why, if given) when the backtrace
/// data is inconsistent with the sequences or the wavefront geometry. The
/// deep self-checks double as corruption detectors: a stream damaged in
/// flight is rejected here instead of killing the process.
[[nodiscard]] std::optional<core::AlignResult> try_reconstruct_alignment(
    const BtAlignment& bt, std::string_view a, std::string_view b,
    const hw::AcceleratorConfig& cfg, const char** why = nullptr,
    cpu::BtCpuCounters* counters = nullptr);

}  // namespace wfasic::drv
