// Wavefront storage for the software WFA aligner: one M/I/D offset triple
// per diagonal for one score.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "core/wfa_kernel.hpp"

namespace wfasic::core {

/// One score's wavefront: offsets for diagonals k in [lo, hi].
/// Out-of-range reads return kOffsetNull, mirroring the paper's "columns are
/// initialized by negative values; invalid cells ... remain negative".
class Wavefront {
 public:
  Wavefront(diag_t lo, diag_t hi)
      : base_lo_(lo),
        lo_(lo),
        hi_(hi),
        m_(width(), kOffsetNull),
        i_(width(), kOffsetNull),
        d_(width(), kOffsetNull) {
    WFASIC_REQUIRE(lo <= hi, "Wavefront: empty diagonal range");
  }

  /// Re-initialises this wavefront for a new [lo, hi] range, reusing the
  /// existing vector capacity (arena/pool recycling: equivalent to
  /// constructing a fresh Wavefront(lo, hi) without the allocations).
  void reset(diag_t lo, diag_t hi) {
    WFASIC_REQUIRE(lo <= hi, "Wavefront: empty diagonal range");
    base_lo_ = lo;
    lo_ = lo;
    hi_ = hi;
    const std::size_t w = static_cast<std::size_t>(hi - lo + 1);
    m_.assign(w, kOffsetNull);
    i_.assign(w, kOffsetNull);
    d_.assign(w, kOffsetNull);
    trace_base = 0;
  }

  /// reset() without the kOffsetNull fill, for callers that overwrite every
  /// cell of [lo, hi] (all three of M/I/D) before any read — e.g. the hw
  /// Aligner's compute phase, which writes the full row batch by batch.
  /// Row sizes (and therefore storage_width() and the trace layout) match
  /// reset() exactly; only the redundant fill is skipped.
  void reset_unfilled(diag_t lo, diag_t hi) {
    WFASIC_REQUIRE(lo <= hi, "Wavefront: empty diagonal range");
    base_lo_ = lo;
    lo_ = lo;
    hi_ = hi;
    const std::size_t w = static_cast<std::size_t>(hi - lo + 1);
    m_.resize(w);
    i_.resize(w);
    d_.resize(w);
    trace_base = 0;
  }

  /// Narrows the live diagonal range (adaptive wavefront reduction). The
  /// storage keeps its original extent; only the visible bounds shrink.
  void trim(diag_t new_lo, diag_t new_hi) {
    WFASIC_REQUIRE(new_lo >= base_lo_ && new_lo <= new_hi && new_hi <= hi_,
                   "Wavefront::trim: bounds outside storage");
    lo_ = new_lo;
    hi_ = new_hi;
  }

  [[nodiscard]] diag_t lo() const { return lo_; }
  [[nodiscard]] diag_t hi() const { return hi_; }
  /// Live diagonal count (shrinks under trim()).
  [[nodiscard]] std::size_t width() const {
    return static_cast<std::size_t>(hi_ - lo_ + 1);
  }
  /// Allocated diagonal count (fixed at construction).
  [[nodiscard]] std::size_t storage_width() const { return m_.size(); }

  [[nodiscard]] offset_t m(diag_t k) const { return get(m_, k); }
  [[nodiscard]] offset_t i(diag_t k) const { return get(i_, k); }
  [[nodiscard]] offset_t d(diag_t k) const { return get(d_, k); }

  void set_m(diag_t k, offset_t v) { at(m_, k) = v; }
  void set_i(diag_t k, offset_t v) { at(i_, k) = v; }
  void set_d(diag_t k, offset_t v) { at(d_, k) = v; }

  // Raw row access for hot kernels: row[0] is diagonal lo(), valid through
  // diagonal hi(). Hoisting these pointers (plus lo()/hi()) into locals
  // lets per-cell loops avoid re-reading the bounds after every store —
  // the m/i/d accessors above stay the safe default elsewhere.
  [[nodiscard]] const offset_t* row_m() const {
    return m_.data() + (lo_ - base_lo_);
  }
  [[nodiscard]] const offset_t* row_i() const {
    return i_.data() + (lo_ - base_lo_);
  }
  [[nodiscard]] const offset_t* row_d() const {
    return d_.data() + (lo_ - base_lo_);
  }
  [[nodiscard]] offset_t* row_m() { return m_.data() + (lo_ - base_lo_); }
  [[nodiscard]] offset_t* row_i() { return i_.data() + (lo_ - base_lo_); }
  [[nodiscard]] offset_t* row_d() { return d_.data() + (lo_ - base_lo_); }

  /// Bytes of offset payload (for footprint accounting / tracing).
  [[nodiscard]] std::size_t payload_bytes() const {
    return 3 * storage_width() * sizeof(offset_t);
  }

  /// Synthetic base address used by the memory-trace instrumentation; the
  /// M/I/D arrays are laid out consecutively from here.
  std::uint64_t trace_base = 0;

  /// Trace addresses of individual cells (k must be in range for writes;
  /// reads of out-of-range k are not traced by callers).
  [[nodiscard]] std::uint64_t trace_addr_m(diag_t k) const {
    return trace_base +
           static_cast<std::uint64_t>(k - base_lo_) * sizeof(offset_t);
  }
  [[nodiscard]] std::uint64_t trace_addr_i(diag_t k) const {
    return trace_addr_m(k) + storage_width() * sizeof(offset_t);
  }
  [[nodiscard]] std::uint64_t trace_addr_d(diag_t k) const {
    return trace_addr_m(k) + 2 * storage_width() * sizeof(offset_t);
  }

 private:
  [[nodiscard]] offset_t get(const std::vector<offset_t>& v, diag_t k) const {
    if (k < lo_ || k > hi_) return kOffsetNull;
    return v[static_cast<std::size_t>(k - base_lo_)];
  }
  [[nodiscard]] offset_t& at(std::vector<offset_t>& v, diag_t k) {
    WFASIC_ASSERT(k >= lo_ && k <= hi_, "Wavefront write out of range");
    return v[static_cast<std::size_t>(k - base_lo_)];
  }

  diag_t base_lo_;  ///< storage origin (trim never moves it)
  diag_t lo_;
  diag_t hi_;
  std::vector<offset_t> m_;
  std::vector<offset_t> i_;
  std::vector<offset_t> d_;
};

/// The compute_wf_row view of a source wavefront; nullptr (an absent
/// source) gives the empty view.
[[nodiscard]] inline WfRowView row_view(const Wavefront* wf) {
  if (wf == nullptr) return {};
  return {wf->row_m(), wf->row_i(), wf->row_d(), wf->lo(), wf->hi()};
}

}  // namespace wfasic::core
