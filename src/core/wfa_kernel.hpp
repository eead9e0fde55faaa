// The WFA compute kernel (Eq. 3) shared by the software aligner
// (core/wfa.hpp) and the hardware Compute sub-module model (hw/aligner):
// compute_wf_cell for one cell, compute_wf_row for a wavefront row.
//
// Sharing one kernel guarantees that the accelerator model and the software
// reference pick identical values AND identical provenance (origins), so the
// hardware backtrace stream decodes to exactly the software CIGAR.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"

namespace wfasic::core {

/// Provenance of an M wavefront cell. 3 bits in hardware (§4.3.3): M can
/// come from 5 positions because taking I/D also records whether that gap
/// was opening or extending.
enum class MOrigin : std::uint8_t {
  kSub = 0,      ///< M_{s-x}[k] + 1   (mismatch)
  kInsOpen = 1,  ///< I_s[k] where I opened from M_{s-o-e}[k-1]
  kInsExt = 2,   ///< I_s[k] where I extended I_{s-e}[k-1]
  kDelOpen = 3,  ///< D_s[k] where D opened from M_{s-o-e}[k+1]
  kDelExt = 4,   ///< D_s[k] where D extended D_{s-e}[k+1]
};

/// The five source offsets a frame-column cell depends on (Figure 2).
/// Absent sources are kOffsetNull.
struct WfCellSources {
  offset_t m_sub = kOffsetNull;       ///< M_{s-x}[k]
  offset_t m_open_ins = kOffsetNull;  ///< M_{s-o-e}[k-1]
  offset_t i_ext = kOffsetNull;       ///< I_{s-e}[k-1]
  offset_t m_open_del = kOffsetNull;  ///< M_{s-o-e}[k+1]
  offset_t d_ext = kOffsetNull;       ///< D_{s-e}[k+1]
};

/// One computed frame-column cell: the three offsets plus the 5 origin bits
/// the hardware streams out for the CPU backtrace (1 bit I, 1 bit D,
/// 3 bits M — §4.3.3).
struct WfCell {
  offset_t m = kOffsetNull;
  offset_t i = kOffsetNull;
  offset_t d = kOffsetNull;
  MOrigin m_origin = MOrigin::kSub;  ///< valid iff m != kOffsetNull
  bool i_from_ext = false;           ///< valid iff i != kOffsetNull
  bool d_from_ext = false;           ///< valid iff d != kOffsetNull
};

/// True when an offset denotes a real DP cell for diagonal k of an
/// (n x text_len) problem: 0 <= j <= text_len and 0 <= i <= n with
/// j = offset, i = offset - k (Eq. 4).
[[nodiscard]] constexpr bool offset_in_matrix(offset_t offset, diag_t k,
                                              offset_t pattern_len,
                                              offset_t text_len) {
  if (offset == kOffsetNull) return false;
  const offset_t i = offset - k;
  return offset >= 0 && offset <= text_len && i >= 0 && i <= pattern_len;
}

/// Computes one cell of the new wavefront (Eq. 3) with boundary trimming:
/// offsets that fall outside the DP matrix are nulled so they can never win
/// a later max. Tie-breaks are fixed (open before extend; sub before ins
/// before del) and shared with the hardware model.
[[nodiscard]] constexpr WfCell compute_wf_cell(const WfCellSources& src,
                                               diag_t k, offset_t pattern_len,
                                               offset_t text_len) {
  WfCell out;
  // Every candidate is trimmed against the matrix bounds *before* the max,
  // so an out-of-matrix path can never shadow a valid lower one.
  const auto trimmed = [=](offset_t offset) {
    return offset_in_matrix(offset, k, pattern_len, text_len) ? offset
                                                              : kOffsetNull;
  };

  // I_s[k] = max(M_{s-o-e}[k-1], I_{s-e}[k-1]) + 1. kOffsetNull is far from
  // the valid range, so adding 1 keeps it losing every comparison.
  const offset_t i_open = trimmed(src.m_open_ins + 1);
  const offset_t i_extend = trimmed(src.i_ext + 1);
  if (i_open >= i_extend) {  // open preferred on ties
    out.i = i_open;
    out.i_from_ext = false;
  } else {
    out.i = i_extend;
    out.i_from_ext = true;
  }

  // D_s[k] = max(M_{s-o-e}[k+1], D_{s-e}[k+1]) — offset unchanged, one more
  // pattern base consumed via the diagonal shift.
  const offset_t d_open = trimmed(src.m_open_del);
  const offset_t d_extend = trimmed(src.d_ext);
  if (d_open >= d_extend) {
    out.d = d_open;
    out.d_from_ext = false;
  } else {
    out.d = d_extend;
    out.d_from_ext = true;
  }

  // M_s[k] = max(M_{s-x}[k] + 1, I_s[k], D_s[k]); sub preferred, then
  // insertion, then deletion on ties.
  const offset_t m_sub = trimmed(src.m_sub + 1);
  out.m = m_sub;
  out.m_origin = MOrigin::kSub;
  if (out.i != kOffsetNull && out.i > out.m) {
    out.m = out.i;
    out.m_origin = out.i_from_ext ? MOrigin::kInsExt : MOrigin::kInsOpen;
  }
  if (out.d != kOffsetNull && out.d > out.m) {
    out.m = out.d;
    out.m_origin = out.d_from_ext ? MOrigin::kDelExt : MOrigin::kDelOpen;
  }
  return out;
}

/// Packs the three origin fields into the 5-bit code the Compute sub-module
/// emits per cell (bit layout: [4:2] M origin, [1] I ext, [0] D ext).
[[nodiscard]] constexpr std::uint8_t pack_origin_bits(const WfCell& cell) {
  return static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(cell.m_origin) << 2) |
      (static_cast<std::uint8_t>(cell.i_from_ext) << 1) |
      static_cast<std::uint8_t>(cell.d_from_ext));
}

/// Inverse of pack_origin_bits (used by the CPU backtrace decode).
struct OriginBits {
  MOrigin m_origin;
  bool i_from_ext;
  bool d_from_ext;
};
[[nodiscard]] constexpr OriginBits unpack_origin_bits(std::uint8_t bits) {
  return OriginBits{static_cast<MOrigin>((bits >> 2) & 7),
                    ((bits >> 1) & 1) != 0, (bits & 1) != 0};
}

/// Read-only M/I/D rows of one source wavefront: element 0 is diagonal
/// lo, the last is diagonal hi. The default, empty view (lo > hi) is an
/// absent source: every read of it is kOffsetNull.
struct WfRowView {
  const offset_t* m = nullptr;
  const offset_t* i = nullptr;
  const offset_t* d = nullptr;
  diag_t lo = 0;
  diag_t hi = -1;
};

/// The three source wavefronts of score s (Figure 2) as row views.
struct WfRowSources {
  WfRowView sub;   ///< s-x: M read at k
  WfRowView open;  ///< s-o-e: M read at k-1 and k+1
  WfRowView ext;   ///< s-e: I read at k-1, D read at k+1
};

/// Output rows of compute_wf_row; element 0 is the row's first diagonal.
struct WfRowOut {
  offset_t* m;
  offset_t* i;
  offset_t* d;
  std::uint8_t* codes = nullptr;  ///< pack_origin_bits per cell, if wanted
};

namespace detail {

/// compute_wf_cell's values and origin codes for diagonals
/// [ilo, ilo + count), where every source read is in view: direct loads,
/// and the trim and the maxima as selects, so the loop has no branches.
/// The trim is offset_in_matrix without its null test, which kOffsetNull
/// fails anyway (off >= 0). A later candidate wins only when strictly
/// greater, which is compute_wf_cell's tie-break order (open before
/// extend; sub, then ins, then del).
template <bool kCodes>
inline void compute_wf_interior(const WfRowSources& src, diag_t ilo,
                                diag_t count, offset_t pattern_len,
                                offset_t text_len, const WfRowOut& out) {
  const offset_t* const xm = src.sub.m + (ilo - src.sub.lo);
  const offset_t* const oem = src.open.m + (ilo - src.open.lo);
  const offset_t* const ei = src.ext.i + (ilo - src.ext.lo);
  const offset_t* const ed = src.ext.d + (ilo - src.ext.lo);
  for (diag_t j = 0; j < count; ++j) {
    const diag_t k = ilo + j;
    const auto trim = [k, pattern_len, text_len](offset_t off) {
      const offset_t i = off - k;
      const bool ok = off >= 0 && off <= text_len && i >= 0 && i <= pattern_len;
      return ok ? off : kOffsetNull;
    };
    const offset_t i_open = trim(oem[j - 1] + 1);
    const offset_t i_extend = trim(ei[j - 1] + 1);
    const bool i_from_ext = i_extend > i_open;
    const offset_t iv = i_from_ext ? i_extend : i_open;
    const offset_t d_open = trim(oem[j + 1]);
    const offset_t d_extend = trim(ed[j + 1]);
    const bool d_from_ext = d_extend > d_open;
    const offset_t dv = d_from_ext ? d_extend : d_open;
    const offset_t sub = trim(xm[j] + 1);
    const bool take_i = iv > sub;
    const offset_t si = take_i ? iv : sub;
    const bool take_d = dv > si;
    out.m[j] = take_d ? dv : si;
    out.i[j] = iv;
    out.d[j] = dv;
    if constexpr (kCodes) {
      const unsigned ins = i_from_ext ? 2u : 1u;
      const unsigned del = d_from_ext ? 4u : 3u;
      const unsigned origin = take_d ? del : (take_i ? ins : 0u);
      out.codes[j] = static_cast<std::uint8_t>(
          (origin << 2) | (static_cast<unsigned>(i_from_ext) << 1) |
          static_cast<unsigned>(d_from_ext));
    }
  }
}

}  // namespace detail

/// Computes diagonals [lo, hi] of a new wavefront (Eq. 3) into `out`, and
/// each cell's pack_origin_bits code when out.codes is set. Edge diagonals,
/// where some source read falls outside its view (every diagonal, when a
/// source is absent), go through compute_wf_cell; the interior runs
/// detail::compute_wf_interior. tests/test_wfa_kernel.cpp proves the
/// interior equal to compute_wf_cell exhaustively on a small matrix.
inline void compute_wf_row(const WfRowSources& src, diag_t lo, diag_t hi,
                           offset_t pattern_len, offset_t text_len,
                           const WfRowOut& out) {
  const auto edge = [&](diag_t k) {
    const auto read = [](const WfRowView& v, const offset_t* row, diag_t at) {
      return at >= v.lo && at <= v.hi ? row[at - v.lo] : kOffsetNull;
    };
    WfCellSources cell_src;
    cell_src.m_sub = read(src.sub, src.sub.m, k);
    cell_src.m_open_ins = read(src.open, src.open.m, k - 1);
    cell_src.i_ext = read(src.ext, src.ext.i, k - 1);
    cell_src.m_open_del = read(src.open, src.open.m, k + 1);
    cell_src.d_ext = read(src.ext, src.ext.d, k + 1);
    const WfCell cell = compute_wf_cell(cell_src, k, pattern_len, text_len);
    const auto j = static_cast<std::size_t>(k - lo);
    out.m[j] = cell.m;
    out.i[j] = cell.i;
    out.d[j] = cell.d;
    if (out.codes != nullptr) out.codes[j] = pack_origin_bits(cell);
  };
  const diag_t ilo =
      std::max({lo, src.sub.lo, src.open.lo + 1, src.ext.lo + 1});
  const diag_t ihi =
      std::min({hi, src.sub.hi, src.open.hi - 1, src.ext.hi - 1});
  if (ilo > ihi) {
    for (diag_t k = lo; k <= hi; ++k) edge(k);
    return;
  }
  for (diag_t k = lo; k < ilo; ++k) edge(k);
  const auto skip = static_cast<std::size_t>(ilo - lo);
  const WfRowOut interior{out.m + skip, out.i + skip, out.d + skip,
                          out.codes != nullptr ? out.codes + skip : nullptr};
  if (out.codes != nullptr) {
    detail::compute_wf_interior<true>(src, ilo, ihi - ilo + 1, pattern_len,
                                      text_len, interior);
  } else {
    detail::compute_wf_interior<false>(src, ilo, ihi - ilo + 1, pattern_len,
                                       text_len, interior);
  }
  for (diag_t k = ihi + 1; k <= hi; ++k) edge(k);
}

}  // namespace wfasic::core
