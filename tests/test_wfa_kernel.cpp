// Unit tests of the shared Eq.-3 kernels (core/wfa_kernel.hpp) — the one
// piece of logic the software WFA and the hardware Compute sub-module must
// agree on bit for bit. compute_wf_cell is the definition; compute_wf_row's
// branchless interior is proven against it exhaustively on a small matrix,
// and whole rows differentially against a per-cell loop.
#include "core/wfa_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/prng.hpp"

namespace wfasic::core {
namespace {

constexpr offset_t kN = 100;  // pattern length
constexpr offset_t kM = 100;  // text length

TEST(WfaKernel, OffsetInMatrix) {
  EXPECT_TRUE(offset_in_matrix(0, 0, kN, kM));
  EXPECT_TRUE(offset_in_matrix(kM, 0, kN, kM));
  EXPECT_FALSE(offset_in_matrix(kM + 1, 0, kN, kM));
  EXPECT_FALSE(offset_in_matrix(-1, 0, kN, kM));
  EXPECT_TRUE(offset_in_matrix(0, -1, kN, kM));  // i = 1: inside
  EXPECT_FALSE(offset_in_matrix(kOffsetNull, 0, kN, kM));
}

TEST(WfaKernel, OffsetInMatrixDiagonalBounds) {
  // offset 5 on diagonal 10 means i = -5: invalid.
  EXPECT_FALSE(offset_in_matrix(5, 10, kN, kM));
  // offset 5 on diagonal -96 means i = 101 > n: invalid.
  EXPECT_FALSE(offset_in_matrix(5, -96, kN, kM));
  // offset 5 on diagonal -95 means i = 100 = n: valid.
  EXPECT_TRUE(offset_in_matrix(5, -95, kN, kM));
}

TEST(WfaKernel, AllNullSourcesGiveNullCell) {
  const WfCell cell = compute_wf_cell(WfCellSources{}, 0, kN, kM);
  EXPECT_EQ(cell.m, kOffsetNull);
  EXPECT_EQ(cell.i, kOffsetNull);
  EXPECT_EQ(cell.d, kOffsetNull);
}

TEST(WfaKernel, SubstitutionAdvancesOffset) {
  WfCellSources src;
  src.m_sub = 10;
  const WfCell cell = compute_wf_cell(src, 0, kN, kM);
  EXPECT_EQ(cell.m, 11);
  EXPECT_EQ(cell.m_origin, MOrigin::kSub);
  EXPECT_EQ(cell.i, kOffsetNull);
  EXPECT_EQ(cell.d, kOffsetNull);
}

TEST(WfaKernel, InsertionOpenAndExtend) {
  WfCellSources src;
  src.m_open_ins = 10;  // open would give 11
  src.i_ext = 12;       // extend gives 13
  const WfCell cell = compute_wf_cell(src, 0, kN, kM);
  EXPECT_EQ(cell.i, 13);
  EXPECT_TRUE(cell.i_from_ext);
  EXPECT_EQ(cell.m, 13);
  EXPECT_EQ(cell.m_origin, MOrigin::kInsExt);
}

TEST(WfaKernel, InsertionTiePrefersOpen) {
  WfCellSources src;
  src.m_open_ins = 12;
  src.i_ext = 12;
  const WfCell cell = compute_wf_cell(src, 0, kN, kM);
  EXPECT_EQ(cell.i, 13);
  EXPECT_FALSE(cell.i_from_ext);
  EXPECT_EQ(cell.m_origin, MOrigin::kInsOpen);
}

TEST(WfaKernel, DeletionKeepsOffset) {
  WfCellSources src;
  src.m_open_del = 9;
  src.d_ext = 7;
  const WfCell cell = compute_wf_cell(src, 0, kN, kM);
  EXPECT_EQ(cell.d, 9);
  EXPECT_FALSE(cell.d_from_ext);
  EXPECT_EQ(cell.m, 9);
  EXPECT_EQ(cell.m_origin, MOrigin::kDelOpen);
}

TEST(WfaKernel, MTieBreakOrderSubInsDel) {
  // All three paths reach offset 11: sub wins, then ins, then del.
  WfCellSources all;
  all.m_sub = 10;
  all.m_open_ins = 10;
  all.m_open_del = 11;
  const WfCell cell = compute_wf_cell(all, 0, kN, kM);
  EXPECT_EQ(cell.m, 11);
  EXPECT_EQ(cell.m_origin, MOrigin::kSub);

  WfCellSources no_sub = all;
  no_sub.m_sub = kOffsetNull;
  EXPECT_EQ(compute_wf_cell(no_sub, 0, kN, kM).m_origin, MOrigin::kInsOpen);

  WfCellSources only_del = no_sub;
  only_del.m_open_ins = kOffsetNull;
  EXPECT_EQ(compute_wf_cell(only_del, 0, kN, kM).m_origin, MOrigin::kDelOpen);
}

TEST(WfaKernel, TrimsOutOfMatrixCandidatesBeforeMax) {
  // Open insertion would land past the text end while the extension stays
  // inside: the kernel must keep the (smaller) valid candidate.
  WfCellSources src;
  src.m_open_ins = kM;      // open -> kM + 1: out of matrix
  src.i_ext = kM - 2;       // extend -> kM - 1: valid
  const WfCell cell = compute_wf_cell(src, 0, kN, kM);
  EXPECT_EQ(cell.i, kM - 1);
  EXPECT_TRUE(cell.i_from_ext);
}

TEST(WfaKernel, SubstitutionPastEndIsNull) {
  WfCellSources src;
  src.m_sub = kM;  // sub would give kM + 1
  const WfCell cell = compute_wf_cell(src, 0, kN, kM);
  EXPECT_EQ(cell.m, kOffsetNull);
}

TEST(WfaKernel, DiagonalTrimming) {
  // On diagonal k = kM, offset kM means i = 0 (valid); on k = kM the
  // offset kM - 1 would mean i = -1 (invalid).
  WfCellSources src;
  src.m_sub = kM - 1;  // sub -> kM on diagonal kM: i = 0, valid
  EXPECT_EQ(compute_wf_cell(src, kM, kN, kM).m, kM);
  src.m_sub = kM - 2;  // sub -> kM - 1 on diagonal kM: i = -1, invalid
  EXPECT_EQ(compute_wf_cell(src, kM, kN, kM).m, kOffsetNull);
}

TEST(WfaKernel, OriginBitsRoundTrip) {
  for (std::uint8_t m_origin = 0; m_origin < 5; ++m_origin) {
    for (bool i_ext : {false, true}) {
      for (bool d_ext : {false, true}) {
        WfCell cell;
        cell.m_origin = static_cast<MOrigin>(m_origin);
        cell.i_from_ext = i_ext;
        cell.d_from_ext = d_ext;
        const OriginBits bits = unpack_origin_bits(pack_origin_bits(cell));
        EXPECT_EQ(bits.m_origin, cell.m_origin);
        EXPECT_EQ(bits.i_from_ext, cell.i_from_ext);
        EXPECT_EQ(bits.d_from_ext, cell.d_from_ext);
      }
    }
  }
}

TEST(WfaKernel, OriginBitsFitInFiveBits) {
  WfCell cell;
  cell.m_origin = MOrigin::kDelExt;
  cell.i_from_ext = true;
  cell.d_from_ext = true;
  EXPECT_LT(pack_origin_bits(cell), 32);
}

// --- compute_wf_row ---------------------------------------------------------

/// One source wavefront as owned rows, for building WfRowViews.
struct SourceRows {
  std::vector<offset_t> m, i, d;
  diag_t lo = 0;
  diag_t hi = -1;  ///< lo > hi: absent

  [[nodiscard]] WfRowView view() const {
    if (lo > hi) return {};
    return {m.data(), i.data(), d.data(), lo, hi};
  }
  [[nodiscard]] offset_t read(const std::vector<offset_t>& row,
                              diag_t k) const {
    return k >= lo && k <= hi ? row[static_cast<std::size_t>(k - lo)]
                              : kOffsetNull;
  }
};

struct RowResult {
  std::vector<offset_t> m, i, d;
  std::vector<std::uint8_t> codes;

  bool operator==(const RowResult&) const = default;
};

/// The reference: compute_wf_cell on each diagonal, sources read with
/// bounds checks.
RowResult per_cell_row(const SourceRows& sub, const SourceRows& open,
                       const SourceRows& ext, diag_t lo, diag_t hi,
                       offset_t pattern_len, offset_t text_len) {
  RowResult r;
  for (diag_t k = lo; k <= hi; ++k) {
    WfCellSources src;
    src.m_sub = sub.read(sub.m, k);
    src.m_open_ins = open.read(open.m, k - 1);
    src.i_ext = ext.read(ext.i, k - 1);
    src.m_open_del = open.read(open.m, k + 1);
    src.d_ext = ext.read(ext.d, k + 1);
    const WfCell cell = compute_wf_cell(src, k, pattern_len, text_len);
    r.m.push_back(cell.m);
    r.i.push_back(cell.i);
    r.d.push_back(cell.d);
    r.codes.push_back(pack_origin_bits(cell));
  }
  return r;
}

RowResult row_kernel(const SourceRows& sub, const SourceRows& open,
                     const SourceRows& ext, diag_t lo, diag_t hi,
                     offset_t pattern_len, offset_t text_len,
                     bool with_codes) {
  const auto width = static_cast<std::size_t>(hi - lo + 1);
  RowResult r;
  r.m.assign(width, 7);  // junk: every cell must be written
  r.i.assign(width, 7);
  r.d.assign(width, 7);
  r.codes.assign(width, with_codes ? 0xee : 0);
  compute_wf_row({sub.view(), open.view(), ext.view()}, lo, hi, pattern_len,
                 text_len,
                 {r.m.data(), r.i.data(), r.d.data(),
                  with_codes ? r.codes.data() : nullptr});
  return r;
}

TEST(WfaKernelRow, InteriorMatchesCellKernelExhaustively) {
  // Every combination of the five sources over {null, -1, 0, ..., text+1}
  // on every diagonal of a small matrix (and one past each corner). Each
  // source row covers k-1..k+1, so every read of the single output
  // diagonal is in view and compute_wf_row takes its branchless interior.
  constexpr offset_t kPat = 3;
  constexpr offset_t kText = 4;
  std::vector<offset_t> values{kOffsetNull};
  for (offset_t v = -1; v <= kText + 1; ++v) values.push_back(v);
  const std::size_t n = values.size();
  const std::size_t combos = n * n * n * n * n;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  for (diag_t k = -kPat - 1; k <= kText + 1; ++k) {
    for (std::size_t c = 0; c < combos; ++c) {
      std::size_t rest = c;
      const auto next = [&] {
        const offset_t v = values[rest % n];
        rest /= n;
        return v;
      };
      WfCellSources src;
      src.m_sub = next();
      src.m_open_ins = next();
      src.i_ext = next();
      src.m_open_del = next();
      src.d_ext = next();

      // Unread cells hold a valid-looking offset, so a read from the wrong
      // index would show.
      const std::array<offset_t, 3> sub_m{2, src.m_sub, 2};
      const std::array<offset_t, 3> open_m{src.m_open_ins, 2,
                                            src.m_open_del};
      const std::array<offset_t, 3> ext_i{src.i_ext, 2, 2};
      const std::array<offset_t, 3> ext_d{2, 2, src.d_ext};
      const std::array<offset_t, 3> junk{1, 1, 1};
      const WfRowSources rows{
          {sub_m.data(), junk.data(), junk.data(), k - 1, k + 1},
          {open_m.data(), junk.data(), junk.data(), k - 1, k + 1},
          {junk.data(), ext_i.data(), ext_d.data(), k - 1, k + 1}};
      offset_t m = 0, i = 0, d = 0;
      std::uint8_t code = 0xff;
      compute_wf_row(rows, k, k, kPat, kText, {&m, &i, &d, &code});

      const WfCell want = compute_wf_cell(src, k, kPat, kText);
      ++checked;
      if (m != want.m || i != want.i || d != want.d ||
          code != pack_origin_bits(want)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "k=" << k << " sub=" << src.m_sub
                        << " open_ins=" << src.m_open_ins
                        << " i_ext=" << src.i_ext
                        << " open_del=" << src.m_open_del
                        << " d_ext=" << src.d_ext << ": got (" << m << ", "
                        << i << ", " << d << ", code " << int{code}
                        << "), want (" << want.m << ", " << want.i << ", "
                        << want.d << ", code "
                        << int{pack_origin_bits(want)} << ")";
        }
      }
    }
  }
  EXPECT_EQ(checked, combos * static_cast<std::size_t>(kPat + kText + 3));
  EXPECT_EQ(mismatches, 0u);
}

/// A random source row over [lo, hi] holding mostly in-matrix offsets,
/// some just outside the matrix and some nulls.
SourceRows random_rows(Prng& prng, diag_t lo, diag_t hi, offset_t text_len) {
  SourceRows rows;
  rows.lo = lo;
  rows.hi = hi;
  const auto value = [&]() -> offset_t {
    if (prng.next_bool(0.15)) return kOffsetNull;
    return static_cast<offset_t>(prng.next_range(-2, text_len + 2));
  };
  for (diag_t k = lo; k <= hi; ++k) {
    rows.m.push_back(value());
    rows.i.push_back(value());
    rows.d.push_back(value());
  }
  return rows;
}

TEST(WfaKernelRow, RowMatchesPerCellLoop) {
  Prng prng(2028);
  enum Shape { kAbsent, kDisjoint, kPartial, kWidthOne, kCovering, kShapes };
  std::array<unsigned, kShapes> seen{};
  for (int trial = 0; trial < 4000; ++trial) {
    const auto pattern_len = static_cast<offset_t>(prng.next_range(0, 40));
    const auto text_len = static_cast<offset_t>(prng.next_range(0, 40));
    // The output row: one real-sized wavefront range.
    const auto lo = static_cast<diag_t>(prng.next_range(-pattern_len - 2, 2));
    const auto hi = static_cast<diag_t>(prng.next_range(lo, text_len + 2));

    SourceRows src[3];
    for (SourceRows& rows : src) {
      const auto shape = static_cast<Shape>(prng.next_below(kShapes));
      ++seen[shape];
      diag_t slo = 0;
      diag_t shi = -1;
      switch (shape) {
        case kAbsent:
          break;
        case kDisjoint:  // entirely past one end, or touching k±1 only
          if (prng.next_bool(0.5)) {
            slo = hi + static_cast<diag_t>(prng.next_range(1, 3));
          } else {
            slo = lo - static_cast<diag_t>(prng.next_range(1, 3)) - 4;
          }
          shi = slo + static_cast<diag_t>(prng.next_range(0, 3));
          break;
        case kPartial:
          slo = static_cast<diag_t>(prng.next_range(lo - 3, hi + 1));
          shi = static_cast<diag_t>(prng.next_range(slo, hi + 4));
          break;
        case kWidthOne:
          slo = shi = static_cast<diag_t>(prng.next_range(lo - 1, hi + 1));
          break;
        case kCovering:
          slo = lo - static_cast<diag_t>(prng.next_range(0, 2));
          shi = hi + static_cast<diag_t>(prng.next_range(0, 2));
          break;
        case kShapes:
          break;
      }
      rows = shape == kAbsent ? SourceRows{}
                              : random_rows(prng, slo, shi, text_len);
    }
    const RowResult want =
        per_cell_row(src[0], src[1], src[2], lo, hi, pattern_len, text_len);
    const RowResult with_codes = row_kernel(src[0], src[1], src[2], lo, hi,
                                            pattern_len, text_len, true);
    ASSERT_EQ(with_codes, want) << "trial " << trial;
    RowResult values_only = row_kernel(src[0], src[1], src[2], lo, hi,
                                       pattern_len, text_len, false);
    values_only.codes = want.codes;  // no codes buffer was passed
    ASSERT_EQ(values_only, want) << "trial " << trial;
  }
  for (unsigned count : seen) EXPECT_GT(count, 100u);
}

}  // namespace
}  // namespace wfasic::core
