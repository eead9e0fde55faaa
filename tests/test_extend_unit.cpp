#include "hw/extend_unit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "gen/seqgen.hpp"

namespace wfasic::hw {
namespace {

/// One cell through the Aligner's extend path: a one-cell row starting at
/// pattern position i / text position j (diagonal j - i, offset j), one
/// section, no batch overhead — so the row's cycles are the pipeline fill
/// plus the cell's comparator blocks.
ExtendUnit::Result extend_cell(const ExtendUnit& unit, offset_t i,
                               offset_t j) {
  offset_t row[1] = {j};
  const ExtendUnit::RowResult r =
      unit.extend_row(row, j - i, 1, 1, ExtendUnit::kPipelineFill, 0);
  EXPECT_EQ(r.invocations, 1u);
  EXPECT_EQ(r.matched, static_cast<std::uint64_t>(row[0] - j));
  return {row[0] - j, r.cycles - ExtendUnit::kPipelineFill, r.cycles};
}

ExtendUnit::Result fast(const std::string& a, const std::string& b,
                        offset_t i, offset_t j) {
  const PackedSeq pa(a);
  const PackedSeq pb(b);
  return extend_cell(ExtendUnit(pa, pb), i, j);
}

TEST(ExtendUnit, ImmediateMismatchCostsOneBlock) {
  const auto r = fast("T", "C", 0, 0);
  EXPECT_EQ(r.run, 0);
  EXPECT_EQ(r.blocks, 1u);
  EXPECT_EQ(r.cycles, ExtendUnit::kPipelineFill + 1);
}

TEST(ExtendUnit, StartAtSequenceEnd) {
  const auto r = fast("ACGT", "ACGT", 4, 4);
  EXPECT_EQ(r.run, 0);
  EXPECT_EQ(r.blocks, 1u);
}

TEST(ExtendUnit, BlockBoundaryCycleCounts) {
  // runs of 15/16/17 matched bases need 1/2/2 comparator blocks: the
  // activation that discovers the mismatch is part of the count (§4.3.2).
  const std::string base(40, 'A');
  for (const auto& [run, blocks] :
       std::vector<std::pair<int, unsigned>>{
           {0, 1}, {1, 1}, {15, 1}, {16, 2}, {17, 2}, {31, 2}, {32, 3}}) {
    std::string mutated = base;
    mutated[static_cast<std::size_t>(run)] = 'C';
    const auto r = fast(base, mutated, 0, 0);
    EXPECT_EQ(r.run, run);
    EXPECT_EQ(r.blocks, blocks) << "run " << run;
    EXPECT_EQ(r.cycles, ExtendUnit::kPipelineFill + blocks);
  }
}

TEST(ExtendUnit, FullMatchToSequenceEnd) {
  const std::string s(33, 'G');
  const auto r = fast(s, s, 0, 0);
  EXPECT_EQ(r.run, 33);
  // 33 matched bases then end-of-sequence discovery: ceil(34/16) = 3.
  EXPECT_EQ(r.blocks, 3u);
}

TEST(ExtendUnit, UnalignedStartPositions) {
  const std::string core(50, 'T');
  const std::string a = "ACG" + core + "A";
  const std::string b = "GGGGGGG" + core + "C";
  const auto r = fast(a, b, 3, 7);
  EXPECT_EQ(r.run, 50);
}

TEST(ExtendUnit, FastPathEqualsDatapathEverywhere) {
  // The load-bearing equivalence: the packed-word fast path must agree
  // with the lane-by-lane Figure-7 emulation in run, blocks AND cycles.
  Prng prng(131);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len_a = 1 + prng.next_below(80);
    const std::size_t len_b = 1 + prng.next_below(80);
    std::string a = gen::random_sequence(prng, len_a);
    std::string b = gen::random_sequence(prng, len_b);
    if (prng.next_bool(0.7)) {
      const std::size_t shared = std::min(len_a, len_b) / 2;
      b.replace(0, shared, a.substr(0, shared));
    }
    const PackedSeq pa(a);
    const PackedSeq pb(b);
    const ExtendUnit unit(pa, pb);
    const auto i = static_cast<offset_t>(prng.next_below(len_a + 1));
    const auto j = static_cast<offset_t>(prng.next_below(len_b + 1));
    const auto f = extend_cell(unit, i, j);
    const auto d = unit.extend_datapath(i, j);
    EXPECT_EQ(f.run, d.run) << "trial " << trial;
    EXPECT_EQ(f.blocks, d.blocks) << "trial " << trial;
    EXPECT_EQ(f.cycles, d.cycles) << "trial " << trial;
  }
}

TEST(ExtendUnit, OutOfRangeStartAborts) {
  const PackedSeq pa(std::string("ACGT"));
  const PackedSeq pb(std::string("ACGT"));
  const ExtendUnit unit(pa, pb);
  offset_t row[1] = {0};  // pattern position 5 on diagonal -5
  EXPECT_DEATH(
      (void)unit.extend_row(row, -5, 1, 1, ExtendUnit::kPipelineFill, 0),
      "out of range");
}

TEST(ExtendUnit, RowMatchesDatapathPerCellAndBatchesItsCycles) {
  // A whole extend phase: each valid cell of a row advances by the run the
  // datapath finds, null cells stay null, and the cost is the pipeline
  // fill plus, per P-wide batch of valid cells, the overhead and the
  // batch's largest datapath block count — or nothing when no cell is
  // valid (every first trial).
  Prng prng(132);
  constexpr unsigned kOverhead = 3;
  for (const unsigned P : {1u, 3u, 16u, 64u}) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t len_a = 1 + prng.next_below(120);
      const std::string a = gen::random_sequence(prng, len_a);
      const std::string b = gen::mutate_sequence(prng, a, 0.05);
      const PackedSeq pa(a);
      const PackedSeq pb(b);
      const ExtendUnit unit(pa, pb);
      const auto n = static_cast<diag_t>(a.size());
      const auto m = static_cast<diag_t>(b.size());
      const diag_t lo = -n;
      std::vector<offset_t> row(static_cast<std::size_t>(n + m + 1));
      for (std::size_t idx = 0; idx < row.size(); ++idx) {
        // Diagonal k holds offsets j in [max(0, k), min(m, n + k)].
        const diag_t k = lo + static_cast<diag_t>(idx);
        const offset_t j_lo = std::max<offset_t>(0, k);
        const offset_t j_hi = std::min<offset_t>(m, n + k);
        row[idx] = trial == 0 || prng.next_bool(0.3)
                       ? kOffsetNull
                       : j_lo + static_cast<offset_t>(prng.next_below(
                                    static_cast<std::uint64_t>(j_hi - j_lo) +
                                    1));
      }
      const std::vector<offset_t> before = row;

      std::uint64_t valid = 0;
      std::uint64_t matched = 0;
      unsigned cycles = 0;
      unsigned in_batch = 0;
      unsigned max_blocks = 0;
      std::vector<offset_t> expected = before;
      for (std::size_t idx = 0; idx < before.size(); ++idx) {
        if (before[idx] == kOffsetNull) continue;
        const diag_t k = lo + static_cast<diag_t>(idx);
        const auto d = unit.extend_datapath(before[idx] - k, before[idx]);
        expected[idx] = before[idx] + d.run;
        ++valid;
        matched += static_cast<std::uint64_t>(d.run);
        max_blocks = std::max(max_blocks, d.blocks);
        if (++in_batch == P) {
          cycles += kOverhead + max_blocks;
          in_batch = 0;
          max_blocks = 0;
        }
      }
      if (in_batch > 0) cycles += kOverhead + max_blocks;
      if (valid > 0) cycles += ExtendUnit::kPipelineFill;

      const ExtendUnit::RowResult r = unit.extend_row(
          row.data(), lo, row.size(), P, ExtendUnit::kPipelineFill, kOverhead);
      EXPECT_EQ(row, expected) << "P=" << P << " trial " << trial;
      EXPECT_EQ(r.invocations, valid) << "P=" << P << " trial " << trial;
      EXPECT_EQ(r.matched, matched) << "P=" << P << " trial " << trial;
      EXPECT_EQ(r.cycles, cycles) << "P=" << P << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace wfasic::hw
