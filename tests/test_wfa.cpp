#include "core/wfa.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/prng.hpp"
#include "core/swg_affine.hpp"
#include "gen/seqgen.hpp"

namespace wfasic::core {
namespace {

AlignResult wfa_align(std::string_view a, std::string_view b,
                      WfaConfig cfg = {}) {
  WfaAligner aligner(cfg);
  return aligner.align(a, b);
}

TEST(Wfa, IdenticalSequences) {
  const AlignResult r = wfa_align("GATTACA", "GATTACA");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.score, 0);
  EXPECT_EQ(r.cigar.str(), "MMMMMMM");
}

TEST(Wfa, BothEmpty) {
  const AlignResult r = wfa_align("", "");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.score, 0);
  EXPECT_TRUE(r.cigar.empty());
}

TEST(Wfa, EmptyPattern) {
  const AlignResult r = wfa_align("", "ACGT");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.score, 6 + 4 * 2);  // one affine gap of 4
  EXPECT_EQ(r.cigar.str(), "IIII");
}

TEST(Wfa, EmptyText) {
  const AlignResult r = wfa_align("ACG", "");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.score, 6 + 3 * 2);
  EXPECT_EQ(r.cigar.str(), "DDD");
}

TEST(Wfa, SingleBaseMatch) {
  const AlignResult r = wfa_align("A", "A");
  EXPECT_EQ(r.score, 0);
  EXPECT_EQ(r.cigar.str(), "M");
}

TEST(Wfa, SingleBaseMismatch) {
  const AlignResult r = wfa_align("A", "C");
  EXPECT_EQ(r.score, 4);
  EXPECT_EQ(r.cigar.str(), "X");
}

TEST(Wfa, PaperFigure1Example) {
  // Figure 1 of the paper aligns two sequences with three mismatches under
  // (x, o, e) = (4, 6, 2), reaching score 12.
  const AlignResult r = wfa_align("GATACTCACG", "GAGATATCGC");
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.cigar.is_valid_for("GATACTCACG", "GAGATATCGC"));
  EXPECT_EQ(r.cigar.score(kDefaultPenalties), r.score);
  EXPECT_EQ(r.score,
            align_swg("GATACTCACG", "GAGATATCGC", kDefaultPenalties,
                      Traceback::kDisabled)
                .score);
}

TEST(Wfa, LongGapUsesAffineExtension) {
  const AlignResult r = wfa_align("ACGTACGT", "ACGTTTTTTACGT");
  // 5 inserted bases: o + 5e = 16.
  EXPECT_EQ(r.score, 16);
  EXPECT_TRUE(r.cigar.is_valid_for("ACGTACGT", "ACGTTTTTTACGT"));
}

TEST(Wfa, CigarScoreMatchesReportedScore) {
  Prng prng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string a = gen::random_sequence(prng, 30 + prng.next_below(40));
    const std::string b = gen::mutate_sequence(prng, a, 0.15);
    const AlignResult r = wfa_align(a, b);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.cigar.is_valid_for(a, b));
    EXPECT_EQ(r.cigar.score(kDefaultPenalties), r.score);
  }
}

TEST(Wfa, ScoreOnlyModeMatchesTracebackMode) {
  Prng prng(42);
  WfaConfig score_only;
  score_only.traceback = Traceback::kDisabled;
  for (int trial = 0; trial < 50; ++trial) {
    const std::string a = gen::random_sequence(prng, prng.next_below(60));
    const std::string b = gen::mutate_sequence(prng, a, 0.2);
    const AlignResult full = wfa_align(a, b);
    const AlignResult scored = wfa_align(a, b, score_only);
    EXPECT_EQ(full.score, scored.score);
    EXPECT_TRUE(scored.cigar.empty());
  }
}

TEST(Wfa, BlockedExtendMatchesScalar) {
  Prng prng(43);
  WfaConfig blocked;
  blocked.extend = ExtendMode::kBlocked;
  for (int trial = 0; trial < 50; ++trial) {
    const std::string a = gen::random_sequence(prng, prng.next_below(100));
    const std::string b = gen::mutate_sequence(prng, a, 0.1);
    const AlignResult scalar = wfa_align(a, b);
    const AlignResult vec = wfa_align(a, b, blocked);
    EXPECT_EQ(scalar.score, vec.score);
    EXPECT_EQ(scalar.cigar, vec.cigar);
  }
}

TEST(Wfa, MaxScoreCapFailsGracefully) {
  WfaConfig cfg;
  cfg.max_score = 3;  // below the score of one mismatch
  const AlignResult r = wfa_align("A", "C", cfg);
  EXPECT_FALSE(r.ok);
}

TEST(Wfa, MaxScoreCapExactBoundarySucceeds) {
  WfaConfig cfg;
  cfg.max_score = 4;
  const AlignResult r = wfa_align("A", "C", cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.score, 4);
}

TEST(Wfa, BandTooNarrowForFinalDiagonalFails) {
  WfaConfig cfg;
  cfg.k_max = 2;
  // k_align = |b| - |a| = 5 > k_max.
  const AlignResult r = wfa_align("AAA", "AAAAAAAA", cfg);
  EXPECT_FALSE(r.ok);
}

TEST(Wfa, BandWideEnoughMatchesUnbanded) {
  Prng prng(44);
  WfaConfig banded;
  banded.k_max = 64;
  for (int trial = 0; trial < 30; ++trial) {
    const std::string a = gen::random_sequence(prng, 40 + prng.next_below(20));
    const std::string b = gen::mutate_sequence(prng, a, 0.1);
    const AlignResult r1 = wfa_align(a, b);
    const AlignResult r2 = wfa_align(a, b, banded);
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(r1.score, r2.score);
    EXPECT_EQ(r1.cigar, r2.cigar);
  }
}

TEST(Wfa, ProbeCountsArePlausible) {
  WfaAligner aligner;
  const std::string a = "ACGTACGTACGTACGT";
  const std::string b = "ACGTACGTACGAACGT";  // one mismatch
  const AlignResult r = aligner.align(a, b);
  EXPECT_TRUE(r.ok);
  const WfaProbe& probe = aligner.probe();
  EXPECT_GT(probe.score_iterations, 0u);
  EXPECT_GT(probe.cells_computed, 0u);
  EXPECT_GT(probe.chars_compared, 0u);
  EXPECT_GT(probe.bt_steps, 0u);
  EXPECT_GE(probe.wf_cells_written, 3 * probe.cells_computed);
}

TEST(Wfa, ProbeMemTraceFires) {
  WfaAligner aligner;
  std::uint64_t events = 0;
  aligner.probe().mem_trace = [&](std::uint64_t, std::uint32_t, bool) {
    ++events;
  };
  (void)aligner.align("ACGTACGA", "ACCTACGT");
  EXPECT_GT(events, 0u);
}

TEST(Wfa, ReusedAlignerMatchesFreshAligner) {
  // A long-lived aligner hands recycled wavefront buffers out unfilled
  // (and frees those too narrow for the next score), so stale offsets
  // from earlier pairs sit in every reused row until the compute writes
  // it. Long pairs after short ones and the reverse, on both compute
  // paths (row kernel; per-cell with a memory trace), must give what a
  // fresh aligner gives: result, CIGAR and every probe counter.
  Prng prng(46);
  for (const bool traced : {false, true}) {
    for (const Traceback traceback :
         {Traceback::kEnabled, Traceback::kDisabled}) {
      WfaConfig cfg;
      cfg.traceback = traceback;
      WfaAligner reused(cfg);
      std::uint64_t reused_events = 0;
      if (traced) {
        reused.probe().mem_trace = [&](std::uint64_t, std::uint32_t, bool) {
          ++reused_events;
        };
      }
      for (const std::size_t len : {400u, 30u, 900u, 1u, 250u, 600u}) {
        const std::string a = gen::random_sequence(prng, len);
        const std::string b = gen::mutate_sequence(prng, a, 0.15);
        WfaAligner fresh(cfg);
        std::uint64_t fresh_events = 0;
        if (traced) {
          fresh.probe().mem_trace = [&](std::uint64_t, std::uint32_t, bool) {
            ++fresh_events;
          };
        }
        reused.probe().reset();
        reused_events = 0;
        const AlignResult r = reused.align(a, b);
        const AlignResult f = fresh.align(a, b);
        ASSERT_TRUE(f.ok) << len;
        EXPECT_EQ(r.ok, f.ok) << len;
        EXPECT_EQ(r.score, f.score) << len;
        EXPECT_EQ(r.cigar.str(), f.cigar.str()) << len;
        const WfaProbe& rp = reused.probe();
        const WfaProbe& fp = fresh.probe();
        EXPECT_EQ(rp.cells_computed, fp.cells_computed) << len;
        EXPECT_EQ(rp.extend_cells, fp.extend_cells) << len;
        EXPECT_EQ(rp.wf_cells_written, fp.wf_cells_written) << len;
        EXPECT_EQ(rp.bt_steps, fp.bt_steps) << len;
        EXPECT_EQ(rp.wf_bytes_allocated, fp.wf_bytes_allocated) << len;
        EXPECT_EQ(rp.peak_live_wf_bytes, fp.peak_live_wf_bytes) << len;
        EXPECT_EQ(reused_events, fresh_events) << len;
      }
      EXPECT_GT(reused.arena().pooled(), 0u);
    }
  }
}

TEST(Wfa, WorstCaseScoreBound) {
  const Penalties pen = kDefaultPenalties;
  EXPECT_EQ(WfaAligner::worst_case_score(0, 0, pen), 0);
  EXPECT_EQ(WfaAligner::worst_case_score(3, 0, pen), 6 + 2 + 2 * 2);
  // The bound is achievable: delete all of a + insert all of b.
  Prng prng(45);
  const std::string a = gen::random_sequence(prng, 10);
  const std::string b = gen::random_sequence(prng, 12);
  const AlignResult r = wfa_align(a, b);
  EXPECT_LE(r.score, WfaAligner::worst_case_score(a.size(), b.size(), pen));
}

TEST(Wfa, TotallyDissimilarSequences) {
  // No common bases at all: alignment still succeeds.
  const std::string a(20, 'A');
  const std::string b(20, 'T');
  const AlignResult r = wfa_align(a, b);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.score, 20 * 4);  // 20 mismatches beat gap alternatives
  EXPECT_TRUE(r.cigar.is_valid_for(a, b));
}

}  // namespace
}  // namespace wfasic::core
