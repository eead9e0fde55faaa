// Cross-module invariants: properties that tie the software WFA, the
// wavefront geometry, and the accelerator's output stream together.
#include <gtest/gtest.h>

#include <string>

#include "common/prng.hpp"
#include "core/wfa.hpp"
#include "drv/backtrace_cpu.hpp"
#include "drv/driver.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/bitpack.hpp"
#include "hw/wavefront_geometry.hpp"
#include "mem/main_memory.hpp"

namespace wfasic {
namespace {

TEST(Invariants, StreamLengthMatchesGeometryPrediction) {
  // The number of 16-byte transactions the accelerator writes for one
  // alignment is fully determined by the wavefront geometry: blocks(s) =
  // ceil(width(s)/P) for every present score s in (0, score], times the
  // transactions per block, plus the score record.
  Prng prng(121);
  for (int trial = 0; trial < 8; ++trial) {
    const std::string a = gen::random_sequence(prng, 80 + prng.next_below(200));
    const std::string b = gen::mutate_sequence(prng, a, 0.1);
    mem::MainMemory memory(64 << 20);
    hw::AcceleratorConfig cfg;
    hw::Accelerator accel(cfg, memory);
    const std::vector<gen::SequencePair> pairs = {{0, a, b}};
    const drv::BatchLayout layout =
        drv::encode_input_set(memory, pairs, 0x1000, 0x100000);
    drv::Driver driver(accel);
    driver.start(layout, true);
    (void)driver.wait_idle();

    core::WfaAligner sw;
    const core::AlignResult ref = sw.align(a, b);
    ASSERT_TRUE(ref.ok);

    hw::WavefrontGeometry geom(static_cast<offset_t>(a.size()),
                               static_cast<offset_t>(b.size()), cfg.pen,
                               cfg.k_max);
    std::uint64_t blocks = 0;
    for (score_t s = 1; s <= ref.score; ++s) {
      const hw::WfBounds& bounds = geom.bounds(s);
      if (bounds.present()) {
        blocks += (bounds.width() + cfg.parallel_sections - 1) /
                  cfg.parallel_sections;
      }
    }
    const std::uint64_t txns_per_block =
        (hw::packed_5bit_bytes(cfg.parallel_sections) + 9) / 10;
    EXPECT_EQ(accel.dma().beats_written(), blocks * txns_per_block + 1)
        << "trial " << trial;
  }
}

TEST(Invariants, ProbeCellCountEqualsWavefrontWidthSum) {
  // cells_computed must equal the total width of every computed wavefront
  // — the quantity the CPU cost model multiplies by per-cell cost.
  core::WfaAligner aligner;
  Prng prng(122);
  const std::string a = gen::random_sequence(prng, 200);
  const std::string b = gen::mutate_sequence(prng, a, 0.1);
  const core::AlignResult r = aligner.align(a, b);
  ASSERT_TRUE(r.ok);
  const core::WfaProbe& probe = aligner.probe();
  EXPECT_EQ(probe.wf_cells_written, 3 * probe.cells_computed);
  // Reads: 5 per computed cell plus the backtrace's provenance
  // recomputation (5 per path step).
  EXPECT_GE(probe.wf_cells_read, 5 * probe.cells_computed);
  EXPECT_EQ(probe.wf_cells_read,
            5 * (probe.cells_computed + probe.bt_steps - 1));
  EXPECT_LE(probe.extend_cells, probe.cells_computed + 1);  // +1: seed cell
  EXPECT_GE(probe.score_iterations,
            static_cast<std::uint64_t>(r.score) + 1);
}

TEST(Invariants, ScoreOnlyModeUsesBoundedMemory) {
  // The ring buffer keeps at most max(x, o+e)+1 wavefronts alive, so the
  // peak footprint must be far below the keep-everything traceback mode.
  Prng prng(123);
  const std::string a = gen::random_sequence(prng, 2000);
  const std::string b = gen::mutate_sequence(prng, a, 0.1);

  core::WfaConfig score_only;
  score_only.traceback = core::Traceback::kDisabled;
  core::WfaAligner ring(score_only);
  (void)ring.align(a, b);

  core::WfaAligner full;
  (void)full.align(a, b);

  EXPECT_LT(ring.probe().peak_live_wf_bytes,
            full.probe().peak_live_wf_bytes / 10);
  // Both allocate the same total bytes (same wavefronts computed).
  EXPECT_EQ(ring.probe().wf_bytes_allocated,
            full.probe().wf_bytes_allocated);
  EXPECT_EQ(ring.probe().cells_computed, full.probe().cells_computed);
}

TEST(Invariants, GeometryCoversEverySoftwarePathCell) {
  // Walk the software backtrace and assert every visited (s, k) lies
  // inside the geometry's bounds for that score — the property the stream
  // decoder depends on.
  Prng prng(124);
  for (int trial = 0; trial < 10; ++trial) {
    const std::string a = gen::random_sequence(prng, 150);
    const std::string b = gen::mutate_sequence(prng, a, 0.15);
    core::WfaAligner aligner;
    const core::AlignResult r = aligner.align(a, b);
    ASSERT_TRUE(r.ok);
    hw::WavefrontGeometry geom(static_cast<offset_t>(a.size()),
                               static_cast<offset_t>(b.size()),
                               kDefaultPenalties, -1);
    // Replay the CIGAR, tracking (s, k) after each difference op.
    score_t s = 0;
    diag_t k = 0;
    CigarOp prev = CigarOp::kMatch;
    bool first = true;
    for (CigarOp op : r.cigar.ops()) {
      switch (op) {
        case CigarOp::kMatch:
          break;
        case CigarOp::kMismatch:
          s += kDefaultPenalties.mismatch;
          break;
        case CigarOp::kInsertion:
          s += (!first && prev == CigarOp::kInsertion)
                   ? kDefaultPenalties.gap_extend
                   : kDefaultPenalties.open_total();
          k += 1;
          break;
        case CigarOp::kDeletion:
          s += (!first && prev == CigarOp::kDeletion)
                   ? kDefaultPenalties.gap_extend
                   : kDefaultPenalties.open_total();
          k -= 1;
          break;
      }
      prev = op;
      first = false;
      if (op != CigarOp::kMatch) {
        const hw::WfBounds& bounds = geom.bounds(s);
        ASSERT_TRUE(bounds.present()) << "score " << s;
        EXPECT_GE(k, bounds.lo);
        EXPECT_LE(k, bounds.hi);
      }
    }
    EXPECT_EQ(s, r.score);
    EXPECT_EQ(k, static_cast<diag_t>(b.size()) - static_cast<diag_t>(a.size()));
  }
}

TEST(Invariants, HwAndSwScoresAgreeUnderBand) {
  // Banded software WFA and the banded accelerator must agree on both
  // success and score for every pair — including failures.
  Prng prng(125);
  for (diag_t k_max : {8, 32, 256}) {
    core::WfaConfig sw_cfg;
    sw_cfg.k_max = k_max;
    sw_cfg.max_score = 2 * k_max + 4;  // the hardware's Eq.-6 limit
    core::WfaAligner sw(sw_cfg);

    engine::EngineConfig hw_cfg;
    hw_cfg.device.accel.k_max = k_max;
    engine::Engine soc(hw_cfg);

    const auto pairs = gen::generate_input_set({120, 0.15, 6, 126});
    const engine::BatchResult hw_result = soc.run_batch(pairs, false, false);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const core::AlignResult sw_result = sw.align(pairs[i].a, pairs[i].b);
      EXPECT_EQ(hw_result.alignments[i].ok, sw_result.ok)
          << "k_max=" << k_max << " pair " << i;
      if (sw_result.ok) {
        EXPECT_EQ(hw_result.alignments[i].score, sw_result.score);
      }
    }
  }
}

}  // namespace
}  // namespace wfasic
