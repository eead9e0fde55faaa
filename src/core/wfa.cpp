#include "core/wfa.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/dna.hpp"

namespace wfasic::core {
namespace {

// Synthetic address map for the instrumentation trace: the pattern, text
// and wavefront pool live in disjoint regions, mirroring the layout of the
// paper's CPU implementation (sequences + heap-allocated wavefronts).
constexpr std::uint64_t kTraceSeqABase = 0x0000'0000ULL;
constexpr std::uint64_t kTraceSeqBBase = 0x0400'0000ULL;
constexpr std::uint64_t kTraceWfBase = 0x1000'0000ULL;

}  // namespace

score_t WfaAligner::worst_case_score(std::size_t a_len, std::size_t b_len,
                                     const Penalties& pen) {
  score_t bound = 0;
  if (a_len > 0)
    bound += pen.open_total() +
             static_cast<score_t>(a_len - 1) * pen.gap_extend;
  if (b_len > 0)
    bound += pen.open_total() +
             static_cast<score_t>(b_len - 1) * pen.gap_extend;
  return bound;
}

/// All per-alignment state; one instance per align() call.
struct WfaAligner::Run {
  const WfaConfig& cfg;
  WfaProbe& probe;
  WavefrontArena& arena;
  std::string_view a;
  std::string_view b;
  offset_t n;       // |a|, pattern length
  offset_t m_len;   // |b|, text length
  diag_t k_align;   // m_len - n: the diagonal the alignment ends on
  score_t score_cap;
  bool keep_all;    // store every wavefront (traceback) vs ring buffer
  bool tracing;     // probe.mem_trace attached (hoisted out of hot loops)
  bool word_extend; // 64-bit XOR+ctz extend kernel usable for this pair

  PackedSeq pa, pb;  // blocked-extend or word-parallel mode

  struct Slot {
    score_t score = -1;
    std::unique_ptr<Wavefront> wf;
  };
  std::vector<Slot> ring;       // score-only mode
  std::vector<std::unique_ptr<Wavefront>> all;  // traceback mode
  score_t window;               // ring depth: max(x, o+e) + 1

  std::uint64_t bump_addr = kTraceWfBase;
  std::uint64_t live_bytes = 0;

  Run(const WfaConfig& config, WfaProbe& prb, WavefrontArena& pool,
      std::string_view sa, std::string_view sb)
      : cfg(config),
        probe(prb),
        arena(pool),
        a(sa),
        b(sb),
        n(static_cast<offset_t>(sa.size())),
        m_len(static_cast<offset_t>(sb.size())),
        k_align(static_cast<diag_t>(sb.size()) -
                static_cast<diag_t>(sa.size())),
        score_cap(config.max_score >= 0
                      ? config.max_score
                      : worst_case_score(sa.size(), sb.size(), config.pen)),
        keep_all(config.traceback == Traceback::kEnabled),
        tracing(static_cast<bool>(prb.mem_trace)),
        word_extend(false),
        window(std::max(config.pen.mismatch, config.pen.open_total()) + 1) {
    // The word-parallel kernel needs packable (A/C/G/T) sequences and no
    // memory trace (a trace must replay the reference kernel's exact
    // access pattern). Blocked mode packs unconditionally — it always
    // required valid bases.
    const bool packable = cfg.extend == ExtendMode::kBlocked ||
                          (is_valid_sequence(a) && is_valid_sequence(b));
    word_extend = !cfg.reference_extend && !tracing && packable;
    if (cfg.extend == ExtendMode::kBlocked || word_extend) {
      pa = PackedSeq(a);
      pb = PackedSeq(b);
    }
    if (!keep_all) ring.resize(static_cast<std::size_t>(window));
  }

  ~Run() {
    for (Slot& slot : ring) arena.release(std::move(slot.wf));
    for (auto& wavefront : all) arena.release(std::move(wavefront));
  }

  void trace(std::uint64_t addr, std::uint32_t size, bool is_write) {
    if (tracing) probe.mem_trace(addr, size, is_write);
  }

  /// Wavefront for score s, or nullptr if absent / already recycled.
  [[nodiscard]] Wavefront* wf(score_t s) {
    if (s < 0) return nullptr;
    if (keep_all) {
      const auto idx = static_cast<std::size_t>(s);
      return idx < all.size() ? all[idx].get() : nullptr;
    }
    Slot& slot = ring[static_cast<std::size_t>(s % window)];
    return slot.score == s ? slot.wf.get() : nullptr;
  }

  Wavefront& make_wf(score_t s, diag_t lo, diag_t hi) {
    std::unique_ptr<Wavefront> wavefront = arena.acquire(lo, hi);
    wavefront->trace_base = bump_addr;
    bump_addr += wavefront->payload_bytes();
    probe.wf_bytes_allocated += wavefront->payload_bytes();
    live_bytes += wavefront->payload_bytes();
    Wavefront* raw = wavefront.get();
    if (keep_all) {
      all.resize(std::max<std::size_t>(all.size(),
                                       static_cast<std::size_t>(s) + 1));
      all[static_cast<std::size_t>(s)] = std::move(wavefront);
    } else {
      Slot& slot = ring[static_cast<std::size_t>(s % window)];
      if (slot.wf) {
        live_bytes -= slot.wf->payload_bytes();
        arena.release(std::move(slot.wf));
      }
      slot.score = s;
      slot.wf = std::move(wavefront);
    }
    probe.peak_live_wf_bytes = std::max(probe.peak_live_wf_bytes, live_bytes);
    return *raw;
  }

  /// extend(): advance every valid M offset along its diagonal while the
  /// sequences match (§2.3). The match run is found by the word-parallel
  /// kernel when eligible; the probe counters always follow the selected
  /// ExtendMode's cost model, so the kernel choice is invisible to both
  /// results and instrumentation.
  void extend(Wavefront& w) {
    for (diag_t k = w.lo(); k <= w.hi(); ++k) {
      const offset_t off = w.m(k);
      if (off == kOffsetNull) continue;
      ++probe.extend_cells;
      const offset_t i0 = off - k;
      std::size_t run = 0;
      if (word_extend) {
        run = pa.match_run64(static_cast<std::size_t>(i0), pb,
                             static_cast<std::size_t>(off));
        if (cfg.extend == ExtendMode::kScalar) {
          probe.chars_compared += run + 1;
        } else {
          probe.blocks_compared += run / PackedSeq::kBasesPerWord + 1;
        }
      } else if (cfg.extend == ExtendMode::kScalar) {
        std::size_t i = static_cast<std::size_t>(i0);
        std::size_t j = static_cast<std::size_t>(off);
        if (tracing) {
          while (i < a.size() && j < b.size() && a[i] == b[j]) {
            probe.mem_trace(kTraceSeqABase + i, 1, false);
            probe.mem_trace(kTraceSeqBBase + j, 1, false);
            ++run;
            ++i;
            ++j;
          }
        } else {
          while (i < a.size() && j < b.size() && a[i] == b[j]) {
            ++run;
            ++i;
            ++j;
          }
        }
        probe.chars_compared += run + 1;
      } else {
        run = pa.match_run(static_cast<std::size_t>(i0), pb,
                           static_cast<std::size_t>(off));
        const std::size_t blocks = run / PackedSeq::kBasesPerWord + 1;
        probe.blocks_compared += blocks;
        if (tracing) {
          // One 4-byte word load per sequence per block.
          for (std::size_t blk = 0; blk < blocks; ++blk) {
            trace(kTraceSeqABase + (static_cast<std::size_t>(i0) / 16 + blk) * 4,
                  4, false);
            trace(kTraceSeqBBase + (static_cast<std::size_t>(off) / 16 + blk) * 4,
                  4, false);
          }
        }
      }
      if (run > 0) {
        w.set_m(k, off + static_cast<offset_t>(run));
        trace(w.trace_addr_m(k), sizeof(offset_t), true);
      }
    }
  }

  /// Adaptive reduction (WfaHeuristic): shrink the wavefront from both
  /// edges, dropping diagonals whose distance-to-target is hopelessly
  /// behind the best one. Runs after extend, before the next compute.
  void reduce(Wavefront& w) {
    const WfaHeuristic& h = cfg.heuristic;
    if (!h.enabled || w.width() <= h.min_wavefront_length) return;
    const auto distance = [&](diag_t k) -> offset_t {
      const offset_t off = w.m(k);
      if (off == kOffsetNull) return kScoreInf;
      const offset_t left_v = n - (off - k);
      const offset_t left_h = m_len - off;
      return std::max(left_v, left_h);
    };
    offset_t best = kScoreInf;
    for (diag_t k = w.lo(); k <= w.hi(); ++k) {
      best = std::min(best, distance(k));
    }
    if (best >= kScoreInf) return;  // all-null wavefront: nothing to judge
    diag_t lo = w.lo();
    diag_t hi = w.hi();
    while (lo < hi && distance(lo) > best + h.max_distance_threshold) ++lo;
    while (hi > lo && distance(hi) > best + h.max_distance_threshold) --hi;
    // Never reduce past the floor.
    if (static_cast<std::size_t>(hi - lo + 1) < h.min_wavefront_length) return;
    w.trim(lo, hi);
  }

  /// Gathers the five Eq.-3 source offsets for diagonal k of score s,
  /// tracing each load when a memory trace is attached. Only the traced
  /// compute and the backtrace read sources one cell at a time.
  [[nodiscard]] WfCellSources gather_sources(score_t s, diag_t k) {
    WfCellSources src;
    if (Wavefront* wx = wf(s - cfg.pen.mismatch)) {
      src.m_sub = wx->m(k);
      if (tracing) {
        trace(wx->trace_addr_m(std::clamp(k, wx->lo(), wx->hi())),
              sizeof(offset_t), false);
      }
    }
    if (Wavefront* woe = wf(s - cfg.pen.open_total())) {
      src.m_open_ins = woe->m(k - 1);
      src.m_open_del = woe->m(k + 1);
      if (tracing) {
        trace(woe->trace_addr_m(std::clamp(k - 1, woe->lo(), woe->hi())),
              sizeof(offset_t), false);
        trace(woe->trace_addr_m(std::clamp(k + 1, woe->lo(), woe->hi())),
              sizeof(offset_t), false);
      }
    }
    if (Wavefront* we = wf(s - cfg.pen.gap_extend)) {
      src.i_ext = we->i(k - 1);
      src.d_ext = we->d(k + 1);
      if (tracing) {
        trace(we->trace_addr_i(std::clamp(k - 1, we->lo(), we->hi())),
              sizeof(offset_t), false);
        trace(we->trace_addr_d(std::clamp(k + 1, we->lo(), we->hi())),
              sizeof(offset_t), false);
      }
    }
    probe.wf_cells_read += 5;
    return src;
  }

  /// compute(): builds the wavefront of score s from s-x, s-o-e, s-e.
  /// Returns the new wavefront or nullptr when no source exists.
  Wavefront* compute(score_t s) {
    Wavefront* wx = wf(s - cfg.pen.mismatch);
    Wavefront* woe = wf(s - cfg.pen.open_total());
    Wavefront* we = wf(s - cfg.pen.gap_extend);
    if (wx == nullptr && woe == nullptr && we == nullptr) return nullptr;

    diag_t lo = kScoreInf;
    diag_t hi = -kScoreInf;
    if (wx != nullptr) {
      lo = std::min(lo, wx->lo());
      hi = std::max(hi, wx->hi());
    }
    if (woe != nullptr) {
      lo = std::min(lo, woe->lo() - 1);
      hi = std::max(hi, woe->hi() + 1);
    }
    if (we != nullptr) {
      lo = std::min(lo, we->lo() - 1);
      hi = std::max(hi, we->hi() + 1);
    }
    // Never wider than the DP matrix itself, and never past the band.
    lo = std::max(lo, -n);
    hi = std::min(hi, m_len);
    if (cfg.k_max >= 0) {
      lo = std::max(lo, -cfg.k_max);
      hi = std::min(hi, cfg.k_max);
    }
    if (lo > hi) return nullptr;

    Wavefront& out = make_wf(s, lo, hi);
    if (tracing) {
      compute_cells_traced(out, s, lo, hi);
    } else {
      // The sources were resolved once above. The probe is charged per row
      // what the traced per-cell path charges: 5 loads and 3 stores a cell.
      compute_wf_row({row_view(wx), row_view(woe), row_view(we)}, lo, hi, n,
                     m_len, {out.row_m(), out.row_i(), out.row_d()});
      const auto width = static_cast<std::uint64_t>(hi - lo + 1);
      probe.cells_computed += width;
      probe.wf_cells_read += 5 * width;
      probe.wf_cells_written += 3 * width;
    }
    ++probe.wavefronts_computed;
    return &out;
  }

  /// The memory-trace compute: one cell at a time, so every source load
  /// and result store is recorded at its own address.
  void compute_cells_traced(Wavefront& out, score_t s, diag_t lo, diag_t hi) {
    for (diag_t k = lo; k <= hi; ++k) {
      const WfCell cell = compute_wf_cell(gather_sources(s, k), k, n, m_len);
      out.set_m(k, cell.m);
      out.set_i(k, cell.i);
      out.set_d(k, cell.d);
      ++probe.cells_computed;
      probe.wf_cells_written += 3;
      trace(out.trace_addr_m(k), sizeof(offset_t), true);
      trace(out.trace_addr_i(k), sizeof(offset_t), true);
      trace(out.trace_addr_d(k), sizeof(offset_t), true);
    }
  }

  /// Recomputes the kernel result for a stored cell (backtrace provenance).
  [[nodiscard]] WfCell recompute_cell(score_t s, diag_t k) {
    return compute_wf_cell(gather_sources(s, k), k, n, m_len);
  }

  /// Walks the stored wavefronts back from the final cell, emitting the
  /// CIGAR. Only valid in keep_all mode.
  [[nodiscard]] Cigar backtrace(score_t s_final) {
    enum class Mat { kM, kI, kD };
    Cigar cig;
    Mat mat = Mat::kM;
    score_t s = s_final;
    diag_t k = k_align;
    offset_t cur = m_len;
    while (true) {
      ++probe.bt_steps;
      switch (mat) {
        case Mat::kM: {
          if (s == 0) {
            WFASIC_ASSERT(k == 0 && cur >= 0,
                          "wfa backtrace: bad terminal state");
            cig.push(CigarOp::kMatch, static_cast<std::uint32_t>(cur));
            cig.reverse();
            return cig;
          }
          const WfCell cell = recompute_cell(s, k);
          WFASIC_ASSERT(cell.m != kOffsetNull && cell.m <= cur,
                        "wfa backtrace: M cell has no provenance");
          cig.push(CigarOp::kMatch, static_cast<std::uint32_t>(cur - cell.m));
          cur = cell.m;
          switch (cell.m_origin) {
            case MOrigin::kSub:
              cig.push(CigarOp::kMismatch);
              s -= cfg.pen.mismatch;
              cur -= 1;
              break;
            case MOrigin::kInsOpen:
              cig.push(CigarOp::kInsertion);
              s -= cfg.pen.open_total();
              k -= 1;
              cur -= 1;
              break;
            case MOrigin::kInsExt:
              cig.push(CigarOp::kInsertion);
              s -= cfg.pen.gap_extend;
              k -= 1;
              cur -= 1;
              mat = Mat::kI;
              break;
            case MOrigin::kDelOpen:
              cig.push(CigarOp::kDeletion);
              s -= cfg.pen.open_total();
              k += 1;
              break;
            case MOrigin::kDelExt:
              cig.push(CigarOp::kDeletion);
              s -= cfg.pen.gap_extend;
              k += 1;
              mat = Mat::kD;
              break;
          }
          break;
        }
        case Mat::kI: {
          const WfCell cell = recompute_cell(s, k);
          WFASIC_ASSERT(cell.i == cur, "wfa backtrace: I cell mismatch");
          cig.push(CigarOp::kInsertion);
          k -= 1;
          cur -= 1;
          if (cell.i_from_ext) {
            s -= cfg.pen.gap_extend;
          } else {
            s -= cfg.pen.open_total();
            mat = Mat::kM;
          }
          break;
        }
        case Mat::kD: {
          const WfCell cell = recompute_cell(s, k);
          WFASIC_ASSERT(cell.d == cur, "wfa backtrace: D cell mismatch");
          cig.push(CigarOp::kDeletion);
          k += 1;
          if (cell.d_from_ext) {
            s -= cfg.pen.gap_extend;
          } else {
            s -= cfg.pen.open_total();
            mat = Mat::kM;
          }
          break;
        }
      }
    }
  }
};

WfaAligner::WfaAligner(WfaConfig cfg) : cfg_(cfg) {
  WFASIC_REQUIRE(cfg_.pen.valid(), "WfaAligner: invalid penalties");
}

void WfaAligner::reconfigure(const WfaConfig& cfg) {
  WFASIC_REQUIRE(cfg.pen.valid(), "WfaAligner: invalid penalties");
  cfg_ = cfg;
}

AlignResult WfaAligner::align(std::string_view a, std::string_view b) {
  Run run(cfg_, probe_, arena_, a, b);
  AlignResult result;

  // A band that cannot even contain the final diagonal can never succeed.
  if (cfg_.k_max >= 0 &&
      (run.k_align > cfg_.k_max || run.k_align < -cfg_.k_max)) {
    return result;  // ok = false
  }

  // Score 0: the single seed cell M_{0,0} = 0, with no I or D offset.
  Wavefront& wf0 = run.make_wf(0, 0, 0);
  wf0.set_m(0, 0);
  wf0.set_i(0, kOffsetNull);
  wf0.set_d(0, kOffsetNull);

  score_t s = 0;
  Wavefront* current = &wf0;
  while (true) {
    ++probe_.score_iterations;
    if (current != nullptr) {
      run.extend(*current);
      if (current->m(run.k_align) == run.m_len) {
        result.ok = true;
        result.score = s;
        break;
      }
      run.reduce(*current);
    }
    if (s >= run.score_cap) return result;  // ok = false: cap exceeded
    ++s;
    current = run.compute(s);
  }

  if (cfg_.traceback == Traceback::kEnabled) {
    result.cigar = run.backtrace(result.score);
  }
  return result;
}

}  // namespace wfasic::core
