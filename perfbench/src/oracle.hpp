// Reference answers for the benchmark's correctness check, computed
// outside every timed region.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "bench_math.hpp"
#include "common/cigar.hpp"
#include "core/align_result.hpp"
#include "gen/seqgen.hpp"

namespace perfbench {

/// core::wfa on every pair with the default penalties: the score, and the
/// CIGAR when `with_cigar` (the hardware's backtrace agrees with it op for
/// op, tie-breaks included).
[[nodiscard]] std::vector<Expected> oracle_expect(
    std::span<const wfasic::gen::SequencePair> pairs, bool with_cigar);

/// True when `cigar` is a valid transcript of `a` against `b` — every M
/// joins equal bases, every X unequal ones, both sequences are consumed
/// exactly — and it scores `score` under the default penalties.
[[nodiscard]] bool cigar_rescores(const wfasic::Cigar& cigar,
                                  std::string_view a, std::string_view b,
                                  wfasic::score_t score);

/// The comparable view of one result.
[[nodiscard]] Observed observe(const wfasic::core::AlignResult& result,
                               bool with_cigar);

}  // namespace perfbench
