// Common result type for all pairwise aligners in this library.
#pragma once

#include <string>

#include "common/cigar.hpp"
#include "common/types.hpp"

namespace wfasic::core {

/// Outcome of a pairwise alignment.
///
/// `ok == false` means the aligner gave up (score or k limit exceeded —
/// the hardware's Success=0 case); `score`/`cigar` are then meaningless.
struct AlignResult {
  bool ok = false;
  score_t score = 0;
  Cigar cigar;  ///< empty when backtrace was not requested

  bool operator==(const AlignResult&) const = default;
};

/// Whether an aligner should produce the edit transcript or just the score
/// (the accelerator's backtrace enable/disable switch, §4.1).
enum class Traceback { kDisabled, kEnabled };

}  // namespace wfasic::core
