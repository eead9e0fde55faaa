#include "oracle.hpp"

#include "core/wfa.hpp"

namespace perfbench {

using namespace wfasic;

std::vector<Expected> oracle_expect(std::span<const gen::SequencePair> pairs,
                                    bool with_cigar) {
  core::WfaConfig cfg;
  cfg.traceback =
      with_cigar ? core::Traceback::kEnabled : core::Traceback::kDisabled;
  core::WfaAligner aligner(cfg);
  std::vector<Expected> out;
  out.reserve(pairs.size());
  for (const gen::SequencePair& pair : pairs) {
    const core::AlignResult r = aligner.align(pair.a, pair.b);
    out.push_back(Expected{r.ok, r.score, with_cigar ? r.cigar.str() : ""});
  }
  return out;
}

bool cigar_rescores(const Cigar& cigar, std::string_view a,
                    std::string_view b, score_t score) {
  std::size_t i = 0;
  std::size_t j = 0;
  for (const CigarOp op : cigar.ops()) {
    switch (op) {
      case CigarOp::kMatch:
      case CigarOp::kMismatch:
        if (i >= a.size() || j >= b.size()) return false;
        if ((a[i] == b[j]) != (op == CigarOp::kMatch)) return false;
        ++i;
        ++j;
        break;
      case CigarOp::kInsertion:
        if (j >= b.size()) return false;
        ++j;
        break;
      case CigarOp::kDeletion:
        if (i >= a.size()) return false;
        ++i;
        break;
    }
  }
  return i == a.size() && j == b.size() &&
         cigar.score(kDefaultPenalties) == score;
}

Observed observe(const core::AlignResult& result, bool with_cigar) {
  return Observed{true, result.ok, result.score,
                  with_cigar ? result.cigar.str() : ""};
}

}  // namespace perfbench
