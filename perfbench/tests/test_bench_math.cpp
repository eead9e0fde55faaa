// Checks of the benchmark's own arithmetic on hand-made inputs: the
// nearest-rank percentile and its sample-count rule, span self time, and
// failure accounting catching a planted wrong result.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "common/cigar.hpp"
#include "gen/seqgen.hpp"
#include "oracle.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<std::uint64_t> one_to(std::uint64_t n) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = n; i >= 1; --i) v.push_back(i);  // unsorted input
  return v;
}

void test_nearest_rank() {
  using perfbench::nearest_rank;
  // Rank ceil(p * n): the median of 1..4 is 2, of 1..5 is 3.
  check(nearest_rank(one_to(4), 0.5, 0) == 2u, "p50 of 1..4 is 2");
  check(nearest_rank(one_to(5), 0.5, 0) == 3u, "p50 of 1..5 is 3");
  check(nearest_rank(one_to(1), 0.5, 0) == 1u, "p50 of one sample");
  check(nearest_rank(one_to(100), 1.0, 0) == 100u, "p100 is the maximum");
  check(!nearest_rank({}, 0.5, 0).has_value(), "no samples, no percentile");
  // p99 needs ten samples beyond its rank: 1000 samples give rank 990.
  check(nearest_rank(one_to(1000), 0.99, 10) == 990u, "p99 of 1..1000");
  check(!nearest_rank(one_to(999), 0.99, 10).has_value(),
        "p99 refused below 1000 samples");
  check(nearest_rank(one_to(10'000), 0.999, 10) == 9990u, "p999 of 1..10000");
}

perfbench::Span span(std::uint64_t start, std::uint64_t end,
                     std::int64_t parent = 0) {
  return perfbench::Span{"s", 0, parent, start, end};
}

void test_self_time() {
  using perfbench::self_time_ns;
  const perfbench::Span parent = span(100, 200, -1);
  check(self_time_ns(parent, {}) == 100, "no children: all self");
  const std::vector<perfbench::Span> disjoint = {span(110, 120),
                                                 span(150, 180)};
  check(self_time_ns(parent, disjoint) == 60, "disjoint children subtract");
  const std::vector<perfbench::Span> nested = {span(110, 160), span(120, 130),
                                               span(150, 170)};
  check(self_time_ns(parent, nested) == 40, "overlaps are counted once");
  const std::vector<perfbench::Span> outside = {span(50, 120), span(190, 250),
                                                span(300, 400)};
  check(self_time_ns(parent, outside) == 70,
        "children are clipped to the parent");
  const std::vector<perfbench::Span> covering = {span(0, 1000)};
  check(self_time_ns(parent, covering) == 0, "a covering child leaves none");
}

void test_failure_accounting() {
  using perfbench::Expected;
  using perfbench::FailureTally;
  using perfbench::Observed;
  FailureTally clean;
  perfbench::tally_pair(clean, Observed{true, true, 12, "MMXM"},
                        Expected{true, 12, "MMXM"});
  check(clean.failed() == 0 && clean.ratio() == 0.0, "a right answer passes");

  FailureTally t;
  perfbench::tally_pair(t, Observed{true, true, 12, ""}, Expected{true, 12, ""});
  perfbench::tally_pair(t, Observed{true, true, 13, ""}, Expected{true, 12, ""});
  check(t.mismatched == 1 && t.ratio() == 0.5, "a planted wrong score counts");
  perfbench::tally_pair(t, Observed{true, true, 12, "MXMM"},
                        Expected{true, 12, "MMXM"});
  check(t.mismatched == 2, "a wrong CIGAR with the right score counts");
  perfbench::tally_pair(t, Observed{false, false, 0, ""},
                        Expected{true, 12, ""});
  perfbench::tally_pair(t, Observed{true, false, 0, ""},
                        Expected{true, 12, ""});
  check(t.unresolved == 2, "missing and failed results are unresolved");
  t.shed = 1;
  t.missed = 1;
  t.attempted += 2;
  check(t.failed() == 6 && t.ratio() == 6.0 / 7.0,
        "sheds and misses count against the attempts");
}

void test_cigar_rescoring() {
  using wfasic::Cigar;
  // a = ACGT, b = AGGTT: M X M M I scores 4 (mismatch) + 8 (gap of one).
  check(perfbench::cigar_rescores(Cigar::from_string("MXMMI"), "ACGT",
                                  "AGGTT", 12),
        "a valid transcript rescores");
  check(!perfbench::cigar_rescores(Cigar::from_string("MXMMI"), "ACGT",
                                   "AGGTT", 11),
        "a wrong score is caught");
  check(!perfbench::cigar_rescores(Cigar::from_string("MMMMI"), "ACGT",
                                   "AGGTT", 8),
        "an M over unequal bases is caught");
  check(!perfbench::cigar_rescores(Cigar::from_string("MXMM"), "ACGT",
                                   "AGGTT", 4),
        "a transcript that leaves bases unconsumed is caught");
}

void test_oracle_catches_planted_score() {
  wfasic::gen::InputSetSpec spec;
  spec.length = 200;
  spec.num_pairs = 4;
  const std::vector<wfasic::gen::SequencePair> pairs =
      wfasic::gen::generate_input_set(spec);
  const std::vector<perfbench::Expected> want =
      perfbench::oracle_expect(pairs, true);
  perfbench::FailureTally t;
  for (std::size_t i = 0; i < want.size(); ++i) {
    perfbench::Observed got{true, want[i].ok, want[i].score, want[i].cigar};
    if (i == 2) got.score += 2;  // the planted wrong score
    perfbench::tally_pair(t, got, want[i]);
  }
  check(t.attempted == 4 && t.failed() == 1 && t.ratio() == 0.25,
        "the oracle flags exactly the planted score");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_self_time();
  test_failure_accounting();
  test_cigar_rescoring();
  test_oracle_catches_planted_score();
  if (failures == 0) std::printf("perfbench math: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
