// The benchmark's own arithmetic: medians, nearest-rank percentiles with
// their sample-count rule, span self time, and failure accounting. Kept
// free of simulator types so tests/test_bench_math.cpp can check it on
// hand-made inputs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count). NaN for
/// an empty input.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile: the smallest sample with at least a fraction
/// `p` of the samples at or below it (rank ceil(p * n), 1-based). A tail
/// percentile is only reported when at least `min_beyond` samples lie
/// beyond its rank — p99 therefore needs 1000 samples with ten. Returns
/// nullopt when the rule is not met.
[[nodiscard]] inline std::optional<std::uint64_t> nearest_rank(
    std::vector<std::uint64_t> values, double p, std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n == 0 || p <= 0.0 || p > 1.0) return std::nullopt;
  // The epsilon keeps 0.99 * 1000 at rank 990 despite rounding error.
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9)),
      1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

/// One recorded interval of host time. Spans of one batch or request
/// share `id`; `parent` is the index of the enclosing span in the
/// recorder, or -1 for a root.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t duration() const { return end_ns - start_ns; }
};

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children are counted once, and any
/// part of a child outside the parent is ignored.
[[nodiscard]] inline std::uint64_t self_time_ns(
    const Span& parent, std::span<const Span> children) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  cover.reserve(children.size());
  for (const Span& c : children) {
    const std::uint64_t lo = std::max(c.start_ns, parent.start_ns);
    const std::uint64_t hi = std::min(c.end_ns, parent.end_ns);
    if (lo < hi) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.start_ns;
  for (const auto& [lo, hi] : cover) {
    const std::uint64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return parent.duration() - covered;
}

/// In-memory span log. Disabled recorders never read the clock, so the
/// timed (untraced) run pays one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its index (or -1 when disabled).
  std::int64_t open(const char* name, std::uint64_t id,
                    std::int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, id, parent, now_ns(), 0});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name`.
  [[nodiscard]] std::uint64_t total_ns(const std::string& name) const {
    std::uint64_t sum = 0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.duration();
    }
    return sum;
  }
  /// Durations of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_ns(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.duration()));
    }
    return out;
  }

  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Closes its span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t id,
             std::int64_t parent = -1)
      : rec_(rec), index_(rec.open(name, id, parent)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int64_t index_;
};

/// Everything that makes a workload's output wrong or missing, counted
/// against the pairs attempted.
struct FailureTally {
  std::uint64_t attempted = 0;
  std::uint64_t mismatched = 0;  ///< score/CIGAR disagrees with the oracle
  std::uint64_t unresolved = 0;  ///< no result, or a failed alignment
  std::uint64_t shed = 0;        ///< dropped by the service
  std::uint64_t missed = 0;      ///< completed past its deadline

  [[nodiscard]] std::uint64_t failed() const {
    return mismatched + unresolved + shed + missed;
  }
  [[nodiscard]] double ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

/// What the oracle expects of one pair.
struct Expected {
  bool ok = true;
  std::int32_t score = 0;
  std::string cigar;  ///< uncompressed ops; empty = not checked
};

/// What a workload produced for one pair.
struct Observed {
  bool present = true;
  bool ok = true;
  std::int32_t score = 0;
  std::string cigar;
};

/// Adds one attempted pair to `tally`: unresolved when the result is
/// missing or failed where the oracle succeeded, mismatched when the
/// score (or, where the oracle names one, the CIGAR) disagrees.
inline void tally_pair(FailureTally& tally, const Observed& got,
                       const Expected& want) {
  ++tally.attempted;
  if (!got.present || (want.ok && !got.ok)) {
    ++tally.unresolved;
  } else if (got.ok != want.ok || got.score != want.score ||
             (!want.cigar.empty() && got.cigar != want.cigar)) {
    ++tally.mismatched;
  }
}

}  // namespace perfbench
