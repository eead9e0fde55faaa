// perfbench: one workload of the repository benchmark per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Prints the run conditions, every metric by name with its unit and
// clock, and as its last line `PERFBENCH_RESULT <json>` for run.py. With
// --trace 1 the per-layer spans are written to --spans as Chrome
// trace-event JSON. Exit codes: 0 ok, 1 wrong or missing results, 2 bad
// usage or run conditions under which host time would be misleading.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

/// Sanitizers the compiler reports for this translation unit.
std::string sanitizers() {
  std::string out;
#if defined(__SANITIZE_ADDRESS__)
  out += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  out += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  out += "clang ";
#endif
#endif
  return out.empty() ? "none" : out.substr(0, out.size() - 1);
}

/// Environment variables that select a non-default stepping path.
std::string stepping_overrides() {
  std::string out;
  for (const char* name : {"WFASIC_EVENT_KERNEL", "WFASIC_MACRO_STEP"}) {
    if (const char* v = std::getenv(name)) {
      out += std::string(out.empty() ? "" : " ") + name + "=" + v;
    }
  }
  return out.empty() ? "none" : out;
}

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

bool write_spans(const Report& report, const std::string& path,
                 const Options& opts) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"otherData\":{\"workload\":");
  json_string(f, opts.workload);
  std::fprintf(f, ",\"seed\":%" PRIu64 "},\"traceEvents\":[", opts.seed);
  const auto& spans = report.spans.spans();
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    std::fprintf(f, "%s{\"name\":", i == 0 ? "" : ",");
    json_string(f, s.name);
    std::fprintf(f,
                 ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%" PRIu64 ",\"index\":%zu,\"parent\":%" PRId64
                 "}}",
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration()) / 1e3, s.id, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\nworkloads:",
               argv0);
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opts.workload = value;
      } else if (key == "--seed") {
        opts.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (key == "--trace") {
        opts.trace = value == "1";
      } else if (key == "--spans") {
        spans_path = value;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opts.workload.empty() || !(opts.seconds > 0)) {
    return usage(argv[0]);
  }

  const std::string san = sanitizers();
  const std::string overrides = stepping_overrides();
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
              opts.workload.c_str(), opts.seed, opts.seconds,
              opts.trace ? 1 : 0);
  std::printf("build=%s sanitizers=%s assertions=%s overrides=%s\n",
              PERFBENCH_BUILD_TYPE, san.c_str(),
#ifdef NDEBUG
              "off",
#else
              "on",
#endif
              overrides.c_str());
  // Host time from an instrumented build or a forced stepping path would
  // not be comparable with a default build's, so refuse to report it.
  if (san != "none" || overrides != "none") {
    std::fprintf(stderr,
                 "perfbench: refusing to report host metrics with "
                 "sanitizers=%s overrides=%s\n",
                 san.c_str(), overrides.c_str());
    return 2;
  }

  Report report;
  try {
    report = perfbench::run_workload(opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage(argv[0]);
  }

  std::printf("%-36s %20s  %-12s %s\n", "metric", "value", "unit", "clock");
  for (const Metric& m : report.metrics) {
    std::printf("%-36s %20.6g  %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str());
  }
  const perfbench::FailureTally& t = report.tally;
  std::printf("attempted %" PRIu64 "  mismatched %" PRIu64
              "  unresolved %" PRIu64 "  shed %" PRIu64 "  missed %" PRIu64
              "  modeled_repeat %d  replay_ok %d\n",
              t.attempted, t.mismatched, t.unresolved, t.shed, t.missed,
              report.modeled_repeat ? 1 : 0, report.replay_ok ? 1 : 0);
  if (opts.trace && !spans_path.empty() &&
      !write_spans(report, spans_path, opts)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 2;
  }

  // A run whose modeled results did not repeat counts as failed even when
  // every pair matched its oracle.
  const std::uint64_t failed =
      report.correct() ? 0 : std::max<std::uint64_t>(t.failed(), 1);
  std::printf("PERFBENCH_RESULT {\"correct\":%s,\"attempted\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"metrics\":{",
              report.correct() ? "true" : "false", t.attempted, failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"clock\":\"%s\"}",
                i == 0 ? "" : ",", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str(),
                m.clock.c_str());
  }
  std::printf("}}\n");
  return report.correct() ? 0 : 1;
}
