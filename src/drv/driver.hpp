// Linux-driver-style host API for the WFAsic accelerator (§3, §5.3: "We
// use a standard Linux driver and API to configure the WFAsic
// accelerator").
//
// The driver runs on the (modelled) CPU: it encodes input sets into main
// memory in the §4.2 layout, programs the AXI-Lite registers, starts the
// accelerator, waits for Idle, and decodes the result stream.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/align_result.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/input_format.hpp"
#include "hw/result_format.hpp"
#include "mem/main_memory.hpp"

namespace wfasic::drv {

/// Where one encoded batch lives in main memory.
struct BatchLayout {
  std::uint64_t in_addr = 0;
  std::uint64_t in_bytes = 0;
  std::uint64_t out_addr = 0;
  std::uint32_t max_read_len = 0;
  std::size_t num_pairs = 0;
  /// CRC transport protection (must agree with AcceleratorConfig::crc):
  /// the input set carries per-pair footer sections, the result stream
  /// carries per-record/per-alignment CRCs, all salted with `crc_salt`.
  bool crc = false;
  std::uint32_t crc_salt = 0;
};

/// Encodes `pairs` at `in_addr` in the accelerator input layout.
///
/// MAX_READ_LEN is the longest sequence of the set rounded up to 16
/// (§4.2) unless `force_max_read_len` is non-zero — forcing a smaller
/// value stores truncated bases but the true length, which the Extractor
/// must flag as unsupported (used by the robustness tests). Sequences are
/// stored verbatim, so 'N' bases reach the Extractor and trip its
/// unsupported-read detection. With `crc` each pair gains a footer
/// section carrying the salted CRC-32 over the pair's preceding bytes;
/// the Extractor verifies it and fails mismatching pairs with kErrCrc.
[[nodiscard]] BatchLayout encode_input_set(
    mem::MainMemory& memory, std::span<const gen::SequencePair> pairs,
    std::uint64_t in_addr, std::uint64_t out_addr,
    std::uint32_t force_max_read_len = 0, bool crc = false,
    std::uint32_t crc_salt = 0);

/// Typed outcome of a driver wait. Replaces the old bare cycle count,
/// which made a hung accelerator indistinguishable from a long run.
enum class RunOutcome {
  kOk,         ///< completed cleanly
  kPartial,    ///< completed, but some pairs were flagged unsupported
  kDmaError,   ///< aborted on an AXI SLVERR/DECERR on the memory path
  kDataError,  ///< aborted on an uncorrectable ECC error (kErrEccUnc)
  kTimeout,    ///< watchdog abort, or the wait-loop cycle budget ran out
};

struct RunStatus {
  RunOutcome outcome = RunOutcome::kOk;
  std::uint64_t cycles = 0;      ///< cycles elapsed during the wait
  std::uint32_t err_status = 0;  ///< kRegErrStatus snapshot (hw::ErrBits)
  std::uint32_t err_count = 0;   ///< kRegErrCount snapshot (this run)
  /// Full PMU snapshot taken when the run was classified. Every return
  /// path — clean completion, watchdog, DMA abort, ECC-uncorrectable,
  /// CRC, wait-budget timeout — carries it, because classify() is the
  /// single producer (audited by tests/test_observability.cpp).
  hw::PerfSnapshot perf;

  [[nodiscard]] bool ok() const { return outcome == RunOutcome::kOk; }
  /// The accelerator reached Idle and produced results (possibly with
  /// unsupported pairs flagged) — the result area is safe to decode.
  [[nodiscard]] bool completed() const {
    return outcome == RunOutcome::kOk || outcome == RunOutcome::kPartial;
  }
};

class Driver {
 public:
  explicit Driver(hw::Accelerator& accelerator)
      : accelerator_(accelerator) {}

  /// Programs the registers, clears stale error status and pulses Start.
  void start(const BatchLayout& batch, bool backtrace,
             bool enable_interrupt = false);

  /// Polls the Idle register until the run completes or `max_cycles`
  /// elapse, stepping the simulated accelerator, then classifies the run
  /// from kRegErrStatus. A hung accelerator comes back kTimeout — loudly
  /// distinguishable from a long run — never a bare cycle count.
  RunStatus wait_idle(std::uint64_t max_cycles = 4'000'000'000ULL);

  /// Interrupt-driven completion: runs until the completion interrupt is
  /// pending (requires start(..., enable_interrupt=true)) or `max_cycles`
  /// elapse. Acknowledges the interrupt when it fired; classifies like
  /// wait_idle (an interrupt that never fires is kTimeout, not a hang).
  RunStatus wait_interrupt(std::uint64_t max_cycles = 4'000'000'000ULL);

  /// Classifies the accelerator's current error state into a RunStatus —
  /// the single source of truth wait_idle/wait_interrupt and the engine's
  /// non-blocking poll path share. `completed` is the caller's completion
  /// signal (Idle reached / interrupt fired); `cycles` the wait span.
  [[nodiscard]] RunStatus classify_run(std::uint64_t cycles,
                                       bool completed) const {
    return classify(cycles, completed);
  }

  /// Convenience: start + wait_idle.
  RunStatus run(const BatchLayout& batch, bool backtrace) {
    start(batch, backtrace);
    return wait_idle();
  }

  /// Issues a hardware soft reset: aborts any in-flight run and flushes
  /// the datapath. Error registers survive for post-mortem reads.
  void soft_reset() {
    accelerator_.write_reg(hw::kRegCtrl, hw::kCtrlSoftReset);
  }

  /// Drops a correlation marker onto the device's cycle trace: an instant
  /// event named `name` (args.id = `id`) on the "driver" track at the
  /// current device cycle. This is how the service layer stitches its
  /// request spans to the cycle-level device track — the shard's trace
  /// tag lands next to the fetch/align/DMA spans it caused. No-op while
  /// tracing is disabled, so callers annotate unconditionally.
  void annotate_trace(const char* name, std::uint64_t id) {
    sim::TraceSink& sink = accelerator_.trace();
    if (!sink.enabled()) return;
    sink.instant(sink.register_track("driver"), name, "service",
                 accelerator_.now(), id);
  }

  /// Reads the whole PMU bank back through the kRegPerfBase register
  /// window, 32 bits at a time, exactly as driver code on the SoC would.
  [[nodiscard]] hw::PerfSnapshot read_perf_counters() const {
    hw::PerfSnapshot snapshot;
    for (std::uint32_t i = 0; i < hw::kNumPerfCounters; ++i) {
      const std::uint64_t lo = accelerator_.read_reg(hw::perf_reg_lo(i));
      const std::uint64_t hi = accelerator_.read_reg(hw::perf_reg_hi(i));
      snapshot.set_counter(static_cast<hw::PerfIdx>(i), lo | (hi << 32));
    }
    return snapshot;
  }

 private:
  [[nodiscard]] RunStatus classify(std::uint64_t cycles,
                                   bool completed) const;
  /// The one polling loop behind wait_idle and wait_interrupt: steps the
  /// simulated accelerator until `done()` or the cycle budget runs out,
  /// then classifies.
  RunStatus wait_core(const std::function<bool()>& done,
                      std::uint64_t max_cycles);

  hw::Accelerator& accelerator_;
};

/// The one reader of the NBT result area (`num_pairs` packed 4-byte
/// words, four per 16-byte transaction — two per transaction with CRC —
/// in Collector completion order). Tolerant: it decodes at most the
/// records the DMA actually wrote (`beats_written` beats), so a truncated
/// or aborted run never decodes stale or unwritten memory as results, and
/// it drops each record that fails its CRC. The first anomaly — a failed
/// CRC, or a result area that ends before the last record — is named in
/// `*anomaly` (nullptr when there was none). Entries come back in stream
/// order.
[[nodiscard]] std::vector<hw::NbtResult> try_decode_nbt_results(
    const mem::MainMemory& memory, const BatchLayout& batch,
    std::uint64_t beats_written, const char** anomaly = nullptr);

/// Strict entry point over the same loop: trusts `num_pairs`, and aborts
/// with the anomaly's text if a record fails its CRC. Entries are
/// returned in stream order (not sorted by id).
[[nodiscard]] std::vector<hw::NbtResult> decode_nbt_results(
    const mem::MainMemory& memory, const BatchLayout& batch);

/// Id-ordered view of the NBT result area: decode_nbt_results re-sorted by
/// alignment id (stable for equal ids, which only corruption produces).
/// Callers that index results by id use this instead of re-sorting the
/// Collector-completion-order stream ad hoc.
[[nodiscard]] std::vector<hw::NbtResult> decode_nbt_results_sorted(
    const mem::MainMemory& memory, const BatchLayout& batch);

/// Did every launch-local id 0..num_pairs-1 come back exactly once? The
/// all-or-nothing question a consumer of one run's results (NBT records
/// or reassembled BT alignments) asks before it trusts the whole batch.
template <class Record>
[[nodiscard]] bool each_id_exactly_once(const std::vector<Record>& records,
                                        std::size_t num_pairs) {
  if (records.size() != num_pairs) return false;
  std::vector<bool> seen(num_pairs, false);
  for (const Record& record : records) {
    if (record.id >= num_pairs || seen[record.id]) return false;
    seen[record.id] = true;
  }
  return true;
}

/// One pair harvested from a (possibly faulted) run by
/// harvest_verified_results: either a verified alignment or a
/// deterministic hardware rejection (unsupported read, band/score
/// overflow) the caller should resolve in software.
struct HarvestedPair {
  std::uint32_t local_id = 0;  ///< launch-local alignment id
  bool hw_rejected = false;    ///< hardware inspected the pair and gave up
  core::AlignResult result;    ///< valid when !hw_rejected
};

/// Tolerant post-run harvest behind the engine's resilient path
/// (BatchJob::tolerant): decodes at most what the DMA actually wrote
/// (`beat_delta` 16-byte beats past `layout.out_addr`) and keeps only
/// results that verify — in BT mode the reconstructed CIGAR must re-score
/// to the reported score; entries with out-of-range ids are dropped.
/// `pairs` are the launch-local pairs (ids 0..n-1).
[[nodiscard]] std::vector<HarvestedPair> harvest_verified_results(
    const mem::MainMemory& memory, const BatchLayout& layout,
    std::uint64_t beat_delta, bool backtrace,
    std::span<const gen::SequencePair> pairs,
    const hw::AcceleratorConfig& cfg);

}  // namespace wfasic::drv
