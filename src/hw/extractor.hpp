// The Extractor module (§4.2): pops one 16-byte word per cycle from the
// Input FIFO, decodes the input-set layout (hw/input_format.hpp), packs
// bases to 2 bits, detects unsupported reads ('N' bases, length >
// MAX_READ_LEN) and dispatches complete pairs to idle Aligners.
#pragma once

#include <cstdint>
#include <vector>

#include "common/crc32.hpp"
#include "hw/aligner.hpp"
#include "hw/input_format.hpp"
#include "mem/axi.hpp"
#include "sim/fifo.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"

namespace wfasic::hw {

class Extractor final : public sim::Component {
 public:
  Extractor(sim::ShowAheadFifo<mem::Beat>& input_fifo,
            std::vector<Aligner*> aligners)
      : sim::Component("extractor"),
        fifo_(input_fifo),
        aligners_(std::move(aligners)) {}

  /// Arms the Extractor for a run (values from the AXI-Lite registers).
  /// With `crc`, every pair carries a footer section whose CRC is checked
  /// against the salted CRC over the pair's preceding bytes.
  void configure(std::uint32_t max_read_len, std::uint64_t num_pairs,
                 bool crc = false, std::uint32_t crc_salt = 0) {
    WFASIC_REQUIRE(max_read_len % 16 == 0,
                   "Extractor: MAX_READ_LEN must be divisible by 16");
    max_read_len_ = max_read_len;
    pairs_left_ = num_pairs;
    pairs_done_ = 0;
    in_pair_ = false;
    crc_ = crc;
    crc_salt_ = crc_salt;
  }

  [[nodiscard]] bool done() const { return pairs_left_ == 0 && !in_pair_; }
  [[nodiscard]] std::uint64_t pairs_done() const { return pairs_done_; }

  // PMU counters (hw/perf.hpp): monotone across runs, rebased by the
  // accelerator's Start-time snapshot. Observational only.
  [[nodiscard]] std::uint64_t pairs_accepted() const {
    return pairs_accepted_;
  }
  [[nodiscard]] std::uint64_t pairs_rejected() const {
    return pairs_rejected_;
  }
  [[nodiscard]] std::uint64_t total_wait_cycles() const {
    return total_wait_cycles_;
  }

  /// Drops the in-flight pair and any remaining work (hardware soft reset
  /// / error abort). Records of fully ingested pairs are preserved.
  void abort() {
    in_pair_ = false;
    target_ = nullptr;
    wait_cycles_ = 0;
    pairs_left_ = 0;
  }

  /// Per-pair ingest statistics (Table 1's "Reading Cycles").
  struct PairReadRecord {
    std::uint32_t id = 0;
    std::uint64_t reading_cycles = 0;  ///< first to last beat of the pair
    std::uint64_t beats = 0;           ///< 16-byte transactions consumed
    std::uint64_t wait_for_aligner_cycles = 0;

    bool operator==(const PairReadRecord&) const = default;
  };
  /// This run's ingested pairs (cleared by Accelerator::start).
  [[nodiscard]] const std::vector<PairReadRecord>& records() const {
    return records_;
  }
  void clear_records() { records_.clear(); }

  void tick(sim::cycle_t now) override;

  /// Snapshot contract (sim/snapshot.hpp). The dispatch target survives as
  /// an index into the shared aligner array, which both source and target
  /// devices build in the same order.
  void save_state(sim::SnapshotWriter& w) const {
    w.u32(max_read_len_);
    w.u64(pairs_left_);
    w.u64(pairs_done_);
    w.boolean(in_pair_);
    std::uint64_t target = ~std::uint64_t{0};
    for (std::size_t i = 0; i < aligners_.size(); ++i) {
      if (aligners_[i] == target_) target = i;
    }
    w.u64(target);
    w.u64(section_);
    w.u64(sections_total_);
    w.u32(id_);
    w.u32(len_a_);
    w.u32(len_b_);
    w.boolean(invalid_base_);
    w.boolean(crc_);
    w.u32(crc_salt_);
    w.u32(crc_acc_.raw());
    w.boolean(crc_error_);
    w.u64(words_a_.size());
    for (const std::uint32_t word : words_a_) w.u32(word);
    w.u64(words_b_.size());
    for (const std::uint32_t word : words_b_) w.u32(word);
    w.u64(first_beat_cycle_);
    w.u64(wait_cycles_);
    w.u64(pairs_accepted_);
    w.u64(pairs_rejected_);
    w.u64(total_wait_cycles_);
    w.u64(records_.size());
    for (const PairReadRecord& rec : records_) {
      w.u32(rec.id);
      w.u64(rec.reading_cycles);
      w.u64(rec.beats);
      w.u64(rec.wait_for_aligner_cycles);
    }
  }

  void restore_state(sim::SnapshotReader& r) {
    max_read_len_ = r.u32();
    pairs_left_ = r.u64();
    pairs_done_ = r.u64();
    in_pair_ = r.boolean();
    const std::uint64_t target = r.u64();
    if (target == ~std::uint64_t{0}) {
      target_ = nullptr;
    } else if (target < aligners_.size()) {
      target_ = aligners_[target];
    } else {
      (void)r.fail(sim::SnapshotError::kBadValue);
      return;
    }
    section_ = r.u64();
    sections_total_ = r.u64();
    id_ = r.u32();
    len_a_ = r.u32();
    len_b_ = r.u32();
    invalid_base_ = r.boolean();
    crc_ = r.boolean();
    crc_salt_ = r.u32();
    crc_acc_ = Crc32::from_raw(r.u32());
    crc_error_ = r.boolean();
    const auto read_words = [&r](std::vector<std::uint32_t>& words) {
      const std::uint64_t count = r.u64();
      if (!r.ok() || count > r.remaining() / 4) {
        (void)r.fail(sim::SnapshotError::kTruncated);
        return;
      }
      words.clear();
      for (std::uint64_t i = 0; i < count; ++i) words.push_back(r.u32());
    };
    read_words(words_a_);
    read_words(words_b_);
    first_beat_cycle_ = r.u64();
    wait_cycles_ = r.u64();
    pairs_accepted_ = r.u64();
    pairs_rejected_ = r.u64();
    total_wait_cycles_ = r.u64();
    const std::uint64_t record_count = r.u64();
    if (!r.ok() || record_count > r.remaining() / 28) {
      (void)r.fail(sim::SnapshotError::kTruncated);
      return;
    }
    records_.clear();
    for (std::uint64_t i = 0; i < record_count; ++i) {
      PairReadRecord rec;
      rec.id = r.u32();
      rec.reading_cycles = r.u64();
      rec.beats = r.u64();
      rec.wait_for_aligner_cycles = r.u64();
      records_.push_back(rec);
    }
  }

  // Quiescence contract (see sim::Component): the Extractor has no
  // self-scheduled events — it is driven entirely by Input-FIFO pushes
  // (DMA) and Aligners going idle, both of which are non-quiet ticks of
  // other components, so a kQuietForever report here is safe: nothing
  // else can make this component non-quiet. The only per-cycle effect
  // while waiting for an Aligner is the wait counter, bulk-applied by
  // skip_quiet.
  [[nodiscard]] sim::cycle_t quiet_for(sim::cycle_t /*now*/) const override {
    if (done() || fifo_.empty()) return kQuietForever;
    if (!in_pair_ && find_idle_aligner() == nullptr) return kQuietForever;
    return 0;  // a beat is consumed this cycle
  }

  void skip_quiet(sim::cycle_t n) override {
    if (done() || fifo_.empty()) return;
    if (!in_pair_) {
      wait_cycles_ += n;
      total_wait_cycles_ += n;
    }
  }

 private:
  [[nodiscard]] Aligner* find_idle_aligner() const {
    for (Aligner* a : aligners_) {
      if (a->idle()) return a;
    }
    return nullptr;
  }

  void consume_beat(const mem::Beat& beat, sim::cycle_t now);
  void finish_pair(sim::cycle_t now);

  sim::ShowAheadFifo<mem::Beat>& fifo_;
  std::vector<Aligner*> aligners_;
  std::uint32_t max_read_len_ = 0;
  std::uint64_t pairs_left_ = 0;
  std::uint64_t pairs_done_ = 0;

  // Per-pair decode state.
  bool in_pair_ = false;
  Aligner* target_ = nullptr;
  std::size_t section_ = 0;      // index within the pair
  std::size_t sections_total_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t len_a_ = 0;
  std::uint32_t len_b_ = 0;
  bool invalid_base_ = false;
  bool crc_ = false;
  std::uint32_t crc_salt_ = 0;
  Crc32 crc_acc_;
  bool crc_error_ = false;
  std::vector<std::uint32_t> words_a_;
  std::vector<std::uint32_t> words_b_;
  sim::cycle_t first_beat_cycle_ = 0;
  std::uint64_t wait_cycles_ = 0;

  // PMU counters (never reset by abort(): per-run views are produced by
  // rebasing against the Start-time snapshot).
  std::uint64_t pairs_accepted_ = 0;
  std::uint64_t pairs_rejected_ = 0;
  std::uint64_t total_wait_cycles_ = 0;

  std::vector<PairReadRecord> records_;
};

}  // namespace wfasic::hw
