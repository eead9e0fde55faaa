// The Collector modules (§4.4): gather Aligner results and format them
// into 16-byte memory transactions pushed to the Output FIFO.
//
//  - Collector BT (backtrace enabled): forwards BtTransactions, one per
//    cycle, round-robin across Aligners.
//  - Collector NBT (backtrace disabled): merges four 4-byte score words
//    per transaction to economise accelerator-memory bandwidth.
//
// With the CRC knob on (AcceleratorConfig::crc) the Collector protects the
// result path: NBT records grow to 8 bytes (word + salted CRC-32, two per
// beat), and each BT alignment is followed by a footer transaction carrying
// the CRC over all its packed beats (hw/result_format.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/crc32.hpp"
#include "hw/aligner.hpp"
#include "hw/result_format.hpp"
#include "mem/axi.hpp"
#include "sim/fifo.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"

namespace wfasic::hw {

class Collector final : public sim::Component {
 public:
  Collector(sim::ShowAheadFifo<mem::Beat>& output_fifo,
            std::vector<Aligner*> aligners)
      : sim::Component("collector"),
        fifo_(output_fifo),
        aligners_(std::move(aligners)) {}

  /// Arms the Collector for a run. `expected_pairs` lets the NBT variant
  /// flush its final, partially-filled transaction.
  void configure(bool backtrace, std::uint64_t expected_pairs,
                 bool crc = false, std::uint32_t crc_salt = 0) {
    bt_mode_ = backtrace;
    expected_pairs_ = expected_pairs;
    results_seen_ = 0;
    nbt_fill_ = 0;
    nbt_buffer_ = mem::Beat{};
    flushed_ = false;
    crc_ = crc;
    crc_salt_ = crc_salt;
    nbt_slots_ = nbt_records_per_beat(crc);
    bt_crc_.assign(aligners_.size(), Crc32(crc_salt));
    footers_.clear();
  }

  /// True once every expected result has been pushed to the Output FIFO.
  [[nodiscard]] bool done() const {
    return results_seen_ == expected_pairs_ && pending_empty() &&
           footers_.empty() &&
           (bt_mode_ || flushed_ || nbt_fill_ == 0);
  }

  [[nodiscard]] std::uint64_t beats_produced() const { return beats_; }
  [[nodiscard]] std::uint64_t results_seen() const { return results_seen_; }

  /// Sticky error-cause bits (hw/regs.hpp ErrBits) aggregated across all
  /// Aligners — how per-Aligner error latches reach the CPU.
  [[nodiscard]] std::uint32_t error_flags() const {
    std::uint32_t flags = 0;
    for (const Aligner* a : aligners_) flags |= a->error_flags();
    return flags;
  }

  /// Drops merge/arbitration state (hardware soft reset / error abort).
  void abort() {
    expected_pairs_ = 0;
    results_seen_ = 0;
    nbt_fill_ = 0;
    nbt_buffer_ = mem::Beat{};
    flushed_ = false;
    footers_.clear();
  }

  void tick(sim::cycle_t now) override {
    if (bt_mode_) {
      tick_bt(now);
    } else {
      tick_nbt(now);
    }
  }

  /// Snapshot contract (sim/snapshot.hpp).
  void save_state(sim::SnapshotWriter& w) const {
    w.boolean(bt_mode_);
    w.u64(expected_pairs_);
    w.u64(results_seen_);
    w.u64(rr_);
    w.bytes(std::span<const std::uint8_t>(nbt_buffer_.data.data(),
                                          mem::kBeatBytes));
    w.u64(nbt_fill_);
    w.boolean(flushed_);
    w.u64(beats_);
    w.boolean(crc_);
    w.u32(crc_salt_);
    w.u64(nbt_slots_);
    w.u64(bt_crc_.size());
    for (const Crc32& crc : bt_crc_) w.u32(crc.raw());
    w.u64(footers_.size());
    for (const mem::Beat& beat : footers_) {
      w.bytes(std::span<const std::uint8_t>(beat.data.data(),
                                            mem::kBeatBytes));
    }
  }

  void restore_state(sim::SnapshotReader& r) {
    bt_mode_ = r.boolean();
    expected_pairs_ = r.u64();
    results_seen_ = r.u64();
    rr_ = r.u64();
    r.bytes(std::span<std::uint8_t>(nbt_buffer_.data.data(),
                                    mem::kBeatBytes));
    nbt_fill_ = r.u64();
    flushed_ = r.boolean();
    beats_ = r.u64();
    crc_ = r.boolean();
    crc_salt_ = r.u32();
    nbt_slots_ = r.u64();
    const std::uint64_t crc_count = r.u64();
    if (!r.ok()) return;
    if (crc_count != aligners_.size()) {
      (void)r.fail(sim::SnapshotError::kConfigMismatch);
      return;
    }
    bt_crc_.clear();
    for (std::uint64_t i = 0; i < crc_count; ++i) {
      bt_crc_.push_back(Crc32::from_raw(r.u32()));
    }
    const std::uint64_t footer_count = r.u64();
    if (!r.ok() || footer_count > r.remaining() / mem::kBeatBytes) {
      (void)r.fail(sim::SnapshotError::kTruncated);
      return;
    }
    footers_.clear();
    for (std::uint64_t i = 0; i < footer_count; ++i) {
      mem::Beat beat;
      r.bytes(std::span<std::uint8_t>(beat.data.data(), mem::kBeatBytes));
      footers_.push_back(beat);
    }
  }

  // Quiescence contract (see sim::Component): the Collector acts only
  // when an Aligner queue holds work or its merge buffer must flush; both
  // appear via non-quiet Aligner boundaries, so "nothing to do" is a
  // kQuietForever report that stays valid for exactly as long as the
  // contract requires. No counters accrue while idle (skip_quiet is the
  // inherited no-op).
  [[nodiscard]] sim::cycle_t quiet_for(sim::cycle_t /*now*/) const override {
    if (bt_mode_) {
      if (!footers_.empty()) return 0;  // a CRC footer moves this cycle
      for (const Aligner* a : aligners_) {
        if (!a->bt_queue().empty()) return 0;
      }
      return kQuietForever;
    }
    for (const Aligner* a : aligners_) {
      if (!a->nbt_queue().empty()) return 0;
    }
    if (nbt_fill_ == nbt_slots_) return 0;  // a flush is pending
    if (results_seen_ == expected_pairs_ && nbt_fill_ > 0 && !flushed_) {
      return 0;  // final partial flush is pending
    }
    return kQuietForever;
  }

 private:
  [[nodiscard]] bool pending_empty() const {
    for (const Aligner* a : aligners_) {
      if (!a->bt_queue().empty() || !a->nbt_queue().empty()) return false;
    }
    return true;
  }

  void tick_bt(sim::cycle_t now) {
    if (fifo_.full()) return;
    // Pending CRC footers take priority so an alignment's footer follows
    // its Last transaction as closely as arbitration allows.
    if (!footers_.empty()) {
      fifo_.push(footers_.front());
      footers_.pop_front();
      ++beats_;
      return;
    }
    // Round-robin arbitration across Aligners, one transaction per cycle.
    for (std::size_t probe = 0; probe < aligners_.size(); ++probe) {
      const std::size_t idx = (rr_ + probe) % aligners_.size();
      auto& queue = aligners_[idx]->bt_queue();
      if (queue.empty()) continue;
      const BtTransaction txn = queue.front();
      queue.pop_front();
      const mem::Beat beat = pack_bt_transaction(txn);
      fifo_.push(beat);
      ++beats_;
      if (crc_) {
        // An alignment's first transaction (counter 0) restarts its
        // per-Aligner accumulator; Last queues the footer.
        if (txn.counter == 0) bt_crc_[idx] = Crc32(crc_salt_);
        bt_crc_[idx].update(beat.data.data(), mem::kBeatBytes);
        if (txn.last) {
          footers_.push_back(pack_bt_transaction(
              make_bt_crc_footer(txn.id, bt_crc_[idx].value())));
        }
      }
      if (txn.last) {
        ++results_seen_;
        if (tracing()) {
          trace()->instant(trace_track(), "collect", "pipeline", now,
                           txn.id);
        }
      }
      rr_ = idx + 1;
      return;
    }
  }

  /// The merge-buffer record encode, shared by the NBT tick: packs one
  /// result word (plus its salted CRC in protected mode) into the next
  /// buffer slot. Kept as a tight helper so the hot loop body is one
  /// call; fusion stays *intra-tick* only — the Collector's rate (one
  /// record, at most one flushed beat per cycle) is externally observable
  /// through the Output FIFO occupancy the FifoOccupancyProbe samples
  /// every cycle, so merging across cycles would change PMU counters.
  void merge_result(const NbtResult& result) {
    const std::uint32_t word = pack_nbt_result(result);
    if (crc_) {
      // 8-byte record: the packed word followed by its salted CRC.
      const std::array<std::uint8_t, 4> bytes{
          static_cast<std::uint8_t>(word),
          static_cast<std::uint8_t>(word >> 8),
          static_cast<std::uint8_t>(word >> 16),
          static_cast<std::uint8_t>(word >> 24)};
      nbt_buffer_.set_u32(2 * nbt_fill_, word);
      nbt_buffer_.set_u32(2 * nbt_fill_ + 1,
                          crc32(std::span<const std::uint8_t>(bytes),
                                crc_salt_));
    } else {
      nbt_buffer_.set_u32(nbt_fill_, word);
    }
    ++nbt_fill_;
    ++results_seen_;
  }

  void tick_nbt(sim::cycle_t now) {
    // Collect one result per cycle into the merge buffer.
    for (std::size_t probe = 0; probe < aligners_.size(); ++probe) {
      const std::size_t idx = (rr_ + probe) % aligners_.size();
      auto& queue = aligners_[idx]->nbt_queue();
      if (queue.empty()) continue;
      if (nbt_fill_ == nbt_slots_) break;  // buffer full, must flush first
      if (tracing()) {
        trace()->instant(trace_track(), "collect", "pipeline", now,
                         queue.front().id);
      }
      merge_result(queue.front());
      queue.pop_front();
      rr_ = idx + 1;
      break;
    }
    const bool final_flush =
        results_seen_ == expected_pairs_ && nbt_fill_ > 0;
    if ((nbt_fill_ == nbt_slots_ || final_flush) && !fifo_.full()) {
      fifo_.push(nbt_buffer_);
      ++beats_;
      nbt_buffer_ = mem::Beat{};
      nbt_fill_ = 0;
      if (final_flush) flushed_ = true;
    }
  }

  sim::ShowAheadFifo<mem::Beat>& fifo_;
  std::vector<Aligner*> aligners_;
  bool bt_mode_ = false;
  std::uint64_t expected_pairs_ = 0;
  std::uint64_t results_seen_ = 0;
  std::size_t rr_ = 0;
  mem::Beat nbt_buffer_;
  std::size_t nbt_fill_ = 0;
  bool flushed_ = false;
  std::uint64_t beats_ = 0;
  bool crc_ = false;
  std::uint32_t crc_salt_ = 0;
  std::size_t nbt_slots_ = 4;
  std::vector<Crc32> bt_crc_;        ///< per-Aligner running CRC (BT mode)
  std::deque<mem::Beat> footers_;    ///< packed CRC footer transactions
};

}  // namespace wfasic::hw
