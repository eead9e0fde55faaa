// Off-chip main memory model: a flat byte-addressable store with bounds
// checking and little-endian word helpers. Timing lives in the DMA/AXI
// models, not here.
//
// Optional SECDED ECC (enable_ecc): every 8-byte granule carries a
// side-band check byte. Reads scrub — a single flipped bit is corrected in
// place and counted; a double flip is left as-is, counted, and latched in
// a sticky uncorrectable flag the DMA polls per beat (see
// docs/RELIABILITY.md). ECC is off by default so the fault-free byte store
// behaves exactly as before.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/ecc.hpp"
#include "mem/zero_pages.hpp"
#include "sim/snapshot.hpp"

namespace wfasic::mem {

class MainMemory {
 public:
  // ZeroPages defers zero-filling to first touch, so constructing a large
  // memory (and with it an Engine) is O(1) host work instead of a
  // multi-millisecond page-fault storm. Contents are identical: all zeros.
  explicit MainMemory(std::size_t size_bytes)
      : bytes_(size_bytes),
        dirty_((size_bytes + kSnapshotPage - 1) / kSnapshotPage, 0) {}

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

  void write(std::uint64_t addr, std::span<const std::uint8_t> data) {
    WFASIC_REQUIRE(in_range(addr, data.size()), "MainMemory::write OOB");
    std::memcpy(bytes_.data() + addr, data.data(), data.size());
    mark_dirty(addr, data.size());
    if (ecc_) refresh_checks(addr, data.size());
  }

  void read(std::uint64_t addr, std::span<std::uint8_t> out) const {
    WFASIC_REQUIRE(in_range(addr, out.size()), "MainMemory::read OOB");
    if (ecc_) scrub_range(addr, out.size());
    std::memcpy(out.data(), bytes_.data() + addr, out.size());
  }

  [[nodiscard]] std::uint8_t read_u8(std::uint64_t addr) const {
    WFASIC_REQUIRE(in_range(addr, 1), "MainMemory::read_u8 OOB");
    if (ecc_) scrub_range(addr, 1);
    return bytes_[addr];
  }

  void write_u8(std::uint64_t addr, std::uint8_t value) {
    WFASIC_REQUIRE(in_range(addr, 1), "MainMemory::write_u8 OOB");
    bytes_[addr] = value;
    mark_dirty(addr, 1);
    if (ecc_) refresh_checks(addr, 1);
  }

  /// Fault-injection hook: flips one bit in place (models a DRAM upset in
  /// the input/output regions). bit must be 0..7. Deliberately does NOT
  /// refresh the ECC check byte — that is the whole point of the fault.
  void flip_bit(std::uint64_t addr, unsigned bit) {
    WFASIC_REQUIRE(in_range(addr, 1) && bit < 8, "MainMemory::flip_bit OOB");
    bytes_[addr] ^= static_cast<std::uint8_t>(1u << bit);
    mark_dirty(addr, 1);
  }

  [[nodiscard]] std::uint32_t read_u32(std::uint64_t addr) const {
    std::uint32_t v = 0;
    read(addr, std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&v), 4));
    return v;  // host is little-endian on all supported platforms
  }

  void write_u32(std::uint64_t addr, std::uint32_t value) {
    write(addr, std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(&value), 4));
  }

  [[nodiscard]] std::uint64_t read_u64(std::uint64_t addr) const {
    std::uint64_t v = 0;
    read(addr, std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&v), 8));
    return v;
  }

  void write_u64(std::uint64_t addr, std::uint64_t value) {
    write(addr, std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(&value), 8));
  }

  /// Turn on SECDED protection: builds check bytes over the current
  /// contents. Idempotent.
  void enable_ecc() {
    if (ecc_) return;
    ecc_ = true;
    check_.assign((bytes_.size() + kGranule - 1) / kGranule, 0);
    for (std::size_t g = 0; g < check_.size(); ++g) {
      check_[g] = ecc::secded_encode(granule_word(g));
    }
  }

  [[nodiscard]] bool ecc_enabled() const { return ecc_; }

  /// Total single-bit corrections performed by read scrubbing.
  [[nodiscard]] std::uint64_t ecc_corrected() const { return ecc_corrected_; }

  /// Total uncorrectable (double-bit) granules observed by reads.
  [[nodiscard]] std::uint64_t ecc_uncorrectable() const {
    return ecc_uncorrectable_;
  }

  /// Sticky flag: set when any read since the last call touched an
  /// uncorrectable granule. Consuming it clears it — the DMA polls this
  /// after every beat so the error attributes to the stream that read it.
  [[nodiscard]] bool take_uncorrectable() const {
    const bool pending = pending_uncorrectable_;
    pending_uncorrectable_ = false;
    return pending;
  }

  /// Snapshot contract (sim/snapshot.hpp). Only pages ever touched since
  /// construction are serialized — the rest are still all-zero by the
  /// ZeroPages invariant, so a multi-GB memory snapshots in O(working set).
  /// In ECC mode each dirty page's check-byte slice is carried verbatim:
  /// recomputing it on restore would silently repair an injected
  /// data/check-byte desync (flip_bit deliberately leaves one).
  void save_state(sim::SnapshotWriter& w) const {
    w.u64(bytes_.size());
    w.boolean(ecc_);
    w.u64(ecc_corrected_);
    w.u64(ecc_uncorrectable_);
    w.boolean(pending_uncorrectable_);
    std::uint64_t pages = 0;
    for (const std::uint8_t d : dirty_) pages += d;
    w.u64(pages);
    for (std::size_t p = 0; p < dirty_.size(); ++p) {
      if (dirty_[p] == 0) continue;
      const std::size_t base = p * kSnapshotPage;
      const std::size_t len = std::min(kSnapshotPage, bytes_.size() - base);
      w.u64(p);
      w.bytes(std::span<const std::uint8_t>(bytes_.data() + base, len));
      if (ecc_) {
        const std::size_t g_first = base / kGranule;
        const std::size_t g_last = (base + len - 1) / kGranule;
        w.bytes(std::span<const std::uint8_t>(check_.data() + g_first,
                                              g_last - g_first + 1));
      }
    }
  }

  void restore_state(sim::SnapshotReader& r) {
    const std::uint64_t size = r.u64();
    const bool ecc = r.boolean();
    if (!r.ok()) return;
    if (size != bytes_.size() || ecc != ecc_) {
      (void)r.fail(sim::SnapshotError::kConfigMismatch);
      return;
    }
    ecc_corrected_ = r.u64();
    ecc_uncorrectable_ = r.u64();
    pending_uncorrectable_ = r.boolean();
    // Pages dirty here but absent from the blob revert to all-zero (the
    // snapshot-time state): zero the data, rebuild the check bytes.
    std::vector<std::uint8_t> was_dirty(dirty_.size(), 0);
    for (std::size_t p = 0; p < dirty_.size(); ++p) {
      was_dirty[p] = dirty_[p];
      dirty_[p] = 0;
    }
    const std::uint64_t pages = r.u64();
    for (std::uint64_t i = 0; i < pages && r.ok(); ++i) {
      const std::uint64_t p = r.u64();
      if (p >= dirty_.size()) {
        (void)r.fail(sim::SnapshotError::kBadValue);
        return;
      }
      const std::size_t base = p * kSnapshotPage;
      const std::size_t len = std::min(kSnapshotPage, bytes_.size() - base);
      r.bytes(std::span<std::uint8_t>(bytes_.data() + base, len));
      if (ecc_) {
        const std::size_t g_first = base / kGranule;
        const std::size_t g_last = (base + len - 1) / kGranule;
        r.bytes(std::span<std::uint8_t>(check_.data() + g_first,
                                        g_last - g_first + 1));
      }
      dirty_[p] = 1;
      was_dirty[p] = 0;
    }
    if (!r.ok()) return;
    for (std::size_t p = 0; p < was_dirty.size(); ++p) {
      if (was_dirty[p] == 0) continue;
      const std::size_t base = p * kSnapshotPage;
      const std::size_t len = std::min(kSnapshotPage, bytes_.size() - base);
      std::memset(bytes_.data() + base, 0, len);
      if (ecc_) refresh_checks(base, len);
    }
  }

 private:
  static constexpr std::size_t kGranule = 8;
  static constexpr std::size_t kSnapshotPage = 4096;

  /// Marks the snapshot dirty-page bitmap for [addr, addr + len). Const
  /// because scrub-on-read repairs storage through const paths.
  void mark_dirty(std::uint64_t addr, std::size_t len) const {
    if (len == 0) return;
    const std::size_t first = addr / kSnapshotPage;
    const std::size_t last = (addr + len - 1) / kSnapshotPage;
    for (std::size_t p = first; p <= last; ++p) dirty_[p] = 1;
  }

  [[nodiscard]] bool in_range(std::uint64_t addr, std::size_t len) const {
    return addr <= bytes_.size() && len <= bytes_.size() - addr;
  }

  [[nodiscard]] std::uint64_t granule_word(std::size_t g) const {
    const std::size_t base = g * kGranule;
    const std::size_t len = std::min(kGranule, bytes_.size() - base);
    std::uint64_t word = 0;
    std::memcpy(&word, bytes_.data() + base, len);
    return word;
  }

  void store_granule(std::size_t g, std::uint64_t word) const {
    const std::size_t base = g * kGranule;
    const std::size_t len = std::min(kGranule, bytes_.size() - base);
    std::memcpy(bytes_.data() + base, &word, len);
    mark_dirty(base, len);
  }

  void refresh_checks(std::uint64_t addr, std::size_t len) {
    const std::size_t first = addr / kGranule;
    const std::size_t last = (addr + len - 1) / kGranule;
    for (std::size_t g = first; g <= last; ++g) {
      check_[g] = ecc::secded_encode(granule_word(g));
    }
  }

  // Scrub-on-read is logically const: it repairs storage, it does not
  // change the observable (corrected) contents. Hence the mutable store.
  void scrub_range(std::uint64_t addr, std::size_t len) const {
    const std::size_t first = addr / kGranule;
    const std::size_t last = (addr + len - 1) / kGranule;
    for (std::size_t g = first; g <= last; ++g) {
      const ecc::EccDecode decode =
          ecc::secded_decode(granule_word(g), check_[g]);
      switch (decode.state) {
        case ecc::EccState::kClean:
          break;
        case ecc::EccState::kCorrected:
          store_granule(g, decode.data);
          ++ecc_corrected_;
          break;
        case ecc::EccState::kUncorrectable:
          ++ecc_uncorrectable_;
          pending_uncorrectable_ = true;
          break;
      }
    }
  }

  mutable ZeroPages bytes_;
  mutable std::vector<std::uint8_t> check_;
  mutable std::vector<std::uint8_t> dirty_;  ///< snapshot page bitmap
  bool ecc_ = false;
  mutable std::uint64_t ecc_corrected_ = 0;
  mutable std::uint64_t ecc_uncorrectable_ = 0;
  mutable bool pending_uncorrectable_ = false;
};

}  // namespace wfasic::mem
