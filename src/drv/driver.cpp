#include "drv/driver.hpp"

#include <algorithm>
#include <optional>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "drv/backtrace_cpu.hpp"

namespace wfasic::drv {

BatchLayout encode_input_set(mem::MainMemory& memory,
                             std::span<const gen::SequencePair> pairs,
                             std::uint64_t in_addr, std::uint64_t out_addr,
                             std::uint32_t force_max_read_len, bool crc,
                             std::uint32_t crc_salt) {
  std::uint32_t longest = 0;
  for (const gen::SequencePair& pair : pairs) {
    longest = std::max<std::uint32_t>(
        longest, static_cast<std::uint32_t>(
                     std::max(pair.a.size(), pair.b.size())));
  }
  const std::uint32_t max_read_len =
      force_max_read_len != 0 ? force_max_read_len
                              : hw::round_up_read_len(std::max(longest, 16u));

  BatchLayout layout;
  layout.in_addr = in_addr;
  layout.out_addr = out_addr;
  layout.max_read_len = max_read_len;
  layout.num_pairs = pairs.size();
  layout.crc = crc;
  layout.crc_salt = crc_salt;
  layout.in_bytes = pairs.size() * hw::pair_bytes(max_read_len, crc);

  // One pair's payload sections are staged in a scratch buffer so the
  // footer CRC covers exactly the section bytes the Extractor will hash.
  const std::size_t payload_bytes = hw::pair_bytes(max_read_len, false);
  std::vector<std::uint8_t> scratch(payload_bytes);
  std::uint64_t addr = in_addr;
  for (const gen::SequencePair& pair : pairs) {
    std::fill(scratch.begin(), scratch.end(), hw::kDummyBase);
    std::size_t off = 0;
    const auto put_section_u32 = [&](std::uint32_t value) {
      std::memcpy(scratch.data() + off, &value, 4);
      off += hw::kSectionBytes;
    };
    const auto put_sequence = [&](const std::string& seq) {
      // One ASCII byte per base, dummy-padded to MAX_READ_LEN. A sequence
      // longer than MAX_READ_LEN (only possible with force_max_read_len)
      // is stored truncated; its true length in the header makes the
      // Extractor reject it.
      const std::size_t stored =
          std::min<std::size_t>(seq.size(), max_read_len);
      std::memcpy(scratch.data() + off, seq.data(), stored);
      off += max_read_len;
    };
    put_section_u32(pair.id);
    put_section_u32(static_cast<std::uint32_t>(pair.a.size()));
    put_section_u32(static_cast<std::uint32_t>(pair.b.size()));
    put_sequence(pair.a);
    put_sequence(pair.b);
    WFASIC_ASSERT(off == payload_bytes, "encode_input_set: section overrun");
    memory.write(addr, scratch);
    addr += payload_bytes;
    if (crc) {
      std::uint8_t footer[hw::kSectionBytes] = {};
      const std::uint32_t value = crc32(scratch, crc_salt);
      std::memcpy(footer, &value, 4);
      memory.write(addr, footer);
      addr += hw::kSectionBytes;
    }
  }
  WFASIC_ASSERT(addr == in_addr + layout.in_bytes,
                "encode_input_set: layout size mismatch");
  return layout;
}

void Driver::start(const BatchLayout& batch, bool backtrace,
                   bool enable_interrupt) {
  WFASIC_REQUIRE(batch.crc == accelerator_.config().crc,
                 "Driver::start: batch CRC mode disagrees with the device");
  accelerator_.write_reg(hw::kRegCrcSalt, batch.crc_salt);
  accelerator_.write_reg(hw::kRegBtEnable, backtrace ? 1u : 0u);
  accelerator_.write_reg(hw::kRegMaxReadLen, batch.max_read_len);
  accelerator_.write_reg(hw::kRegInAddrLo,
                         static_cast<std::uint32_t>(batch.in_addr));
  accelerator_.write_reg(hw::kRegInAddrHi,
                         static_cast<std::uint32_t>(batch.in_addr >> 32));
  accelerator_.write_reg(hw::kRegInSizeLo,
                         static_cast<std::uint32_t>(batch.in_bytes));
  accelerator_.write_reg(hw::kRegInSizeHi,
                         static_cast<std::uint32_t>(batch.in_bytes >> 32));
  accelerator_.write_reg(hw::kRegOutAddrLo,
                         static_cast<std::uint32_t>(batch.out_addr));
  accelerator_.write_reg(hw::kRegOutAddrHi,
                         static_cast<std::uint32_t>(batch.out_addr >> 32));
  accelerator_.write_reg(hw::kRegIntEnable, enable_interrupt ? 1u : 0u);
  // Stale error causes from a previous run would mis-classify this one;
  // clearing the counter too makes RunStatus::err_count a per-run figure.
  accelerator_.write_reg(hw::kRegErrStatus, 0xffffffffu);
  accelerator_.write_reg(hw::kRegErrCount, 0);
  accelerator_.write_reg(hw::kRegCtrl, hw::kCtrlStart);
}

RunStatus Driver::classify(std::uint64_t cycles, bool completed) const {
  RunStatus status;
  status.cycles = cycles;
  status.err_status = accelerator_.read_reg(hw::kRegErrStatus);
  status.err_count = accelerator_.read_reg(hw::kRegErrCount);
  // Complete PMU snapshot on every path, error or clean: classify() is
  // the only RunStatus producer, so no caller can return a stale or
  // partial snapshot.
  status.perf = read_perf_counters();
  if (!completed) {
    status.outcome = RunOutcome::kTimeout;
  } else if ((status.err_status & hw::kErrDma) != 0) {
    status.outcome = RunOutcome::kDmaError;
  } else if ((status.err_status & hw::kErrEccUnc) != 0) {
    status.outcome = RunOutcome::kDataError;
  } else if ((status.err_status & hw::kErrWatchdog) != 0) {
    status.outcome = RunOutcome::kTimeout;
  } else if ((status.err_status & (hw::kErrUnsupported | hw::kErrCrc)) != 0) {
    status.outcome = RunOutcome::kPartial;
  }
  return status;
}

RunStatus Driver::wait_core(const std::function<bool()>& done,
                            std::uint64_t max_cycles) {
  // Fast-path wait instead of one virtual step() per cycle: the
  // accelerator skips quiet spans and fuses macro-steps, and evaluates
  // the predicate wherever simulated state can change, so the stop cycle
  // is identical to per-cycle polling. Both wait conditions (Idle,
  // interrupt pending) flip only when the accelerator leaves the running
  // state — an active-cycle boundary by definition. While already idle with nothing scheduled,
  // the remaining budget is burned in one bulk advance, exactly as the
  // per-cycle loop would count it.
  const sim::cycle_t begin = accelerator_.now();
  accelerator_.run_until_event(done, max_cycles);
  return classify(accelerator_.now() - begin, done());
}

RunStatus Driver::wait_idle(std::uint64_t max_cycles) {
  return wait_core([this] { return accelerator_.idle(); }, max_cycles);
}

RunStatus Driver::wait_interrupt(std::uint64_t max_cycles) {
  WFASIC_REQUIRE(accelerator_.read_reg(hw::kRegIntEnable) == 1u,
                 "Driver::wait_interrupt: interrupt not enabled at start");
  const RunStatus status = wait_core(
      [this] { return accelerator_.interrupt_pending(); }, max_cycles);
  if (accelerator_.interrupt_pending()) {
    accelerator_.write_reg(hw::kRegIntStatus, 1u);  // acknowledge
  }
  return status;
}

namespace {

/// Salted CRC-32 over one packed NBT result word, as the Collector
/// computes it for the 8-byte record format.
std::uint32_t nbt_record_crc(std::uint32_t word, std::uint32_t salt) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(word), static_cast<std::uint8_t>(word >> 8),
      static_cast<std::uint8_t>(word >> 16),
      static_cast<std::uint8_t>(word >> 24)};
  return crc32(std::span<const std::uint8_t>(bytes, 4), salt);
}

}  // namespace

std::vector<hw::NbtResult> try_decode_nbt_results(
    const mem::MainMemory& memory, const BatchLayout& batch,
    std::uint64_t beats_written, const char** anomaly) {
  const char* first = nullptr;
  const std::size_t stride = hw::nbt_record_bytes(batch.crc);
  const std::size_t count = static_cast<std::size_t>(std::min<std::uint64_t>(
      batch.num_pairs, beats_written * hw::nbt_records_per_beat(batch.crc)));
  std::vector<hw::NbtResult> results;
  results.reserve(count);
  for (std::size_t idx = 0; idx < count; ++idx) {
    const std::uint64_t addr = batch.out_addr + idx * stride;
    const std::uint32_t word = memory.read_u32(addr);
    if (batch.crc &&
        memory.read_u32(addr + 4) != nbt_record_crc(word, batch.crc_salt)) {
      // A corrupted or dropped write beat (the salt also defeats stale
      // records of an earlier launch): drop the record, the pair retries.
      if (first == nullptr) {
        first = "decode_nbt_results: result record failed its CRC";
      }
      continue;
    }
    results.push_back(hw::unpack_nbt_result(word));
  }
  if (first == nullptr && count < batch.num_pairs) {
    first = "decode_nbt_results: result area ends before the last record";
  }
  if (anomaly != nullptr) *anomaly = first;
  return results;
}

std::vector<hw::NbtResult> decode_nbt_results(const mem::MainMemory& memory,
                                              const BatchLayout& batch) {
  // Trusts num_pairs: reads every beat the batch's records occupy.
  const std::size_t per_beat = hw::nbt_records_per_beat(batch.crc);
  const char* anomaly = nullptr;
  std::vector<hw::NbtResult> results = try_decode_nbt_results(
      memory, batch, (batch.num_pairs + per_beat - 1) / per_beat, &anomaly);
  WFASIC_REQUIRE(anomaly == nullptr, anomaly);
  return results;
}

std::vector<hw::NbtResult> decode_nbt_results_sorted(
    const mem::MainMemory& memory, const BatchLayout& batch) {
  std::vector<hw::NbtResult> results = decode_nbt_results(memory, batch);
  std::stable_sort(results.begin(), results.end(),
                   [](const hw::NbtResult& x, const hw::NbtResult& y) {
                     return x.id < y.id;
                   });
  return results;
}

std::vector<HarvestedPair> harvest_verified_results(
    const mem::MainMemory& memory, const BatchLayout& layout,
    std::uint64_t beat_delta, bool backtrace,
    std::span<const gen::SequencePair> pairs,
    const hw::AcceleratorConfig& cfg) {
  std::vector<HarvestedPair> harvested;
  if (backtrace) {
    // Salvage does not depend on the §4.5 method: the multi-Aligner walk
    // accepts either stream shape.
    const BtStreamScan scan = try_parse_bt_stream(
        memory, layout.out_addr, beat_delta * mem::kBeatBytes, pairs.size(),
        /*separate_data=*/true, /*counters=*/nullptr, layout.crc,
        layout.crc_salt);
    for (const BtAlignment& bt : scan.alignments) {
      if (bt.id >= pairs.size()) continue;  // corrupted id field
      if (!bt.success) {
        harvested.push_back({bt.id, true, {}});
        continue;
      }
      const std::optional<core::AlignResult> rebuilt =
          try_reconstruct_alignment(bt, pairs[bt.id].a, pairs[bt.id].b, cfg);
      if (rebuilt.has_value() && rebuilt->ok &&
          rebuilt->cigar.score(cfg.pen) == rebuilt->score) {
        harvested.push_back({bt.id, false, *rebuilt});
      }
      // else: stream damage slipped past the parser; the pair retries.
    }
  } else {
    for (const hw::NbtResult& nbt :
         try_decode_nbt_results(memory, layout, beat_delta)) {
      if (nbt.id >= pairs.size()) continue;
      HarvestedPair h;
      h.local_id = nbt.id;
      if (!nbt.success) {
        h.hw_rejected = true;
      } else {
        h.result.ok = true;
        h.result.score = static_cast<score_t>(nbt.score);
      }
      harvested.push_back(std::move(h));
    }
  }
  return harvested;
}

}  // namespace wfasic::drv
