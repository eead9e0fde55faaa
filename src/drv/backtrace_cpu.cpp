#include "drv/backtrace_cpu.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <span>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "core/wfa_kernel.hpp"
#include "hw/bitpack.hpp"
#include "hw/result_format.hpp"
#include "hw/wavefront_geometry.hpp"

namespace wfasic::drv {
namespace {

/// Transactions per backtrace block for P parallel sections (4 for P=64).
std::size_t txns_per_block(unsigned parallel_sections) {
  return (hw::packed_5bit_bytes(parallel_sections) + hw::kBtPayloadBytes - 1) /
         hw::kBtPayloadBytes;
}

/// Consistency check of the non-aborting reconstruction: on failure,
/// records the message and bails out with nullopt instead of aborting.
#define WFASIC_BT_CHECK(cond, msg)            \
  do {                                        \
    if (!(cond)) {                            \
      if (why != nullptr) *why = (msg);       \
      return std::nullopt;                    \
    }                                         \
  } while (0)

/// The one walk over the backtrace stream behind both entry points: reads
/// at most `max_beats` beats and records the first anomaly. A damaged
/// alignment is dropped and the walk goes on, unless `stop_at_anomaly` —
/// the strict reader has no read bound, so walking on past damage could
/// run it into unwritten memory.
BtStreamScan scan_bt_stream(const mem::MainMemory& memory,
                            std::uint64_t out_addr, std::uint64_t max_beats,
                            std::size_t num_pairs, bool separate_data,
                            cpu::BtCpuCounters* counters, bool crc,
                            std::uint32_t crc_salt, bool stop_at_anomaly) {
  BtStreamScan scan;
  const auto flag = [&scan](const char* why) {
    if (scan.anomaly == nullptr) scan.anomaly = why;
  };
  std::map<std::uint32_t, BtAlignment> open;  // id -> in-flight alignment
  std::set<std::uint32_t> poisoned;           // ids with counter anomalies
  std::map<std::uint32_t, Crc32> crcs;        // id -> running stream CRC
  std::map<std::uint32_t, BtAlignment> awaiting;  // Last seen, need footer
  std::uint32_t current_id = 0;  // single-Aligner method: the open alignment
  bool have_current = false;
  std::size_t complete = 0;

  for (std::uint64_t beat_idx = 0;
       beat_idx < max_beats &&
       (complete < num_pairs || (crc && !awaiting.empty())) &&
       !(stop_at_anomaly && !scan.clean());
       ++beat_idx) {
    mem::Beat beat;
    memory.read(out_addr + beat_idx * mem::kBeatBytes,
                std::span<std::uint8_t>(beat.data.data(), mem::kBeatBytes));
    const hw::BtTransaction txn = hw::unpack_bt_transaction(beat);
    if (counters != nullptr && separate_data) {
      // Multi-Aligner method: the CPU touches and copies every
      // transaction while separating the interleaved stream by id (§4.5).
      ++counters->blocks_scanned;
      ++counters->blocks_copied;
    }

    if (crc) {
      if (hw::is_bt_crc_footer(txn)) {
        // An alignment is only accepted once its footer CRC matches the
        // accumulator over every beat that reached memory — corrupted,
        // dropped, and stale-from-an-earlier-launch beats all diverge.
        const auto acc = crcs.find(txn.id);
        const auto wait = awaiting.find(txn.id);
        if (acc != crcs.end() && wait != awaiting.end() &&
            hw::bt_crc_footer_value(txn) == acc->second.value()) {
          scan.alignments.push_back(std::move(wait->second));
        } else {
          flag("parse_bt_stream: alignment failed its stream CRC");
        }
        if (acc != crcs.end()) crcs.erase(acc);
        if (wait != awaiting.end()) awaiting.erase(wait);
        continue;  // footers carry no payload
      }
      // Every record is in: only the final alignments' footers may follow.
      if (complete >= num_pairs) {
        flag("parse_bt_stream: expected a trailing CRC footer");
      }
      // Mirrors the Collector: every packed beat of the alignment,
      // including the Last one, folds into the per-alignment accumulator.
      crcs.try_emplace(txn.id, Crc32(crc_salt))
          .first->second.update(beat.data.data(), mem::kBeatBytes);
    }

    if (!separate_data) {
      // Single-Aligner method: the stream must be consecutive per
      // alignment — an interleaved transaction means the driver was used
      // with a multi-Aligner accelerator by mistake.
      if (!have_current) {
        current_id = txn.id;
        have_current = true;
      } else if (txn.id != current_id) {
        flag("parse_bt_stream: interleaved stream requires the "
             "data-separation method");
      }
    }

    BtAlignment& alignment = open[txn.id];
    alignment.id = txn.id;
    // Transaction counters must be gapless: payload txns then the record.
    const std::size_t expected_counter =
        alignment.payload.size() / hw::kBtPayloadBytes;
    if (txn.last) {
      if (!poisoned.contains(txn.id) && txn.counter == expected_counter) {
        const hw::BtScoreRecord record =
            hw::unpack_bt_score_record(txn.data);
        alignment.success = record.success;
        alignment.score = record.score;
        alignment.k_reached = record.k_reached;
        if (counters != nullptr && !separate_data) {
          // Single-Aligner method: transactions are consecutive per
          // alignment and carry their in-alignment counter, so the CPU
          // finds each boundary with a binary search over the counter
          // discontinuity — O(log n) probes instead of a full scan. This
          // is the §4.5 "method that identifies these boundaries" and the
          // reason the No-Sep configuration wins Figure 11.
          std::size_t probes = 2;
          for (std::size_t span = expected_counter + 1; span > 1;
               span /= 2) {
            ++probes;
          }
          counters->blocks_scanned += probes;
        }
        if (crc) {
          // Hold the alignment until its footer confirms the stream; a
          // second Last for the same id (corruption) drops the first.
          if (awaiting.contains(txn.id)) {
            flag("parse_bt_stream: second score record for one alignment");
          }
          awaiting.insert_or_assign(txn.id, std::move(alignment));
        } else {
          scan.alignments.push_back(std::move(alignment));
        }
      } else {
        flag("parse_bt_stream: transaction counter gap");
      }
      open.erase(txn.id);
      poisoned.erase(txn.id);
      ++complete;
      have_current = false;
    } else if (txn.counter != expected_counter) {
      // Counter gap: a beat of this alignment was lost, duplicated, or
      // corrupted. Poison the id so its eventual score record is dropped.
      flag("parse_bt_stream: out-of-order transaction counter");
      poisoned.insert(txn.id);
    } else if (!poisoned.contains(txn.id)) {
      alignment.payload.insert(alignment.payload.end(), txn.data.begin(),
                               txn.data.end());
    }
  }
  if (!open.empty() || complete < num_pairs) {
    flag("parse_bt_stream: stream ended with incomplete alignments");
  }
  if (crc && !awaiting.empty()) {
    flag("parse_bt_stream: expected a trailing CRC footer");
  }
  if (counters != nullptr) counters->alignments += scan.alignments.size();
  return scan;
}

}  // namespace

std::optional<core::AlignResult> try_reconstruct_alignment(
    const BtAlignment& bt, std::string_view a, std::string_view b,
    const hw::AcceleratorConfig& cfg, const char** why,
    cpu::BtCpuCounters* counters) {
  core::AlignResult result;
  if (!bt.success) return result;  // ok = false

  const auto n = static_cast<offset_t>(a.size());
  const auto m_len = static_cast<offset_t>(b.size());
  const diag_t k_align = m_len - n;
  const unsigned P = cfg.parallel_sections;
  const std::size_t tpb = txns_per_block(P);
  const score_t score = bt.score;

  WFASIC_BT_CHECK(bt.k_reached == k_align,
                  "reconstruct_alignment: score record k does not match the "
                  "sequence lengths");

  // Block index base per present score, replaying the geometry (§4.5).
  hw::WavefrontGeometry geom(n, m_len, cfg.pen, cfg.k_max);
  std::vector<std::size_t> block_base(static_cast<std::size_t>(score) + 1, 0);
  std::size_t total_blocks = 0;
  for (score_t s = 1; s <= score; ++s) {
    block_base[static_cast<std::size_t>(s)] = total_blocks;
    const hw::WfBounds& bounds = geom.bounds(s);
    if (bounds.present()) total_blocks += (bounds.width() + P - 1) / P;
  }
  WFASIC_BT_CHECK(bt.payload.size() ==
                      total_blocks * tpb * hw::kBtPayloadBytes,
                  "reconstruct_alignment: payload size does not match the "
                  "wavefront geometry");

  const auto origin_at =
      [&](score_t s, diag_t k) -> std::optional<core::OriginBits> {
    const hw::WfBounds& bounds = geom.bounds(s);
    if (!bounds.present() || k < bounds.lo || k > bounds.hi) {
      return std::nullopt;
    }
    const auto cell_idx = static_cast<std::size_t>(k - bounds.lo);
    const std::size_t block =
        block_base[static_cast<std::size_t>(s)] + cell_idx / P;
    const std::size_t within = cell_idx % P;
    const std::span<const std::uint8_t> slice(
        bt.payload.data() + block * tpb * hw::kBtPayloadBytes,
        tpb * hw::kBtPayloadBytes);
    return core::unpack_origin_bits(hw::extract_5bit(slice, within));
  };

  // Origin walk: collect the difference operations end-to-start. Every
  // visit to the M matrix marks a spot where the hardware ran extend(), so
  // a (possibly empty) run of matches belongs right after that op in
  // forward order — and *only* there. A coincidental base match between
  // two gap-extension steps must NOT become an 'M', or the rebuilt CIGAR
  // would diverge from the alignment the accelerator actually scored.
  enum class Mat { kM, kI, kD };
  struct Item {
    CigarOp op;
    bool match_run_follows;  // forward order: op, then a maximal M-run
  };
  std::vector<Item> items;
  Mat mat = Mat::kM;
  score_t s = score;
  diag_t k = k_align;
  const Penalties& pen = cfg.pen;
  bool leading_run = false;  // match run at the very start of the alignment
  while (true) {
    if (mat == Mat::kM && s == 0) {
      leading_run = true;  // the initial extend of M_{0,0}
      break;
    }
    if (counters != nullptr) ++counters->path_steps;
    const std::optional<core::OriginBits> cell = origin_at(s, k);
    WFASIC_BT_CHECK(cell.has_value(),
                    "reconstruct_alignment: path cell outside wavefront");
    const core::OriginBits origin = *cell;
    // Only codes 0..4 are legal M origins (§4.3.3); 5..7 can only appear
    // in a corrupted stream and must not be walked.
    WFASIC_BT_CHECK(static_cast<std::uint8_t>(origin.m_origin) <=
                        static_cast<std::uint8_t>(core::MOrigin::kDelExt),
                    "reconstruct_alignment: invalid origin code in stream");
    switch (mat) {
      case Mat::kM:
        switch (origin.m_origin) {
          case core::MOrigin::kSub:
            items.push_back({CigarOp::kMismatch, true});
            s -= pen.mismatch;
            break;
          case core::MOrigin::kInsOpen:
            items.push_back({CigarOp::kInsertion, true});
            s -= pen.open_total();
            k -= 1;
            break;
          case core::MOrigin::kInsExt:
            items.push_back({CigarOp::kInsertion, true});
            s -= pen.gap_extend;
            k -= 1;
            mat = Mat::kI;
            break;
          case core::MOrigin::kDelOpen:
            items.push_back({CigarOp::kDeletion, true});
            s -= pen.open_total();
            k += 1;
            break;
          case core::MOrigin::kDelExt:
            items.push_back({CigarOp::kDeletion, true});
            s -= pen.gap_extend;
            k += 1;
            mat = Mat::kD;
            break;
        }
        break;
      case Mat::kI:
        items.push_back({CigarOp::kInsertion, false});
        k -= 1;
        if (origin.i_from_ext) {
          s -= pen.gap_extend;
        } else {
          s -= pen.open_total();
          mat = Mat::kM;
        }
        break;
      case Mat::kD:
        items.push_back({CigarOp::kDeletion, false});
        k += 1;
        if (origin.d_from_ext) {
          s -= pen.gap_extend;
        } else {
          s -= pen.open_total();
          mat = Mat::kM;
        }
        break;
    }
    WFASIC_BT_CHECK(s >= 0, "reconstruct_alignment: walked past score 0");
  }
  WFASIC_BT_CHECK(k == 0, "reconstruct_alignment: walk did not reach k = 0");
  std::reverse(items.begin(), items.end());

  // Match insertion: "the CPU traverses the two sequences and inserts all
  // the necessary matches between the differences" (§4.5). Runs are
  // maximal because the hardware extend is greedy, but they are inserted
  // only where the walk crossed an M-state (extend points) — never inside
  // a gap run.
  Cigar& cig = result.cigar;
  std::size_t i = 0;
  std::size_t j = 0;
  const auto take_matches = [&] {
    while (i < a.size() && j < b.size() && a[i] == b[j]) {
      cig.push(CigarOp::kMatch);
      ++i;
      ++j;
      if (counters != nullptr) ++counters->match_chars;
    }
  };
  if (leading_run) take_matches();
  for (const Item& item : items) {
    switch (item.op) {
      case CigarOp::kMismatch:
        WFASIC_BT_CHECK(i < a.size() && j < b.size() && a[i] != b[j],
                        "reconstruct_alignment: mismatch op on equal bases");
        ++i;
        ++j;
        break;
      case CigarOp::kInsertion:
        WFASIC_BT_CHECK(j < b.size(),
                        "reconstruct_alignment: insertion past text end");
        ++j;
        break;
      case CigarOp::kDeletion:
        WFASIC_BT_CHECK(i < a.size(),
                        "reconstruct_alignment: deletion past pattern end");
        ++i;
        break;
      case CigarOp::kMatch:
        WFASIC_UNREACHABLE("walk ops never contain matches");
    }
    cig.push(item.op);
    if (item.match_run_follows) take_matches();
  }
  WFASIC_BT_CHECK(i == a.size() && j == b.size(),
                  "reconstruct_alignment: sequences not fully consumed");

  result.ok = true;
  result.score = score;
  return result;
}

core::AlignResult reconstruct_alignment(const BtAlignment& bt,
                                        std::string_view a,
                                        std::string_view b,
                                        const hw::AcceleratorConfig& cfg,
                                        cpu::BtCpuCounters* counters) {
  const char* why = nullptr;
  const std::optional<core::AlignResult> result =
      try_reconstruct_alignment(bt, a, b, cfg, &why, counters);
  WFASIC_REQUIRE(result.has_value(), why);
  return *result;
}

BtStreamScan try_parse_bt_stream(const mem::MainMemory& memory,
                                 std::uint64_t out_addr,
                                 std::uint64_t max_bytes,
                                 std::size_t num_pairs, bool separate_data,
                                 cpu::BtCpuCounters* counters, bool crc,
                                 std::uint32_t crc_salt) {
  return scan_bt_stream(memory, out_addr, max_bytes / mem::kBeatBytes,
                        num_pairs, separate_data, counters, crc, crc_salt,
                        /*stop_at_anomaly=*/false);
}

std::vector<BtAlignment> parse_bt_stream(const mem::MainMemory& memory,
                                         std::uint64_t out_addr,
                                         std::size_t num_pairs,
                                         bool separate_data,
                                         cpu::BtCpuCounters* counters,
                                         bool crc, std::uint32_t crc_salt) {
  BtStreamScan scan = scan_bt_stream(
      memory, out_addr, std::numeric_limits<std::uint64_t>::max(), num_pairs,
      separate_data, counters, crc, crc_salt, /*stop_at_anomaly=*/true);
  WFASIC_REQUIRE(scan.clean(), scan.anomaly);
  return std::move(scan.alignments);
}

}  // namespace wfasic::drv
