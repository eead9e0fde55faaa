// 5-bit field packing for backtrace blocks (§4.3.3): the origins of all
// cells computed in one batch are concatenated 5 bits per cell into a block
// (320 bits for 64 parallel sections).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace wfasic::hw {

/// Bytes needed for `count` 5-bit fields.
[[nodiscard]] constexpr std::size_t packed_5bit_bytes(std::size_t count) {
  return (count * 5 + 7) / 8;
}

/// Packs `codes` (each < 32) into the zeroed `bytes`, little-endian bit
/// order: field i occupies bits [5i, 5i+5), bit b of the stream is byte
/// b/8, bit b%8. `bytes` must hold packed_5bit_bytes(codes.size()).
inline void pack_5bit_into(std::span<const std::uint8_t> codes,
                           std::span<std::uint8_t> bytes) {
  WFASIC_REQUIRE(bytes.size() >= packed_5bit_bytes(codes.size()),
                 "pack_5bit_into: output too small");
  for (std::size_t idx = 0; idx < codes.size(); ++idx) {
    WFASIC_REQUIRE(codes[idx] < 32, "pack_5bit_into: code >= 32");
    const std::size_t bit = idx * 5;
    const std::size_t byte = bit / 8;
    const std::size_t shift = bit % 8;
    bytes[byte] |= static_cast<std::uint8_t>(codes[idx] << shift);
    if (shift > 3) {  // field spills into the next byte
      bytes[byte + 1] |= static_cast<std::uint8_t>(codes[idx] >> (8 - shift));
    }
  }
}

/// pack_5bit_into a fresh byte stream of exactly the packed size.
[[nodiscard]] inline std::vector<std::uint8_t> pack_5bit_stream(
    std::span<const std::uint8_t> codes) {
  std::vector<std::uint8_t> bytes(packed_5bit_bytes(codes.size()), 0);
  pack_5bit_into(codes, bytes);
  return bytes;
}

/// Extracts field `idx` from a packed stream.
[[nodiscard]] inline std::uint8_t extract_5bit(
    std::span<const std::uint8_t> bytes, std::size_t idx) {
  const std::size_t bit = idx * 5;
  const std::size_t byte = bit / 8;
  const std::size_t shift = bit % 8;
  WFASIC_REQUIRE(byte < bytes.size(), "extract_5bit: index out of range");
  std::uint16_t window = bytes[byte];
  if (byte + 1 < bytes.size()) {
    window |= static_cast<std::uint16_t>(bytes[byte + 1]) << 8;
  }
  return static_cast<std::uint8_t>((window >> shift) & 0x1f);
}

}  // namespace wfasic::hw
