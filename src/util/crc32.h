// CRC-32 (IEEE 802.3 polynomial) for wire-format integrity checks.
#pragma once

#include <cstdint>
#include <cstddef>

namespace menos::util {

/// Compute the CRC-32 of a byte span. `seed` allows incremental use:
/// crc32(b, n2, crc32(a, n1)) == crc32(concat(a, b)). Slice-by-8: eight
/// table lookups per eight bytes. Not CRC-32C, so not the SSE4.2 opcode.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

/// The bytewise table loop crc32() must agree with; the tests' oracle.
std::uint32_t crc32_ref(const void* data, std::size_t size,
                        std::uint32_t seed = 0) noexcept;

}  // namespace menos::util
