#include "util/crc32.h"

#include <array>

namespace menos::util {
namespace {

// Slice-by-8: t[0] is the bytewise table, t[k][i] the CRC of byte i
// followed by k zero bytes, so eight lookups advance eight bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() noexcept {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

const Tables& tables() noexcept {
  static const Tables t = make_tables();
  return t;
}

std::uint32_t load_le32(const unsigned char* p) noexcept {  // on any host
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const Tables& t = tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = load_le32(bytes) ^ c;
    const std::uint32_t hi = load_le32(bytes + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    c = t[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::uint32_t crc32_ref(const void* data, std::size_t size,
                        std::uint32_t seed) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c = tables()[0][(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace menos::util
