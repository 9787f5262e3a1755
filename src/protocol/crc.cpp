#include "protocol/crc.h"

#include <array>

namespace lfbs::protocol {

namespace {

constexpr std::uint16_t kCrc16Poly = 0x1021;

/// One bit into the CRC-16 register, MSB first.
constexpr std::uint16_t crc16_bit(std::uint16_t reg, bool bit) {
  const bool msb = (reg & 0x8000) != 0;
  reg = static_cast<std::uint16_t>(reg << 1);
  return msb != bit ? static_cast<std::uint16_t>(reg ^ kCrc16Poly) : reg;
}

/// kCrc16Table[v] is the register after feeding 8 zero bits to v << 8: one
/// table step feeds a whole byte, MSB first.
constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::size_t v = 0; v < table.size(); ++v) {
    auto reg = static_cast<std::uint16_t>(v << 8);
    for (int k = 0; k < 8; ++k) reg = crc16_bit(reg, false);
    table[v] = reg;
  }
  return table;
}
constexpr std::array<std::uint16_t, 256> kCrc16Table = make_crc16_table();

/// CRC-16/CCITT-FALSE of bits [0, size) of any container indexable as
/// bools: whole bytes through the table, the tail bitwise.
template <typename Bits>
std::uint16_t crc16_of(const Bits& bits, std::size_t size) {
  std::uint16_t reg = 0xFFFF;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    unsigned byte = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      byte = (byte << 1) | (bits[i + k] ? 1u : 0u);
    }
    reg = static_cast<std::uint16_t>((reg << 8) ^
                                     kCrc16Table[(reg >> 8) ^ byte]);
  }
  for (; i < size; ++i) reg = crc16_bit(reg, bits[i] != 0);
  return reg;
}

/// Bitwise CRC-5/EPC: poly x^5 + x^3 + 1 (0b01001 taps), preset 0b01001.
template <typename Bits>
std::uint8_t crc5_of(const Bits& bits, std::size_t size) {
  std::uint8_t reg = 0b01001;
  for (std::size_t i = 0; i < size; ++i) {
    const bool msb = (reg & 0b10000) != 0;
    reg = static_cast<std::uint8_t>((reg << 1) & 0b11111);
    if (msb != (bits[i] != 0)) reg ^= 0b01001;
  }
  return reg;
}

}  // namespace

std::uint8_t crc5_epc(const std::vector<bool>& bits) {
  return crc5_of(bits, bits.size());
}

std::uint8_t crc5_epc(std::span<const std::uint8_t> bits) {
  return crc5_of(bits, bits.size());
}

std::vector<bool> append_crc5(const std::vector<bool>& bits) {
  std::vector<bool> out = bits;
  const std::uint8_t crc = crc5_epc(bits);
  for (int b = 4; b >= 0; --b) out.push_back(((crc >> b) & 1) != 0);
  return out;
}

bool check_crc5(const std::vector<bool>& bits) {
  return bits.size() >= 5 && crc5_epc(bits) == 0;
}

std::uint16_t crc16_ccitt(const std::vector<bool>& bits) {
  return crc16_of(bits, bits.size());
}

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> bits) {
  return crc16_of(bits, bits.size());
}

std::vector<bool> append_crc16(const std::vector<bool>& bits) {
  std::vector<bool> out = bits;
  const std::uint16_t crc = crc16_ccitt(bits);
  for (int b = 15; b >= 0; --b) out.push_back(((crc >> b) & 1) != 0);
  return out;
}

bool check_crc16(const std::vector<bool>& bits) {
  return bits.size() >= 16 && crc16_ccitt(bits) == 0;
}

}  // namespace lfbs::protocol
