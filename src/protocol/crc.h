#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lfbs::protocol {

/// CRC-5/EPC as used by EPC Gen 2 inventory (polynomial x⁵+x³+1, preset
/// 0b01001). The paper's identification protocol sends "96 bits + 5 bit
/// CRC" per epoch (§5.2).
std::uint8_t crc5_epc(const std::vector<bool>& bits);
/// The same CRC of bits unpacked one per byte (each 0 or 1).
std::uint8_t crc5_epc(std::span<const std::uint8_t> bits);

/// Appends the 5 CRC bits (MSB first) to a copy of `bits`.
std::vector<bool> append_crc5(const std::vector<bool>& bits);

/// True when the last 5 bits are a valid CRC-5/EPC of the preceding bits.
/// Neither CRC here is reflected or has a final XOR, so that holds exactly
/// when the CRC of all the bits, its own included, is zero.
bool check_crc5(const std::vector<bool>& bits);

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) for data frames. A byte
/// at a time through a 256-entry table, the trailing bits bitwise.
std::uint16_t crc16_ccitt(const std::vector<bool>& bits);
/// The same CRC of bits unpacked one per byte (each 0 or 1).
std::uint16_t crc16_ccitt(std::span<const std::uint8_t> bits);

std::vector<bool> append_crc16(const std::vector<bool>& bits);

/// True when the last 16 bits are a valid CRC-16 of the preceding bits:
/// the CRC of all the bits is zero.
bool check_crc16(const std::vector<bool>& bits);

}  // namespace lfbs::protocol
