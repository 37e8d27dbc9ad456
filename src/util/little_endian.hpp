// The one little-endian integer codec of the byte formats built in
// std::string buffers: the rispard wire protocol (server/protocol.hpp) and
// the session checkpoint blob (engine/checkpoint.cpp). Appends write the
// value low byte first; load() reads one back with a bounds check and
// leaves the error policy to its caller (the protocol's PayloadReader
// clears `ok`, the checkpoint decoder throws ValidationError).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rispar::le {

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

/// The unsigned U stored little-endian at `pos`, advancing `pos` past it;
/// nullopt, `pos` unchanged, when fewer than sizeof(U) bytes remain.
template <typename U>
std::optional<U> load(std::string_view bytes, std::size_t& pos) {
  if (pos > bytes.size() || bytes.size() - pos < sizeof(U)) return std::nullopt;
  U v = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i)
    v |= static_cast<U>(static_cast<unsigned char>(bytes[pos++])) << (8 * i);
  return v;
}

}  // namespace rispar::le
