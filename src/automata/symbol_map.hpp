// Byte → dense symbol-class mapping.
//
// Automata transition tables are indexed by *symbol classes*, not raw bytes:
// two bytes that no literal in the source RE distinguishes share a class.
// This keeps DFA tables small (|Q| × #classes instead of |Q| × 256) — the
// standard technique in production matchers — and lets synthetic benchmark
// NFAs use tiny abstract alphabets while recognizers still consume byte
// texts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "regex/ast.hpp"

namespace rispar {

class SymbolMap {
 public:
  /// Identity map over the first `k` printable symbols 'a', 'b', ...; used
  /// by synthetic automata whose alphabet is abstract. k <= 64.
  static SymbolMap identity(int k);

  /// Coarsest partition of the 256 bytes that refines every given class:
  /// bytes b1, b2 get the same symbol iff no set in `classes` separates
  /// them. Bytes not covered by any class map to symbol kUnmapped.
  static SymbolMap build(const std::vector<ByteSet>& classes);

  /// Symbol id of an unmapped byte; recognizers treat it as an immediate
  /// dead transition.
  static constexpr std::int32_t kUnmapped = -1;

  /// Rebuilds a map from a raw byte → symbol table (deserialization:
  /// automata/serialize.* writes raw_table() and loads through here,
  /// preserving the exact symbol numbering). Entries must be kUnmapped or
  /// a dense id range [0, max]; a gap or out-of-range id throws
  /// std::invalid_argument. The representative of each symbol is its
  /// smallest byte.
  static SymbolMap from_table(const std::array<std::int32_t, 256>& table);

  std::int32_t num_symbols() const { return num_symbols_; }

  std::int32_t symbol_of(unsigned char byte) const { return byte_to_symbol_[byte]; }

  /// Set of symbol ids intersecting the given byte class.
  std::vector<std::int32_t> symbols_of(const ByteSet& bytes) const;

  /// A representative byte per symbol (for diagnostics and text synthesis).
  unsigned char representative(std::int32_t symbol) const {
    return reps_[static_cast<std::size_t>(symbol)];
  }

  /// Translates a byte string into symbol ids (kUnmapped for alien bytes).
  /// Guarantee used by the recognizers: every symbol of a byte is either
  /// kUnmapped or in [0, num_symbols()). The symbol-span kernels therefore
  /// validate a translated chunk with one scan for out-of-range values
  /// (first_invalid_symbol below), and the byte-input kernels give every
  /// byte outside the alphabet the packed table's dead column
  /// (automata/packed_table.hpp) — neither checks ranges per step. The
  /// one-shot entry points do not call this on the whole text: the kernels
  /// class each chunk's bytes inside its pool task (ByteSpan).
  std::vector<std::int32_t> translate(std::string_view text) const;

  const std::array<std::int32_t, 256>& raw_table() const { return byte_to_symbol_; }

 private:
  std::int32_t num_symbols_ = 0;
  std::array<std::int32_t, 256> byte_to_symbol_{};
  std::vector<unsigned char> reps_;
};

/// Raw text bytes with the map that classes them: the byte input of the
/// chunk kernels (parallel/ca_run.hpp, parallel/match_count.hpp) and of
/// Device::recognize. It mirrors the std::span calls the devices make on a
/// symbol span, so one templated body serves both inputs.
struct ByteSpan {
  /// No default: an empty `{}` argument still means an empty symbol span.
  ByteSpan(std::string_view text, const SymbolMap& symbols)
      : bytes(text), map(&symbols) {}

  std::string_view bytes;
  const SymbolMap* map;

  std::size_t size() const { return bytes.size(); }
  bool empty() const { return bytes.empty(); }
  ByteSpan subspan(std::size_t offset, std::size_t count) const {
    return {bytes.substr(offset, count), *map};
  }
  ByteSpan first(std::size_t count) const { return subspan(0, count); }
  /// The symbol of byte `i` (kUnmapped for an alien byte).
  std::int32_t symbol(std::size_t i) const {
    return map->symbol_of(static_cast<unsigned char>(bytes[i]));
  }
  std::vector<std::int32_t> translate() const { return map->translate(bytes); }
};

/// Index of the first symbol outside [0, num_symbols), or chunk.size() when
/// every symbol is valid. This is the one-pass validation the chunk kernels
/// run before their unchecked inner loops: for text produced by
/// SymbolMap::translate it amounts to a scan for kUnmapped.
std::size_t first_invalid_symbol(std::span<const std::int32_t> chunk,
                                 std::int32_t num_symbols);

}  // namespace rispar
