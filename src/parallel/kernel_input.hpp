// The two inputs of the packed-table chunk kernels, behind one reader
// interface, so the one chunk core (parallel/chunk_core.hpp: its one-start
// scan and its column lockstep step, for recognize, count and find alike)
// is written once and instantiated for both:
//
//  * SymbolReader — a pre-translated symbol span (streaming windows, tests,
//    callers that translate once). A symbol outside the table's alphabet
//    reads the table's dead column.
//  * ByteReader — raw text bytes with the SymbolMap that classes them
//    (ByteSpan). The reader builds a 256-entry byte → column table once per
//    kernel call (automata/packed_table.hpp, byte_columns), so a step is
//    `state = column(pos)[state]` and no symbol vector is ever built; an
//    alien byte reads the dead column.
//
// Either way an alien unit kills every run at its lookup like any dead
// transition and is not counted — the accounting of parallel/ca_run.hpp
// needs no separate validation pass. Internal to the parallel/ kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "automata/packed_table.hpp"
#include "automata/symbol_map.hpp"

namespace rispar::detail {

template <typename T>
class SymbolReader {
 public:
  SymbolReader(const PackedTable& table, std::span<const Symbol> symbols)
      : table_(&table),
        entries_(table.data<T>()),
        dead_(table.dead_column<T>()),
        num_states_(static_cast<std::size_t>(table.num_states())),
        limit_(static_cast<std::uint32_t>(table.num_symbols())),
        symbols_(symbols) {}

  std::size_t size() const { return symbols_.size(); }

  /// The column unit `pos` steps through; the dead column for an alien.
  const T* column(std::size_t pos) const {
    const auto symbol = static_cast<std::uint32_t>(symbols_[pos]);
    return symbol < limit_ ? entries_ + static_cast<std::size_t>(symbol) * num_states_
                           : dead_;
  }

  /// One run from `start` over units [pos, pos + length).
  PackedRun run(State start, std::size_t pos, std::size_t length) const {
    return run_packed_single<T>(*table_, start, symbols_.data() + pos, length);
  }

 private:
  const PackedTable* table_;
  const T* entries_;
  const T* dead_;
  std::size_t num_states_;
  std::uint32_t limit_;
  std::span<const Symbol> symbols_;
};

template <typename T>
class ByteReader {
 public:
  ByteReader(const PackedTable& table, const ByteSpan& bytes)
      : columns_(byte_columns<T>(table, *bytes.map)), bytes_(bytes) {}

  std::size_t size() const { return bytes_.size(); }

  const T* column(std::size_t pos) const {
    return columns_[static_cast<unsigned char>(bytes_.bytes[pos])];
  }

  PackedRun run(State start, std::size_t pos, std::size_t length) const {
    return run_packed_bytes<T>(columns_, start, bytes_.bytes.data() + pos, length);
  }

 private:
  ByteColumns<T> columns_;
  ByteSpan bytes_;
};

/// Calls fn(T{}) with the entry type T the packed table was built at.
template <typename Fn>
decltype(auto) with_width(const PackedTable& table, Fn&& fn) {
  switch (table.width()) {
    case TableWidth::kU8:
      return fn(std::uint8_t{});
    case TableWidth::kU16:
      return fn(std::uint16_t{});
    case TableWidth::kI32:
      break;
  }
  return fn(std::int32_t{});
}

/// The reader of an input: overloads pick SymbolReader or ByteReader.
template <typename T>
SymbolReader<T> reader(const PackedTable& table, std::span<const Symbol> symbols) {
  return {table, symbols};
}
template <typename T>
ByteReader<T> reader(const PackedTable& table, const ByteSpan& bytes) {
  return {table, bytes};
}

/// Symbol `i` of an input, for the scans that step one unit at a time
/// outside the kernels (the exact-begin reverse scan, Engine::accepts).
inline Symbol symbol_at(std::span<const Symbol> symbols, std::size_t i) {
  return symbols[i];
}
inline Symbol symbol_at(const ByteSpan& bytes, std::size_t i) { return bytes.symbol(i); }

/// The symbols of one chunk for the kernels that step symbols (kReference,
/// the NFA frontier, the SFA): a span as it is; a byte span translated into
/// `buffer` — by the pool task that runs the chunk, so the translation of a
/// text runs in parallel, one chunk per task.
inline std::span<const Symbol> chunk_symbols(std::span<const Symbol> symbols,
                                             std::vector<Symbol>& /*buffer*/) {
  return symbols;
}
inline std::span<const Symbol> chunk_symbols(const ByteSpan& bytes,
                                             std::vector<Symbol>& buffer) {
  buffer = bytes.translate();
  return buffer;
}

}  // namespace rispar::detail
