// Width-specialized, symbol-major copies of a dense DFA transition table.
//
// The RI-DFA construction produces small chunk automata (tens to a few
// hundred states), yet the seed stored every table entry as an int32 in
// state-major order. The packed copy differs in two ways, both for the
// benefit of the speculative multi-start kernels (parallel/chunk_core.hpp):
//
//  * entries use the narrowest unsigned type that can hold `num_states`
//    plus a dead sentinel, shrinking the working set up to 4× so the hot
//    part of the table stays L1-resident;
//  * the layout is symbol-major (column(symbol)[state]): a kernel advancing
//    N runs over one symbol hoists the column base out of the per-run loop
//    — no per-lookup row multiply — and the N lookups land in one
//    contiguous `num_states`-sized column.
//
// Encoding: states keep their ids; the dead transition is the all-ones
// value of the entry type (255 / 65535) for the narrow widths and
// kDeadState (-1) for the int32 fallback. `PackedDead<T>::value` is the
// sentinel of entry type T. Kernels are templated over T and dispatch on
// `width()`.
//
// Next to its entries every table owns one all-dead column of num_states
// sentinels. It is the column the byte-input kernels
// (parallel/kernel_input.hpp) give a byte that has no symbol, so an alien
// byte kills every run at its lookup like any dead transition. build() and
// adopt() allocate it; it is never serialized, so the bundle sections hold
// exactly the entries above.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "automata/nfa.hpp"

namespace rispar {

enum class TableWidth : std::uint8_t { kU8, kU16, kI32 };

template <typename T>
struct PackedDead;
template <>
struct PackedDead<std::uint8_t> {
  static constexpr std::uint8_t value = 0xFF;
};
template <>
struct PackedDead<std::uint16_t> {
  static constexpr std::uint16_t value = 0xFFFF;
};
template <>
struct PackedDead<std::int32_t> {
  static constexpr std::int32_t value = kDeadState;
};

/// Entries of sentinel-filled tail slack after the num_states × num_symbols
/// table body. The slack is part of the format layout: the .rpb packed
/// sections store it (bundle/format.hpp), and adopt() maps those bytes in
/// place, so build() lays it out too. It is not part of any column and
/// never holds a state.
inline constexpr std::size_t kPackedSlackEntries = 4;

class PackedTable {
 public:
  PackedTable() = default;

  /// Packs `table` (state-major, num_states × num_symbols, dead =
  /// kDeadState) into the narrowest width whose sentinel cannot collide
  /// with a state id: u8 for < 255 states, u16 for < 65535, int32
  /// otherwise.
  static PackedTable build(const std::vector<State>& table, std::int32_t num_states,
                           std::int32_t num_symbols);

  /// Adopts an already-packed entry array IN PLACE — the zero-copy path of
  /// the mmap'd bundle loader (src/bundle/). `entries` must point at
  /// `num_states × num_symbols + kPackedSlackEntries` entries of the given
  /// width, laid out exactly as build() produces them (symbol-major,
  /// sentinel-filled slack tail), aligned to the entry size; `owner` keeps
  /// the backing storage (the file mapping) alive for as long as this table
  /// or ANY copy of it exists, so a Dfa copied out of a mapped Pattern stays
  /// valid on its own.
  static PackedTable adopt(TableWidth width, std::int32_t num_states,
                           std::int32_t num_symbols, const void* entries,
                           std::shared_ptr<const void> owner);

  /// True when the entries are a borrowed view (adopt()) rather than owned
  /// storage (build()).
  bool adopted() const { return borrowed_ != nullptr; }

  /// Monotone count of build() calls across the process — the observability
  /// hook behind the "a mapped load never re-packs" assertion
  /// (tests/test_bundle.cpp). Snapshot before, compare after.
  static std::uint64_t build_count();

  TableWidth width() const { return width_; }
  std::int32_t num_states() const { return num_states_; }
  std::int32_t num_symbols() const { return num_symbols_; }

  /// Total entries including the slack tail — the byte size of the
  /// entry array is total_entries() × entry size (bundle section writer).
  std::size_t total_entries() const {
    return static_cast<std::size_t>(num_states_) * static_cast<std::size_t>(num_symbols_) +
           kPackedSlackEntries;
  }

  /// Symbol-major entry array; T must match width(). Column `a` starts at
  /// data<T>() + a * num_states() and is indexed by state.
  template <typename T>
  const T* data() const;

  template <typename T>
  const T* column(Symbol symbol) const {
    return data<T>() + static_cast<std::size_t>(symbol) * num_states_;
  }

  /// The all-dead column: num_states() sentinels, so it can stand in for
  /// column(symbol) wherever a symbol has no column.
  template <typename T>
  const T* dead_column() const {
    return static_cast<const T*>(dead_column_.get());
  }

 private:
  /// Allocates the all-dead column for the current width and num_states_.
  void make_dead_column();

  TableWidth width_ = TableWidth::kI32;
  std::int32_t num_states_ = 0;
  std::int32_t num_symbols_ = 0;
  std::vector<std::uint8_t> u8_;
  std::vector<std::uint16_t> u16_;
  std::vector<std::int32_t> i32_;
  /// adopt() view: entries live in external storage kept alive by owner_.
  const void* borrowed_ = nullptr;
  std::shared_ptr<const void> owner_;
  /// dead_column<T>(): shared by copies, like the entries of an adopted table.
  std::shared_ptr<const void> dead_column_;
};

/// Result of a single run over a packed table: `end` is kDeadState when the
/// run died (dead transition or out-of-range symbol) and `consumed` counts
/// the executed transitions — the killing symbol is not counted (accounting
/// convention: parallel/ca_run.hpp).
struct PackedRun {
  State end = kDeadState;
  std::size_t consumed = 0;
};

/// Scalar single-start loop shared by the serial oracle (core/serial_match)
/// and the one-start scan of the chunk core (parallel/chunk_core.hpp), which
/// also finishes every lockstep's lone survivor. One predictable validity branch per symbol — the
/// unsigned cast folds the `< 0` and `>= num_symbols` checks into one
/// compare.
template <typename T>
PackedRun run_packed_single(const PackedTable& table, State start, const Symbol* input,
                            std::size_t length) {
  constexpr T kDead = PackedDead<T>::value;
  const T* entries = table.data<T>();
  const auto n = static_cast<std::size_t>(table.num_states());
  const auto limit = static_cast<std::uint32_t>(table.num_symbols());
  // The state is held as the index it is: each lookup widens once, as it
  // loads, and no extension sits on the loop's dependency chain.
  auto state = static_cast<std::size_t>(start);
  for (std::size_t i = 0; i < length; ++i) {
    if (static_cast<std::uint32_t>(input[i]) >= limit) return {kDeadState, i};
    state =
        static_cast<std::size_t>(entries[static_cast<std::size_t>(input[i]) * n + state]);
    if (state == static_cast<std::size_t>(kDead)) return {kDeadState, i};
  }
  return {static_cast<State>(state), length};
}

/// The byte input of the packed-table kernels: one column per byte value,
/// built per kernel call from a SymbolMap. A byte whose symbol is kUnmapped
/// (or outside the table's alphabet) gets the table's dead column, so the
/// inner step is `state = columns[byte][state]` with no validity check.
template <typename T>
using ByteColumns = std::array<const T*, 256>;

template <typename T>
ByteColumns<T> byte_columns(const PackedTable& table, const SymbolMap& map) {
  ByteColumns<T> columns;
  const auto limit = static_cast<std::uint32_t>(table.num_symbols());
  for (std::size_t byte = 0; byte < columns.size(); ++byte) {
    const std::int32_t symbol = map.symbol_of(static_cast<unsigned char>(byte));
    columns[byte] = static_cast<std::uint32_t>(symbol) < limit ? table.column<T>(symbol)
                                                               : table.dead_column<T>();
  }
  return columns;
}

/// run_packed_single over raw bytes: the same result and accounting, with
/// an alien byte dying at its dead-column lookup.
template <typename T>
PackedRun run_packed_bytes(const ByteColumns<T>& columns, State start, const char* input,
                           std::size_t length) {
  constexpr T kDead = PackedDead<T>::value;
  auto state = static_cast<std::size_t>(start);  // as in run_packed_single
  for (std::size_t i = 0; i < length; ++i) {
    state =
        static_cast<std::size_t>(columns[static_cast<unsigned char>(input[i])][state]);
    if (state == static_cast<std::size_t>(kDead)) return {kDeadState, i};
  }
  return {static_cast<State>(state), length};
}

// The borrowed-view branch costs one predictable compare per data<T>() call;
// kernels hoist the column base out of their inner loops, so this is once
// per chunk run, not per symbol.
template <>
inline const std::uint8_t* PackedTable::data<std::uint8_t>() const {
  return borrowed_ != nullptr ? static_cast<const std::uint8_t*>(borrowed_)
                              : u8_.data();
}
template <>
inline const std::uint16_t* PackedTable::data<std::uint16_t>() const {
  return borrowed_ != nullptr ? static_cast<const std::uint16_t*>(borrowed_)
                              : u16_.data();
}
template <>
inline const std::int32_t* PackedTable::data<std::int32_t>() const {
  return borrowed_ != nullptr ? static_cast<const std::int32_t*>(borrowed_)
                              : i32_.data();
}

}  // namespace rispar
