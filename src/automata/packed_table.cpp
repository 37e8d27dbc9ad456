#include "automata/packed_table.hpp"

#include <atomic>
#include <utility>

#include "util/fault_inject.hpp"

namespace rispar {

namespace {
/// See PackedTable::build_count(). Relaxed: the assertion tests snapshot and
/// compare on one thread; cross-thread precision is not required.
std::atomic<std::uint64_t> g_build_count{0};
}  // namespace

namespace {

template <typename T>
std::vector<T> pack_transposed(const std::vector<State>& table, std::int32_t num_states,
                               std::int32_t num_symbols) {
  const auto n = static_cast<std::size_t>(num_states);
  const auto k = static_cast<std::size_t>(num_symbols);
  // The format's sentinel tail slack (kPackedSlackEntries, packed_table.hpp).
  std::vector<T> packed(table.size() + kPackedSlackEntries, PackedDead<T>::value);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < k; ++a) {
      const State entry = table[s * k + a];
      packed[a * n + s] =
          entry == kDeadState ? PackedDead<T>::value : static_cast<T>(entry);
    }
  }
  return packed;
}

}  // namespace

PackedTable PackedTable::build(const std::vector<State>& table, std::int32_t num_states,
                               std::int32_t num_symbols) {
  // Fault site: the packed copy is the big allocation of a table build.
  if (fault::should_fail("packed.alloc")) throw std::bad_alloc();
  g_build_count.fetch_add(1, std::memory_order_relaxed);
  PackedTable result;
  result.num_states_ = num_states;
  result.num_symbols_ = num_symbols;
  if (num_states < 0xFF) {
    result.width_ = TableWidth::kU8;
    result.u8_ = pack_transposed<std::uint8_t>(table, num_states, num_symbols);
  } else if (num_states < 0xFFFF) {
    result.width_ = TableWidth::kU16;
    result.u16_ = pack_transposed<std::uint16_t>(table, num_states, num_symbols);
  } else {
    result.width_ = TableWidth::kI32;
    result.i32_ = pack_transposed<std::int32_t>(table, num_states, num_symbols);
  }
  result.make_dead_column();
  return result;
}

PackedTable PackedTable::adopt(TableWidth width, std::int32_t num_states,
                               std::int32_t num_symbols, const void* entries,
                               std::shared_ptr<const void> owner) {
  PackedTable result;
  result.width_ = width;
  result.num_states_ = num_states;
  result.num_symbols_ = num_symbols;
  result.borrowed_ = entries;
  result.owner_ = std::move(owner);
  result.make_dead_column();
  return result;
}

void PackedTable::make_dead_column() {
  const auto make = [&](auto sentinel) {
    using T = decltype(sentinel);
    auto column =
        std::make_shared<std::vector<T>>(static_cast<std::size_t>(num_states_), sentinel);
    dead_column_ = std::shared_ptr<const void>(column, column->data());
  };
  switch (width_) {
    case TableWidth::kU8: return make(PackedDead<std::uint8_t>::value);
    case TableWidth::kU16: return make(PackedDead<std::uint16_t>::value);
    case TableWidth::kI32: return make(PackedDead<std::int32_t>::value);
  }
}

std::uint64_t PackedTable::build_count() {
  return g_build_count.load(std::memory_order_relaxed);
}

}  // namespace rispar
