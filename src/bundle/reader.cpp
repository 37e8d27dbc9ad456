#include "bundle/reader.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "bundle/restore.hpp"
#include "util/governance.hpp"

namespace rispar::bundle {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw ValidationError("bundle: " + what);
}

/// Bounds-checked cursor over one section's payload.
struct PayloadCursor {
  const unsigned char* data;
  std::size_t size;
  std::string name;
  std::size_t pos = 0;

  template <typename T>
  T read() {
    T value;
    std::memcpy(&value, raw(sizeof(T)), sizeof(T));
    return value;
  }

  const unsigned char* raw(std::size_t bytes) {
    if (bytes > size - pos) fail(name + ": truncated payload");
    const unsigned char* at = data + pos;
    pos += bytes;
    return at;
  }

  std::vector<State> states(std::size_t count) {
    std::vector<State> out(count);
    if (count != 0) std::memcpy(out.data(), raw(count * sizeof(State)), count * sizeof(State));
    return out;
  }

  void done() {
    if (pos != size) fail(name + ": " + std::to_string(size - pos) + " trailing bytes");
  }
};

PayloadCursor cursor_of(const MappedBundle& bundle, const SectionEntry& section) {
  return {bundle.payload(section), section.bytes,
          std::string("section ") +
              section_type_name(static_cast<SectionType>(section.type))};
}

const SectionEntry& require(const MappedBundle& bundle, std::uint32_t index,
                            SectionType type) {
  const SectionEntry* section = bundle.find_section(index, type);
  if (section == nullptr)
    fail("pattern " + std::to_string(index) + ": missing " +
         section_type_name(type) + " section");
  return *section;
}

SymbolMap load_symbol_map(const MappedBundle& bundle, const SectionEntry& section) {
  if (section.bytes != 256 * sizeof(std::int32_t))
    fail("symbol map section must be 1024 bytes, has " +
         std::to_string(section.bytes));
  std::array<std::int32_t, 256> table;
  std::memcpy(table.data(), bundle.payload(section), sizeof table);
  try {
    return SymbolMap::from_table(table);
  } catch (const std::exception& e) {
    fail(std::string("bad symbol map: ") + e.what());
  }
}

Bitset load_finals(PayloadCursor& cursor, std::uint32_t words,
                   std::int32_t num_states) {
  const auto universe = static_cast<std::size_t>(num_states);
  if (words != (universe + 63) / 64)
    fail(cursor.name + ": finals word count does not match state count");
  Bitset finals(universe);
  for (std::uint32_t w = 0; w < words; ++w) {
    const auto word = cursor.read<std::uint64_t>();
    for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<std::size_t>(w) * 64 +
                       static_cast<std::size_t>(std::countr_zero(bits));
      if (bit >= universe) fail(cursor.name + ": finals bit out of range");
      finals.set(bit);
    }
  }
  return finals;
}

// Validation of bulk state arrays is branchless — a fault accumulator OR'd
// across the loop, checked once at the end — so the compiler vectorizes it
// and multi-megabyte sections validate at memory speed. The unsigned cast
// folds the negative and the >= limit case into one compare.
void check_states(const std::vector<State>& states, std::int32_t limit,
                  bool allow_dead, const std::string& what) {
  const auto bound = static_cast<std::uint32_t>(limit);
  std::uint32_t bad = 0;
  if (allow_dead) {
    for (const State s : states)
      bad |= static_cast<std::uint32_t>(s != kDeadState &&
                                        static_cast<std::uint32_t>(s) >= bound);
  } else {
    for (const State s : states)
      bad |= static_cast<std::uint32_t>(static_cast<std::uint32_t>(s) >= bound);
  }
  if (bad != 0) fail(what + ": state id out of range");
}

Dfa load_dense_dfa(const MappedBundle& bundle, const SectionEntry& section,
                   SymbolMap map) {
  PayloadCursor cursor = cursor_of(bundle, section);
  const auto header = cursor.read<DfaSectionHeader>();
  const std::int32_t ns = header.num_states;
  const std::int32_t k = header.num_symbols;
  if (ns < 1 || ns > (1 << 26)) fail(cursor.name + ": implausible state count");
  if (k != map.num_symbols())
    fail(cursor.name + ": symbol count disagrees with the symbol map");
  if (header.table_entries !=
      static_cast<std::uint64_t>(ns) * static_cast<std::uint64_t>(k))
    fail(cursor.name + ": table size does not match dimensions");
  if (header.initial < 0 || header.initial >= ns)
    fail(cursor.name + ": initial state out of range");
  Bitset finals = load_finals(cursor, header.finals_words, ns);
  std::vector<State> table = cursor.states(static_cast<std::size_t>(header.table_entries));
  cursor.done();
  check_states(table, ns, /*allow_dead=*/true, cursor.name + " table");
  return BundleRestoreAccess::restore_dfa(k, std::move(map), header.initial,
                                          std::move(finals), std::move(table));
}

/// Validates a packed section against its companion machine and returns an
/// in-place view over the mapping. The entry scan (sentinel or in-range
/// state) is what lets the kernels run the adopted bytes with the same
/// no-bounds-check inner loops they use on tables they built. Pass
/// `allow_dead = false` for total machines (δ_SFA): their body entries are
/// used as unchecked indexes downstream, so a sentinel is corruption — the
/// slack tail may always carry sentinels.
PackedTable adopt_packed(const std::shared_ptr<const MappedBundle>& bundle,
                         const SectionEntry& section, std::int32_t num_states,
                         std::int32_t num_symbols, bool allow_dead = true) {
  PayloadCursor cursor = cursor_of(*bundle, section);
  const auto header = cursor.read<PackedSectionHeader>();
  const TableWidth expected_width = num_states < 0xFF    ? TableWidth::kU8
                                    : num_states < 0xFFFF ? TableWidth::kU16
                                                          : TableWidth::kI32;
  if (header.width != static_cast<std::uint32_t>(expected_width))
    fail(cursor.name + ": width is not the canonical width for " +
         std::to_string(num_states) + " states");
  const std::uint32_t entry_bytes = header.width == 0 ? 1 : header.width == 1 ? 2 : 4;
  if (header.entry_bytes != entry_bytes)
    fail(cursor.name + ": entry size does not match width");
  if (header.num_states != num_states || header.num_symbols != num_symbols)
    fail(cursor.name + ": dimensions disagree with the dense table");
  const std::uint64_t total =
      static_cast<std::uint64_t>(num_states) * static_cast<std::uint64_t>(num_symbols) +
      kPackedSlackEntries;
  if (header.total_entries != total)
    fail(cursor.name + ": entry count does not match dimensions + slack");
  const unsigned char* entries = cursor.raw(static_cast<std::size_t>(total) * entry_bytes);
  cursor.done();

  // Entry scan, blocked + branchless so it vectorizes: a packed table can
  // be hundreds of kilobytes and this runs on every load. With
  // allow_dead = false the body check degenerates to a plain range check —
  // every width's sentinel is >= any canonical-width state count.
  const auto scan = [&]<typename T>(std::type_identity<T>) {
    constexpr T kDead = PackedDead<T>::value;
    const auto bound = static_cast<std::uint32_t>(num_states);
    const std::uint64_t body = total - kPackedSlackEntries;
    std::uint32_t bad = 0;
    T block[256];
    std::uint64_t i = 0;
    if (allow_dead) {
      for (; i + 256 <= body; i += 256) {
        std::memcpy(block, entries + i * sizeof(T), sizeof block);
        for (const T v : block)
          bad |= static_cast<std::uint32_t>(
              v != kDead && static_cast<std::uint32_t>(v) >= bound);
      }
    } else {
      for (; i + 256 <= body; i += 256) {
        std::memcpy(block, entries + i * sizeof(T), sizeof block);
        for (const T v : block)
          bad |= static_cast<std::uint32_t>(static_cast<std::uint32_t>(v) >= bound);
      }
    }
    const auto check_one = [&](std::uint64_t at, bool dead_ok) {
      T v;
      std::memcpy(&v, entries + at * sizeof(T), sizeof(T));
      bad |= static_cast<std::uint32_t>(
          (!dead_ok || v != kDead) && static_cast<std::uint32_t>(v) >= bound);
    };
    for (; i < body; ++i) check_one(i, allow_dead);
    for (std::uint64_t at = body; at < total; ++at) check_one(at, true);
    if (bad != 0) fail(cursor.name + ": packed entry out of range");
  };
  switch (expected_width) {
    case TableWidth::kU8:
      scan(std::type_identity<std::uint8_t>{});
      break;
    case TableWidth::kU16:
      scan(std::type_identity<std::uint16_t>{});
      break;
    case TableWidth::kI32:
      scan(std::type_identity<std::int32_t>{});
      break;
  }
  return PackedTable::adopt(expected_width, num_states, num_symbols, entries,
                            std::shared_ptr<const void>(bundle));
}

/// Dense DFA + adopted packed view, the pairing every DFA in a bundle uses.
Dfa load_dfa_with_packed(const std::shared_ptr<const MappedBundle>& bundle,
                         const SectionEntry& dense, const SectionEntry& packed,
                         SymbolMap map) {
  Dfa dfa = load_dense_dfa(*bundle, dense, std::move(map));
  dfa.adopt_packed(std::make_shared<const PackedTable>(
      adopt_packed(bundle, packed, dfa.num_states(), dfa.num_symbols())));
  return dfa;
}

Nfa load_nfa(const MappedBundle& bundle, const SectionEntry& section,
             const SymbolMap& map) {
  PayloadCursor cursor = cursor_of(bundle, section);
  const auto header = cursor.read<NfaSectionHeader>();
  const std::int32_t ns = header.num_states;
  const std::int32_t k = header.num_symbols;
  if (ns < 1 || ns > (1 << 26)) fail(cursor.name + ": implausible state count");
  if (k != map.num_symbols())
    fail(cursor.name + ": symbol count disagrees with the symbol map");
  if (header.initial < 0 || header.initial >= ns)
    fail(cursor.name + ": initial state out of range");
  Bitset finals = load_finals(cursor, header.finals_words, ns);

  Nfa nfa(k, map);
  for (State q = 0; q < ns; ++q)
    nfa.add_state(finals.test(static_cast<std::size_t>(q)));
  nfa.set_initial(header.initial);
  for (std::uint64_t e = 0; e < header.num_edges; ++e) {
    std::int32_t triple[3];
    std::memcpy(triple, cursor.raw(sizeof triple), sizeof triple);
    if (triple[0] < 0 || triple[0] >= ns || triple[2] < 0 || triple[2] >= ns)
      fail(cursor.name + ": edge endpoint out of range");
    if (triple[1] < 0 || triple[1] >= k)
      fail(cursor.name + ": edge symbol out of range");
    nfa.add_edge(triple[0], triple[1], triple[2]);
  }
  cursor.done();
  return nfa;
}

Ridfa load_ridfa(const std::shared_ptr<const MappedBundle>& bundle,
                 std::uint32_t index, const SymbolMap& map,
                 std::int32_t num_nfa_states) {
  Dfa dfa = load_dfa_with_packed(bundle, require(*bundle, index, SectionType::kRidfaDfa),
                                 require(*bundle, index, SectionType::kRidfaPacked), map);
  const std::int32_t np = dfa.num_states();

  PayloadCursor cursor =
      cursor_of(*bundle, require(*bundle, index, SectionType::kRidfaAux));
  const auto header = cursor.read<RidfaAuxSectionHeader>();
  if (header.num_nfa_states != num_nfa_states)
    fail(cursor.name + ": NFA state count disagrees with the NFA section");
  if (header.num_states != np)
    fail(cursor.name + ": state count disagrees with the RI-DFA table");
  if (header.start < 0 || header.start >= np)
    fail(cursor.name + ": start state out of range");
  const auto nq = static_cast<std::size_t>(num_nfa_states);
  std::vector<State> singleton = cursor.states(nq);
  std::vector<State> interface_fn = cursor.states(nq);
  check_states(singleton, np, /*allow_dead=*/false, cursor.name + " singleton");
  check_states(interface_fn, np, /*allow_dead=*/false, cursor.name + " interface");

  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(np) + 1);
  std::memcpy(offsets.data(), cursor.raw(offsets.size() * sizeof(std::uint64_t)),
              offsets.size() * sizeof(std::uint64_t));
  if (offsets.front() != 0 || offsets.back() != header.contents_total)
    fail(cursor.name + ": contents offsets do not span the contents array");
  std::vector<std::vector<State>> contents(static_cast<std::size_t>(np));
  for (std::size_t p = 0; p < contents.size(); ++p) {
    if (offsets[p + 1] < offsets[p])
      fail(cursor.name + ": contents offsets not monotone");
    const auto count = static_cast<std::size_t>(offsets[p + 1] - offsets[p]);
    contents[p] = cursor.states(count);
    for (std::size_t i = 0; i < count; ++i) {
      const State q = contents[p][i];
      if (q < 0 || q >= num_nfa_states)
        fail(cursor.name + ": subset label out of range");
      if (i > 0 && contents[p][i - 1] >= q)
        fail(cursor.name + ": subset label not sorted");
    }
  }
  cursor.done();
  return BundleRestoreAccess::restore_ridfa(std::move(dfa), std::move(contents),
                                            std::move(singleton),
                                            std::move(interface_fn), header.start,
                                            num_nfa_states);
}

Sfa load_sfa(const std::shared_ptr<const MappedBundle>& bundle, std::uint32_t index,
             const Dfa& min_dfa) {
  PayloadCursor cursor = cursor_of(*bundle, require(*bundle, index, SectionType::kSfa));
  const auto header = cursor.read<SfaSectionHeader>();
  const std::int32_t ns = header.num_states;
  const std::int32_t k = header.num_symbols;
  if (ns < 1 || ns > (1 << 26)) fail(cursor.name + ": implausible state count");
  if (k != min_dfa.num_symbols())
    fail(cursor.name + ": symbol count disagrees with the chunk automaton");
  if (header.map_width != min_dfa.num_states())
    fail(cursor.name + ": mapping width disagrees with the chunk automaton");
  if (header.has_all_dead > 1) fail(cursor.name + ": bad all_dead flag");
  if (header.has_all_dead == 1 && (header.all_dead < 0 || header.all_dead >= ns))
    fail(cursor.name + ": all_dead state out of range");
  cursor.done();

  // Both SFA arrays are adopted straight out of the mapping — the mappings
  // dominate a bundle's bytes, so materializing them would be most of a
  // cold start. δ_SFA gets allow_dead = false: it is total, and Sfa::run
  // uses its arrival states as unchecked indexes into the mappings.
  PackedTable packed =
      adopt_packed(bundle, require(*bundle, index, SectionType::kSfaPacked), ns, k,
                   /*allow_dead=*/false);
  // The mappings section uses the transposed identification Sfa::mappings()
  // documents: "states" = map_width (the value bound), "symbols" = ns.
  PackedTable mappings =
      adopt_packed(bundle, require(*bundle, index, SectionType::kSfaMappings),
                   header.map_width, ns);
  return BundleRestoreAccess::restore_sfa(
      k, std::move(packed), std::move(mappings),
      header.has_all_dead == 1 ? std::optional<State>(header.all_dead)
                               : std::nullopt);
}

}  // namespace

LoadedPattern load_pattern(const std::shared_ptr<const MappedBundle>& bundle,
                           std::uint32_t index) {
  const PatternEntry& entry = bundle->pattern(index);
  LoadedPattern result;
  result.source = std::string(bundle->source(index));
  result.source_is_regex = (entry.flags & kPatternSourceIsRegex) != 0;
  result.max_subset_states = entry.max_subset_states < 0 ? 0 : entry.max_subset_states;

  const SymbolMap map =
      load_symbol_map(*bundle, require(*bundle, index, SectionType::kSymbolMap));
  result.nfa = load_nfa(*bundle, require(*bundle, index, SectionType::kNfa), map);
  result.min_dfa =
      load_dfa_with_packed(bundle, require(*bundle, index, SectionType::kMinDfa),
                           require(*bundle, index, SectionType::kMinDfaPacked), map);
  result.ridfa = load_ridfa(bundle, index, map, result.nfa.num_states());

  if ((entry.flags & kPatternHasSearcher) != 0) {
    const SymbolMap searcher_map = load_symbol_map(
        *bundle, require(*bundle, index, SectionType::kSearcherMap));
    result.searcher = load_dfa_with_packed(
        bundle, require(*bundle, index, SectionType::kSearcherDfa),
        require(*bundle, index, SectionType::kSearcherPacked), searcher_map);
  }
  if ((entry.flags & kPatternHasSfa) != 0) {
    result.sfa = load_sfa(bundle, index, result.min_dfa);
    result.sfa_probe_budget =
        entry.sfa_probe_budget > 0 ? entry.sfa_probe_budget : result.sfa->num_states();
  }
  return result;
}

}  // namespace rispar::bundle
