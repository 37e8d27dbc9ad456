// The rispar binary bundle (.rpb) — the zero-copy deployment format.
//
// PR 3's text serialization (automata/serialize.*) is the interchange
// layer: line-oriented, hand-editable, re-derives the RI-DFA and re-packs
// every table on load. This format is the fleet-startup fast path the
// ROADMAP's item 2 asks for: every section is laid out exactly as the
// runtime consumes it, so Pattern::load_mapped() validates checksums and
// ADOPTS the pages in place instead of parsing anything. In particular the
// width-packed symbol-major tables (automata/packed_table.hpp) are stored
// verbatim — symbol-major entry order, narrowest-width encoding, the
// kPackedSlackEntries sentinel tail of the format layout, 64-byte
// (cache-line) alignment — so the kernels read straight out of the file
// mapping and N fleet processes share one set of page-cache pages.
//
// ## Layout
//
//   FileHeader                                  (64 bytes)
//   PatternEntry[pattern_count]                 (32 bytes each)
//   SectionEntry[section_count]                 (32 bytes each)
//   ...section payloads, each 64-byte aligned...
//
// A bundle holds any number of patterns (a whole serving manifest ships as
// one file); each PatternEntry names a contiguous slice of the section
// table. All integers are little-endian and the format is only written or
// read on little-endian hosts (statically asserted) — the bundle is
// ISA-independent beyond that: widths, slack entries and alignment do not
// depend on the instruction set of the host that built it.
//
// ## Integrity
//
// The header carries its own checksum64, the directory (pattern + section
// tables) a second one, and every section payload a third.
// MappedBundle::open() validates all of them before any pattern
// materializes, so random corruption and truncation surface as a typed
// ValidationError, never as a wild read (fuzzed in tests/test_fuzz.cpp).
// checksum64 is a 4-lane FNV-1a variant: lanes over 8-byte words hide the
// multiply latency so validating a multi-megabyte bundle runs at memory
// speed instead of one byte per multiply — cold-start time is the whole
// point of this format.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace rispar::bundle {

static_assert(std::endian::native == std::endian::little,
              "the .rpb bundle format is defined little-endian; big-endian "
              "hosts need a byte-swapping loader that does not exist yet");

inline constexpr std::array<unsigned char, 8> kMagic = {'r', 'i', 's', 'p',
                                                        'a', 'r', 'b', 'f'};
inline constexpr std::uint32_t kFormatVersion = 1;
/// Every section payload starts on a cache-line boundary, which also covers
/// the 8-byte alignment the u64 arrays inside the payloads need.
inline constexpr std::size_t kSectionAlign = 64;

enum class SectionType : std::uint32_t {
  kSource = 1,          ///< UTF-8 provenance string (regex or a display name)
  kSymbolMap = 2,       ///< 256 × i32 byte → symbol table (the pattern's map)
  kNfa = 3,             ///< the ε-free trimmed NFA (source of truth)
  kMinDfa = 4,          ///< minimal DFA, dense i32 state-major table
  kMinDfaPacked = 5,    ///< its width-packed symbol-major copy, slack included
  kRidfaDfa = 6,        ///< the RI-DFA's deterministic machine
  kRidfaPacked = 7,     ///< its packed copy
  kRidfaAux = 8,        ///< contents/singleton/interface/start of the RI-DFA
  kSearcherMap = 9,     ///< the Σ*p searcher's all-bytes SymbolMap
  kSearcherDfa = 10,    ///< the Σ*p searcher DFA (count/find/streaming find)
  kSearcherPacked = 11, ///< its packed copy
  kSfa = 12,            ///< SFA dimensions + all-dead state (header only)
  kSfaPacked = 13,      ///< δ_SFA, packed — the SFA's only transition table
  kSfaMappings = 14,    ///< the mappings, packed with SFA-state-major columns
};

const char* section_type_name(SectionType type);

// PatternEntry::flags bits.
inline constexpr std::uint32_t kPatternHasSearcher = 1u << 0;
inline constexpr std::uint32_t kPatternHasSfa = 1u << 1;
/// The kSource section is the compiling regex (rispar_bundle verify --deep
/// recompiles it and cross-checks); unset = an informational display name.
inline constexpr std::uint32_t kPatternSourceIsRegex = 1u << 2;

struct FileHeader {
  unsigned char magic[8];
  std::uint32_t version;
  std::uint32_t header_bytes;        ///< sizeof(FileHeader)
  std::uint64_t file_bytes;          ///< total size; a torn copy fails fast
  std::uint32_t pattern_count;
  std::uint32_t section_count;
  std::uint64_t directory_checksum;  ///< checksum64 over both directory tables
  std::uint64_t header_checksum;     ///< checksum64 over this struct, field zeroed
  unsigned char reserved[16];
};
static_assert(sizeof(FileHeader) == 64);

struct PatternEntry {
  std::uint32_t first_section;  ///< index into the section table
  std::uint32_t section_count;  ///< contiguous run of sections
  std::uint32_t flags;
  std::int32_t max_subset_states;  ///< PatternLimits the pattern compiled with
  std::int32_t sfa_probe_budget;   ///< budget of the embedded SFA (0 = none)
  std::uint32_t reserved0;
  std::uint64_t reserved1;
};
static_assert(sizeof(PatternEntry) == 32);

struct SectionEntry {
  std::uint32_t type;      ///< SectionType
  std::uint32_t reserved;
  std::uint64_t offset;    ///< absolute, kSectionAlign-aligned
  std::uint64_t bytes;     ///< payload length (no padding)
  std::uint64_t checksum;  ///< checksum64 of the payload
};
static_assert(sizeof(SectionEntry) == 32);

// ------------------------------------------------ section payload headers
// Each payload starts with a fixed-size header followed by raw arrays; the
// arrays' offsets are all 8-byte aligned by construction (headers are
// multiples of 8, i32 arrays come in even-length pairs where needed).

/// kMinDfa / kRidfaDfa / kSearcherDfa payload:
///   DfaSectionHeader | u64 finals[finals_words] | i32 table[table_entries]
struct DfaSectionHeader {
  std::int32_t num_states;
  std::int32_t num_symbols;
  std::int32_t initial;
  std::uint32_t finals_words;
  std::uint64_t table_entries;  ///< num_states × num_symbols
  std::uint64_t reserved;
};
static_assert(sizeof(DfaSectionHeader) == 32);

/// kNfa payload:
///   NfaSectionHeader | u64 finals[finals_words]
///   | {i32 from, i32 symbol, i32 target}[num_edges]   (state-major, sorted)
struct NfaSectionHeader {
  std::int32_t num_states;
  std::int32_t num_symbols;
  std::int32_t initial;
  std::uint32_t finals_words;
  std::uint64_t num_edges;
  std::uint64_t reserved;
};
static_assert(sizeof(NfaSectionHeader) == 32);

/// k*Packed payload: PackedSectionHeader | entries. The header is one full
/// cache line so the entries land on the section's 64-byte alignment — the
/// kernels' column base. `total_entries` INCLUDES the kPackedSlackEntries
/// sentinel tail; the stored bytes are bit-identical to what
/// PackedTable::build produces, which is what makes in-place adoption legal.
struct PackedSectionHeader {
  std::uint32_t width;        ///< TableWidth
  std::uint32_t entry_bytes;  ///< 1, 2 or 4 — must agree with width
  std::int32_t num_states;
  std::int32_t num_symbols;
  std::uint64_t total_entries;
  unsigned char reserved[40];
};
static_assert(sizeof(PackedSectionHeader) == 64);

/// kRidfaAux payload:
///   RidfaAuxSectionHeader | i32 singleton[num_nfa_states]
///   | i32 interface[num_nfa_states] | u64 content_offsets[num_states + 1]
///   | i32 contents[contents_total]
/// (singleton+interface together are 8·num_nfa_states bytes, keeping the
/// u64 offsets aligned.)
struct RidfaAuxSectionHeader {
  std::int32_t num_nfa_states;
  std::int32_t num_states;
  std::int32_t start;
  std::uint32_t reserved0;
  std::uint64_t contents_total;
  std::uint64_t reserved1;
};
static_assert(sizeof(RidfaAuxSectionHeader) == 32);

/// kSfa payload: SfaSectionHeader, nothing else. The machine's two arrays
/// ship as companion packed sections, both adopted in place:
///   kSfaPacked   — δ_SFA (num_states × num_symbols, never dead)
///   kSfaMappings — the mappings, a PackedTable under the transposed
///                  identification Sfa::mappings() documents: the section's
///                  "num_states" is map_width (mapping entries are
///                  chunk-automaton states, which bound the width — almost
///                  always a byte) and its "num_symbols" is the SFA's
///                  num_states, so each column is one mapping row. The SFA
///                  is the explosion-prone machine and its mappings dominate
///                  a bundle; adopting them from the file is what makes a
///                  mapped cold start allocation-free.
struct SfaSectionHeader {
  std::int32_t num_states;
  std::int32_t num_symbols;
  std::int32_t all_dead;       ///< valid when has_all_dead
  std::int32_t map_width;      ///< chunk-automaton states per mapping
  std::uint32_t has_all_dead;
  std::uint32_t reserved0;
  std::uint64_t reserved1;
};
static_assert(sizeof(SfaSectionHeader) == 32);

/// The bundle checksum: a 4-lane FNV-1a variant over 8-byte words (length
/// mixed in, scalar FNV-1a tail). Fast, dependency-free, and strong enough
/// for the threat model — accidental corruption and torn copies, not an
/// adversary (docs/api.md, "Bundles and the compile cache").
std::uint64_t checksum64(const void* data, std::size_t bytes);

/// `offset` rounded up to the next kSectionAlign boundary.
inline std::uint64_t align_up(std::uint64_t offset) {
  return (offset + (kSectionAlign - 1)) & ~static_cast<std::uint64_t>(kSectionAlign - 1);
}

}  // namespace rispar::bundle
