// Session checkpoints — the durable-session layer (ISSUE 10 tentpole a).
//
// A checkpoint is a versioned, checksummed binary image of everything a
// streaming session carries between windows: the device's decision states,
// the Σ*p searcher's find carry (state, consumed/last_sep/matches counters,
// the kExact history tail), and — for multi-pattern sessions — the N
// per-pattern carries plus the shared byte count. A client (or the rispard
// server on its behalf) takes one with StreamSession::checkpoint() /
// MultiStreamSession::checkpoint(), stores the opaque blob anywhere, and
// resumes byte-exact with Engine::resume_stream() /
// PatternSet::resume_stream() — on the same Engine, a fresh one, or a
// different process entirely: the resumed session's match stream equals the
// uninterrupted session's and the serial oracle's under every window
// segmentation (CheckpointFuzz in tests/test_fuzz.cpp).
//
// Blob layout (all integers little-endian, unaligned):
//
//   u32 magic "RSCK" | u32 version | u8 kind | u8 variant | u8 positions |
//   u8 begin_mode | u64 fingerprint | body | u64 checksum64(everything
//   before the trailer)
//
//   body (kind = kSingleStream):  u8 at_start | u64 transitions |
//     u64 windows | u32 nstates | nstates x u32 state | find-carry image
//   body (kind = kMultiStream):   u64 consumed | u32 npatterns |
//     npatterns x find-carry image
//   find-carry image (FindCarry, parallel/match_count.hpp): u32 state |
//     u8 at_start | u8 died | u64 consumed | u64 last_sep | u64 matches |
//     u64 transitions | u64 history_base | u64 nhistory |
//     nhistory x u32 symbol
//
// The fingerprint is a checksum64 over the minimal DFA's content (shape,
// initial state, finals, transition table, byte→symbol map) — canonical for
// the language, so resuming against a different pattern (or a reordered
// fleet) rejects with ValidationError instead of silently producing garbage
// offsets, and the same source recompiled elsewhere fingerprints equal. The
// trailing checksum64 (the bundle layer's 4-lane FNV-1a, src/bundle/
// format.hpp) makes corruption and truncation a typed error, never a wild
// read: every truncation and random byte flip of a blob throws (fuzzed).
//
// What a checkpoint does NOT carry: buffered-but-untaken matches (drain
// take_matches() first — checkpoint() rejects otherwise, so nothing is
// silently lost).
// Poisoned sessions cannot checkpoint — their carry is mid-window.
//
// Fault-injection sites: "checkpoint.encode" / "checkpoint.decode"
// (util/fault_inject.hpp; swept in tests/test_fault_inject.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/device.hpp"
#include "engine/pattern.hpp"
#include "engine/query.hpp"

namespace rispar::checkpoint {

inline constexpr std::uint32_t kMagic = 0x4b435352u;  // "RSCK" as u32le
inline constexpr std::uint32_t kVersion = 1;

enum class Kind : std::uint8_t {
  kSingleStream = 1,  ///< StreamSession (one pattern, decision + find carry)
  kMultiStream = 2,   ///< MultiStreamSession (N find carries, no decision)
};

/// Stable identity of one compiled pattern for resume validation: a
/// checksum64 over the minimal DFA's content (shape, initial state, finals,
/// transition table, byte→symbol map). Identical for the same source
/// recompiled in another process — the property the rispard RESUME_SESSION
/// path relies on across restarts.
std::uint64_t pattern_fingerprint(const Pattern& pattern);

/// Combined ordered-fleet fingerprint of a multi-pattern session: mixes
/// every pattern's fingerprint with its position, so a reordered or
/// resubset fleet rejects at resume.
std::uint64_t fleet_fingerprint(std::span<const Pattern> patterns);

/// Serializes a single-pattern session's whole carry under the envelope
/// described above. Fault site "checkpoint.encode".
std::string encode_stream(const StreamCarry& carry, Variant variant,
                          const QueryOptions& options, std::uint64_t fingerprint);

/// Validates and decodes an encode_stream blob. Throws ValidationError on
/// ANY mismatch: magic/version/checksum (corruption, truncation), kind,
/// variant, positions/begin_mode against `options`, fingerprint against
/// the resuming pattern. Fault site "checkpoint.decode".
StreamCarry decode_stream(std::string_view blob, Variant variant,
                          const QueryOptions& options, std::uint64_t fingerprint);

/// Serializes a multi-pattern session's N carries + shared byte count.
/// Fault site "checkpoint.encode".
std::string encode_multi(const std::vector<const FindCarry*>& carries,
                         std::uint64_t consumed, const QueryOptions& options,
                         std::uint64_t fingerprint);

/// What decode_multi returns: the shared byte count and one carry per
/// pattern, in fleet order.
struct MultiImage {
  std::uint64_t consumed = 0;
  std::vector<FindCarry> carries;
};

/// Validates and decodes an encode_multi blob; `expected_patterns` is the
/// resuming fleet's size (a blob with a different carry count rejects).
/// Error taxonomy identical to decode_stream. Fault site
/// "checkpoint.decode".
MultiImage decode_multi(std::string_view blob, std::size_t expected_patterns,
                        const QueryOptions& options, std::uint64_t fingerprint);

}  // namespace rispar::checkpoint
