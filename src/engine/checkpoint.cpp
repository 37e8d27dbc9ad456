#include "engine/checkpoint.hpp"

#include <cstddef>
#include <optional>
#include <string>

#include "bundle/format.hpp"
#include "util/fault_inject.hpp"
#include "util/governance.hpp"
#include "util/little_endian.hpp"

namespace rispar::checkpoint {
namespace {

constexpr std::size_t kHeaderBytes = 20;  // magic + version + 4 flags + fingerprint
constexpr std::size_t kTrailerBytes = 8;  // checksum64

[[noreturn]] void reject(const std::string& what) {
  throw ValidationError("checkpoint: " + what);
}

using le::put_u32;
using le::put_u64;
using le::put_u8;

template <typename U>
U get(std::string_view image, std::size_t& pos) {
  const std::optional<U> value = le::load<U>(image, pos);
  if (!value) reject("truncated blob");
  return *value;
}

std::uint8_t get_u8(std::string_view image, std::size_t& pos) {
  return get<std::uint8_t>(image, pos);
}
std::uint32_t get_u32(std::string_view image, std::size_t& pos) {
  return get<std::uint32_t>(image, pos);
}
std::uint64_t get_u64(std::string_view image, std::size_t& pos) {
  return get<std::uint64_t>(image, pos);
}

bool get_flag(std::string_view image, std::size_t& pos, const char* name) {
  const std::uint8_t raw = get_u8(image, pos);
  if (raw > 1) reject(std::string("malformed ") + name + " flag");
  return raw != 0;
}

[[noreturn]] void malformed_carry(const char* what) {
  reject(std::string("malformed find carry — ") + what);
}

/// Appends the find-carry image of `carry` (layout in checkpoint.hpp): its
/// semantic state only — searcher state, flags, the absolute counters and
/// the kExact history tail.
void encode_find_carry(const FindCarry& carry, std::string& out) {
  put_u32(out, static_cast<std::uint32_t>(carry.state));
  put_u8(out, carry.at_start ? 1 : 0);
  put_u8(out, carry.died ? 1 : 0);
  put_u64(out, carry.consumed);
  put_u64(out, carry.last_sep);
  put_u64(out, carry.matches);
  put_u64(out, carry.transitions);
  put_u64(out, carry.history_base);
  put_u64(out, carry.history.size());
  for (const Symbol symbol : carry.history)
    put_u32(out, static_cast<std::uint32_t>(symbol));
}

/// Decodes a find-carry image starting at `pos`, advancing `pos` past it.
/// Fields violating the carry invariants (history covers exactly
/// [history_base, consumed) when retained — and, for a live kExact carry
/// (`exact`), always, since its begins resolve over that tail; last_sep <=
/// consumed; a fresh carry has nothing consumed) throw ValidationError — a
/// forged image surfaces as a typed error, never as an inconsistent session.
FindCarry decode_find_carry(std::string_view image, std::size_t& pos, bool exact) {
  FindCarry carry;
  carry.state = static_cast<State>(get_u32(image, pos));
  const std::uint8_t at_start = get_u8(image, pos);
  const std::uint8_t died = get_u8(image, pos);
  if (at_start > 1 || died > 1) malformed_carry("flag byte is not 0/1");
  carry.at_start = at_start != 0;
  carry.died = died != 0;
  carry.consumed = get_u64(image, pos);
  carry.last_sep = get_u64(image, pos);
  carry.matches = get_u64(image, pos);
  carry.transitions = get_u64(image, pos);
  carry.history_base = get_u64(image, pos);
  const std::uint64_t history_size = get_u64(image, pos);
  // The length is validated against the REMAINING image before any
  // allocation — a forged length cannot reserve gigabytes off a short blob.
  if (history_size > (image.size() - pos) / 4) malformed_carry("truncated history");
  if (carry.state < kDeadState) malformed_carry("state below the dead sentinel");
  if (carry.last_sep > carry.consumed) malformed_carry("last_sep past consumed");
  if (carry.history_base > carry.consumed) malformed_carry("history_base past consumed");
  if (carry.at_start && (carry.consumed != 0 || carry.died || history_size != 0))
    malformed_carry("fresh carry with consumed input");
  // The tail invariant: when retained, history covers [history_base,
  // consumed) exactly (stream_find_feed maintains it every feed); a live
  // kExact carry always retains it, even when the tail is empty.
  if ((history_size != 0 || (exact && !carry.died)) &&
      carry.history_base + history_size != carry.consumed)
    malformed_carry("history does not cover [history_base, consumed)");
  carry.history.reserve(history_size);
  for (std::uint64_t i = 0; i < history_size; ++i)
    carry.history.push_back(static_cast<Symbol>(get_u32(image, pos)));
  return carry;
}

/// A DFA's full resume-relevant content: shape, initial state, the
/// final-state bitmap, the transition table and the byte→symbol map.
/// Shapes alone cannot tell `a` from `b` (identical minimal automata up to
/// the byte classes), so the fingerprint hashes the content — still
/// memory-speed via checksum64.
void append_dfa_content(std::string& buf, const Dfa& dfa) {
  put_u32(buf, static_cast<std::uint32_t>(dfa.num_states()));
  put_u32(buf, static_cast<std::uint32_t>(dfa.num_symbols()));
  put_u32(buf, static_cast<std::uint32_t>(dfa.initial()));
  std::uint8_t bits = 0;
  for (State state = 0; state < dfa.num_states(); ++state) {
    if (dfa.is_final(state)) bits |= static_cast<std::uint8_t>(1u << (state & 7));
    if ((state & 7) == 7) {
      put_u8(buf, bits);
      bits = 0;
    }
  }
  if (dfa.num_states() & 7) put_u8(buf, bits);
  for (const State target : dfa.table()) put_u32(buf, static_cast<std::uint32_t>(target));
  for (const std::int32_t symbol : dfa.symbols().raw_table())
    put_u32(buf, static_cast<std::uint32_t>(symbol));
}

void append_header(std::string& out, Kind kind, std::uint8_t variant,
                   const QueryOptions& options, std::uint64_t fingerprint) {
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(kind));
  put_u8(out, variant);
  put_u8(out, options.positions ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(options.begin_mode));
  put_u64(out, fingerprint);
}

void seal(std::string& out) { put_u64(out, bundle::checksum64(out.data(), out.size())); }

struct Envelope {
  Kind kind;
  std::uint8_t variant = 0;
  bool positions = false;
  BeginMode begin_mode = BeginMode::kSeparator;
  std::uint64_t fingerprint = 0;
  std::string_view body;  ///< between the header and the checksum trailer
};

/// Integrity first, meaning second: length, magic, version, then the
/// whole-blob checksum — only after those pass are the header fields
/// interpreted. A truncation or byte flip anywhere therefore reaches at
/// most the checksum comparison, never a field-driven allocation.
Envelope open_envelope(std::string_view blob) {
  if (blob.size() < kHeaderBytes + kTrailerBytes) reject("truncated blob");
  std::size_t pos = 0;
  if (get_u32(blob, pos) != kMagic) reject("bad magic (not a session checkpoint)");
  if (const std::uint32_t version = get_u32(blob, pos); version != kVersion)
    reject("unsupported version " + std::to_string(version));
  std::size_t trailer_pos = blob.size() - kTrailerBytes;
  const std::uint64_t stored = get_u64(blob, trailer_pos);
  if (bundle::checksum64(blob.data(), blob.size() - kTrailerBytes) != stored)
    reject("checksum mismatch (corrupted or truncated blob)");

  Envelope env;
  const std::uint8_t kind = get_u8(blob, pos);
  if (kind != static_cast<std::uint8_t>(Kind::kSingleStream) &&
      kind != static_cast<std::uint8_t>(Kind::kMultiStream))
    reject("unknown kind " + std::to_string(kind));
  env.kind = static_cast<Kind>(kind);
  env.variant = get_u8(blob, pos);
  env.positions = get_flag(blob, pos, "positions");
  const std::uint8_t mode = get_u8(blob, pos);
  if (mode > static_cast<std::uint8_t>(BeginMode::kExact)) reject("malformed begin mode");
  env.begin_mode = static_cast<BeginMode>(mode);
  env.fingerprint = get_u64(blob, pos);
  env.body = blob.substr(kHeaderBytes, blob.size() - kHeaderBytes - kTrailerBytes);
  return env;
}

/// The option/identity cross-checks shared by both decoders. The blob is
/// internally consistent by now (checksum passed); what remains is whether
/// it belongs to THIS pattern and THIS session shape.
void match_session(const Envelope& env, Kind kind, const QueryOptions& options,
                   std::uint64_t fingerprint) {
  if (env.kind != kind)
    reject(kind == Kind::kSingleStream
               ? "multi-pattern blob offered to a single-pattern resume"
               : "single-pattern blob offered to a multi-pattern resume");
  if (env.fingerprint != fingerprint)
    reject("pattern fingerprint mismatch (checkpoint was taken against a "
           "different pattern or fleet)");
  if (env.positions != options.positions)
    reject(env.positions ? "blob carries a find side but positions=false was requested"
                         : "positions=true requested but the blob has no find side");
  if (env.begin_mode != options.begin_mode)
    reject(std::string("begin-mode mismatch (blob ") + begin_mode_name(env.begin_mode) +
           ", resume requested " + begin_mode_name(options.begin_mode) + ")");
}

}  // namespace

std::uint64_t pattern_fingerprint(const Pattern& pattern) {
  // The minimal DFA is canonical for the language and its byte classes, so
  // its content identifies the pattern across processes without forcing
  // the lazy searcher build (decision-only sessions checkpoint too).
  std::string buf;
  append_dfa_content(buf, pattern.min_dfa());
  return bundle::checksum64(buf.data(), buf.size());
}

std::uint64_t fleet_fingerprint(std::span<const Pattern> patterns) {
  std::string buf;
  put_u64(buf, patterns.size());
  for (const Pattern& pattern : patterns) put_u64(buf, pattern_fingerprint(pattern));
  return bundle::checksum64(buf.data(), buf.size());
}

std::string encode_stream(const StreamCarry& carry, Variant variant,
                          const QueryOptions& options, std::uint64_t fingerprint) {
  fault::maybe_throw("checkpoint.encode");
  std::string out;
  append_header(out, Kind::kSingleStream, static_cast<std::uint8_t>(variant), options,
                fingerprint);
  put_u8(out, carry.at_start ? 1 : 0);
  put_u64(out, carry.transitions);
  put_u64(out, carry.windows);
  put_u32(out, static_cast<std::uint32_t>(carry.states.size()));
  for (const State state : carry.states) put_u32(out, static_cast<std::uint32_t>(state));
  encode_find_carry(carry.find, out);
  seal(out);
  return out;
}

StreamCarry decode_stream(std::string_view blob, Variant variant,
                          const QueryOptions& options, std::uint64_t fingerprint) {
  fault::maybe_throw("checkpoint.decode");
  const Envelope env = open_envelope(blob);
  match_session(env, Kind::kSingleStream, options, fingerprint);
  if (env.variant != static_cast<std::uint8_t>(variant))
    reject(env.variant > static_cast<std::uint8_t>(Variant::kSfa)
               ? "malformed variant"
               : std::string("variant mismatch (blob ") +
                     variant_name(static_cast<Variant>(env.variant)) +
                     ", resume requested " +
                     variant_name(variant) + ") — decision states do not transfer");

  StreamCarry carry;
  std::size_t pos = 0;
  carry.at_start = get_flag(env.body, pos, "at_start");
  carry.transitions = get_u64(env.body, pos);
  carry.windows = get_u64(env.body, pos);
  const std::uint32_t nstates = get_u32(env.body, pos);
  if (nstates > (env.body.size() - pos) / 4) reject("truncated decision state list");
  carry.states.reserve(nstates);
  for (std::uint32_t i = 0; i < nstates; ++i) {
    const State state = static_cast<State>(get_u32(env.body, pos));
    if (state < 0) reject("decision state out of range");
    carry.states.push_back(state);
  }
  if (carry.at_start && (!carry.states.empty() || carry.windows != 0))
    reject("at_start carry with fed windows");
  carry.find =
      decode_find_carry(env.body, pos, options.begin_mode == BeginMode::kExact);
  if (pos != env.body.size()) reject("trailing bytes after carry image");
  return carry;
}

std::string encode_multi(const std::vector<const FindCarry*>& carries,
                         std::uint64_t consumed, const QueryOptions& options,
                         std::uint64_t fingerprint) {
  fault::maybe_throw("checkpoint.encode");
  std::string out;
  append_header(out, Kind::kMultiStream, /*variant=*/0, options, fingerprint);
  put_u64(out, consumed);
  put_u32(out, static_cast<std::uint32_t>(carries.size()));
  for (const FindCarry* carry : carries) encode_find_carry(*carry, out);
  seal(out);
  return out;
}

MultiImage decode_multi(std::string_view blob, std::size_t expected_patterns,
                        const QueryOptions& options, std::uint64_t fingerprint) {
  fault::maybe_throw("checkpoint.decode");
  const Envelope env = open_envelope(blob);
  match_session(env, Kind::kMultiStream, options, fingerprint);
  if (env.variant != 0) reject("malformed variant (multi-pattern blobs carry none)");

  MultiImage image;
  std::size_t pos = 0;
  image.consumed = get_u64(env.body, pos);
  const std::uint32_t npatterns = get_u32(env.body, pos);
  if (npatterns != expected_patterns)
    reject("fleet size mismatch (blob has " + std::to_string(npatterns) +
           " carries, resuming fleet has " + std::to_string(expected_patterns) + ")");
  image.carries.reserve(npatterns);
  for (std::uint32_t i = 0; i < npatterns; ++i) {
    FindCarry carry =
        decode_find_carry(env.body, pos, options.begin_mode == BeginMode::kExact);
    // Every pattern of a merged session is fed the same windows, so each
    // carry's byte count must equal the session's.
    if (carry.consumed != image.consumed)
      reject("carry byte count disagrees with the session's");
    image.carries.push_back(std::move(carry));
  }
  if (pos != env.body.size()) reject("trailing bytes after carry images");
  return image;
}

}  // namespace rispar::checkpoint
