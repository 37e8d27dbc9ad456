// The one options/result surface of the public query API.
//
// Every query shape (recognize / count / stream / match_all) and every
// speculative device speaks the same vocabulary:
//
//  * Variant   — which chunk automaton answers the query (the paper's three
//    schemes plus the speculation-free SFA comparator [25]);
//  * QueryOptions — the single knob struct. A device that cannot honor a
//    requested knob REJECTS the query with QueryError instead of silently
//    ignoring it — capabilities() says up front what each device honors;
//  * QueryResult — the unified structured result (decision, occurrence
//    count, transition accounting, per-phase wall times).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/ca_run.hpp"
#include "util/governance.hpp"

namespace rispar {

enum class Variant {
  kDfa,  ///< classic CSDPA over the minimal DFA
  kNfa,  ///< classic CSDPA over the NFA
  kRid,  ///< the paper's RID over the interface-minimized RI-DFA
  kSfa,  ///< speculation-free SFA comparator (paper Sect. 1, [25])
};

const char* variant_name(Variant variant);

// The query failure taxonomy (QueryError and its subclasses ValidationError,
// DeadlineExceeded, QueryCancelled, ResourceExhausted — plus CancelSource/
// CancelToken and the QueryGovernor checkpoints) lives in
// util/governance.hpp, re-exported here: the chunk kernels sit below this
// header and throw the same types.

/// What a device can honor. Anything requested beyond this set raises
/// QueryError during validation — never a silent ignore.
struct DeviceCaps {
  bool convergence = false;    ///< run-convergence in the chunk kernels
  bool kernel_select = false;  ///< fused/reference kernel choice
  bool lookback = false;       ///< look-back start pruning (Sect. 5 / [28])
  bool paging = false;         ///< offset/limit on the positions payload
  bool positions = false;      ///< Match emission (find payloads, streaming find)
  bool exact_begins = false;   ///< BeginMode::kExact (reverse-DFA confirmation)
};

/// What Match::begin means (find/find_all/streaming find only — other query
/// shapes reject a non-default mode via DeviceCaps::exact_begins).
enum class BeginMode {
  /// The fast default: `begin` is the searcher's last separator before the
  /// hit — a documented over-approximation when partial occurrences chain
  /// (see Match). No extra pass, no extra carry.
  kSeparator,
  /// Leftmost-exact: after the forward find pins `end`, a reversed minimal
  /// DFA of the pattern (Pattern::reverse_begins) is run backwards from
  /// `end` and `begin` becomes the smallest b with text[b..end) in L(p).
  /// Costs one backward scan per match; streaming sessions retain enough
  /// window history to resolve begins that cross feed boundaries.
  kExact,
};

const char* begin_mode_name(BeginMode mode);

/// One positioned occurrence, the unit of Engine::find_all and
/// PatternSet::find_all. Offsets are byte offsets into the queried text
/// (the Σ*p searcher maps one byte to one symbol), `end` exclusive: the
/// occurrence's last byte is text[end - 1].
///
/// What `begin` means is selected by QueryOptions::begin_mode. Under the
/// default BeginMode::kSeparator it is the searcher's *last separator*
/// before the hit — the last position at which the scan held no live
/// partial occurrence (its state's residual language was again the full
/// Σ*p); when partial occurrences chain (e.g. "aab" for pattern "ab"),
/// `begin` then points at the leftmost still-pending candidate start
/// rather than the exact match start. Under BeginMode::kExact a reverse-
/// DFA confirmation pass pins `begin` to the true leftmost start: the
/// smallest b such that text[b..end) matches the pattern. In both modes
/// one Match is emitted per match-ending position — find_all(text).size()
/// equals count(text).matches (overlaps counted).
struct Match {
  std::uint32_t pattern_id = 0;  ///< 0 for Engine; the pattern's index in a PatternSet
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  bool operator==(const Match&) const = default;
};

/// Consumer of incrementally emitted matches (streaming find): invoked once
/// per occurrence, in ascending (end, begin) order, from the feeding thread.
/// Sinks let a caller drain an unbounded stream's matches without the
/// session accumulating them (StreamSession::feed(window, sink)).
using MatchSink = std::function<void(const Match&)>;

struct QueryOptions {
  /// Which chunk automaton runs the query (ignored by count(), which has
  /// exactly one deterministic counting device — see engine.hpp).
  Variant variant = Variant::kRid;
  /// Requested chunk count c; clamped to the input length. c <= 1 means
  /// serial execution (single chunk, no speculation).
  std::size_t chunks = 1;
  /// Run-convergence optimization in the deterministic kernels (ablation).
  bool convergence = false;
  /// Deterministic-kernel implementation (fused default; reference oracle).
  DetKernel kernel = DetKernel::kFused;
  /// Look-back state speculation (paper Sect. 5, Yang & Prasanna [28]
  /// flavour), DFA device only: before the speculative runs of chunk i>=2,
  /// all starts are advanced over the `lookback` symbols preceding the
  /// chunk boundary; only the (deduplicated) survivors start real runs.
  /// Sound because the true boundary state is the image of *some* state
  /// over that window. 0 disables. The knob stays DFA-device only: find,
  /// count and streaming find do their own internal lookback
  /// (parallel/match_count.hpp, chunk_starts) and reject it.
  std::size_t lookback = 0;
  /// Paging of the positions payload (find/find_all only — other query
  /// shapes REJECT a non-default offset/limit): skip the first `offset`
  /// matches and materialize at most `limit` of the rest. QueryResult's
  /// `matches` still reports the TOTAL occurrence count, so a server can
  /// return one page plus the overall total from a single scan.
  std::size_t offset = 0;
  std::size_t limit = kNoLimit;
  /// Ask for Match emission. find/find_all always emit positions (the knob
  /// is implied); on Engine::stream it turns the session into a streaming
  /// find: every feed also advances the Σ*p searcher and emits positioned
  /// matches with absolute byte offsets (drain with take_matches() or a
  /// MatchSink). Query shapes without position support REJECT the knob via
  /// DeviceCaps (recognize/count/match_all).
  bool positions = false;
  /// What Match::begin reports (see BeginMode). Only position-emitting
  /// query shapes with DeviceCaps::exact_begins honor kExact; everything
  /// else REJECTS it during validation.
  BeginMode begin_mode = BeginMode::kSeparator;
  /// Streaming find under begin_mode=kExact only: byte cap on the retained
  /// history tail (FindCarry::history — one retained byte per stream byte).
  /// Patterns whose separator-purity certificate fails retain history from
  /// the stream start, i.e. unbounded on adversarial input; this cap bounds
  /// the PEAK retention (carried tail + incoming window) instead. A feed
  /// that would exceed it throws ResourceExhausted{"exact-begin history",
  /// limit, observed} BEFORE consuming the window, and the session poisons
  /// (StreamSession semantics — reset() reuses it). 0 = unlimited; other
  /// query shapes ignore the knob (one-shot find retains nothing).
  std::uint64_t max_history_bytes = 0;
  /// Wall-clock budget for the query, 0 = none. Checked cooperatively at
  /// chunk boundaries and every kGovernorStride symbols inside the kernels
  /// (see util/governance.hpp); a trip throws DeadlineExceeded. Every query
  /// shape honors it (no DeviceCaps gate — the chunk-boundary poll is the
  /// universal floor). One-shot shapes budget the whole call; on a
  /// StreamSession the budget applies PER FEED; match_all/PatternSet apply
  /// it per task (per text / per (text, pattern) scan).
  std::chrono::nanoseconds deadline{0};
  /// Shareable cancellation flag (from CancelSource::token()); a tripped
  /// token throws QueryCancelled at the next checkpoint. Default token =
  /// never cancelled. Honored everywhere, like `deadline`.
  CancelToken cancel{};

  static constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();
};

/// The unified result of every query shape. recognize/stream fill the
/// decision and overhead metrics; count() additionally fills `matches` and
/// `died` (and sets accepted = matches > 0); find() fills all of those plus
/// the `positions` payload.
struct QueryResult {
  bool accepted = false;
  std::uint64_t transitions = 0;  ///< total over all chunks (reach phase)
  std::uint64_t chunks = 0;       ///< actual chunk count after clamping
  double reach_seconds = 0.0;
  double join_seconds = 0.0;
  std::uint64_t matches = 0;  ///< count()/find(): prefixes ending an occurrence
  bool died = false;          ///< count()/find(): the true run left the automaton
  /// find()/find_all(): the positioned matches, ascending by (end, begin,
  /// pattern_id), windowed by QueryOptions::offset/limit. `matches` counts
  /// ALL occurrences even when paging trims this payload. Empty for every
  /// other query shape.
  std::vector<Match> positions;

  double total_seconds() const { return reach_seconds + join_seconds; }
};

/// Throws ValidationError naming the offending knob when `options` requests
/// anything outside `caps`. `context` names who is validating, e.g.
/// "the DFA device (recognize)" or "count (the deterministic counting
/// kernel)" — it leads the error message.
void validate_query(const QueryOptions& options, const DeviceCaps& caps,
                    const std::string& context);

/// The standard validate_query context of a device-backed query shape:
/// "the DFA device (recognize)".
std::string device_context(const char* what, Variant variant);

}  // namespace rispar
