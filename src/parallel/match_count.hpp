// Parallel occurrence counting — the paper's motivating applications
// (pattern matching in books, biological data, log files) usually want
// "how many matches", not just yes/no.
//
// Build the DFA of Σ*p (Engine::count derives it from any Pattern): a
// prefix x[0..j] ends an occurrence of p iff the DFA is in a final state
// after j. Finding those positions parallelizes with the same speculative
// scheme as recognition: the reach runs each chunk from the few states its
// boundary allows (the first chunk only from the initial state, or a
// stream's carried state; later chunks from the survivors of a lookback
// probe over the symbols before the boundary — chunk_starts), and the join
// walks the single consistent path. A Σ*p searcher forgets its past within
// a pattern's length on most texts, so the probe usually leaves ONE start
// and the chunk runs as a plain serial scan. Correct for any
// *total-on-the-text* DFA; if the true run dies, the hits up to the death
// point are returned and `died` is set. Transition accounting (probe steps
// included) follows the convention of parallel/ca_run.hpp.
//
// One reach serves every query shape — one-shot find, streaming find, and
// counting — and its chunk runs are the hit stores of the one chunk core
// that also runs recognition (parallel/chunk_core.hpp: one start → a serial
// scan; several → a lockstep that hands its last live run to that scan).
// Each chunk run records, per hit, the chunk-local end position and the
// run's *last separator* (the last position at which its state was the
// searcher's initial state again, i.e. no partial occurrence pending).
//
// ## The join: one walk, then the emit
//
// The join is two passes, shared by every shape. The WALK (serial,
// O(chunks + chain nodes)) looks the boundary state up in each chunk's
// starts, follows the consistent start's chain through the merge forest,
// and records per chunk the chain's first node, the separator carried into
// the chunk and the chain's hit count; it advances the carried state,
// separator and death exactly as one serial scan would. Counting is the
// walk alone, over a hit COUNTER in place of the hit list, so no position
// is ever stored and count_matches equals find_matches' totals, death and
// transitions under the same options. One-shot find sums the counts
// before emitting: `matches` is their total, QueryOptions::offset/limit
// become the range [lo, hi) of global hit ordinals, and `positions` is
// reserved once for hi − lo. The EMIT then has each chunk overlapping [lo, hi) re-walk its
// chain, resolve separators that predate the chunk (or a convergence
// merge) through the chain's own trackers and the carried separator, and
// append WHERE the occurrences are (Match — semantics documented on the
// struct in engine/query.hpp), resolving exact begins as it goes; chunks
// before the page are skipped by their counts, unread. The emit runs on the
// caller, after the reach batch: a query admitted to the pool submits no
// second batch. Streaming find runs the same walk and the same per-chunk
// emitter in window order straight into its sink.
//
// Counting takes `chunks` and `convergence` of the unified QueryOptions and
// always runs the default (fused) kernel; knobs it cannot honor (lookback,
// a kernel choice) raise QueryError. Finding honors the full
// kernel vocabulary: `convergence` shares hits through the merge tree —
// runs that land in the same state at the same position execute as one
// from the merge point on, with the consistent start's hits reconstructed
// lazily at join time — and `kernel` selects the core's lockstep step:
// the packed column (kFused, the default serving path), the vector gather
// from 8 starts (kSimd — AVX2 or the portable unrolled fallback,
// runtime-picked; see util/simd_gather.hpp), or a plain row-table stepping
// loop with no one-start scan (kReference) — with find_matches_serial as
// the one-scan oracle above all three (property-tested equal across every
// combination).
//
// ## Two input sources
//
// count_matches, find_matches and chunk_starts take the text either as
// symbols already translated with the searcher's map (std::span<const
// Symbol>: tests, benches, callers that translate once) or as raw bytes
// with that map (ByteSpan: Engine::count/find/find_all and the one-shot
// PatternSet find). The byte input never builds a symbol vector: the chunk
// core's packed steps — the one-start scan, the fused and SIMD lockstep,
// and so the lookback probe of chunk_starts — step `state =
// column[byte][state]` through a per-call 256-entry byte → column table
// (parallel/kernel_input.hpp), so translation runs inside the chunk's pool
// task. kReference translates its
// own chunk there and steps the symbols; exact begins map each byte
// through the same map (the reverse DFA consumes searcher symbols). An
// alien byte reads the packed table's dead column: every run dies at it
// uncounted, exactly like an alien symbol, so both inputs give the same
// matches, begins, `died` and transitions (tests/test_byte_input.cpp). The
// searcher's map covers all 256 bytes, so on its own searcher no byte is
// alien. Streaming find (stream_find_feed) takes either input the same
// way: StreamSession and MultiStreamSession feed raw window bytes, so no
// streaming window is translated as a whole — under BeginMode::kExact only
// the part of the window the carried history retains is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "automata/dfa.hpp"
#include "automata/searcher.hpp"
#include "engine/query.hpp"
#include "parallel/thread_pool.hpp"

namespace rispar {

/// The first lookback window of chunk_starts, in symbols; each next window
/// is four times longer.
inline constexpr std::size_t kFirstLookback = 16;

/// The start states of the chunk that begins at `boundary` of `input` and
/// is `chunk_length` symbols long, sorted and distinct: the states every
/// searcher state reaches over the `window` symbols just before the
/// boundary, for window = kFirstLookback, ×4, … — stopping at the first
/// window that leaves one survivor, or before a window longer than a
/// quarter of the chunk, or before a window whose probe (on top of those
/// already run) would cost more steps than running the chunk from the
/// current survivors saves over running it from all |Q| states — then the
/// last window's survivors, or every state when none was probed. So a
/// chunk never costs more than chunk_length·|Q| + kFirstLookback·|Q| steps,
/// even when the runs never collapse. A window that reaches the input start runs from
/// `first_state` alone and yields the exact boundary state (so boundary 0
/// yields {first_state}). Sound: the consistent run's state at the
/// boundary is the image of SOME state over the window, so it is always
/// among the starts — unless that run died before the boundary, which is
/// why a dead transition drops a run and an alien symbol empties the set.
/// With `convergence` runs landing in one state merge on every symbol;
/// without it they run independently and fold at the end. Every executed
/// probe step is added to `transitions`; `gov` is polled inside the probe.
std::vector<State> chunk_starts(const Dfa& dfa, std::span<const Symbol> input,
                                std::size_t boundary, std::size_t chunk_length,
                                State first_state, bool convergence,
                                std::uint64_t& transitions,
                                const QueryGovernor* gov = nullptr);
/// The same over raw bytes classed by `input.map`.
std::vector<State> chunk_starts(const Dfa& dfa, const ByteSpan& input,
                                std::size_t boundary, std::size_t chunk_length,
                                State first_state, bool convergence,
                                std::uint64_t& transitions,
                                const QueryGovernor* gov = nullptr);

/// What counting honors of the unified options, and the validate_query
/// context naming it — shared with Engine::count so it can reject a bad
/// query up front, before the searcher build.
inline constexpr DeviceCaps kCountingCaps{.convergence = true};
inline constexpr const char* kCountingContext =
    "count (the finding kernel without positions; it honors chunks and "
    "convergence)";

/// Serial reference: one scan, counting final-state positions. The empty
/// prefix is not counted (an occurrence needs at least the position after
/// its last byte), matching the parallel version. Fills matches/died/
/// transitions/chunks of the unified result; accepted = matches > 0.
QueryResult count_matches_serial(const Dfa& dfa, std::span<const Symbol> input);

/// Parallel counting over options.chunks chunks on the pool; equals the
/// serial count on every input, with convergence on or off
/// (property-tested). Throws QueryError for knobs counting cannot honor.
/// `governor` overrides the one built from options.deadline/cancel (a
/// streaming device passes its per-feed governor so the whole feed shares
/// one clock); null = build from the options.
QueryResult count_matches(const Dfa& dfa, std::span<const Symbol> input,
                          ThreadPool& pool, const QueryOptions& options,
                          const QueryGovernor* governor = nullptr);
/// The same over raw bytes classed by `input.map` (the searcher's own map,
/// dfa.symbols(), for a Σ*p searcher).
QueryResult count_matches(const Dfa& dfa, const ByteSpan& input, ThreadPool& pool,
                          const QueryOptions& options,
                          const QueryGovernor* governor = nullptr);

/// What finding honors of the unified options (chunks, convergence, kernel,
/// offset/limit paging) — shared with Engine::find / PatternSet so they can
/// reject a bad query before the searcher build.
inline constexpr DeviceCaps kFindingCaps{.convergence = true,
                                         .kernel_select = true,
                                         .paging = true,
                                         .positions = true,
                                         .exact_begins = true};
inline constexpr const char* kFindingContext =
    "find (the position-emitting counting kernel; it honors chunks, "
    "convergence, kernel, begin_mode and offset/limit)";

/// Serial reference oracle for finding: one scan of `input` emitting a
/// Match per final-state position (begin = the scan's last separator; see
/// engine/query.hpp). With `exact_reverse` (the pattern's ReverseBegins
/// DFA), every hit's begin is instead pinned by a backward reverse-DFA scan
/// to the leftmost exact start — the BeginMode::kExact oracle. Fills
/// positions/matches/died/transitions/chunks; accepted = matches > 0. No
/// paging — the full list, for the property tests.
QueryResult find_matches_serial(const Dfa& dfa, std::span<const Symbol> input,
                                std::uint32_t pattern_id = 0,
                                const Dfa* exact_reverse = nullptr);

/// Parallel position finding over options.chunks chunks on the pool; the
/// positions equal the serial oracle's on every input for every
/// (convergence, kernel) combination (property-tested), then windowed by
/// options.offset/limit (`matches` still counts all). Throws QueryError for
/// knobs finding cannot honor. Every emitted Match carries `pattern_id`.
/// Under options.begin_mode == BeginMode::kExact, `reverse` (the pattern's
/// cached artifact) is REQUIRED — each joined hit's begin is resolved by a
/// backward scan from its end (floored at the approximate begin when the
/// artifact certifies separators sound, at the text start otherwise).
QueryResult find_matches(const Dfa& dfa, std::span<const Symbol> input,
                         ThreadPool& pool, const QueryOptions& options,
                         std::uint32_t pattern_id = 0,
                         const QueryGovernor* governor = nullptr,
                         const ReverseBegins* reverse = nullptr);
/// The same over raw bytes classed by `input.map` (dfa.symbols() for a Σ*p
/// searcher).
QueryResult find_matches(const Dfa& dfa, const ByteSpan& input, ThreadPool& pool,
                         const QueryOptions& options, std::uint32_t pattern_id = 0,
                         const QueryGovernor* governor = nullptr,
                         const ReverseBegins* reverse = nullptr);

/// The find side of a streaming session's carry. The Σ*p searcher is
/// deterministic, so between windows only one state plus absolute-offset
/// bookkeeping survives — the streaming analogue of the (end, last-
/// separator) tracking the one-shot join carries across chunks. `last_sep`
/// is the absolute position of the searcher's last separator (see Match in
/// engine/query.hpp); a hit whose chunk-local separator predates its window
/// resolves through it, which is how cross-window begins stay exact.
struct FindCarry {
  State state = kDeadState;    ///< searcher state after the consumed prefix
  bool at_start = true;        ///< nothing fed yet
  bool died = false;           ///< the searcher run left the automaton
  std::uint64_t consumed = 0;  ///< absolute bytes consumed so far
  std::uint64_t last_sep = 0;  ///< absolute last-separator position
  std::uint64_t matches = 0;   ///< total occurrences emitted so far
  std::uint64_t transitions = 0;
  /// BeginMode::kExact only: retained window symbols (searcher symbols,
  /// whichever input fed them) the backward reverse-DFA scan resolves
  /// cross-window begins over. `history_base` is the absolute position of
  /// history[0]; the retained tail always covers [history_base, consumed).
  /// During a feed, begins resolve over this tail followed by the incoming
  /// window read in place; after the join only what is kept is appended.
  /// When the reverse artifact certifies separators sound, that is
  /// [max(post-join last separator, history_base), consumed) — a match can
  /// never start before the separator; otherwise the session retains from
  /// the stream start — the price of exactness on patterns whose
  /// separators are unsound (docs/api.md, "Begin modes"). Untouched
  /// (empty) under kSeparator.
  std::vector<Symbol> history;
  std::uint64_t history_base = 0;
};

/// What streaming find honors (chunks, convergence, kernel — no paging: an
/// unbounded stream has no total to page against, so offset/limit REJECT),
/// and the validate_query context naming it.
inline constexpr DeviceCaps kStreamFindingCaps{.convergence = true,
                                               .kernel_select = true,
                                               .positions = true,
                                               .exact_begins = true};
inline constexpr const char* kStreamFindingContext =
    "streaming find (the window-fed position-emitting kernel; it honors "
    "chunks, convergence, kernel and begin_mode)";

/// Consumes one window of a streamed input on the Σ*p searcher `dfa`,
/// updating `carry` in place and emitting every occurrence ending inside
/// the window through `sink` with ABSOLUTE offsets (begin may predate the
/// window — the carried separator). Windows of any size: large windows fan
/// out over options.chunks finding-kernel runs (the window's first chunk
/// continues from the carried state, later chunks from their chunk_starts
/// within the window), with the join serialized per window. Feeding a text in
/// any segmentation emits exactly the one-shot find_matches/serial-oracle
/// list (property- and fuzz-tested). Empty windows are no-ops.
/// Under options.begin_mode == BeginMode::kExact, `reverse` is REQUIRED and
/// the carry retains window history (FindCarry::history) so begins crossing
/// feed boundaries resolve exactly — segmentation-invariant like the rest
/// of the carry.
/// A feed that throws (the governor, the sink, an allocation, the history
/// cap) leaves `carry` as it was before the call, so the same window can be
/// fed again; matches the sink already took are emitted again then.
void stream_find_feed(const Dfa& dfa, FindCarry& carry, std::span<const Symbol> window,
                      ThreadPool& pool, const QueryOptions& options,
                      const MatchSink& sink, std::uint32_t pattern_id = 0,
                      const QueryGovernor* governor = nullptr,
                      const ReverseBegins* reverse = nullptr);
/// The same over raw window bytes classed by `window.map` (dfa.symbols()
/// for a Σ*p searcher): the chunk kernels and the exact-begin scan read the
/// bytes in place. Matches, begins and the carry — history included — are
/// identical to feeding the translated window (tests/test_stream_bytes.cpp),
/// so checkpoints taken either way are interchangeable.
void stream_find_feed(const Dfa& dfa, FindCarry& carry, const ByteSpan& window,
                      ThreadPool& pool, const QueryOptions& options,
                      const MatchSink& sink, std::uint32_t pattern_id = 0,
                      const QueryGovernor* governor = nullptr,
                      const ReverseBegins* reverse = nullptr);

}  // namespace rispar
