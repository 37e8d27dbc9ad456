// The polymorphic device interface of the query API.
//
// A Device is one speculative recognition scheme over one compiled
// language: the classic CSDPA over the minimal DFA or the NFA, the paper's
// RID over the RI-DFA, or the speculation-free SFA comparator. The concrete
// devices live in parallel/csdpa.hpp; Engine (engine/engine.hpp) holds one
// of each behind this base.
//
// Each device writes its reach and join once, as a WINDOW: the chunks of
// one input reached in parallel from a carried PLAS (the states the runs
// may be in at the window's start), then joined into the next carry. The
// two query shapes are front ends over that one body:
//
//  * recognize()   — one-shot recognition of a whole input, as symbols or
//    as raw bytes (ByteSpan): one window from a fresh carry;
//  * stream_feed() — one window of an unbounded input, carrying only the
//    device-specific PLAS across windows (feeding a text in any
//    segmentation yields the one-shot decision, property-tested). The byte
//    overload can also advance the carry's find side over the Σ*p searcher
//    and emit every occurrence ending in the window with absolute byte
//    offsets — the streaming-find discipline (Hyperscan-style), equal to
//    the one-shot find_all under any window segmentation (fuzz-tested).
//
// capabilities() declares which QueryOptions knobs the device honors;
// validate_query() rejects anything beyond that set.
#pragma once

#include <span>
#include <vector>

#include "automata/nfa.hpp"
#include "engine/query.hpp"
#include "parallel/match_count.hpp"

namespace rispar {

class ThreadPool;

/// The state a StreamSession carries between windows. `states` is
/// device-specific: DFA/RI-DFA states of the surviving runs (PLAS), NFA
/// frontier states, or the single composed chunk-automaton state of the
/// SFA. Empty states after the first window means every run died — the
/// stream's DECISION is dead and every extension rejects; the find side
/// (`find`, fed only on positions sessions) keeps emitting occurrences
/// regardless, because occurrence search never dies on byte input.
struct StreamCarry {
  std::vector<State> states;
  bool at_start = true;  ///< nothing fed yet
  std::uint64_t transitions = 0;
  std::uint64_t windows = 0;
  /// The (end, last-separator) hit tracking of streaming find, carried
  /// across windows (parallel/match_count.hpp). Untouched unless the feed
  /// receives a StreamFindWindow.
  FindCarry find;
};

/// The find side of one streamed window: the Σ*p searcher reads the
/// window's bytes through its OWN all-bytes SymbolMap, in place. Matches
/// emit through `sink` as they are joined, with absolute byte offsets.
struct StreamFindWindow {
  const Dfa& searcher;
  const MatchSink& sink;
  std::uint32_t pattern_id = 0;
  /// Required under QueryOptions::begin_mode == BeginMode::kExact: the
  /// pattern's reverse-confirmation artifact (Pattern::reverse_begins).
  const ReverseBegins* reverse = nullptr;
};

/// What one window body reports besides the carry it advanced: the chunk
/// count after clamping and the wall time of each phase (recognize fills
/// QueryResult's from it; stream feeds ignore it).
struct WindowRun {
  std::uint64_t chunks = 0;
  double reach_seconds = 0.0;
  double join_seconds = 0.0;
};

class Device {
 public:
  virtual ~Device() = default;

  virtual Variant variant() const = 0;
  virtual DeviceCaps capabilities() const = 0;

  /// What the device honors in streaming mode: its one-shot capabilities
  /// minus look-back (there is no look-back window across the carry), plus
  /// `positions` — every shipped device serves streaming find, because the
  /// emission rides the variant-independent Σ*p searcher alongside the
  /// decision carry. A device that cannot (or a future decision-only one)
  /// overrides this and positions sessions REJECT at Engine::stream.
  /// stream_feed validates against this set, so direct device callers and
  /// Engine::stream get the same reject-don't-ignore contract.
  virtual DeviceCaps stream_capabilities() const {
    DeviceCaps caps = capabilities();
    caps.lookback = false;
    caps.positions = true;
    caps.exact_begins = true;  // rides the searcher/reverse pair, like positions
    return caps;
  }

  /// Parallel recognition of `input` (reach on the pool + join): one window
  /// from a fresh carry. Throws QueryError when `options` requests a knob
  /// outside capabilities(); Engine validates too, so direct callers and
  /// Engine users get the same contract.
  QueryResult recognize(std::span<const Symbol> input, ThreadPool& pool,
                        const QueryOptions& options) const;

  /// The same over raw bytes classed by `input.map` (the pattern's
  /// SymbolMap): no symbol vector is built — each chunk's bytes are read by
  /// the chunk kernels inside its pool task (parallel/ca_run.hpp), so the
  /// options' deadline budgets the whole call. Equal to translating and
  /// calling the span overload.
  QueryResult recognize(const ByteSpan& input, ThreadPool& pool,
                        const QueryOptions& options) const;

  /// Consumes the next window of a streamed input, updating `carry` in
  /// place (empty windows are a no-op). Streaming always runs the chunk
  /// kernels selected by `options.kernel`; lookback is not available in
  /// streaming mode (Engine::stream rejects it).
  ///
  /// Governance is PER FEED: options.deadline/cancel build one governor at
  /// the top of each feed, shared by the decision and the find side — a
  /// trip throws out of this call; the session-level poisoning contract
  /// lives in StreamSession (engine/engine.hpp).
  void stream_feed(StreamCarry& carry, std::span<const Symbol> window,
                   ThreadPool& pool, const QueryOptions& options) const;

  /// The same over raw window bytes classed by `window.map`, equal to
  /// feeding the translated window (carry, counters and checkpoint bytes).
  /// With `find` non-null the same feed advances carry.find over the
  /// searcher, which reads the same bytes through its own map, and emits
  /// the window's occurrences through find->sink (absolute byte offsets,
  /// begins resolved through the carried separator) — the find side runs
  /// even after the decision carry died, since substring occurrences
  /// outlive whole-stream membership.
  void stream_feed(StreamCarry& carry, const ByteSpan& window, ThreadPool& pool,
                   const QueryOptions& options,
                   const StreamFindWindow* find = nullptr) const;

  /// Decision over everything fed into `carry` so far.
  virtual bool stream_accepted(const StreamCarry& carry) const = 0;

 protected:
  /// The device's one reach + join body: reaches the window's chunks on the
  /// pool — the first from the carried PLAS (the initial state while
  /// `carry.at_start`), later ones from the device's speculative starts —
  /// and joins them into the next carry. An empty window is a no-op; a dead
  /// carry only counts the window. Validation and the governor live in the
  /// front ends; `governor` is pre-normalized (nullptr when inactive) and
  /// polled at every chunk-task start inside the window.
  virtual WindowRun stream_window(StreamCarry& carry, std::span<const Symbol> window,
                                  ThreadPool& pool, const QueryOptions& options,
                                  const QueryGovernor* governor) const = 0;
  virtual WindowRun stream_window(StreamCarry& carry, const ByteSpan& window,
                                  ThreadPool& pool, const QueryOptions& options,
                                  const QueryGovernor* governor) const = 0;

 private:
  template <typename Input>
  QueryResult recognize_window(const Input& input, ThreadPool& pool,
                               const QueryOptions& options) const;
};

}  // namespace rispar
