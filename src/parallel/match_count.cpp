#include "parallel/match_count.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "parallel/chunk_core.hpp"
#include "parallel/chunking.hpp"
#include "util/stopwatch.hpp"

namespace rispar {

QueryResult count_matches_serial(const Dfa& dfa, std::span<const Symbol> input) {
  QueryResult result;
  result.chunks = input.empty() ? 0 : 1;
  State state = dfa.initial();
  for (const Symbol symbol : input) {
    if (symbol < 0 || symbol >= dfa.num_symbols()) {
      result.died = true;
      return result;
    }
    state = dfa.row(state)[symbol];
    if (state == kDeadState) {
      result.died = true;
      return result;
    }
    ++result.transitions;
    if (dfa.is_final(state)) {
      ++result.matches;
      result.accepted = true;
    }
  }
  return result;
}

namespace detail {

/// The text a streaming window's exact begins resolve over: the carried
/// history tail followed by the incoming window, indexed from
/// FindCarry::history_base. The window is read through its own input, so
/// a byte window maps one byte per step and is never translated whole.
template <typename Input>
struct HistoryView {
  std::span<const Symbol> tail;
  const Input& window;
};

/// Declared before resolve_exact_begin: its qualified detail::symbol_at
/// call finds no later overload (no argument-dependent lookup).
template <typename Input>
Symbol symbol_at(const HistoryView<Input>& view, std::size_t i) {
  return i < view.tail.size() ? view.tail[i]
                               : symbol_at(view.window, i - view.tail.size());
}

}  // namespace detail

namespace {

using detail::FindChunk;
using detail::FindHit;
using detail::FindNode;
using detail::HitCount;
using detail::HitStore;

/// Where the consistent run's chain enters one chunk, as walk_chains found
/// it: all emit_chain needs to re-walk that chain on its own.
struct ChainEntry {
  std::size_t node = 0;           ///< the chain's first node (the boundary state's)
  std::uint64_t carried_sep = 0;  ///< absolute separator carried into the chunk
  std::uint64_t hits = 0;         ///< hits on the chain
};

/// The join's serial pass, O(chunks + chain nodes), shared by count, find
/// and streaming find: walks the consistent start's chain through each
/// chunk's merge forest and records where it enters the chunk and how many
/// hits it holds. `origin` is the absolute offset of runs[0]'s first symbol;
/// each chunk's nodes follow its sorted `starts`, which must contain the
/// consistent run's boundary state. `state` enters as the consistent run's
/// state before the batch and leaves as its state after it; `carried_sep`
/// is the absolute last separator and advances with the walk — exactly the
/// state a streaming caller keeps between windows. One entry per chunk the
/// run reached: the walk stops after the chunk where it died.
template <typename Hits>
std::vector<ChainEntry> walk_chains(const std::vector<FindChunk<Hits>>& runs,
                                    std::span<const ChunkSpan> chunks,
                                    std::uint64_t origin, State& state,
                                    std::uint64_t& carried_sep, bool& died) {
  std::vector<ChainEntry> chains;
  chains.reserve(chunks.size());
  for (std::size_t i = 0; i < chunks.size() && !died; ++i) {
    const FindChunk<Hits>& run = runs[i];
    const auto at = std::lower_bound(run.starts.begin(), run.starts.end(), state);
    if (at == run.starts.end() || *at != state)
      throw std::logic_error("find join: boundary state missing from the chunk's starts");
    ChainEntry& chain = chains.emplace_back();
    chain.node = static_cast<std::size_t>(at - run.starts.begin());
    chain.carried_sep = carried_sep;
    // `floor` is the position where the previous chain node merged into the
    // current one — separators recorded before it belong to the current
    // node's own history, not the consistent run's, and substitute through
    // `sub`.
    std::size_t node_index = chain.node;
    std::size_t hit_base = 0;
    std::int64_t floor = 0;
    std::int64_t sub = -1;
    while (true) {
      const FindNode<Hits>& node = run.nodes[node_index];
      chain.hits += node.hits.size() - hit_base;
      if (node.parent == -1) {
        const std::int64_t final_sep = node.last_sep >= floor ? node.last_sep : sub;
        if (final_sep >= 0)
          carried_sep = origin + chunks[i].begin + static_cast<std::uint64_t>(final_sep);
        if (node.dead) {
          died = true;
        } else {
          state = node.state;
        }
        break;
      }
      sub = node.last_sep >= floor ? node.last_sep : sub;
      floor = node.merge_pos;
      hit_base = node.parent_base;
      node_index = static_cast<std::size_t>(node.parent);
    }
  }
  return chains;
}

/// The join's emit for one chunk: re-walks the chain walk_chains recorded
/// and hands `emit` (begin, end) — ABSOLUTE, `base` being the chunk's first
/// position — for each of its hits with chain ordinal in [from, to). A hit
/// whose separator predates the chunk (or, under convergence, predates a
/// merge in its chain) falls back first to the chain's own earlier tracker
/// and ultimately to the separator carried into the chunk. Reads only its
/// own chunk's run and `chain`.
template <typename Emit>
void emit_chain(const FindChunk<std::vector<FindHit>>& run, const ChainEntry& chain,
                std::uint64_t base, std::uint64_t from, std::uint64_t to, Emit&& emit) {
  std::size_t node_index = chain.node;
  std::size_t hit_base = 0;
  std::int64_t floor = 0;
  std::int64_t sub = -1;
  std::uint64_t ordinal = 0;  // chain ordinal of the node's first hit
  while (ordinal < to) {
    const FindNode<std::vector<FindHit>>& node = run.nodes[node_index];
    const std::uint64_t count = node.hits.size() - hit_base;
    const std::size_t last = hit_base + std::min(count, to - ordinal);
    for (std::size_t h = hit_base + (from > ordinal ? from - ordinal : 0); h < last; ++h) {
      const FindHit& hit = node.hits[h];
      const std::int64_t sep = hit.sep >= floor ? hit.sep : sub;
      emit(sep >= 0 ? base + static_cast<std::uint64_t>(sep) : chain.carried_sep,
           base + hit.pos);
    }
    ordinal += count;
    if (node.parent == -1) break;
    sub = node.last_sep >= floor ? node.last_sep : sub;
    floor = node.merge_pos;
    hit_base = node.parent_base;
    node_index = static_cast<std::size_t>(node.parent);
  }
}

/// chunk_starts (match_count.hpp) for either input.
template <typename Input>
std::vector<State> lookback_starts(const Dfa& dfa, const Input& input,
                                   std::size_t boundary, std::size_t chunk_length,
                                   State first_state, bool convergence,
                                   std::uint64_t& transitions, const QueryGovernor* gov) {
  if (boundary == 0) return {first_state};
  const auto num_states = static_cast<std::size_t>(dfa.num_states());
  const auto all_states = [&] {
    std::vector<State> all(num_states);
    std::iota(all.begin(), all.end(), State{0});
    return all;
  };
  const std::uint64_t before = transitions;
  std::vector<State> starts;  // empty until a window is probed
  for (std::size_t window = kFirstLookback;; window *= 4) {
    if (window >= boundary) {  // reaches the input start: exact
      const State first[] = {first_state};
      return detail::reached_states(dfa, input.first(boundary), first, convergence,
                                    transitions, gov);
    }
    if (window > chunk_length / 4) break;
    // A longer window pays only if its probe, on top of those already run,
    // costs no more than the current survivors save over all states — so a
    // searcher whose runs do not collapse stops early.
    if (!starts.empty()) {
      const std::uint64_t probe_cost = transitions - before + window * num_states;
      if (probe_cost > chunk_length * (num_states - starts.size())) break;
    }
    starts = detail::reached_states(dfa, input.subspan(boundary - window, window),
                                    all_states(), convergence, transitions, gov);
    if (starts.size() <= 1) return starts;
  }
  return starts.empty() ? all_states() : starts;
}

/// The reach phase shared by every query shape: each chunk runs from the
/// start set chunk_starts leaves at its boundary — chunk 0 from the single
/// `first_state` (the initial state one-shot, the carried state when
/// streaming), later chunks from the survivors of their lookback probe.
template <typename Hits, typename Input>
std::vector<FindChunk<Hits>> reach_chunks(const Dfa& dfa, const Input& input,
                                          std::span<const ChunkSpan> chunks,
                                          State first_state, ThreadPool& pool,
                                          const QueryOptions& options,
                                          const QueryGovernor* gov) {
  std::vector<FindChunk<Hits>> runs(chunks.size());
  const auto reach_one = [&](std::size_t i) {
    if (gov != nullptr) gov->poll();  // chunk boundary: the universal checkpoint
    std::uint64_t probed = 0;
    std::vector<State> starts =
        lookback_starts(dfa, input, chunks[i].begin, chunks[i].length, first_state,
                        options.convergence, probed, gov);
    const auto span = input.subspan(chunks[i].begin, chunks[i].length);
    runs[i] = detail::run_chunk<HitStore<Hits>>(dfa, span, starts, options.kernel,
                                                options.convergence, gov);
    runs[i].transitions += probed;
    runs[i].starts = std::move(starts);
  };
  pool.run(chunks.size(), reach_one, gov);
  return runs;
}

/// Resolves the governor an entry point runs under: an explicit one from
/// the caller (a streaming device sharing its per-feed clock), else one
/// built from the options — normalized to nullptr when inactive so the
/// kernels and the per-task polls stay free.
const QueryGovernor* resolve_governor(const QueryGovernor* provided,
                                      const QueryGovernor& own) {
  const QueryGovernor* gov = provided != nullptr ? provided : &own;
  return gov->active() ? gov : nullptr;
}

/// BeginMode::kExact confirmation pass: runs the reversed pattern DFA
/// backwards from `end` over `text` down to `floor`, returning the SMALLEST
/// b with text[b..end) ∈ L(p). The forward searcher guaranteed some
/// occurrence ends at `end`, and the floor is sound (the approximate begin
/// under a separators_sound certificate, the text/history start otherwise),
/// so a final state is always visited; `fallback` only guards a corrupt
/// artifact. Positions are indices into `text` — the caller maps absolute
/// offsets onto it. A byte text maps through its own map (the searcher's,
/// which the reverse DFA shares).
template <typename Input>
std::uint64_t resolve_exact_begin(const Dfa& rev, const Input& text, std::uint64_t end,
                                  std::uint64_t floor, std::uint64_t fallback) {
  State state = rev.initial();
  std::uint64_t best = fallback;
  if (rev.is_final(state)) best = end;  // ε ∈ L(p): the empty occurrence at end
  for (std::uint64_t b = end; b > floor; --b) {
    const Symbol symbol = detail::symbol_at(text, static_cast<std::size_t>(b - 1));
    if (symbol < 0 || symbol >= rev.num_symbols()) break;
    state = rev.row(state)[symbol];
    if (state == kDeadState) break;
    if (rev.is_final(state)) best = b - 1;
  }
  return best;
}

/// The validation shared by the exact-begin entry points: the knob needs
/// the pattern's cached artifact threaded in.
void require_reverse(const ReverseBegins* reverse, const char* context) {
  if (reverse == nullptr)
    throw ValidationError(std::string(context) +
                          ": begin_mode=exact requires the pattern's "
                          "reverse-begins artifact");
}

/// count_matches for either input.
template <typename Input>
QueryResult count_input(const Dfa& dfa, const Input& input, ThreadPool& pool,
                        const QueryOptions& options, const QueryGovernor* governor) {
  validate_query(options, kCountingCaps, kCountingContext);
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = resolve_governor(governor, own);
  QueryResult result;
  if (input.empty()) return result;

  const auto chunks = split_chunks(input.size(), options.chunks);
  result.chunks = chunks.size();

  // Reach: the chunk core over a HitCount store, so counting shares find's
  // kernels and merge bookkeeping but keeps no positions.
  Stopwatch reach_clock;
  const auto runs =
      reach_chunks<HitCount>(dfa, input, chunks, dfa.initial(), pool, options, gov);
  result.reach_seconds = reach_clock.seconds();

  // Join: the walk alone — the unique consistent path's hits, summed. All
  // chunks' transitions are speculative work actually executed, so they
  // count even when the true path dies early (convention:
  // parallel/ca_run.hpp).
  Stopwatch join_clock;
  for (const auto& run : runs) result.transitions += run.transitions;
  State state = dfa.initial();
  std::uint64_t carried_sep = 0;
  for (const ChainEntry& chain :
       walk_chains(runs, chunks, 0, state, carried_sep, result.died))
    result.matches += chain.hits;
  result.accepted = result.matches > 0;
  result.join_seconds = join_clock.seconds();
  return result;
}

/// find_matches for either input.
template <typename Input>
QueryResult find_input(const Dfa& dfa, const Input& input, ThreadPool& pool,
                       const QueryOptions& options, std::uint32_t pattern_id,
                       const QueryGovernor* governor, const ReverseBegins* reverse) {
  validate_query(options, kFindingCaps, kFindingContext);
  const bool exact = options.begin_mode == BeginMode::kExact;
  if (exact) require_reverse(reverse, "find");
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = resolve_governor(governor, own);
  QueryResult result;
  if (input.empty()) return result;

  const auto chunks = split_chunks(input.size(), options.chunks);
  result.chunks = chunks.size();

  Stopwatch reach_clock;
  const auto runs = reach_chunks<std::vector<FindHit>>(dfa, input, chunks, dfa.initial(),
                                                       pool, options, gov);
  result.reach_seconds = reach_clock.seconds();

  // Join, in two passes. The walk (serial, O(chunks + chain nodes)) finds
  // each chunk's consistent chain and its hit count, so `matches` is known
  // before any Match is built and the page [lo, hi) of global ordinals
  // reserves `positions` once. The emit then has every chunk overlapping the
  // page append its Matches, resolving exact begins as it goes.
  // Transition accounting: parallel/ca_run.hpp.
  Stopwatch join_clock;
  for (const auto& run : runs) result.transitions += run.transitions;
  State state = dfa.initial();
  std::uint64_t carried_sep = 0;  // global: position 0 is always a separator
  const std::vector<ChainEntry> chains =
      walk_chains(runs, chunks, 0, state, carried_sep, result.died);
  for (const ChainEntry& chain : chains) result.matches += chain.hits;
  const std::uint64_t lo = std::min<std::uint64_t>(options.offset, result.matches);
  const std::uint64_t hi = lo + std::min<std::uint64_t>(options.limit, result.matches - lo);
  result.positions.reserve(static_cast<std::size_t>(hi - lo));
  const auto emit = [&](std::uint64_t begin, std::uint64_t end) {
    // Exact begins: confirm backwards from the end. The approximate begin
    // is a sound scan floor only when the artifact certifies separators
    // pure; otherwise the occurrence may straddle it and the scan runs to
    // the text start.
    if (exact)
      begin = resolve_exact_begin(reverse->dfa, input, end,
                                  reverse->separators_sound ? begin : 0, begin);
    result.positions.push_back({pattern_id, begin, end});
  };
  std::uint64_t first = 0;  // the global ordinal of chunk i's first hit
  for (std::size_t i = 0; i < chains.size() && first < hi; ++i) {
    const std::uint64_t next = first + chains[i].hits;
    if (next > lo)
      emit_chain(runs[i], chains[i], chunks[i].begin, std::max(lo, first) - first,
                 std::min(hi, next) - first, emit);
    first = next;
  }
  result.accepted = result.matches > 0;
  result.join_seconds = join_clock.seconds();
  return result;
}

/// Appends units [from, input.size()) of `input` to `out` as symbols — for
/// a byte window, the only part of it that is ever translated as a run.
template <typename Input>
void append_symbols(std::vector<Symbol>& out, const Input& input, std::size_t from) {
  const std::size_t at = out.size();
  out.resize(at + (input.size() - from));
  for (std::size_t i = from; i < input.size(); ++i)
    out[at + (i - from)] = detail::symbol_at(input, i);
}

/// stream_find_feed for either input.
template <typename Input>
void stream_find_input(const Dfa& dfa, FindCarry& carry, const Input& window,
                       ThreadPool& pool, const QueryOptions& options,
                       const MatchSink& sink, std::uint32_t pattern_id,
                       const QueryGovernor* governor, const ReverseBegins* reverse) {
  validate_query(options, kStreamFindingCaps, kStreamFindingContext);
  const bool exact = options.begin_mode == BeginMode::kExact;
  if (exact) require_reverse(reverse, "streaming find");
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = resolve_governor(governor, own);
  if (window.empty()) return;
  // The exact-begin memory bound: the cap is on PEAK retention (carried
  // tail + the incoming window), checked BEFORE any carry mutation so the
  // throw leaves the carry consistent — the session-level poisoning that
  // follows is a policy choice, not a necessity. A died carry retains
  // nothing, so the cap has nothing to bound there.
  if (exact && !carry.died && options.max_history_bytes != 0 &&
      carry.history.size() + window.size() > options.max_history_bytes)
    throw ResourceExhausted(
        "exact-begin history",
        static_cast<std::int64_t>(options.max_history_bytes),
        static_cast<std::int64_t>(carry.history.size() + window.size()));
  const std::uint64_t origin = carry.consumed;
  const std::uint64_t consumed = origin + window.size();
  if (carry.died) {  // the run already left the automaton — nothing
    carry.consumed = consumed;  // downstream can match, only the offset advances
    return;
  }
  // The feed works on copies of the carry's walk and commits them, with the
  // history, only after the join: a throw from the governor, the sink or an
  // allocation leaves the carry exactly as it was before the feed.
  State state = carry.at_start ? dfa.initial() : carry.state;
  // Position 0: the stream starts in the initial state.
  std::uint64_t last_sep = carry.at_start ? 0 : carry.last_sep;
  bool died = false;
  std::uint64_t matches = carry.matches;
  std::uint64_t transitions = carry.transitions;

  // Reach: exactly the one-shot fan-out, except the window's first chunk
  // continues from the CARRIED state instead of the initial one.
  const auto chunks = split_chunks(window.size(), options.chunks);
  const auto runs =
      reach_chunks<std::vector<FindHit>>(dfa, window, chunks, state, pool, options, gov);

  // Join, serialized per window: the carried (state, last separator) enter
  // the walk and leave updated for the next window; then each chunk's chain
  // emits in window order straight into the sink, with absolute offsets.
  // Exact begins resolve over the carried tail followed by the window, read
  // in place: [history_base, consumed).
  const detail::HistoryView<Input> text{carry.history, window};
  for (const auto& run : runs) transitions += run.transitions;
  const std::vector<ChainEntry> chains =
      walk_chains(runs, chunks, origin, state, last_sep, died);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    emit_chain(runs[i], chains[i], origin + chunks[i].begin, 0, chains[i].hits,
               [&](std::uint64_t begin, std::uint64_t end) {
                 if (exact) {
                   // Confirm backwards over the retained history. Every
                   // separator a hit can carry postdates the last
                   // truncation point, so the floor never leaves the tail;
                   // positions map through history_base.
                   const std::uint64_t floor =
                       reverse->separators_sound ? begin : carry.history_base;
                   begin = carry.history_base +
                           resolve_exact_begin(reverse->dfa, text,
                                               end - carry.history_base,
                                               floor - carry.history_base,
                                               begin - carry.history_base);
                 }
                 sink(Match{pattern_id, begin, end});
               });
    matches += chains[i].hits;
  }

  if (exact && died) {
    // Nothing downstream can match — drop the tail outright.
    std::vector<Symbol>().swap(carry.history);
    carry.history_base = consumed;
  } else if (exact) {
    // Retain [keep, consumed). No future match can start before the
    // post-join last separator, so a separators-sound pattern keeps from
    // there on; unsound-separator patterns keep the full history (the
    // documented memory cost of exactness on such shapes). Only the kept
    // part of the window is translated into the history. Appending first
    // and erasing after keeps the throw-safety above: growing a vector of
    // symbols either succeeds or leaves it as it was, and the erase cannot
    // throw.
    const std::uint64_t keep = reverse->separators_sound
                                   ? std::max(last_sep, carry.history_base)
                                   : carry.history_base;
    const std::size_t carried = carry.history.size();
    append_symbols(carry.history, window,
                   keep > origin ? static_cast<std::size_t>(keep - origin) : 0);
    const std::size_t dropped =
        keep > origin ? carried : static_cast<std::size_t>(keep - carry.history_base);
    carry.history.erase(carry.history.begin(),
                        carry.history.begin() + static_cast<std::ptrdiff_t>(dropped));
    carry.history_base = keep;
  }
  carry.state = state;
  carry.last_sep = last_sep;
  carry.died = died;
  carry.at_start = false;
  carry.consumed = consumed;
  carry.matches = matches;
  carry.transitions = transitions;
}

}  // namespace

std::vector<State> chunk_starts(const Dfa& dfa, std::span<const Symbol> input,
                                std::size_t boundary, std::size_t chunk_length,
                                State first_state, bool convergence,
                                std::uint64_t& transitions, const QueryGovernor* gov) {
  return lookback_starts(dfa, input, boundary, chunk_length, first_state, convergence,
                         transitions, gov);
}

std::vector<State> chunk_starts(const Dfa& dfa, const ByteSpan& input,
                                std::size_t boundary, std::size_t chunk_length,
                                State first_state, bool convergence,
                                std::uint64_t& transitions, const QueryGovernor* gov) {
  return lookback_starts(dfa, input, boundary, chunk_length, first_state, convergence,
                         transitions, gov);
}

QueryResult count_matches(const Dfa& dfa, std::span<const Symbol> input,
                          ThreadPool& pool, const QueryOptions& options,
                          const QueryGovernor* governor) {
  return count_input(dfa, input, pool, options, governor);
}

QueryResult count_matches(const Dfa& dfa, const ByteSpan& input, ThreadPool& pool,
                          const QueryOptions& options, const QueryGovernor* governor) {
  return count_input(dfa, input, pool, options, governor);
}

QueryResult find_matches_serial(const Dfa& dfa, std::span<const Symbol> input,
                                std::uint32_t pattern_id, const Dfa* exact_reverse) {
  QueryResult result;
  result.chunks = input.empty() ? 0 : 1;
  const State initial = dfa.initial();
  State state = initial;
  std::uint64_t pos = 0;
  std::uint64_t last_sep = 0;  // position 0: the scan starts in the initial state
  for (const Symbol symbol : input) {
    if (symbol < 0 || symbol >= dfa.num_symbols()) {
      result.died = true;
      break;
    }
    state = dfa.row(state)[symbol];
    if (state == kDeadState) {
      result.died = true;
      break;
    }
    ++result.transitions;
    ++pos;
    if (state == initial) last_sep = pos;
    if (dfa.is_final(state)) {
      ++result.matches;
      // Oracle-side exactness deliberately ignores the separator floor and
      // rescans from the text start — the dumbest correct implementation,
      // so the property tests catch a parallel-side floor that is too
      // aggressive rather than inheriting it.
      const std::uint64_t begin =
          exact_reverse != nullptr
              ? resolve_exact_begin(*exact_reverse, input, pos, 0, last_sep)
              : last_sep;
      result.positions.push_back({pattern_id, begin, pos});
    }
  }
  result.accepted = result.matches > 0;
  return result;
}

QueryResult find_matches(const Dfa& dfa, std::span<const Symbol> input,
                         ThreadPool& pool, const QueryOptions& options,
                         std::uint32_t pattern_id, const QueryGovernor* governor,
                         const ReverseBegins* reverse) {
  return find_input(dfa, input, pool, options, pattern_id, governor, reverse);
}

QueryResult find_matches(const Dfa& dfa, const ByteSpan& input, ThreadPool& pool,
                         const QueryOptions& options, std::uint32_t pattern_id,
                         const QueryGovernor* governor, const ReverseBegins* reverse) {
  return find_input(dfa, input, pool, options, pattern_id, governor, reverse);
}

void stream_find_feed(const Dfa& dfa, FindCarry& carry, std::span<const Symbol> window,
                      ThreadPool& pool, const QueryOptions& options,
                      const MatchSink& sink, std::uint32_t pattern_id,
                      const QueryGovernor* governor, const ReverseBegins* reverse) {
  stream_find_input(dfa, carry, window, pool, options, sink, pattern_id, governor,
                    reverse);
}

void stream_find_feed(const Dfa& dfa, FindCarry& carry, const ByteSpan& window,
                      ThreadPool& pool, const QueryOptions& options,
                      const MatchSink& sink, std::uint32_t pattern_id,
                      const QueryGovernor* governor, const ReverseBegins* reverse) {
  stream_find_input(dfa, carry, window, pool, options, sink, pattern_id, governor,
                    reverse);
}

}  // namespace rispar
