#include "parallel/csdpa.hpp"

#include <cassert>

#include "parallel/chunking.hpp"
#include "parallel/kernel_input.hpp"
#include "util/stopwatch.hpp"

namespace rispar {

namespace {

// Empty input: no chunks run; acceptance is a pure initial/final check.
QueryResult empty_input_result(bool initial_is_final) {
  QueryResult stats;
  stats.accepted = initial_is_final;
  return stats;
}

DetChunkOptions kernel_options(const QueryOptions& options,
                               const QueryGovernor* governor) {
  return DetChunkOptions{.convergence = options.convergence,
                         .kernel = options.kernel,
                         .governor = governor};
}

// Per-query governor shared by every chunk task of a recognize() call.
// Normalized to nullptr when inactive so the kernels' fast paths never
// even branch on the pointer.
const QueryGovernor* normalize(const QueryGovernor& own) {
  return own.active() ? &own : nullptr;
}

// Prologue shared by every stream_feed: empty windows are no-ops; a dead
// carry only grows the window count. Returns true when the window runs.
bool stream_window_begins(StreamCarry& carry, std::span<const Symbol> window) {
  if (window.empty()) return false;
  ++carry.windows;
  return carry.at_start || !carry.states.empty();
}

// Fan-out shared by every stream_feed: the window's first chunk continues
// from `continuation` (run receives first = true), later chunks speculate
// from `speculative`.
template <typename Result, typename Run>
std::vector<Result> run_window_chunks(std::span<const Symbol> window,
                                      ThreadPool& pool, std::size_t chunks_requested,
                                      std::span<const State> continuation,
                                      std::span<const State> speculative,
                                      const QueryGovernor* governor, Run&& run) {
  const auto chunks = split_chunks(window.size(), chunks_requested);
  std::vector<Result> results(chunks.size());
  pool.run(chunks.size(), [&](std::size_t i) {
    // Chunk boundary: the universal checkpoint every window shape honors.
    if (governor != nullptr) governor->poll();
    results[i] = run(window.subspan(chunks[i].begin, chunks[i].length),
                     i == 0 ? continuation : speculative, i == 0);
  }, governor);
  return results;
}

// Join fold shared by the DFA/NFA streaming paths, which both track the
// PLAS as a bitset: the first chunk's survivors are kept verbatim (their
// starts were exactly the carried PLAS), later chunks filter through the
// previous PLAS. `accumulate(next, entry)` adds one surviving λ entry.
template <typename Result, typename Accumulate>
void join_window_into_carry(StreamCarry& carry, const std::vector<Result>& results,
                            std::int32_t num_states, Accumulate&& accumulate) {
  Bitset plas(static_cast<std::size_t>(num_states));
  bool first_chunk = true;
  for (const auto& chunk_result : results) {
    carry.transitions += chunk_result.transitions;
    Bitset next(static_cast<std::size_t>(num_states));
    for (const auto& entry : chunk_result.lambda) {
      if (first_chunk || plas.test(static_cast<std::size_t>(entry.first)))
        accumulate(next, entry);
    }
    plas = std::move(next);
    first_chunk = false;
  }
  carry.states.clear();
  for (State s = 0; s < num_states; ++s)
    if (plas.test(static_cast<std::size_t>(s))) carry.states.push_back(s);
  carry.at_start = false;
}

}  // namespace

// ---------------------------------------------------------------- DfaDevice

DfaDevice::DfaDevice(const Dfa& dfa) : dfa_(dfa) {
  dfa.packed();  // warm the cache so pool workers never pay the build
  all_states_.reserve(static_cast<std::size_t>(dfa.num_states()));
  for (State s = 0; s < dfa.num_states(); ++s) all_states_.push_back(s);
}

template <typename Input>
QueryResult DfaDevice::recognize_input(const Input& input, ThreadPool& pool,
                                       const QueryOptions& options) const {
  validate_query(options, capabilities(), device_context("recognize", variant()));
  if (input.empty()) return empty_input_result(dfa_.is_final(dfa_.initial()));

  const auto chunks = split_chunks(input.size(), options.chunks);
  QueryResult stats;
  stats.chunks = chunks.size();

  Stopwatch reach_clock;
  std::vector<DetChunkResult> results(chunks.size());
  const std::vector<State> first_start{dfa_.initial()};
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = normalize(own);
  const DetChunkOptions run_options = kernel_options(options, gov);
  pool.run(chunks.size(), [&](std::size_t i) {
    if (gov != nullptr) gov->poll();  // chunk boundary
    const auto span = input.subspan(chunks[i].begin, chunks[i].length);
    if (i == 0) {
      // Chunk 1 knows its start.
      results[i] = run_chunk_det(dfa_, span, first_start, run_options);
      return;
    }
    if (options.lookback == 0) {
      // Classic CSDPA: speculate on all of Q.
      results[i] = run_chunk_det(dfa_, span, all_states_, run_options);
      return;
    }
    // Look-back: advance every state over the window preceding the
    // boundary (convergent kernel — survivors collapse quickly), then
    // speculate only from the surviving groups' end states, which the
    // convergent kernel hands over deduplicated in distinct_ends.
    const std::size_t window_len = std::min(options.lookback, chunks[i].begin);
    const auto window = input.subspan(chunks[i].begin - window_len, window_len);
    const DetChunkResult probe = run_chunk_det(
        dfa_, window, all_states_,
        DetChunkOptions{.convergence = true, .kernel = options.kernel,
                        .governor = gov});
    results[i] = run_chunk_det(dfa_, span, probe.distinct_ends, run_options);
    // The probe work is real speculative overhead; account for it
    // (accounting convention: parallel/ca_run.hpp).
    results[i].transitions += probe.transitions;
  }, gov);
  stats.reach_seconds = reach_clock.seconds();

  Stopwatch join_clock;
  for (const auto& chunk_result : results) stats.transitions += chunk_result.transitions;

  if (options.tree_join) {
    // Each λ_i as a dense function Q → Q ∪ {dead}; compose pairwise.
    const auto n = static_cast<std::size_t>(dfa_.num_states());
    std::vector<std::vector<State>> maps(results.size());
    pool.run(results.size(), [&](std::size_t i) {
      if (gov != nullptr) gov->poll();
      maps[i].assign(n, kDeadState);
      for (const auto& [start, end] : results[i].lambda)
        maps[i][static_cast<std::size_t>(start)] = end;
    }, gov);
    while (maps.size() > 1) {
      const std::size_t pairs = maps.size() / 2;
      std::vector<std::vector<State>> folded(pairs + (maps.size() % 2));
      pool.run(pairs, [&](std::size_t p) {
        if (gov != nullptr) gov->poll();
        const auto& first = maps[2 * p];
        const auto& second = maps[2 * p + 1];
        auto& out = folded[p];
        out.assign(n, kDeadState);
        for (std::size_t q = 0; q < n; ++q) {
          const State mid = first[q];
          out[q] = mid == kDeadState ? kDeadState
                                     : second[static_cast<std::size_t>(mid)];
        }
      }, gov);
      if (maps.size() % 2) folded.back() = std::move(maps.back());
      maps = std::move(folded);
    }
    const State end = maps.front()[static_cast<std::size_t>(dfa_.initial())];
    stats.accepted = end != kDeadState && dfa_.is_final(end);
    stats.join_seconds = join_clock.seconds();
    return stats;
  }

  // Serial join (the paper's): PLAS as a bitset over DFA states; λ_i
  // entries filter-and-map it.
  Bitset plas(static_cast<std::size_t>(dfa_.num_states()));
  bool first_chunk = true;
  for (const auto& chunk_result : results) {
    Bitset next(static_cast<std::size_t>(dfa_.num_states()));
    for (const auto& [start, end] : chunk_result.lambda) {
      if (first_chunk || plas.test(static_cast<std::size_t>(start)))
        next.set(static_cast<std::size_t>(end));
    }
    plas = std::move(next);
    first_chunk = false;
  }
  stats.accepted = plas.intersects(dfa_.finals());
  stats.join_seconds = join_clock.seconds();
  return stats;
}

QueryResult DfaDevice::recognize(std::span<const Symbol> input, ThreadPool& pool,
                                 const QueryOptions& options) const {
  return recognize_input(input, pool, options);
}

QueryResult DfaDevice::recognize(const ByteSpan& input, ThreadPool& pool,
                                 const QueryOptions& options) const {
  return recognize_input(input, pool, options);
}

void DfaDevice::stream_window(StreamCarry& carry, std::span<const Symbol> window,
                              ThreadPool& pool, const QueryOptions& options,
                              const QueryGovernor* governor) const {
  if (!stream_window_begins(carry, window)) return;

  const std::vector<State> continuation =
      carry.at_start ? std::vector<State>{dfa_.initial()} : carry.states;
  const DetChunkOptions run_options = kernel_options(options, governor);
  const auto results = run_window_chunks<DetChunkResult>(
      window, pool, options.chunks, continuation, all_states_, governor,
      [&](std::span<const Symbol> span, std::span<const State> starts, bool) {
        return run_chunk_det(dfa_, span, starts, run_options);
      });
  join_window_into_carry(carry, results, dfa_.num_states(),
                         [](Bitset& next, const std::pair<State, State>& entry) {
                           next.set(static_cast<std::size_t>(entry.second));
                         });
}

bool DfaDevice::stream_accepted(const StreamCarry& carry) const {
  if (carry.at_start) return dfa_.is_final(dfa_.initial());
  for (const State s : carry.states)
    if (dfa_.is_final(s)) return true;
  return false;
}

// ---------------------------------------------------------------- NfaDevice

NfaDevice::NfaDevice(const Nfa& nfa) : nfa_(nfa) {
  assert(!nfa.has_epsilon() && "NfaDevice requires an eps-free NFA");
  all_states_.reserve(static_cast<std::size_t>(nfa.num_states()));
  for (State s = 0; s < nfa.num_states(); ++s) all_states_.push_back(s);
}

template <typename Input>
QueryResult NfaDevice::recognize_input(const Input& input, ThreadPool& pool,
                                       const QueryOptions& options) const {
  validate_query(options, capabilities(), device_context("recognize", variant()));
  if (input.empty()) return empty_input_result(nfa_.is_final(nfa_.initial()));

  const auto chunks = split_chunks(input.size(), options.chunks);
  QueryResult stats;
  stats.chunks = chunks.size();

  Stopwatch reach_clock;
  std::vector<NfaChunkResult> results(chunks.size());
  const std::vector<State> first_start{nfa_.initial()};
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = normalize(own);
  pool.run(chunks.size(), [&](std::size_t i) {
    if (gov != nullptr) gov->poll();  // chunk boundary
    const auto span = input.subspan(chunks[i].begin, chunks[i].length);
    const std::span<const State> starts =
        (i == 0) ? std::span<const State>(first_start)
                 : std::span<const State>(all_states_);
    std::vector<Symbol> buffer;  // a byte chunk is translated here, on the pool
    results[i] = run_chunk_nfa(nfa_, detail::chunk_symbols(span, buffer), starts, gov);
  }, gov);
  stats.reach_seconds = reach_clock.seconds();

  Stopwatch join_clock;
  // PLAS as a set of NFA states; λ_i(q) is itself a state set, so joining
  // unions the images of the surviving starts.
  Bitset plas(static_cast<std::size_t>(nfa_.num_states()));
  bool first_chunk = true;
  for (const auto& chunk_result : results) {
    stats.transitions += chunk_result.transitions;
    Bitset next(static_cast<std::size_t>(nfa_.num_states()));
    for (const auto& [start, ends] : chunk_result.lambda) {
      if (first_chunk || plas.test(static_cast<std::size_t>(start))) next |= ends;
    }
    plas = std::move(next);
    first_chunk = false;
  }
  stats.accepted = plas.intersects(nfa_.finals());
  stats.join_seconds = join_clock.seconds();
  return stats;
}

QueryResult NfaDevice::recognize(std::span<const Symbol> input, ThreadPool& pool,
                                 const QueryOptions& options) const {
  return recognize_input(input, pool, options);
}

QueryResult NfaDevice::recognize(const ByteSpan& input, ThreadPool& pool,
                                 const QueryOptions& options) const {
  return recognize_input(input, pool, options);
}

void NfaDevice::stream_window(StreamCarry& carry, std::span<const Symbol> window,
                              ThreadPool& pool, const QueryOptions& options,
                              const QueryGovernor* governor) const {
  if (!stream_window_begins(carry, window)) return;

  const std::vector<State> continuation =
      carry.at_start ? std::vector<State>{nfa_.initial()} : carry.states;
  const auto results = run_window_chunks<NfaChunkResult>(
      window, pool, options.chunks, continuation, all_states_, governor,
      [&](std::span<const Symbol> span, std::span<const State> starts, bool first) {
        // The first chunk's survivors are all kept verbatim by the join, so
        // only the UNION of its end sets matters — one frontier simulation
        // seeded with the whole carry instead of |carry| full chunk scans.
        return first ? run_chunk_nfa_union(nfa_, span, starts, governor)
                     : run_chunk_nfa(nfa_, span, starts, governor);
      });
  join_window_into_carry(carry, results, nfa_.num_states(),
                         [](Bitset& next, const std::pair<State, Bitset>& entry) {
                           next |= entry.second;
                         });
}

bool NfaDevice::stream_accepted(const StreamCarry& carry) const {
  if (carry.at_start) return nfa_.is_final(nfa_.initial());
  for (const State s : carry.states)
    if (nfa_.is_final(s)) return true;
  return false;
}

// ---------------------------------------------------------------- RidDevice

RidDevice::RidDevice(const Ridfa& ridfa) : ridfa_(ridfa) {
  ridfa.dfa().packed();  // warm the cache so pool workers never pay the build
}

template <typename Input>
QueryResult RidDevice::recognize_input(const Input& input, ThreadPool& pool,
                                       const QueryOptions& options) const {
  validate_query(options, capabilities(), device_context("recognize", variant()));
  const Dfa& ca = ridfa_.dfa();
  if (input.empty()) return empty_input_result(ridfa_.is_final(ridfa_.start_state()));

  const auto chunks = split_chunks(input.size(), options.chunks);
  QueryResult stats;
  stats.chunks = chunks.size();

  Stopwatch reach_clock;
  std::vector<DetChunkResult> results(chunks.size());
  const std::vector<State> first_start{ridfa_.start_state()};
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = normalize(own);
  const DetChunkOptions run_options = kernel_options(options, gov);
  pool.run(chunks.size(), [&](std::size_t i) {
    if (gov != nullptr) gov->poll();  // chunk boundary
    const auto span = input.subspan(chunks[i].begin, chunks[i].length);
    // Only the interface states are speculative starts — this is the whole
    // point of the RI-DFA (|I_B| = |Q_N| or less after minimization).
    const std::span<const State> starts =
        (i == 0) ? std::span<const State>(first_start)
                 : std::span<const State>(ridfa_.initial_states());
    results[i] = run_chunk_det(ca, span, starts, run_options);
  }, gov);
  stats.reach_seconds = reach_clock.seconds();

  Stopwatch join_clock;
  // PLAS as an explicit CA-state list: between chunks it passes through the
  // interface function (Sect. 3.2 / 3.4), which maps each contained NFA
  // state to its (delegated) initial CA state.
  std::vector<State> plas;
  bool first_chunk = true;
  for (const auto& chunk_result : results) {
    stats.transitions += chunk_result.transitions;
    std::vector<State> next;
    if (first_chunk) {
      for (const auto& [start, end] : chunk_result.lambda) {
        (void)start;
        next.push_back(end);
      }
    } else {
      const std::vector<State> image = ridfa_.interface_image(plas);
      Bitset allowed(static_cast<std::size_t>(ca.num_states()));
      for (const State p : image) allowed.set(static_cast<std::size_t>(p));
      for (const auto& [start, end] : chunk_result.lambda)
        if (allowed.test(static_cast<std::size_t>(start))) next.push_back(end);
    }
    plas = std::move(next);
    first_chunk = false;
  }
  stats.accepted = false;
  for (const State p : plas)
    if (ridfa_.is_final(p)) {
      stats.accepted = true;
      break;
    }
  stats.join_seconds = join_clock.seconds();
  return stats;
}

QueryResult RidDevice::recognize(std::span<const Symbol> input, ThreadPool& pool,
                                 const QueryOptions& options) const {
  return recognize_input(input, pool, options);
}

QueryResult RidDevice::recognize(const ByteSpan& input, ThreadPool& pool,
                                 const QueryOptions& options) const {
  return recognize_input(input, pool, options);
}

void RidDevice::stream_window(StreamCarry& carry, std::span<const Symbol> window,
                              ThreadPool& pool, const QueryOptions& options,
                              const QueryGovernor* governor) const {
  if (!stream_window_begins(carry, window)) return;

  const Dfa& ca = ridfa_.dfa();
  // Reach phase: the window's first chunk continues from the carried PLAS
  // (through the interface function), later chunks speculate as usual.
  const std::vector<State> continuation =
      carry.at_start ? std::vector<State>{ridfa_.start_state()}
                     : ridfa_.interface_image(carry.states);
  const DetChunkOptions run_options = kernel_options(options, governor);
  const auto results = run_window_chunks<DetChunkResult>(
      window, pool, options.chunks, continuation, ridfa_.initial_states(), governor,
      [&](std::span<const Symbol> span, std::span<const State> starts, bool) {
        return run_chunk_det(ca, span, starts, run_options);
      });

  // Join within the window. The first chunk's survivors are kept verbatim
  // (their starts were already filtered through the carried PLAS); later
  // chunks filter through the interface image as in one-shot recognition.
  // The PLAS stays an explicit CA-state list (the interface function
  // consumes it), so this join does not share the bitset fold above.
  std::vector<State> plas;
  bool first_chunk = true;
  for (const auto& chunk_result : results) {
    carry.transitions += chunk_result.transitions;
    std::vector<State> next;
    if (first_chunk) {
      for (const auto& [start, end] : chunk_result.lambda) {
        (void)start;
        next.push_back(end);
      }
    } else {
      const std::vector<State> image = ridfa_.interface_image(plas);
      Bitset allowed(static_cast<std::size_t>(ca.num_states()));
      for (const State p : image) allowed.set(static_cast<std::size_t>(p));
      for (const auto& [start, end] : chunk_result.lambda)
        if (allowed.test(static_cast<std::size_t>(start))) next.push_back(end);
    }
    plas = std::move(next);
    first_chunk = false;
  }
  carry.states = std::move(plas);
  carry.at_start = false;
}

bool RidDevice::stream_accepted(const StreamCarry& carry) const {
  if (carry.at_start) return ridfa_.is_final(ridfa_.start_state());
  for (const State p : carry.states)
    if (ridfa_.is_final(p)) return true;
  return false;
}

// ---------------------------------------------------------------- SfaDevice

SfaDevice::SfaDevice(const Sfa& sfa, const Dfa& chunk_automaton)
    : sfa_(sfa), ca_(chunk_automaton) {}

State SfaDevice::run_chunk(std::span<const Symbol> chunk,
                           std::uint64_t& transitions) const {
  // Validate up front: an alien symbol kills every run. When the chunk
  // automaton is total its all-dead mapping was never interned as an SFA
  // state, so Sfa::run alone cannot express the death — return kDeadState
  // and let the join treat the whole composition as dead. (The symbols
  // before the alien one were real work and are counted; the alien one is
  // not — the accounting convention of parallel/ca_run.hpp.)
  const std::size_t valid = first_invalid_symbol(chunk, sfa_.num_symbols());
  if (valid == chunk.size()) return sfa_.run(chunk.data(), chunk.size(), transitions);
  // Alien present: consume the valid prefix (real work, counted), then the
  // whole chunk dies regardless of start.
  sfa_.run(chunk.data(), valid, transitions);
  return sfa_.all_dead_state().value_or(kDeadState);
}

template <typename Input>
QueryResult SfaDevice::recognize_input(const Input& input, ThreadPool& pool,
                                       const QueryOptions& options) const {
  validate_query(options, capabilities(), device_context("recognize", variant()));
  if (input.empty()) return empty_input_result(ca_.is_final(ca_.initial()));

  const auto chunks = split_chunks(input.size(), options.chunks);
  QueryResult stats;
  stats.chunks = chunks.size();

  Stopwatch reach_clock;
  // One SFA run per chunk, from the identity mapping — no speculation.
  // Governance is chunk-boundary only: Sfa::run is an opaque packed scan
  // with no start parameter, so there is no mid-chunk resume point worth a
  // finer stride (raise options.chunks for tighter trip latency).
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = normalize(own);
  std::vector<State> arrivals(chunks.size());
  std::vector<std::uint64_t> counts(chunks.size(), 0);
  pool.run(chunks.size(), [&](std::size_t i) {
    if (gov != nullptr) gov->poll();  // chunk boundary
    std::vector<Symbol> buffer;  // a byte chunk is translated here, on the pool
    arrivals[i] = run_chunk(
        detail::chunk_symbols(input.subspan(chunks[i].begin, chunks[i].length), buffer),
        counts[i]);
  }, gov);
  stats.reach_seconds = reach_clock.seconds();

  Stopwatch join_clock;
  // Compose: thread the CA start state through each chunk's mapping.
  State state = ca_.initial();
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    stats.transitions += counts[i];
    if (state == kDeadState) continue;
    state = arrivals[i] == kDeadState
                ? kDeadState
                : sfa_.mapping_entry(arrivals[i], state);
  }
  stats.accepted = state != kDeadState && ca_.is_final(state);
  stats.join_seconds = join_clock.seconds();
  return stats;
}

QueryResult SfaDevice::recognize(std::span<const Symbol> input, ThreadPool& pool,
                                 const QueryOptions& options) const {
  return recognize_input(input, pool, options);
}

QueryResult SfaDevice::recognize(const ByteSpan& input, ThreadPool& pool,
                                 const QueryOptions& options) const {
  return recognize_input(input, pool, options);
}

void SfaDevice::stream_window(StreamCarry& carry, std::span<const Symbol> window,
                              ThreadPool& pool, const QueryOptions& options,
                              const QueryGovernor* governor) const {
  if (!stream_window_begins(carry, window)) return;

  const auto chunks = split_chunks(window.size(), options.chunks);
  std::vector<State> arrivals(chunks.size());
  std::vector<std::uint64_t> counts(chunks.size(), 0);
  pool.run(chunks.size(), [&](std::size_t i) {
    if (governor != nullptr) governor->poll();  // chunk boundary (see recognize)
    arrivals[i] = run_chunk(window.subspan(chunks[i].begin, chunks[i].length), counts[i]);
  }, governor);

  State state = carry.at_start ? ca_.initial() : carry.states.front();
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    carry.transitions += counts[i];
    if (state == kDeadState) continue;
    state = arrivals[i] == kDeadState
                ? kDeadState
                : sfa_.mapping_entry(arrivals[i], state);
  }
  carry.states.clear();
  if (state != kDeadState) carry.states.push_back(state);
  carry.at_start = false;
}

bool SfaDevice::stream_accepted(const StreamCarry& carry) const {
  if (carry.at_start) return ca_.is_final(ca_.initial());
  return !carry.states.empty() && ca_.is_final(carry.states.front());
}

}  // namespace rispar
