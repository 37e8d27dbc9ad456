#include "parallel/csdpa.hpp"

#include <cassert>

#include "parallel/chunk_core.hpp"
#include "parallel/chunking.hpp"
#include "parallel/kernel_input.hpp"
#include "util/stopwatch.hpp"

namespace rispar {

namespace {

DetChunkOptions kernel_options(const QueryOptions& options,
                               const QueryGovernor* governor) {
  return DetChunkOptions{.convergence = options.convergence,
                         .kernel = options.kernel,
                         .governor = governor};
}

// Prologue of every window body: empty windows are no-ops; a dead carry only
// grows the window count. Returns true when the window runs.
bool window_begins(StreamCarry& carry, std::size_t size) {
  if (size == 0) return false;
  ++carry.windows;
  return carry.at_start || !carry.states.empty();
}

// The two timed phases shared by every window body. Reach: one pool task
// per chunk, `run(chunk, at)` — the first chunk (at.begin == 0) continues
// from the carried PLAS, later ones speculate. Join: `join(results)` folds
// the chunk results into carry.states (still reading carry.at_start, which
// is cleared after it).
template <typename Result, typename Input, typename Run, typename Join>
WindowRun run_window(StreamCarry& carry, const Input& window, ThreadPool& pool,
                     std::size_t chunks_requested, const QueryGovernor* governor,
                     Run&& run, Join&& join) {
  const auto chunks = split_chunks(window.size(), chunks_requested);
  WindowRun stats;
  stats.chunks = chunks.size();

  Stopwatch reach_clock;
  std::vector<Result> results(chunks.size());
  pool.run(chunks.size(), [&](std::size_t i) {
    // Chunk boundary: the universal checkpoint every query shape honors.
    if (governor != nullptr) governor->poll();
    results[i] = run(window.subspan(chunks[i].begin, chunks[i].length), chunks[i]);
  }, governor);
  stats.reach_seconds = reach_clock.seconds();

  Stopwatch join_clock;
  for (const auto& chunk_result : results) carry.transitions += chunk_result.transitions;
  join(results);
  carry.at_start = false;
  stats.join_seconds = join_clock.seconds();
  return stats;
}

// Join fold shared by the DFA/NFA devices, which both track the PLAS as a
// bitset: the first chunk's survivors are kept verbatim (their starts were
// exactly the carried PLAS), later chunks filter through the previous PLAS.
// `accumulate(next, entry)` adds one surviving λ entry.
template <typename Result, typename Accumulate>
void join_window_into_carry(StreamCarry& carry, const std::vector<Result>& results,
                            std::int32_t num_states, Accumulate&& accumulate) {
  Bitset plas(static_cast<std::size_t>(num_states));
  bool first_chunk = true;
  for (const auto& chunk_result : results) {
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
}

}  // namespace

// ---------------------------------------------------------------- DfaDevice

DfaDevice::DfaDevice(const Dfa& dfa) : dfa_(dfa) {
  dfa.packed();  // warm the cache so pool workers never pay the build
  all_states_.reserve(static_cast<std::size_t>(dfa.num_states()));
  for (State s = 0; s < dfa.num_states(); ++s) all_states_.push_back(s);
}

template <typename Input>
WindowRun DfaDevice::window_body(StreamCarry& carry, const Input& input, ThreadPool& pool,
                                 const QueryOptions& options,
                                 const QueryGovernor* governor) const {
  if (!window_begins(carry, input.size())) return {};

  const std::vector<State> continuation =
      carry.at_start ? std::vector<State>{dfa_.initial()} : carry.states;
  const DetChunkOptions run_options = kernel_options(options, governor);
  const auto run = [&](const Input& span, const ChunkSpan& at) -> DetChunkResult {
    // The first chunk knows its starts.
    if (at.begin == 0) return run_chunk_det(dfa_, span, continuation, run_options);
    // Classic CSDPA: speculate on all of Q.
    if (options.lookback == 0) return run_chunk_det(dfa_, span, all_states_, run_options);
    // Look-back: advance every state over the window preceding the
    // boundary (convergent — survivors collapse quickly), then speculate
    // only from the distinct survivors: the probe of chunk_starts.
    const std::size_t window_len = std::min(options.lookback, at.begin);
    std::uint64_t probed = 0;
    const std::vector<State> starts = detail::reached_states(
        dfa_, input.subspan(at.begin - window_len, window_len), all_states_,
        /*convergence=*/true, probed, governor);
    DetChunkResult result = run_chunk_det(dfa_, span, starts, run_options);
    // The probe work is real speculative overhead; account for it
    // (accounting convention: parallel/ca_run.hpp).
    result.transitions += probed;
    return result;
  };
  // Join (the paper's, serial): PLAS as a bitset over DFA states; λ_i
  // entries filter-and-map it.
  return run_window<DetChunkResult>(
      carry, input, pool, options.chunks, governor, run,
      [&](const std::vector<DetChunkResult>& results) {
        join_window_into_carry(carry, results, dfa_.num_states(),
                               [](Bitset& next, const std::pair<State, State>& entry) {
                                 next.set(static_cast<std::size_t>(entry.second));
                               });
      });
}

WindowRun DfaDevice::stream_window(StreamCarry& carry, std::span<const Symbol> window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

WindowRun DfaDevice::stream_window(StreamCarry& carry, const ByteSpan& window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
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
WindowRun NfaDevice::window_body(StreamCarry& carry, const Input& input, ThreadPool& pool,
                                 const QueryOptions& options,
                                 const QueryGovernor* governor) const {
  if (!window_begins(carry, input.size())) return {};

  const std::vector<State> continuation =
      carry.at_start ? std::vector<State>{nfa_.initial()} : carry.states;
  return run_window<NfaChunkResult>(
      carry, input, pool, options.chunks, governor,
      [&](const Input& chunk, const ChunkSpan& at) {
        std::vector<Symbol> buffer;  // a byte chunk is translated here, on the pool
        const auto span = detail::chunk_symbols(chunk, buffer);
        // The first chunk's survivors are all kept verbatim by the join, so
        // only the UNION of its end sets matters — one frontier simulation
        // seeded with the whole carry instead of |carry| full chunk scans.
        return at.begin == 0 ? run_chunk_nfa_union(nfa_, span, continuation, governor)
                             : run_chunk_nfa(nfa_, span, all_states_, governor);
      },
      // PLAS as a set of NFA states; λ_i(q) is itself a state set, so joining
      // unions the images of the surviving starts.
      [&](const std::vector<NfaChunkResult>& results) {
        join_window_into_carry(carry, results, nfa_.num_states(),
                               [](Bitset& next, const std::pair<State, Bitset>& entry) {
                                 next |= entry.second;
                               });
      });
}

WindowRun NfaDevice::stream_window(StreamCarry& carry, std::span<const Symbol> window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

WindowRun NfaDevice::stream_window(StreamCarry& carry, const ByteSpan& window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
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
WindowRun RidDevice::window_body(StreamCarry& carry, const Input& input, ThreadPool& pool,
                                 const QueryOptions& options,
                                 const QueryGovernor* governor) const {
  if (!window_begins(carry, input.size())) return {};

  const Dfa& ca = ridfa_.dfa();
  // The first chunk continues from the carried PLAS (through the interface
  // function). Only the interface states are speculative starts of later
  // chunks — this is the whole point of the RI-DFA (|I_B| = |Q_N| or less
  // after minimization).
  const std::vector<State> continuation =
      carry.at_start ? std::vector<State>{ridfa_.start_state()}
                     : ridfa_.interface_image(carry.states);
  const DetChunkOptions run_options = kernel_options(options, governor);
  return run_window<DetChunkResult>(
      carry, input, pool, options.chunks, governor,
      [&](const Input& span, const ChunkSpan& at) {
        const std::span<const State> starts =
            at.begin == 0 ? std::span<const State>(continuation)
                          : std::span<const State>(ridfa_.initial_states());
        return run_chunk_det(ca, span, starts, run_options);
      },
      // PLAS as an explicit CA-state list: between chunks it passes through
      // the interface function (Sect. 3.2 / 3.4), which maps each contained
      // NFA state to its (delegated) initial CA state. The first chunk's
      // survivors are kept verbatim (their starts were already filtered
      // through the carried PLAS).
      [&](const std::vector<DetChunkResult>& results) {
        std::vector<State> plas;
        bool first_chunk = true;
        for (const auto& chunk_result : results) {
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
      });
}

WindowRun RidDevice::stream_window(StreamCarry& carry, std::span<const Symbol> window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

WindowRun RidDevice::stream_window(StreamCarry& carry, const ByteSpan& window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
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
WindowRun SfaDevice::window_body(StreamCarry& carry, const Input& input, ThreadPool& pool,
                                 const QueryOptions& options,
                                 const QueryGovernor* governor) const {
  if (!window_begins(carry, input.size())) return {};

  // One SFA run per chunk, from the identity mapping — no speculation.
  // Governance is chunk-boundary only: Sfa::run is an opaque packed scan
  // with no start parameter, so there is no mid-chunk resume point worth a
  // finer stride (raise options.chunks for tighter trip latency).
  struct Arrival {
    State state = kDeadState;
    std::uint64_t transitions = 0;
  };
  return run_window<Arrival>(
      carry, input, pool, options.chunks, governor,
      [&](const Input& chunk, const ChunkSpan&) {
        std::vector<Symbol> buffer;  // a byte chunk is translated here, on the pool
        Arrival arrival;
        arrival.state = run_chunk(detail::chunk_symbols(chunk, buffer), arrival.transitions);
        return arrival;
      },
      // Compose: thread the carried CA state through each chunk's mapping.
      [&](const std::vector<Arrival>& arrivals) {
        State state = carry.at_start ? ca_.initial() : carry.states.front();
        for (const Arrival& arrival : arrivals) {
          if (state == kDeadState) break;
          state = arrival.state == kDeadState
                      ? kDeadState
                      : sfa_.mapping_entry(arrival.state, state);
        }
        carry.states.clear();
        if (state != kDeadState) carry.states.push_back(state);
      });
}

WindowRun SfaDevice::stream_window(StreamCarry& carry, std::span<const Symbol> window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

WindowRun SfaDevice::stream_window(StreamCarry& carry, const ByteSpan& window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

bool SfaDevice::stream_accepted(const StreamCarry& carry) const {
  if (carry.at_start) return ca_.is_final(ca_.initial());
  return !carry.states.empty() && ca_.is_final(carry.states.front());
}

}  // namespace rispar
