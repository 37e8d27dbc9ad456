#include "parallel/ca_run.hpp"

#include <unordered_map>

#include "parallel/chunk_core.hpp"

namespace rispar {

namespace {

// ---------------------------------------------------------------------------
// Reference kernels — the seed implementations, kept verbatim as the oracle
// for the chunk core (parallel/chunk_core.hpp; property-tested equivalence)
// and as the baseline of the A/B microbenchmarks. See the header for the
// accounting convention.
// ---------------------------------------------------------------------------

DetChunkResult reference_independent(const Dfa& dfa, std::span<const Symbol> chunk,
                                     std::span<const State> starts,
                                     const QueryGovernor* gov) {
  DetChunkResult result;
  result.lambda.reserve(starts.size());
  GovPoll poll(gov);
  for (const State start : starts) {
    State state = start;
    std::uint64_t steps = 0;
    for (const Symbol symbol : chunk) {
      poll.step();
      if (symbol < 0 || symbol >= dfa.num_symbols()) {
        state = kDeadState;
        break;
      }
      state = dfa.row(state)[symbol];
      if (state == kDeadState) break;
      ++steps;
    }
    result.transitions += steps;
    if (state != kDeadState) result.lambda.emplace_back(start, state);
  }
  return result;
}

DetChunkResult reference_convergent(const Dfa& dfa, std::span<const Symbol> chunk,
                                    std::span<const State> starts,
                                    const QueryGovernor* gov) {
  DetChunkResult result;
  // group_state[g] = current state of merged group g; members[g] = starts.
  std::vector<State> group_state;
  std::vector<std::vector<State>> members;
  {
    std::unordered_map<State, std::size_t> seen;
    for (const State start : starts) {
      const auto [it, inserted] = seen.emplace(start, group_state.size());
      if (inserted) {
        group_state.push_back(start);
        members.push_back({start});
      } else {
        members[it->second].push_back(start);
      }
    }
  }

  std::unordered_map<State, std::size_t> collide;
  GovPoll poll(gov);
  for (const Symbol symbol : chunk) {
    poll.step();
    if (group_state.empty()) break;
    if (symbol < 0 || symbol >= dfa.num_symbols()) {
      group_state.clear();
      break;
    }
    collide.clear();
    std::size_t write = 0;
    for (std::size_t g = 0; g < group_state.size(); ++g) {
      const State next = dfa.row(group_state[g])[symbol];
      if (next == kDeadState) continue;  // whole group dies (not counted)
      ++result.transitions;  // one executed transition per surviving group
      const auto [it, inserted] = collide.emplace(next, write);
      if (inserted) {
        group_state[write] = next;
        if (write != g) members[write] = std::move(members[g]);
        ++write;
      } else {
        auto& sink = members[it->second];
        sink.insert(sink.end(), members[g].begin(), members[g].end());
      }
    }
    group_state.resize(write);
    members.resize(write);
  }

  result.distinct_ends = group_state;
  // Emit λ in `starts` order for deterministic output.
  std::unordered_map<State, State> end_of;
  for (std::size_t g = 0; g < group_state.size(); ++g)
    for (const State start : members[g]) end_of.emplace(start, group_state[g]);
  for (const State start : starts)
    if (const auto it = end_of.find(start); it != end_of.end())
      result.lambda.emplace_back(start, it->second);
  return result;
}

}  // namespace

namespace detail {

DetChunkResult reference_chunk(const Dfa& dfa, std::span<const Symbol> chunk,
                               std::span<const State> starts, bool convergence,
                               const QueryGovernor* gov) {
  return convergence ? reference_convergent(dfa, chunk, starts, gov)
                     : reference_independent(dfa, chunk, starts, gov);
}

}  // namespace detail

const char* kernel_name(DetKernel kernel) {
  switch (kernel) {
    case DetKernel::kFused: return "fused";
    case DetKernel::kReference: return "reference";
    case DetKernel::kSimd: return "simd";
  }
  return "?";
}

DetChunkResult run_chunk_det(const Dfa& dfa, std::span<const Symbol> chunk,
                             std::span<const State> starts,
                             const DetChunkOptions& options) {
  return detail::run_chunk<detail::LambdaStore>(dfa, chunk, starts, options.kernel,
                                                options.convergence, options.governor);
}

DetChunkResult run_chunk_det(const Dfa& dfa, const ByteSpan& chunk,
                             std::span<const State> starts,
                             const DetChunkOptions& options) {
  return detail::run_chunk<detail::LambdaStore>(dfa, chunk, starts, options.kernel,
                                                options.convergence, options.governor);
}

NfaChunkResult run_chunk_nfa(const Nfa& nfa, std::span<const Symbol> chunk,
                             std::span<const State> starts,
                             const QueryGovernor* governor) {
  NfaChunkResult result;
  const auto universe = static_cast<std::size_t>(nfa.num_states());
  Bitset frontier(universe);
  Bitset next(universe);
  GovPoll poll(governor);
  for (const State start : starts) {
    frontier.clear();
    frontier.set(static_cast<std::size_t>(start));
    for (const Symbol symbol : chunk) {
      poll.step();
      if (symbol < 0 || symbol >= nfa.num_symbols()) {
        frontier.clear();
        break;
      }
      next.clear();
      for (std::size_t s = frontier.first(); s != Bitset::npos; s = frontier.next(s)) {
        for (const auto& edge : nfa.edges(static_cast<State>(s), symbol)) {
          ++result.transitions;
          next.set(static_cast<std::size_t>(edge.target));
        }
      }
      std::swap(frontier, next);
      if (frontier.empty()) break;
    }
    if (!frontier.empty()) result.lambda.emplace_back(start, frontier);
  }
  return result;
}

NfaChunkResult run_chunk_nfa_union(const Nfa& nfa, std::span<const Symbol> chunk,
                                   std::span<const State> starts,
                                   const QueryGovernor* governor) {
  NfaChunkResult result;
  if (starts.empty()) return result;
  const auto universe = static_cast<std::size_t>(nfa.num_states());
  Bitset frontier(universe);
  Bitset next(universe);
  GovPoll poll(governor);
  for (const State start : starts) frontier.set(static_cast<std::size_t>(start));
  for (const Symbol symbol : chunk) {
    poll.step();
    if (symbol < 0 || symbol >= nfa.num_symbols()) {
      frontier.clear();
      break;
    }
    next.clear();
    for (std::size_t s = frontier.first(); s != Bitset::npos; s = frontier.next(s)) {
      for (const auto& edge : nfa.edges(static_cast<State>(s), symbol)) {
        ++result.transitions;
        next.set(static_cast<std::size_t>(edge.target));
      }
    }
    std::swap(frontier, next);
    if (frontier.empty()) break;
  }
  if (!frontier.empty()) result.lambda.emplace_back(starts.front(), frontier);
  return result;
}

}  // namespace rispar
