#include "parallel/ca_run.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "automata/packed_table.hpp"
#include "automata/symbol_map.hpp"
#include "parallel/kernel_input.hpp"
#include "util/simd_gather.hpp"

namespace rispar {

namespace {

// ---------------------------------------------------------------------------
// Reference kernels — the seed implementations, kept verbatim as the oracle
// for the fused kernels (property-tested equivalence) and as the baseline of
// the A/B microbenchmarks. See the header for the accounting convention.
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

// ---------------------------------------------------------------------------
// Fused kernels — one pass over the chunk for all starts, on the packed
// width-specialized table. Each is written once over a reader
// (parallel/kernel_input.hpp): a symbol span or raw bytes. The reader gives
// every unit a column — the dead column for an alien — so the inner loops
// perform no validity checks.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kNoMember = std::numeric_limits<std::uint32_t>::max();

// The lockstep loops run in blocks of this many units, with the governance
// checkpoint between blocks (and the SIMD lockstep translates/validates one
// block at a time into its stack buffer).
constexpr std::size_t kBlock = 512;

// Scalar fast path for a single speculative start (chunk 1 of every device
// and the serial ablations): one run over units [from, size), no SoA
// bookkeeping. Under governance the run is consumed in kGovernorStride
// slices with a poll between them — the ungoverned path keeps the one-call
// hot loop intact.
template <typename Reader>
DetChunkResult fused_single(const Reader& in, std::size_t from, State start,
                            const QueryGovernor* gov) {
  DetChunkResult result;
  if (gov == nullptr) {
    const PackedRun run = in.run(start, from, in.size() - from);
    result.transitions = run.consumed;
    if (run.end != kDeadState) result.lambda.emplace_back(start, run.end);
    return result;
  }
  State state = start;
  std::size_t pos = from;
  while (pos < in.size()) {
    gov->poll();
    const std::size_t len = std::min(kGovernorStride, in.size() - pos);
    const PackedRun run = in.run(state, pos, len);
    result.transitions += run.consumed;
    if (run.end == kDeadState) return result;  // died; killing unit uncounted
    state = run.end;
    pos += len;
  }
  result.lambda.emplace_back(start, state);
  return result;
}

// Lockstep SoA kernel (independent-run semantics): every live run advances
// one unit per round; dead runs are compacted out so the per-unit cost is
// O(live). The chunk is streamed exactly once regardless of |starts|.
template <typename T, typename Reader>
DetChunkResult fused_lockstep(const Reader& in, std::span<const State> starts,
                              const QueryGovernor* gov) {
  if (starts.size() == 1) return fused_single(in, 0, starts[0], gov);

  constexpr T kDead = PackedDead<T>::value;
  DetChunkResult result;
  std::vector<T> state(starts.size());
  std::vector<std::uint32_t> origin(starts.size());  // index into starts
  for (std::size_t i = 0; i < starts.size(); ++i) {
    state[i] = static_cast<T>(starts[i]);
    origin[i] = static_cast<std::uint32_t>(i);
  }

  std::size_t live = starts.size();
  std::size_t pos = 0;
  std::size_t next_poll = kGovernorStride;  // governance checkpoint position
  while (pos < in.size() && live > 0) {
    if (gov != nullptr && pos >= next_poll) {
      gov->poll();
      next_poll = pos + kGovernorStride;
    }
    if (live == 1) {
      // Lone survivor: finish with the scalar loop (no SoA bookkeeping).
      DetChunkResult tail = fused_single(in, pos, static_cast<State>(state[0]), gov);
      result.transitions += tail.transitions;
      if (!tail.lambda.empty())
        result.lambda.emplace_back(starts[origin[0]], tail.lambda.front().second);
      return result;
    }
    const std::size_t block_end = std::min(pos + kBlock, in.size());
    for (; pos < block_end && live > 1; ++pos) {
      // Symbol-major layout: one column base per unit, no per-run multiply.
      const T* col = in.column(pos);
      std::size_t write = 0;
      for (std::size_t i = 0; i < live; ++i) {
        const T next = col[state[i]];
        if (next == kDead) continue;
        state[write] = next;
        origin[write] = origin[i];
        ++write;
      }
      result.transitions += write;  // one per run surviving this unit
      live = write;
    }
  }

  result.lambda.reserve(live);
  // Compaction preserves relative order, so origin[] ascends = starts order.
  for (std::size_t i = 0; i < live; ++i)
    result.lambda.emplace_back(starts[origin[i]], static_cast<State>(state[i]));
  return result;
}

// Epoch-stamped convergent kernel. Collision detection per unit uses a
// dense state→group stamp array (the epoch counter makes clearing free) and
// group membership is a flat head/tail/next-pointer scheme over start
// indices, so merging two groups is a constant-time splice — no hashing, no
// allocation anywhere in the loop.
template <typename T, typename Reader>
DetChunkResult fused_convergent(const PackedTable& table, const Reader& in,
                                std::span<const State> starts,
                                const QueryGovernor* gov) {
  constexpr T kDead = PackedDead<T>::value;
  const auto num_states = static_cast<std::size_t>(table.num_states());

  DetChunkResult result;
  // Per-group SoA: current state, and the member list as [head, tail] into
  // next_member (members are indices into `starts`).
  std::vector<T> group_state(starts.size());
  std::vector<std::uint32_t> head(starts.size());
  std::vector<std::uint32_t> tail(starts.size());
  std::vector<std::uint32_t> next_member(starts.size(), kNoMember);

  // stamp[s] == epoch ⇔ state s already owns a group this round; group_at[s]
  // is that group's index. Epochs start at 1 so the zero-filled array means
  // "unseen"; 64-bit so one increment per unit can never wrap.
  std::vector<std::uint64_t> stamp(num_states, 0);
  std::vector<std::uint32_t> group_at(num_states);
  std::uint64_t epoch = 1;

  std::size_t groups = 0;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto s = static_cast<std::size_t>(starts[i]);
    if (stamp[s] == epoch) {
      const std::uint32_t g = group_at[s];
      next_member[tail[g]] = static_cast<std::uint32_t>(i);
      tail[g] = static_cast<std::uint32_t>(i);
    } else {
      stamp[s] = epoch;
      group_at[s] = static_cast<std::uint32_t>(groups);
      group_state[groups] = static_cast<T>(starts[i]);
      head[groups] = tail[groups] = static_cast<std::uint32_t>(i);
      ++groups;
    }
  }

  std::size_t pos = 0;
  std::size_t next_poll = kGovernorStride;  // governance checkpoint position
  while (pos < in.size() && groups > 0) {
    if (gov != nullptr && pos >= next_poll) {
      gov->poll();
      next_poll = pos + kGovernorStride;
    }
    if (groups == 1) {
      // All runs converged: finish with the scalar loop and scatter the one
      // end state over the group's members.
      DetChunkResult tail =
          fused_single(in, pos, static_cast<State>(group_state[0]), gov);
      result.transitions += tail.transitions;
      if (tail.lambda.empty()) return result;  // the merged run died
      const State end = tail.lambda.front().second;
      result.distinct_ends.push_back(end);
      std::vector<State> end_of(starts.size(), kDeadState);
      for (std::uint32_t i = head[0]; i != kNoMember; i = next_member[i]) end_of[i] = end;
      for (std::size_t i = 0; i < starts.size(); ++i)
        if (end_of[i] != kDeadState) result.lambda.emplace_back(starts[i], end_of[i]);
      return result;
    }
    const std::size_t block_end = std::min(pos + kBlock, in.size());
    for (; pos < block_end && groups > 1; ++pos) {
      const T* col = in.column(pos);
      ++epoch;
      std::size_t write = 0;
      for (std::size_t g = 0; g < groups; ++g) {
        const T next = col[group_state[g]];
        if (next == kDead) continue;  // whole group dies (not counted)
        ++result.transitions;         // one executed transition per live group
        const auto ns = static_cast<std::size_t>(next);
        if (stamp[ns] == epoch) {
          // Collision: splice g's member list onto the owning group's tail.
          const std::uint32_t dst = group_at[ns];
          next_member[tail[dst]] = head[g];
          tail[dst] = tail[g];
        } else {
          stamp[ns] = epoch;
          group_at[ns] = static_cast<std::uint32_t>(write);
          group_state[write] = next;  // write <= g: slot already consumed
          head[write] = head[g];
          tail[write] = tail[g];
          ++write;
        }
      }
      groups = write;
    }
  }

  result.distinct_ends.reserve(groups);
  // Emit λ in `starts` order: scatter each group's end over its members.
  std::vector<State> end_of(starts.size(), kDeadState);
  for (std::size_t g = 0; g < groups; ++g) {
    const auto end = static_cast<State>(group_state[g]);
    result.distinct_ends.push_back(end);
    for (std::uint32_t i = head[g]; i != kNoMember; i = next_member[i]) end_of[i] = end;
  }
  result.lambda.reserve(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i)
    if (end_of[i] != kDeadState) result.lambda.emplace_back(starts[i], end_of[i]);
  return result;
}

// ---------------------------------------------------------------------------
// SIMD kernels — the lockstep structure of the fused kernels, but every
// unit advances the whole live block through one vector gather
// (util/simd_gather.hpp) instead of N dependent scalar column loads. States
// live in an i32 SoA vector (the gather index type), dead runs are
// compacted out after every unit so the gather block stays dense, and the
// scalar single-run tail is shared with the fused kernels — accounting and
// λ emission are bit-identical across all three implementations.
// ---------------------------------------------------------------------------

// Lockstep gather kernel (independent-run semantics). Mirrors
// fused_lockstep unit for unit; the whole inner loop over a validated
// symbol block — column gathers, survivor tests, dead-run compaction,
// transition accounting — is one backend call (simd::AdvanceSpanFn), so
// per-symbol work never crosses the dispatch boundary. The backend takes
// symbols, so byte input is translated one block at a time into a stack
// buffer first.
template <typename T, typename Reader>
DetChunkResult simd_lockstep(const PackedTable& table, const Reader& in,
                             std::span<const State> starts,
                             const QueryGovernor* gov) {
  if (starts.size() == 1) return fused_single(in, 0, starts[0], gov);

  const simd::AdvanceSpanFn advance = simd::advance_span_fn<T>(simd::gather_ops());
  const T* entries = table.data<T>();
  const auto n = static_cast<std::size_t>(table.num_states());

  DetChunkResult result;
  std::vector<std::int32_t> state(starts.size());
  std::vector<std::uint32_t> origin(starts.size());  // index into starts
  for (std::size_t i = 0; i < starts.size(); ++i) {
    state[i] = starts[i];
    origin[i] = static_cast<std::uint32_t>(i);
  }

  Symbol buffer[kBlock];
  std::size_t live = starts.size();
  std::size_t pos = 0;
  std::size_t next_poll = kGovernorStride;  // governance checkpoint position
  while (pos < in.size() && live > 0) {
    if (gov != nullptr && pos >= next_poll) {
      gov->poll();
      next_poll = pos + kGovernorStride;
    }
    if (live == 1) {
      // Lone survivor: finish with the scalar loop (no SoA bookkeeping).
      DetChunkResult tail = fused_single(in, pos, static_cast<State>(state[0]), gov);
      result.transitions += tail.transitions;
      if (!tail.lambda.empty())
        result.lambda.emplace_back(starts[origin[0]], tail.lambda.front().second);
      return result;
    }
    const std::size_t length = std::min(kBlock, in.size() - pos);
    std::size_t valid = 0;
    const Symbol* symbols = in.symbols(pos, length, buffer, valid);
    const std::size_t consumed = advance(entries, n, symbols, valid, state.data(),
                                         origin.data(), live, result.transitions);
    pos += consumed;
    if (live > 1 && consumed == valid && valid < length)
      return result;  // alien unit at pos: every run dies uncounted
  }

  result.lambda.reserve(live);
  // Compaction preserves relative order, so origin[] ascends = starts order.
  for (std::size_t i = 0; i < live; ++i)
    result.lambda.emplace_back(starts[origin[i]], static_cast<State>(state[i]));
  return result;
}

// Gather-fed convergent kernel: the per-unit advance of all live groups is
// one vector gather IN PLACE over the group-state vector (the gather
// contract allows out == idx); the epoch-stamped merge bookkeeping of
// fused_convergent then runs over the advanced states. Group order, member
// splice order and the emitted λ are identical to the fused kernel.
template <typename T, typename Reader>
DetChunkResult simd_convergent(const PackedTable& table, const Reader& in,
                               std::span<const State> starts,
                               const QueryGovernor* gov) {
  constexpr std::int32_t kDeadWide = PackedWideDead<T>;
  const simd::GatherFn gather = simd::gather_fn<T>(simd::gather_ops());
  const auto num_states = static_cast<std::size_t>(table.num_states());

  DetChunkResult result;
  std::vector<std::int32_t> group_state(starts.size());
  std::vector<std::uint32_t> head(starts.size());
  std::vector<std::uint32_t> tail(starts.size());
  std::vector<std::uint32_t> next_member(starts.size(), kNoMember);

  std::vector<std::uint64_t> stamp(num_states, 0);
  std::vector<std::uint32_t> group_at(num_states);
  std::uint64_t epoch = 1;

  std::size_t groups = 0;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto s = static_cast<std::size_t>(starts[i]);
    if (stamp[s] == epoch) {
      const std::uint32_t g = group_at[s];
      next_member[tail[g]] = static_cast<std::uint32_t>(i);
      tail[g] = static_cast<std::uint32_t>(i);
    } else {
      stamp[s] = epoch;
      group_at[s] = static_cast<std::uint32_t>(groups);
      group_state[groups] = starts[i];
      head[groups] = tail[groups] = static_cast<std::uint32_t>(i);
      ++groups;
    }
  }

  std::size_t pos = 0;
  std::size_t next_poll = kGovernorStride;  // governance checkpoint position
  while (pos < in.size() && groups > 0) {
    if (gov != nullptr && pos >= next_poll) {
      gov->poll();
      next_poll = pos + kGovernorStride;
    }
    if (groups == 1) {
      // All runs converged: finish with the scalar loop and scatter the one
      // end state over the group's members.
      DetChunkResult scalar_tail =
          fused_single(in, pos, static_cast<State>(group_state[0]), gov);
      result.transitions += scalar_tail.transitions;
      if (scalar_tail.lambda.empty()) return result;  // the merged run died
      const State end = scalar_tail.lambda.front().second;
      result.distinct_ends.push_back(end);
      std::vector<State> end_of(starts.size(), kDeadState);
      for (std::uint32_t i = head[0]; i != kNoMember; i = next_member[i]) end_of[i] = end;
      for (std::size_t i = 0; i < starts.size(); ++i)
        if (end_of[i] != kDeadState) result.lambda.emplace_back(starts[i], end_of[i]);
      return result;
    }
    const std::size_t block_end = std::min(pos + kBlock, in.size());
    for (; pos < block_end && groups > 1; ++pos) {
      // An alien unit gathers from the dead column (which carries the
      // gather slack too), so every group dies.
      gather(in.column(pos), group_state.data(), groups, group_state.data());
      ++epoch;
      // The merge loop reads group_state[g] (the advanced value) before any
      // write to slot g: write <= g throughout, and the write at g is the
      // value itself.
      std::size_t write = 0;
      for (std::size_t g = 0; g < groups; ++g) {
        const std::int32_t value = group_state[g];
        if (value == kDeadWide) continue;  // whole group dies (not counted)
        ++result.transitions;              // one executed transition per live group
        const auto ns = static_cast<std::size_t>(value);
        if (stamp[ns] == epoch) {
          // Collision: splice g's member list onto the owning group's tail.
          const std::uint32_t dst = group_at[ns];
          next_member[tail[dst]] = head[g];
          tail[dst] = tail[g];
        } else {
          stamp[ns] = epoch;
          group_at[ns] = static_cast<std::uint32_t>(write);
          group_state[write] = value;  // write <= g: slot already consumed
          head[write] = head[g];
          tail[write] = tail[g];
          ++write;
        }
      }
      groups = write;
    }
  }

  result.distinct_ends.reserve(groups);
  // Emit λ in `starts` order: scatter each group's end over its members.
  std::vector<State> end_of(starts.size(), kDeadState);
  for (std::size_t g = 0; g < groups; ++g) {
    const auto end = static_cast<State>(group_state[g]);
    result.distinct_ends.push_back(end);
    for (std::uint32_t i = head[g]; i != kNoMember; i = next_member[i]) end_of[i] = end;
  }
  result.lambda.reserve(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i)
    if (end_of[i] != kDeadState) result.lambda.emplace_back(starts[i], end_of[i]);
  return result;
}

// run_chunk_det for either input: kReference steps the chunk's symbols (a
// byte chunk is translated here, in the calling task); the packed kernels
// read the input through its reader.
template <typename Input>
DetChunkResult run_det(const Dfa& dfa, const Input& chunk, std::span<const State> starts,
                       const DetChunkOptions& options) {
  // Normalize so the kernels only test a single pointer: inactive
  // governors (no deadline, no token) cost nothing inside the loops.
  const QueryGovernor* gov =
      options.governor != nullptr && options.governor->active() ? options.governor
                                                                : nullptr;
  if (options.kernel == DetKernel::kReference) {
    std::vector<Symbol> buffer;
    const std::span<const Symbol> symbols = detail::chunk_symbols(chunk, buffer);
    return options.convergence ? reference_convergent(dfa, symbols, starts, gov)
                               : reference_independent(dfa, symbols, starts, gov);
  }
  const PackedTable& table = dfa.packed();
  return detail::with_width(table, [&](auto width) {
    using T = decltype(width);
    const auto in = detail::reader<T>(table, chunk);
    if (options.kernel == DetKernel::kSimd)
      return options.convergence ? simd_convergent<T>(table, in, starts, gov)
                                 : simd_lockstep<T>(table, in, starts, gov);
    return options.convergence ? fused_convergent<T>(table, in, starts, gov)
                               : fused_lockstep<T>(in, starts, gov);
  });
}

}  // namespace

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
  return run_det(dfa, chunk, starts, options);
}

DetChunkResult run_chunk_det(const Dfa& dfa, const ByteSpan& chunk,
                             std::span<const State> starts,
                             const DetChunkOptions& options) {
  return run_det(dfa, chunk, starts, options);
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
