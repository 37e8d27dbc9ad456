// The one core of the deterministic chunk kernels: recognize's λ runs
// (run_chunk_det), the lookback probe of chunk_starts, and the hit-recording
// runs of count, find and streaming find are all run_chunk below, over a
// store policy:
//
//  * LambdaStore — records nothing per step; a convergence merge records
//    the parent link the merged start's λ entry is read through. Serves
//    run_chunk_det and the probe (reached_states).
//  * HitStore<Hits> — records (end, last separator) per hit into a
//    FindNode per start: Hits = std::vector<FindHit> for find, HitCount
//    for count (O(states) memory per chunk).
//
// Live runs sit in a SoA lane vector of the step's lane type (the packed
// table's width T for the scalar column step) with an origin tag (index
// into `starts`); dead runs are compacted out after every unit, so a unit
// costs O(live). The per-start record (FindNode) is written only on a hit,
// a merge or a death, and when the chunk ends. Under convergence, runs that
// land in one state at one position merge: the later-created run records
// its parent (a parent always precedes its child in `starts`), and λ and
// distinct_ends (in group-creation order) are read off that forest — the
// same forest the find join's walk_chains/emit_chain follow. Duplicate
// starts merge at position 0 under convergence and run separately without.
//
// One dispatch rule serves every store (run_chunk):
//
//  * kReference — recognize's verbatim oracle kernels (ca_run.cpp) for the
//    λ store; the RowStep lockstep (row-table lookups, per-symbol range
//    check) for the hit stores;
//  * kSimd from kGatherFloor starts — the per-unit gather step, or for the
//    independent λ store the AdvanceSpanFn block step (util/simd_gather.hpp);
//  * otherwise the scalar lockstep over the packed column (kFused);
//  * and a packed-table lockstep with one live run — one start from the
//    outset, or a lone survivor — hands it to the one-start scan (`scan`):
//    the run_packed_* loop for the λ store, the register-resident hit loop
//    for the hit stores.
//
// Every step policy gives bit-identical λ, distinct_ends, hits and
// transitions (accounting: parallel/ca_run.hpp).
// Governance is one scheme (StridePoll): a poll at most every
// kGovernorStride units, between lockstep blocks or scan slices, never in
// an inner loop. Internal to the parallel/ kernels.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "automata/dfa.hpp"
#include "automata/packed_table.hpp"
#include "parallel/ca_run.hpp"
#include "parallel/kernel_input.hpp"
#include "util/governance.hpp"
#include "util/simd_gather.hpp"

namespace rispar::detail {

/// The lockstep loops run in blocks of at most this many units; the λ
/// block step translates and validates one block at a time into a stack
/// buffer.
inline constexpr std::size_t kBlock = 512;

/// Below this many starts kSimd runs the scalar lockstep: a gather block
/// would pay a dispatch per unit for a scalar tail.
inline constexpr std::size_t kGatherFloor = 8;

/// The core's one governance scheme: `at(pos, size)` polls when a
/// checkpoint is due and returns where the next one falls (capped at
/// `size`), so loops run [pos, at(pos, size)) without polling inside.
struct StridePoll {
  const QueryGovernor* gov;
  std::size_t next = 0;

  std::size_t at(std::size_t pos, std::size_t size) {
    if (gov == nullptr) return size;
    if (pos >= next) {
      gov->poll();
      next = pos + kGovernorStride;
    }
    return std::min(size, next);
  }
};

// ------------------------------------------------------------------ stores

/// One recorded occurrence of a chunk run: `pos` is the chunk-local end
/// position (1-based: after consuming `pos` symbols) and `sep` the run's
/// last separator at that moment — chunk-local, or -1 when the run has not
/// passed through the initial state since the chunk began (the begin then
/// resolves through the join's carried tracker).
struct FindHit {
  std::uint64_t pos;
  std::int64_t sep;
};

/// The hit store of count_matches: push_back/size over a bare counter.
struct HitCount {
  std::size_t n = 0;
  void push_back(const FindHit& /*hit*/) { ++n; }
  std::size_t size() const { return n; }
};

/// One start's record. While its run leads (no parent) it holds its own
/// hits and separator tracker; when convergence merges it into `parent` at
/// `merge_pos`, the parent's hits from index parent_base on are shared,
/// with `last_sep` frozen as the run's own history up to the merge. The
/// join reconstructs only the consistent start's chain.
template <typename Hits>
struct FindNode {
  State state = kDeadState;
  Hits hits;
  std::int64_t last_sep = -1;
  std::int32_t parent = -1;
  std::size_t parent_base = 0;
  std::int64_t merge_pos = 0;
  bool dead = false;
};

template <typename Hits>
struct FindChunk {
  std::vector<State> starts;          ///< sorted, distinct (chunk_starts)
  std::vector<FindNode<Hits>> nodes;  ///< one per start, in `starts` order
  std::uint64_t transitions = 0;
};

/// Store policy of recognize and the probe: λ in `starts` order and, under
/// convergence, distinct_ends.
class LambdaStore {
 public:
  using Result = DetChunkResult;
  static constexpr bool kHits = false;

  LambdaStore(const Dfa& /*dfa*/, std::span<const State> starts, bool convergent)
      : starts_(starts), parent_(convergent ? starts.size() : 0, -1) {}

  void seed(std::size_t, State) {}
  template <typename Lane>
  void step(std::size_t, std::uint32_t, Lane, std::int64_t) {}
  void keep(std::size_t, std::size_t) {}
  void die(std::size_t, std::uint32_t) {}
  void merge(std::size_t, std::uint32_t origin, std::uint32_t owner, std::int64_t) {
    parent_[origin] = static_cast<std::int32_t>(owner);
  }

  /// The surviving lanes (origins ascending) end their own starts — under
  /// convergence the roots, in group-creation order; a merged start takes
  /// its parent's end.
  template <typename Lane>
  DetChunkResult finish(const Lane* state, const std::uint32_t* origin, std::size_t live,
                        std::uint64_t transitions) {
    DetChunkResult result;
    result.transitions = transitions;
    std::vector<State> end_of(starts_.size(), kDeadState);
    for (std::size_t i = 0; i < live; ++i) {
      end_of[origin[i]] = static_cast<State>(state[i]);
      if (!parent_.empty()) result.distinct_ends.push_back(end_of[origin[i]]);
    }
    for (std::size_t i = 0; i < starts_.size(); ++i) {
      if (!parent_.empty() && parent_[i] != -1) end_of[i] = end_of[parent_[i]];
      if (end_of[i] != kDeadState) result.lambda.emplace_back(starts_[i], end_of[i]);
    }
    return result;
  }

 private:
  std::span<const State> starts_;
  std::vector<std::int32_t> parent_;  ///< per start; empty when independent
};

/// Store policy of count (Hits = HitCount) and find (std::vector<FindHit>):
/// a FindNode per start, plus each lane's last separator.
template <typename Hits>
class HitStore {
 public:
  using Result = FindChunk<Hits>;
  static constexpr bool kHits = true;

  HitStore(const Dfa& dfa, std::span<const State> starts, bool /*convergent*/)
      : initial_(dfa.initial()), finals_(dfa.finals()), sep_(starts.size()) {
    chunk_.nodes.resize(starts.size());
  }

  State initial() const { return initial_; }
  const Bitset& finals() const { return finals_; }
  std::int64_t& sep(std::size_t lane) { return sep_[lane]; }
  Hits& hits(std::uint32_t origin) { return chunk_.nodes[origin].hits; }

  void seed(std::size_t lane, State start) { sep_[lane] = start == initial_ ? 0 : -1; }
  template <typename Lane>
  void step(std::size_t lane, std::uint32_t origin, Lane next, std::int64_t pos) {
    if (static_cast<State>(next) == initial_) sep_[lane] = pos;
    if (finals_.test(static_cast<std::size_t>(next)))
      chunk_.nodes[origin].hits.push_back({static_cast<std::uint64_t>(pos), sep_[lane]});
  }
  void keep(std::size_t to, std::size_t from) { sep_[to] = sep_[from]; }
  void die(std::size_t lane, std::uint32_t origin) {
    FindNode<Hits>& node = chunk_.nodes[origin];
    node.dead = true;
    node.last_sep = sep_[lane];
  }
  /// The owner ran earlier this unit, so its hits already hold this
  /// position's hit — sharing starts after it.
  void merge(std::size_t lane, std::uint32_t origin, std::uint32_t owner,
             std::int64_t pos) {
    FindNode<Hits>& node = chunk_.nodes[origin];
    node.parent = static_cast<std::int32_t>(owner);
    node.parent_base = chunk_.nodes[owner].hits.size();
    node.merge_pos = pos;
    node.last_sep = sep_[lane];
  }

  template <typename Lane>
  FindChunk<Hits> finish(const Lane* state, const std::uint32_t* origin, std::size_t live,
                         std::uint64_t transitions) {
    for (std::size_t i = 0; i < live; ++i) {
      FindNode<Hits>& node = chunk_.nodes[origin[i]];
      node.state = static_cast<State>(state[i]);
      node.last_sep = sep_[i];
    }
    chunk_.transitions = transitions;
    return std::move(chunk_);
  }

 private:
  State initial_;
  const Bitset& finals_;
  std::vector<std::int64_t> sep_;  ///< per lane
  FindChunk<Hits> chunk_;
};

// ------------------------------------------------------------------- steps

/// kFused: the width-packed symbol-major column, read through a kernel
/// input reader (symbols or bytes); an alien unit reads the dead column.
template <typename T, typename Reader>
struct ColumnStep {
  using Entry = T;
  using Lane = T;
  static constexpr Lane kDead = PackedDead<T>::value;
  static constexpr bool kScan = true, kSpan = false;
  const Reader& in;
  const T* col = nullptr;

  std::size_t size() const { return in.size(); }
  void prepare(std::size_t pos, Lane* /*state*/, std::size_t /*live*/) {
    col = in.column(pos);
  }
  Lane next(Lane state) const { return col[state]; }
};

/// kSimd: one vector gather advances every live lane in place (the gather
/// contract allows out == idx) before the bookkeeping reads them.
template <typename T, typename Reader>
struct GatherStep {
  using Entry = T;
  using Lane = std::int32_t;
  static constexpr Lane kDead = PackedWideDead<T>;
  static constexpr bool kScan = true, kSpan = false;
  const Reader& in;
  simd::GatherFn gather = simd::gather_fn<T>(simd::gather_ops());

  std::size_t size() const { return in.size(); }
  void prepare(std::size_t pos, Lane* state, std::size_t live) {
    gather(in.column(pos), state, live, state);
  }
  static Lane next(Lane state) { return state; }
};

/// find's kReference: row-table lookups over the chunk's symbols with the
/// per-symbol range check; no packed reader, so no one-start scan.
struct RowStep {
  using Lane = State;
  static constexpr Lane kDead = kDeadState;
  static constexpr bool kScan = false, kSpan = false;
  const Dfa& dfa;
  std::span<const Symbol> symbols;
  Symbol symbol = 0;
  bool valid = false;

  std::size_t size() const { return symbols.size(); }
  void prepare(std::size_t pos, Lane* /*state*/, std::size_t /*live*/) {
    symbol = symbols[pos];
    valid = symbol >= 0 && symbol < dfa.num_symbols();
  }
  Lane next(Lane state) const { return valid ? dfa.row(state)[symbol] : kDeadState; }
};

/// The independent λ store's kSimd step: one AdvanceSpanFn call runs a
/// whole validated block — gathers, survivor tests, compaction, accounting
/// — so per-unit work never crosses the dispatch boundary. Byte input is
/// translated one block at a time into a stack buffer.
template <typename T, typename Reader>
struct SpanStep {
  using Entry = T;
  using Lane = std::int32_t;
  static constexpr bool kScan = true, kSpan = true;
  const Reader& in;
  const T* entries;
  std::size_t num_states;
  simd::AdvanceSpanFn advance = simd::advance_span_fn<T>(simd::gather_ops());

  std::size_t size() const { return in.size(); }
  /// Advances the lanes over units [pos, end) and returns the new position.
  std::size_t advance_block(std::size_t pos, std::size_t end, Lane* state,
                            std::uint32_t* origin, std::size_t& live,
                            std::uint64_t& transitions) const {
    Symbol buffer[kBlock];
    std::size_t valid = 0;
    const Symbol* symbols = in.symbols(pos, end - pos, buffer, valid);
    const std::size_t consumed =
        advance(entries, num_states, symbols, valid, state, origin, live, transitions);
    if (live > 1 && consumed == valid && pos + valid < end)
      live = 0;  // alien unit: every run dies uncounted
    return pos + consumed;
  }
};

// -------------------------------------------------------------------- runs

/// The one-start scan: runs `state` (lane 0, start `origin`) over units
/// [pos, in.size()) of a packed reader in poll slices. False when the run
/// dies; the dying unit is not counted.
template <typename T, typename Reader, typename Store>
bool scan(const Reader& in, std::size_t pos, State& state, Store& store,
          std::uint32_t origin, StridePoll& poll, std::uint64_t& transitions) {
  if constexpr (!Store::kHits) {
    if (poll.gov == nullptr) {  // one call: the hot loop stays whole
      const PackedRun run = in.run(state, pos, in.size() - pos);
      transitions += run.consumed;
      state = run.end;
      return run.end != kDeadState;
    }
  }
  while (pos < in.size()) {
    const std::size_t end = poll.at(pos, in.size());
    if constexpr (!Store::kHits) {
      const PackedRun run = in.run(state, pos, end - pos);
      transitions += run.consumed;
      if (run.end == kDeadState) return false;
      state = run.end;
      pos = end;
    } else {
      // State (held as the index it is, like run_packed_*), separator and
      // position stay in registers.
      constexpr auto kDead = static_cast<std::size_t>(PackedDead<T>::value);
      const auto initial = static_cast<std::size_t>(store.initial());
      const Bitset& finals = store.finals();
      auto& hits = store.hits(origin);
      auto current = static_cast<std::size_t>(state);
      std::int64_t last_sep = store.sep(0);
      const std::size_t from = pos;
      for (; pos < end; ++pos) {
        const auto next = static_cast<std::size_t>(in.column(pos)[current]);
        if (next == kDead) break;
        current = next;
        if (current == initial) last_sep = static_cast<std::int64_t>(pos) + 1;
        if (finals.test(current))
          hits.push_back({static_cast<std::uint64_t>(pos) + 1, last_sep});
      }
      transitions += pos - from;
      state = static_cast<State>(current);
      store.sep(0) = last_sep;
      if (pos < end) return false;
    }
  }
  return true;
}

/// The lockstep over one lane per start (per distinct start under
/// convergence), handing a lone lane — one start, or the last survivor —
/// to the one-start scan. Kept out
/// of line: inlined into the dispatch, its inner loop spills the lane
/// pointers to the stack.
template <bool kConvergent, typename Step, typename Store>
[[gnu::noinline]] typename Store::Result lockstep(Step step, Store& store,
                                                  std::span<const State> starts,
                                                  std::size_t num_states,
                                                  const QueryGovernor* gov) {
  using Lane = typename Step::Lane;
  std::vector<Lane> state(starts.size());
  std::vector<std::uint32_t> origin(starts.size());
  // Convergence: stamp[s] == epoch ⇔ state s owns lane lane_at[s] this unit.
  // Epochs start at 1 so the zero fill means "unseen"; 64-bit, never wraps.
  std::vector<std::uint64_t> stamp(kConvergent ? num_states : 0, 0);
  std::vector<std::uint32_t> lane_at(kConvergent ? num_states : 0);
  std::uint64_t epoch = 1;

  std::size_t live = 0;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto s = static_cast<std::size_t>(starts[i]);
    if constexpr (kConvergent) {
      if (stamp[s] == epoch) {
        store.merge(lane_at[s], static_cast<std::uint32_t>(i), origin[lane_at[s]], 0);
        continue;
      }
      stamp[s] = epoch;
      lane_at[s] = static_cast<std::uint32_t>(live);
    }
    state[live] = static_cast<Lane>(starts[i]);
    origin[live] = static_cast<std::uint32_t>(i);
    store.seed(live, starts[i]);
    ++live;
  }

  // The lanes left when the one-start scan takes over.
  constexpr std::size_t kFloor = Step::kScan ? 1 : 0;
  std::uint64_t transitions = 0;
  std::size_t pos = 0;
  StridePoll poll{gov};
  while (pos < step.size() && live > kFloor) {
    const std::size_t block_end = std::min(pos + kBlock, poll.at(pos, step.size()));
    if constexpr (Step::kSpan) {
      static_assert(!kConvergent && !Store::kHits);
      pos = step.advance_block(pos, block_end, state.data(), origin.data(), live,
                               transitions);
    } else {
      for (; pos < block_end && live > kFloor; ++pos) {
        step.prepare(pos, state.data(), live);
        if constexpr (kConvergent) ++epoch;
        const auto at = static_cast<std::int64_t>(pos) + 1;
        std::size_t write = 0;
        for (std::size_t i = 0; i < live; ++i) {
          const Lane next = step.next(state[i]);
          if (next == Step::kDead) {  // the dying unit is not counted
            store.die(i, origin[i]);
            continue;
          }
          store.step(i, origin[i], next, at);
          if constexpr (kConvergent) {
            ++transitions;  // one per live group, merged ones included
            const auto ns = static_cast<std::size_t>(next);
            if (stamp[ns] == epoch) {
              store.merge(i, origin[i], origin[lane_at[ns]], at);
              continue;
            }
            stamp[ns] = epoch;
            lane_at[ns] = static_cast<std::uint32_t>(write);
          }
          state[write] = next;  // write <= i: slot already consumed
          origin[write] = origin[i];
          store.keep(write, i);
          ++write;
        }
        if constexpr (!kConvergent) transitions += write;  // one per surviving run
        live = write;
      }
    }
  }

  if constexpr (Step::kScan) {
    if (live == 1 && pos < step.size()) {
      auto current = static_cast<State>(state[0]);
      if (scan<typename Step::Entry>(step.in, pos, current, store, origin[0], poll,
                                     transitions)) {
        state[0] = static_cast<Lane>(current);
      } else {
        store.die(0, origin[0]);
        live = 0;
      }
    }
  }
  return store.finish(state.data(), origin.data(), live, transitions);
}

/// Recognize's kReference: the verbatim oracle kernels of ca_run.cpp.
DetChunkResult reference_chunk(const Dfa& dfa, std::span<const Symbol> chunk,
                               std::span<const State> starts, bool convergence,
                               const QueryGovernor* gov);

/// The one dispatch rule (header comment) of every deterministic chunk run
/// of `starts` over `input` (a symbol span or a ByteSpan).
template <typename Store, typename Input>
typename Store::Result run_chunk(const Dfa& dfa, const Input& input,
                                 std::span<const State> starts, DetKernel kernel,
                                 bool convergence, const QueryGovernor* gov) {
  // Inactive governors (no deadline, no token) cost nothing below.
  if (gov != nullptr && !gov->active()) gov = nullptr;
  const auto num_states = static_cast<std::size_t>(dfa.num_states());
  Store store(dfa, starts, convergence);
  const auto run_lockstep = [&](auto step) {
    return convergence ? lockstep<true>(step, store, starts, num_states, gov)
                       : lockstep<false>(step, store, starts, num_states, gov);
  };
  if (kernel == DetKernel::kReference) {
    std::vector<Symbol> buffer;  // a byte chunk is translated here, in its task
    const std::span<const Symbol> symbols = chunk_symbols(input, buffer);
    if constexpr (Store::kHits) {
      return run_lockstep(RowStep{dfa, symbols});
    } else {
      return reference_chunk(dfa, symbols, starts, convergence, gov);
    }
  }
  const PackedTable& table = dfa.packed();
  return with_width(table, [&](auto width) -> typename Store::Result {
    using T = decltype(width);
    const auto in = reader<T>(table, input);
    using Reader = decltype(in);
    if (kernel != DetKernel::kSimd || starts.size() < kGatherFloor)
      return run_lockstep(ColumnStep<T, Reader>{in});
    if constexpr (!Store::kHits) {
      if (!convergence)
        return lockstep<false>(SpanStep<T, Reader>{in, table.data<T>(), num_states},
                               store, starts, num_states, gov);
    }
    return run_lockstep(GatherStep<T, Reader>{in});
  });
}

/// The sorted distinct states `starts` reach over `window`, adding the
/// steps taken to `transitions`: the λ store on the fused kernel, so runs
/// die, merge (with `convergence`) and count exactly as in a chunk run.
/// The one probe of chunk_starts and of DfaDevice's hand-set lookback.
template <typename Input>
std::vector<State> reached_states(const Dfa& dfa, const Input& window,
                                  std::span<const State> starts, bool convergence,
                                  std::uint64_t& transitions, const QueryGovernor* gov) {
  DetChunkResult run =
      run_chunk<LambdaStore>(dfa, window, starts, DetKernel::kFused, convergence, gov);
  transitions += run.transitions;
  std::vector<State> states = std::move(run.distinct_ends);
  if (!convergence)
    for (const auto& [start, end] : run.lambda) states.push_back(end);
  std::sort(states.begin(), states.end());
  states.erase(std::unique(states.begin(), states.end()), states.end());
  return states;
}

}  // namespace rispar::detail
