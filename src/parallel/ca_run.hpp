// Reach-phase kernels: the speculative chunk runs of the three CSDPA
// variants (paper Sect. 2 and 3.2).
//
// Each kernel consumes one chunk of the input from a set of starting
// states and returns the partial mapping λ_i = { (start, end) : the run from
// `start` survives the whole chunk }, together with the executed-transition
// count. Runs that die early simply do not appear in λ.
//
// ## Two input sources
//
// A chunk arrives either as pre-translated symbols (std::span<const Symbol>:
// streaming windows, tests, callers that translate once) or as raw text
// bytes with the SymbolMap that classes them (ByteSpan: every one-shot
// entry point — Engine::recognize/match_all through Device::recognize). The
// byte input never materializes a symbol vector: the packed kernels build a
// 256-entry byte → column table per call and step `state =
// column[byte][state]` (parallel/kernel_input.hpp), so translation runs
// inside the pool task that runs the chunk. kReference translates its own
// chunk inside the task and steps the symbols. Both inputs give identical
// λ, distinct_ends and transitions (tests/test_byte_input.cpp).
//
// ## Transition accounting (the convention, stated once)
//
// `transitions` is the paper's primary overhead metric (Fig. 1: min-DFA 15 /
// NFA 14 / RI-DFA 9 on "aabcab" in two chunks). Everything that reports a
// transition count — these kernels, the serial oracles in core/serial_match,
// and the devices in parallel/csdpa that sum them — follows one convention:
//
//  * deterministic machines count ONE transition per consumed symbol per
//    live run; a run that dies after j symbols contributes exactly j, and
//    the symbol it dies on is NOT counted (the lookup that returns dead is
//    work saved, not work done);
//  * under run convergence, merged runs count as ONE live run from the
//    merge point on (that is the saving being measured);
//  * an out-of-alphabet symbol kills every run without being counted; so
//    does an alien byte (one whose symbol is SymbolMap::kUnmapped): it reads
//    the packed table's all-dead column, so every run dies at its lookup;
//  * the NFA frontier simulation counts every edge traversal (each element
//    of ρ(s, a) applied to each frontier member);
//  * look-back probe runs (csdpa.cpp) are real speculative work and are
//    added to the chunk's count.
//
// ## Kernel implementations
//
// run_chunk_det is the λ store of the one chunk core
// (parallel/chunk_core.hpp), which also runs the lookback probe and the
// finding kernels of parallel/match_count. One dispatch rule picks the
// step; DetChunkOptions::kernel selects between two, proven equivalent by
// property tests:
//
//  * one start (kFused) — the one-start scan: one run over the
//    chunk on the width-specialized packed table (automata/
//    packed_table.hpp), no SoA bookkeeping. A lockstep left with one live
//    run hands it to the same scan.
//  * kFused (default) — single pass over the chunk for ALL starts: a
//    lockstep over a compacted SoA lane array (one symbol load, N table
//    lookups with the hot column shared in cache). Convergent mode
//    replaces the seed's per-symbol hash probes with an epoch-stamped
//    dense state→lane array; a merge records the merged start's parent,
//    and λ and distinct_ends are read off that forest, so merging never
//    allocates. An alien unit reads the table's dead column, so the inner
//    loops carry no validity check.
//  * kReference — the seed implementations (start-at-a-time independent
//    runs; unordered_map convergence), kept verbatim in ca_run.cpp as the
//    oracle for the property tests and for A/B benchmarks.
//
// Run convergence itself (merging runs that land in the same state at the
// same position — the Mytkowicz-style optimization the paper lists as
// compatible, Sect. 5) remains OFF by default: the paper's baselines
// execute the |I| runs independently.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "automata/dfa.hpp"
#include "automata/nfa.hpp"
#include "util/bitset.hpp"
#include "util/governance.hpp"

namespace rispar {

struct DetChunkResult {
  /// (start, end) pairs of surviving runs, in `starts` order.
  std::vector<std::pair<State, State>> lambda;
  /// Distinct end states of the surviving runs, in group-creation order —
  /// populated by the CONVERGENT kernels only (where the surviving groups
  /// carry exactly this set for free). Consumers that need the deduplicated
  /// λ image (e.g. the lookback probe, detail::reached_states) read it
  /// directly instead of re-sorting lambda.
  std::vector<State> distinct_ends;
  std::uint64_t transitions = 0;
};

enum class DetKernel : std::uint8_t {
  kFused,      ///< lockstep SoA / epoch-stamped convergence on packed tables
  kReference,  ///< seed implementations (test oracle, A/B baseline)
};

/// "fused" / "reference" — CLI values and bench labels.
const char* kernel_name(DetKernel kernel);

struct DetChunkOptions {
  bool convergence = false;
  DetKernel kernel = DetKernel::kFused;
  /// Cooperative governance checkpoints (deadline/cancellation): polled
  /// roughly every kGovernorStride consumed symbols inside every kernel
  /// implementation. Null or inactive = zero per-symbol cost (the kernels
  /// normalize to nullptr up front). The pointer must outlive the call; it
  /// is shared read-only across the pool's chunk tasks.
  const QueryGovernor* governor = nullptr;
};

/// Advances every state in `starts` over `chunk`. See the header comment
/// for accounting and implementation selection.
DetChunkResult run_chunk_det(const Dfa& dfa, std::span<const Symbol> chunk,
                             std::span<const State> starts,
                             const DetChunkOptions& options = {});

/// The same over raw bytes classed by `chunk.map` (typically the pattern's
/// SymbolMap, the one `dfa` was built over): equal to translating the chunk
/// and running the symbol overload.
DetChunkResult run_chunk_det(const Dfa& dfa, const ByteSpan& chunk,
                             std::span<const State> starts,
                             const DetChunkOptions& options = {});

struct NfaChunkResult {
  /// Per start (in `starts` order): the frontier set δ(start, chunk); an
  /// entry is present only when that set is non-empty.
  std::vector<std::pair<State, Bitset>> lambda;
  std::uint64_t transitions = 0;  ///< NFA edge traversals (see header)
};

/// Runs the NFA frontier simulation once per starting state. `governor`
/// adds the same cooperative per-stride checkpoints as the deterministic
/// kernels (null = ungoverned).
NfaChunkResult run_chunk_nfa(const Nfa& nfa, std::span<const Symbol> chunk,
                             std::span<const State> starts,
                             const QueryGovernor* governor = nullptr);

/// One frontier simulation seeded with ALL of `starts` at once: the union
/// λ image without per-start attribution, reported as a single lambda
/// entry (starts.front(), union). For consumers that only need the union —
/// the NFA streaming path's first chunk, whose carried states are all kept
/// verbatim by the join — this replaces |starts| full chunk scans with one.
NfaChunkResult run_chunk_nfa_union(const Nfa& nfa, std::span<const Symbol> chunk,
                                   std::span<const State> starts,
                                   const QueryGovernor* governor = nullptr);

}  // namespace rispar
