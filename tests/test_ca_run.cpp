#include "parallel/ca_run.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/nfa_ops.hpp"
#include "automata/packed_table.hpp"
#include "automata/random_nfa.hpp"
#include "automata/subset.hpp"
#include "core/ridfa.hpp"
#include "helpers.hpp"
#include "regex/parser.hpp"
#include "regex/random_regex.hpp"

namespace rispar {
namespace {

std::vector<State> all_states(std::int32_t n) {
  std::vector<State> states(static_cast<std::size_t>(n));
  for (std::int32_t s = 0; s < n; ++s) states[static_cast<std::size_t>(s)] = s;
  return states;
}

TEST(DetChunkRun, SurvivorsAndCounts) {
  const Dfa dfa = minimize_dfa(determinize(testing::fig1_nfa()));
  const std::vector<Symbol> chunk{2, 0, 1};  // "cab"
  const auto starts = all_states(dfa.num_states());
  const DetChunkResult result = run_chunk_det(dfa, chunk, starts);
  // All four DFA states survive "cab" (Fig. 1 bottom) => 12 transitions.
  EXPECT_EQ(result.lambda.size(), 4u);
  EXPECT_EQ(result.transitions, 12u);
}

TEST(DetChunkRun, DeadRunOmittedFromLambda) {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  dfa.add_state(true);
  dfa.add_state(true);
  dfa.set_initial(0);
  dfa.set_transition(0, 0, 0);  // state 0 loops on 'a'
  // state 1 has no transitions at all
  const std::vector<Symbol> chunk{0, 0};
  const auto starts = all_states(2);
  const DetChunkResult result = run_chunk_det(dfa, chunk, starts);
  ASSERT_EQ(result.lambda.size(), 1u);
  EXPECT_EQ(result.lambda[0], (std::pair<State, State>{0, 0}));
  EXPECT_EQ(result.transitions, 2u);  // dead run contributes 0
}

TEST(DetChunkRun, PartialSurvivalCountsPrefix) {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  dfa.add_state(true);
  dfa.set_initial(0);
  dfa.set_transition(0, 0, 0);  // dies on 'b'
  const std::vector<Symbol> chunk{0, 0, 1, 0};
  const DetChunkResult result = run_chunk_det(dfa, chunk, all_states(1));
  EXPECT_TRUE(result.lambda.empty());
  EXPECT_EQ(result.transitions, 2u);  // consumed "aa" before dying
}

TEST(DetChunkRun, EmptyChunkMapsStartsToThemselves) {
  const Dfa dfa = testing::fig2_dfa();
  const DetChunkResult result =
      run_chunk_det(dfa, std::span<const Symbol>{}, all_states(2));
  ASSERT_EQ(result.lambda.size(), 2u);
  EXPECT_EQ(result.lambda[0], (std::pair<State, State>{0, 0}));
  EXPECT_EQ(result.lambda[1], (std::pair<State, State>{1, 1}));
  EXPECT_EQ(result.transitions, 0u);
}

TEST(DetChunkRun, ConvergenceProducesSameLambda) {
  Prng prng(99);
  for (int trial = 0; trial < 10; ++trial) {
    RandomNfaConfig config;
    config.num_states = 10 + static_cast<std::int32_t>(prng.pick_index(20));
    const Nfa nfa = random_nfa(prng, config);
    const Dfa dfa = minimize_dfa(determinize(nfa));
    const auto chunk = testing::random_word(prng, dfa.num_symbols(), 40);
    const auto starts = all_states(dfa.num_states());
    const DetChunkResult plain =
        run_chunk_det(dfa, chunk, starts, {.convergence = false});
    const DetChunkResult merged =
        run_chunk_det(dfa, chunk, starts, {.convergence = true});
    EXPECT_EQ(plain.lambda, merged.lambda);
    EXPECT_LE(merged.transitions, plain.transitions);
  }
}

TEST(DetChunkRun, ConvergenceSavesWorkWhenRunsCollide) {
  // Both states step to state 0 on 'a': two runs converge instantly.
  Dfa dfa = Dfa::with_identity_alphabet(1);
  dfa.add_state(true);
  dfa.add_state(false);
  dfa.set_initial(0);
  dfa.set_transition(0, 0, 0);
  dfa.set_transition(1, 0, 0);
  const std::vector<Symbol> chunk(16, 0);
  const auto starts = all_states(2);
  const DetChunkResult plain = run_chunk_det(dfa, chunk, starts, {.convergence = false});
  const DetChunkResult merged = run_chunk_det(dfa, chunk, starts, {.convergence = true});
  EXPECT_EQ(plain.transitions, 32u);
  EXPECT_EQ(merged.transitions, 17u);  // 2 on the first symbol, then 1 each
  EXPECT_EQ(plain.lambda, merged.lambda);
}

TEST(DetChunkRun, DuplicateStartsHandledByConvergence) {
  const Dfa dfa = testing::fig2_dfa();
  const std::vector<State> starts{0, 0, 1};
  const std::vector<Symbol> chunk{0};
  const DetChunkResult merged = run_chunk_det(dfa, chunk, starts, {.convergence = true});
  EXPECT_EQ(merged.lambda.size(), 3u);  // both copies of 0 reported
}

// ---------------------------------------------------------------------------
// Kernel-equivalence properties: the fused lockstep / epoch-stamped kernels
// must produce λ maps and transition counts identical to the seed
// implementations over randomized machines, starts, and chunk boundaries.
// ---------------------------------------------------------------------------

void expect_kernels_agree(const Dfa& dfa, std::span<const Symbol> chunk,
                          std::span<const State> starts, bool convergence) {
  const DetChunkResult reference =
      run_chunk_det(dfa, chunk, starts,
                    {.convergence = convergence, .kernel = DetKernel::kReference});
  const DetChunkResult candidate =
      run_chunk_det(dfa, chunk, starts,
                    {.convergence = convergence, .kernel = DetKernel::kFused});
  EXPECT_EQ(candidate.lambda, reference.lambda);
  EXPECT_EQ(candidate.transitions, reference.transitions);
  if (convergence) EXPECT_EQ(candidate.distinct_ends, reference.distinct_ends);
}

// Random chunk that may contain invalid symbols (kUnmapped and >= k) so the
// blocked-validation path is exercised along with the unchecked inner loops.
std::vector<Symbol> random_chunk_with_aliens(Prng& prng, std::int32_t k,
                                             std::size_t length) {
  std::vector<Symbol> chunk = testing::random_word(prng, k, length);
  if (length > 0 && prng.pick_index(3) == 0) {
    const std::size_t how_many = 1 + prng.pick_index(2);
    for (std::size_t i = 0; i < how_many; ++i)
      chunk[prng.pick_index(length)] = prng.pick_index(2) == 0 ? -1 : k;
  }
  return chunk;
}

TEST(DetKernelEquivalence, RandomDfasAllStartsAllModes) {
  Prng prng(2025);
  for (int trial = 0; trial < 40; ++trial) {
    RandomNfaConfig config;
    config.num_states = 5 + static_cast<std::int32_t>(prng.pick_index(30));
    config.num_symbols = 2 + static_cast<std::int32_t>(prng.pick_index(5));
    const Dfa dfa = minimize_dfa(determinize(random_nfa(prng, config)));
    const auto starts = all_states(dfa.num_states());
    const std::size_t length = prng.pick_index(700);
    const auto chunk = random_chunk_with_aliens(prng, dfa.num_symbols(), length);
    expect_kernels_agree(dfa, chunk, starts, false);
    expect_kernels_agree(dfa, chunk, starts, true);
  }
}

TEST(DetKernelEquivalence, RandomRidfasInterfaceStarts) {
  Prng prng(77);
  for (int trial = 0; trial < 25; ++trial) {
    RandomNfaConfig config;
    config.num_states = 6 + static_cast<std::int32_t>(prng.pick_index(20));
    config.num_symbols = 2 + static_cast<std::int32_t>(prng.pick_index(4));
    const Nfa nfa = random_nfa(prng, config);
    const Ridfa ridfa = build_ridfa(nfa);
    const auto chunk =
        random_chunk_with_aliens(prng, ridfa.num_symbols(), prng.pick_index(400));
    expect_kernels_agree(ridfa.dfa(), chunk, ridfa.initial_states(), false);
    expect_kernels_agree(ridfa.dfa(), chunk, ridfa.initial_states(), true);
  }
}

TEST(DetKernelEquivalence, RandomRegexChunkBoundaries) {
  // Split a longer text at random boundaries and check every sub-chunk, so
  // the equivalence holds for exactly the spans the devices produce.
  Prng prng(4242);
  for (int trial = 0; trial < 15; ++trial) {
    const RePtr re = random_regex(prng);
    const Dfa dfa = minimize_dfa(determinize(glushkov_nfa(re)));
    if (dfa.num_states() == 0) continue;
    const auto starts = all_states(dfa.num_states());
    const auto text = testing::random_word(prng, dfa.num_symbols(), 600);
    std::size_t begin = 0;
    while (begin < text.size()) {
      const std::size_t len =
          std::min<std::size_t>(1 + prng.pick_index(200), text.size() - begin);
      const std::span<const Symbol> chunk(text.data() + begin, len);
      expect_kernels_agree(dfa, chunk, starts, false);
      expect_kernels_agree(dfa, chunk, starts, true);
      begin += len;
    }
  }
}

TEST(DetKernelEquivalence, DuplicateAndRepeatedStarts) {
  Prng prng(31337);
  const Dfa dfa = minimize_dfa(determinize(testing::fig1_nfa()));
  std::vector<State> starts;
  for (int i = 0; i < 12; ++i)
    starts.push_back(static_cast<State>(prng.pick_index(
        static_cast<std::size_t>(dfa.num_states()))));
  const auto chunk = testing::random_word(prng, dfa.num_symbols(), 64);
  expect_kernels_agree(dfa, chunk, starts, false);
  expect_kernels_agree(dfa, chunk, starts, true);
}

TEST(DetKernelEquivalence, EmptyChunkAndEmptyStarts) {
  const Dfa dfa = testing::fig2_dfa();
  const auto starts = all_states(dfa.num_states());
  expect_kernels_agree(dfa, {}, starts, false);
  expect_kernels_agree(dfa, {}, starts, true);
  expect_kernels_agree(dfa, std::vector<Symbol>{0, 1}, {}, false);
  expect_kernels_agree(dfa, std::vector<Symbol>{0, 1}, {}, true);
}

// Chain automaton with `n` states over {advance, die}: state i advances to
// i+1 (wrapping) on symbol 0; symbol 1 is dead everywhere except state 0.
// Big enough state counts force the u16 and i32 packed-table widths.
Dfa chain_dfa(std::int32_t n) {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  for (std::int32_t s = 0; s < n; ++s) dfa.add_state(s == n - 1);
  dfa.set_initial(0);
  for (std::int32_t s = 0; s < n; ++s)
    dfa.set_transition(s, 0, (s + 1) % n);
  dfa.set_transition(0, 1, 0);
  return dfa;
}

TEST(DetKernelEquivalence, WideTablesU16) {
  ASSERT_EQ(chain_dfa(300).packed().width(), TableWidth::kU16);
  Prng prng(8);
  const Dfa dfa = chain_dfa(300);
  std::vector<State> starts;
  for (int i = 0; i < 40; ++i)
    starts.push_back(static_cast<State>(prng.pick_index(300)));
  const auto chunk = random_chunk_with_aliens(prng, 2, 500);
  expect_kernels_agree(dfa, chunk, starts, false);
  expect_kernels_agree(dfa, chunk, starts, true);
}

TEST(DetKernelEquivalence, WideTablesI32) {
  const std::int32_t n = 70000;
  const Dfa dfa = chain_dfa(n);
  ASSERT_EQ(dfa.packed().width(), TableWidth::kI32);
  Prng prng(9);
  std::vector<State> starts;
  for (int i = 0; i < 24; ++i)
    starts.push_back(static_cast<State>(prng.pick_index(static_cast<std::size_t>(n))));
  const auto chunk = random_chunk_with_aliens(prng, 2, 300);
  expect_kernels_agree(dfa, chunk, starts, false);
  expect_kernels_agree(dfa, chunk, starts, true);
}

TEST(DetKernelEquivalence, ConvergentDistinctEndsMatchLambdaImage) {
  Prng prng(555);
  for (int trial = 0; trial < 10; ++trial) {
    RandomNfaConfig config;
    config.num_states = 10 + static_cast<std::int32_t>(prng.pick_index(15));
    const Dfa dfa = minimize_dfa(determinize(random_nfa(prng, config)));
    const auto starts = all_states(dfa.num_states());
    const auto chunk = testing::random_word(prng, dfa.num_symbols(), 100);
    const DetChunkResult merged =
        run_chunk_det(dfa, chunk, starts, {.convergence = true});
    std::vector<State> image;
    for (const auto& [start, end] : merged.lambda) {
      (void)start;
      image.push_back(end);
    }
    std::sort(image.begin(), image.end());
    image.erase(std::unique(image.begin(), image.end()), image.end());
    std::vector<State> ends = merged.distinct_ends;
    std::sort(ends.begin(), ends.end());
    EXPECT_EQ(ends, image);
  }
}

TEST(NfaChunkRun, MatchesNfaReachPerStart) {
  Prng prng(123);
  const Nfa nfa = random_nfa(prng);
  const auto chunk = testing::random_word(prng, nfa.num_symbols(), 30);
  const auto starts = all_states(nfa.num_states());
  const NfaChunkResult result = run_chunk_nfa(nfa, chunk, starts);

  std::size_t expected_entries = 0;
  for (const State start : starts) {
    Bitset start_set(static_cast<std::size_t>(nfa.num_states()));
    start_set.set(static_cast<std::size_t>(start));
    const Bitset reached = nfa_reach(nfa, start_set, chunk);
    if (!reached.empty()) ++expected_entries;
    for (const auto& [s, ends] : result.lambda)
      if (s == start) EXPECT_EQ(ends, reached);
  }
  EXPECT_EQ(result.lambda.size(), expected_entries);
}

TEST(NfaChunkRun, TransitionCountMatchesFig1) {
  // Chunk 2 of Fig. 1 ("cab") from starts {0,1,2}: 5 + 4 + 0 = 9 traversals.
  const Nfa nfa = testing::fig1_nfa();
  const std::vector<Symbol> chunk{2, 0, 1};
  const NfaChunkResult result = run_chunk_nfa(nfa, chunk, all_states(3));
  EXPECT_EQ(result.transitions, 9u);
  EXPECT_EQ(result.lambda.size(), 2u);  // the run from 2 dies on 'c'
}

TEST(NfaChunkRun, EmptyChunk) {
  const Nfa nfa = testing::fig1_nfa();
  const NfaChunkResult result =
      run_chunk_nfa(nfa, std::span<const Symbol>{}, all_states(3));
  EXPECT_EQ(result.lambda.size(), 3u);
  for (const auto& [start, ends] : result.lambda) {
    EXPECT_EQ(ends.count(), 1u);
    EXPECT_TRUE(ends.test(static_cast<std::size_t>(start)));
  }
}

}  // namespace
}  // namespace rispar
