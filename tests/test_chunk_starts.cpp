// Lookback chunk starts of the Σ*p finder (parallel/match_count.hpp,
// chunk_starts):
//  * soundness — at every boundary of random searchers over random texts
//    (alien symbols included) the serial run's state is among the starts,
//    which are sorted and distinct; a window reaching the input start
//    yields exactly the serial state;
//  * find over the reduced starts equals the serial oracle;
//  * the multi-start kernels stay covered — a searcher that permutes its
//    states never collapses, so find runs several starts per chunk under
//    every kernel and must still equal the oracle;
//  * speculation overhead — on the five suite workloads, find at c=16 does
//    at most 1.1 transitions per input symbol.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "automata/glushkov.hpp"
#include "engine/engine.hpp"
#include "parallel/chunking.hpp"
#include "parallel/match_count.hpp"
#include "regex/ast.hpp"
#include "regex/random_regex.hpp"
#include "util/prng.hpp"
#include "workloads/suite.hpp"

namespace rispar {
namespace {

/// The serial run's state after each prefix of `input` (kDeadState from its
/// death on); states[j] is the state after j symbols.
std::vector<State> serial_states(const Dfa& dfa, std::span<const Symbol> input,
                                 State first) {
  std::vector<State> states{first};
  State state = first;
  for (const Symbol symbol : input) {
    if (state != kDeadState)
      state = symbol >= 0 && symbol < dfa.num_symbols() ? dfa.row(state)[symbol]
                                                        : kDeadState;
    states.push_back(state);
  }
  return states;
}

/// A random pattern over "abc" and a random text over the symbols of its
/// searcher, with rare alien symbols mixed in. With `partial` the DFA is
/// instead the minimal DFA of (p|a|b)*, whose runs die on undefined
/// transitions, over a/b text with rare 'c's, so the true run lives long
/// while other runs die.
struct Case {
  Pattern pattern;
  bool partial = false;
  std::vector<Symbol> input;

  const Dfa& dfa() const { return partial ? pattern.min_dfa() : pattern.searcher(); }
};

Case random_case(Prng& prng, std::size_t length, bool partial = false) {
  RandomRegexConfig config;
  config.alphabet = "abc";
  config.target_size = 4 + static_cast<int>(prng.pick_index(10));
  RePtr re = random_regex(prng, config);
  if (partial) re = re_star(re_alternate({re, re_byte('a'), re_byte('b')}));
  Case c{Pattern::from_nfa(glushkov_nfa(re)), partial, {}};
  const Dfa& dfa = c.dfa();
  std::string text;
  for (std::size_t i = 0; i < length; ++i)
    text.push_back(partial ? (prng.pick_index(50) == 0 ? 'c' : "ab"[prng.pick_index(2)])
                           : "abcd"[prng.pick_index(4)]);
  c.input = dfa.symbols().translate(text);
  for (Symbol& symbol : c.input)
    if (prng.pick_index(400) == 0)
      symbol = prng.pick_index(2) == 0 ? -1 : dfa.num_symbols();
  return c;
}

TEST(ChunkStarts, SerialStateIsAmongSortedDistinctStarts) {
  // 8 and 64 probe at most one window, 4096 up to three.
  constexpr std::size_t kChunkLengths[] = {8, 64, 4096};
  Prng prng(0xc4a2);
  for (int trial = 0; trial < 40; ++trial) {
    const Case c = random_case(prng, 40 + prng.pick_index(400), trial % 4 == 3);
    const Dfa& dfa = c.dfa();
    const auto first =
        static_cast<State>(prng.pick_index(static_cast<std::size_t>(dfa.num_states())));
    const std::vector<State> serial = serial_states(dfa, c.input, first);
    for (std::size_t boundary = 0; boundary <= c.input.size(); ++boundary) {
      for (const std::size_t chunk_length : kChunkLengths) {
        for (const bool convergence : {false, true}) {
          std::uint64_t transitions = 0;
          const std::vector<State> starts = chunk_starts(
              dfa, c.input, boundary, chunk_length, first, convergence, transitions);
          ASSERT_TRUE(std::is_sorted(starts.begin(), starts.end()));
          ASSERT_EQ(std::adjacent_find(starts.begin(), starts.end()), starts.end());
          const State truth = serial[boundary];
          if (boundary <= kFirstLookback) {
            // The first window already reaches the input start: exact.
            const std::vector<State> exact =
                truth == kDeadState ? std::vector<State>{} : std::vector<State>{truth};
            ASSERT_EQ(starts, exact) << "trial " << trial << " boundary " << boundary;
          } else if (truth != kDeadState) {
            ASSERT_TRUE(std::binary_search(starts.begin(), starts.end(), truth))
                << "trial " << trial << " boundary " << boundary << " chunk "
                << chunk_length << " conv " << convergence;
          }
        }
      }
    }
  }
}

TEST(ChunkStarts, FindOverReducedStartsEqualsSerial) {
  Prng prng(0x5e1f);
  ThreadPool pool(4);
  for (int trial = 0; trial < 30; ++trial) {
    const Case c = random_case(prng, 500 + prng.pick_index(3000), trial % 5 == 4);
    const Dfa& dfa = c.dfa();
    const QueryResult serial = find_matches_serial(dfa, c.input);
    for (const std::size_t chunks : {2u, 5u, 16u}) {
      for (const bool convergence : {false, true}) {
        for (const DetKernel kernel :
             {DetKernel::kFused, DetKernel::kReference}) {
          const QueryOptions options{
              .chunks = chunks, .convergence = convergence, .kernel = kernel};
          const QueryResult found = find_matches(dfa, c.input, pool, options);
          ASSERT_EQ(found.positions, serial.positions)
              << "trial " << trial << " c=" << chunks << " conv=" << convergence;
          ASSERT_EQ(found.matches, serial.matches);
          ASSERT_EQ(found.died, serial.died);
          const QueryResult counted = count_matches(
              dfa, c.input, pool, {.chunks = chunks, .convergence = convergence});
          ASSERT_EQ(counted.matches, serial.matches);
          ASSERT_EQ(counted.died, serial.died);
        }
      }
    }
  }
}

TEST(ChunkStarts, PermutingSearcherRunsTheMultiStartKernels) {
  // Over 'a' the searcher of x(a{8})*y cycles its eight phases, so a probe
  // over a-only text never collapses them: chunks keep several starts.
  // 'x' and 'y' collapse every run, so they appear only at offsets
  // [2092, 2700) of each 4096-symbol block — outside every probe window at
  // c=4 (the 1024 symbols before a multiple of 4096) and at c=16 (the 256
  // before a multiple of 1024). Each block ends its events on an open 'x'
  // that the next block's first 'y' closes, so the consistent run crosses
  // four boundaries in a phase state, not the initial one. The probe's
  // cost rule bounds each later chunk at (length + kFirstLookback)·|Q|
  // steps: probing on while the runs stay apart must stop in time.
  const Pattern pattern = Pattern::compile("x(a{8})*y");
  const Dfa& dfa = pattern.searcher();
  Prng prng(0xa8);
  std::string text(16384, 'a');
  for (std::size_t block = 0; block < text.size(); block += 4096) {
    if (block > 0) text[block + 2092] = 'y';  // 3488 a's after the open 'x': a hit
    text[block + 2100] = 'x';
    text[block + 2165] = 'y';  // 64 a's between: a hit
    for (std::size_t i = block + 2200; i < block + 2699; ++i) {
      const std::size_t roll = prng.pick_index(60);
      if (roll == 0) text[i] = 'x';
      if (roll == 1) text[i] = 'y';
    }
    text[block + 2699] = 'x';
  }
  const auto input = dfa.symbols().translate(text);
  const QueryResult serial = find_matches_serial(dfa, input);
  ASSERT_GE(serial.matches, 7u);
  const auto num_states = static_cast<std::uint64_t>(dfa.num_states());
  ThreadPool pool(4);
  for (const std::size_t chunks : {4u, 16u}) {
    const std::vector<ChunkSpan> spans = split_chunks(input.size(), chunks);
    std::uint64_t bound = spans[0].length;
    for (std::size_t i = 1; i < spans.size(); ++i)
      bound += (spans[i].length + kFirstLookback) * num_states;
    for (const bool convergence : {false, true}) {
      for (const DetKernel kernel :
           {DetKernel::kFused, DetKernel::kReference}) {
        const QueryOptions options{
            .chunks = chunks, .convergence = convergence, .kernel = kernel};
        const QueryResult found = find_matches(dfa, input, pool, options);
        EXPECT_EQ(found.positions, serial.positions)
            << "c=" << chunks << " conv=" << convergence;
        EXPECT_GT(found.transitions, 2 * input.size())
            << "c=" << chunks << " conv=" << convergence;
        EXPECT_LE(found.transitions, bound) << "c=" << chunks << " conv=" << convergence;
      }
    }
  }
}

TEST(ChunkStarts, SuiteFindStaysNearOneTransitionPerSymbol) {
  // The find catalog of the end-to-end benchmark, one pattern per suite
  // generator in benchmark_suite() order.
  constexpr std::array<const char*, 5> kPatterns = {
      "abababab",
      "aaaa[ab]{6}",
      "<h3>[a-z0-9 ]*[0-9][a-z0-9 ]{2}</h3>",
      "GATTACA|CCGGTTAA|ACGTACGT",
      "(sshd|nginxd)\\[[0-9]{1,5}\\]: DROP src=",
  };
  const std::vector<WorkloadSpec> suite = benchmark_suite();
  ASSERT_EQ(suite.size(), kPatterns.size());
  ThreadPool pool(4);
  for (std::size_t t = 0; t < suite.size(); ++t) {
    Prng prng(0x1000 + t);
    const std::string text = suite[t].text(std::size_t{1} << 20, prng);
    const Pattern pattern = Pattern::compile(kPatterns[t]);
    const Dfa& dfa = pattern.searcher();
    const auto input = dfa.symbols().translate(text);
    const QueryResult found = find_matches(dfa, input, pool, {.chunks = 16});
    const double per_symbol =
        static_cast<double>(found.transitions) / static_cast<double>(input.size());
    EXPECT_LE(per_symbol, 1.1) << suite[t].name << ": " << found.transitions
                               << " transitions over " << input.size() << " symbols";
    EXPECT_EQ(found.matches, count_matches_serial(dfa, input).matches) << suite[t].name;
  }
}

}  // namespace
}  // namespace rispar
