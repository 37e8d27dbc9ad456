#include "parallel/match_count.hpp"

#include <gtest/gtest.h>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/random_nfa.hpp"
#include "automata/subset.hpp"
#include "helpers.hpp"
#include "regex/parser.hpp"
#include "workloads/suite.hpp"

namespace rispar {
namespace {

Dfa searcher(const std::string& pattern) {
  // Σ* p machine: final after every prefix ending an occurrence of p.
  return minimize_dfa(determinize(glushkov_nfa(parse_regex(".*" + pattern))));
}

QueryOptions counting(std::size_t chunks, bool convergence = false) {
  return QueryOptions{.chunks = chunks, .convergence = convergence};
}

TEST(MatchCount, SerialCountsOccurrences) {
  const Dfa dfa = searcher("ab");
  // "abab" contains occurrences ending at positions 2 and 4.
  EXPECT_EQ(count_matches_serial(dfa, dfa.symbols().translate("abab")).matches, 2u);
  EXPECT_EQ(count_matches_serial(dfa, dfa.symbols().translate("aaaa")).matches, 0u);
  EXPECT_EQ(count_matches_serial(dfa, dfa.symbols().translate("")).matches, 0u);
}

TEST(MatchCount, OverlappingOccurrences) {
  const Dfa dfa = searcher("aa");
  // "aaaa": occurrences end at 2, 3, 4 (overlaps counted).
  EXPECT_EQ(count_matches_serial(dfa, dfa.symbols().translate("aaaa")).matches, 3u);
}

TEST(MatchCount, ParallelEqualsSerialSmall) {
  const Dfa dfa = searcher("aba");
  ThreadPool pool(4);
  const auto input = dfa.symbols().translate("abababbababa");
  const QueryResult serial = count_matches_serial(dfa, input);
  for (const std::size_t chunks : {1u, 2u, 3u, 5u, 12u}) {
    for (const bool convergence : {false, true}) {
      const QueryResult parallel =
          count_matches(dfa, input, pool, counting(chunks, convergence));
      EXPECT_EQ(parallel.matches, serial.matches)
          << "chunks=" << chunks << " conv=" << convergence;
      EXPECT_FALSE(parallel.died);
    }
  }
}

TEST(MatchCount, UnsupportedKnobsRaiseQueryError) {
  const Dfa dfa = searcher("ab");
  ThreadPool pool(2);
  const auto input = dfa.symbols().translate("abab");
  QueryOptions bad = counting(2);
  bad.lookback = 8;
  EXPECT_THROW(count_matches(dfa, input, pool, bad), QueryError);
  bad = counting(2);
  bad.kernel = DetKernel::kReference;
  EXPECT_THROW(count_matches(dfa, input, pool, bad), QueryError);
}

TEST(MatchCount, ConvergenceSavesTransitionsOnTotalMachines) {
  // On a Σ*-context machine every speculative run survives, so merged runs
  // are pure savings; the counts must still agree exactly.
  const Dfa dfa = searcher("aa");
  ThreadPool pool(4);
  std::string text;
  for (int i = 0; i < 512; ++i) text += (i % 3 == 0) ? "aa" : "ab";
  const auto input = dfa.symbols().translate(text);
  const QueryResult independent = count_matches(dfa, input, pool, counting(8, false));
  const QueryResult convergent = count_matches(dfa, input, pool, counting(8, true));
  EXPECT_EQ(independent.matches, convergent.matches);
  EXPECT_EQ(independent.died, convergent.died);
  EXPECT_LT(convergent.transitions, independent.transitions);
  EXPECT_EQ(convergent.matches, count_matches_serial(dfa, input).matches);
}

TEST(MatchCount, DiedRunReportsPartialCount) {
  // A partial automaton (no Σ* wrap): "ab" recognizer dies on the 'b' at
  // the front.
  const Dfa dfa = minimize_dfa(determinize(glushkov_nfa(parse_regex("ab"))));
  ThreadPool pool(2);
  const auto input = dfa.symbols().translate("ba");
  const QueryResult serial = count_matches_serial(dfa, input);
  for (const bool convergence : {false, true}) {
    const QueryResult parallel =
        count_matches(dfa, input, pool, counting(2, convergence));
    EXPECT_TRUE(serial.died);
    EXPECT_TRUE(parallel.died) << "conv=" << convergence;
    EXPECT_EQ(parallel.matches, serial.matches);
  }
}

TEST(MatchCount, CountsTitlesInBibleText) {
  // Count <h3> opening tags in the bible workload — every section has one.
  const Dfa dfa = searcher("<h3>");
  ThreadPool pool(4);
  Prng prng(8);
  const std::string text = bible_workload().text(60'000, prng);
  const auto input = dfa.symbols().translate(text);
  const QueryResult counted = count_matches(dfa, input, pool, counting(16));
  // Independently count the substring occurrences.
  std::uint64_t expected = 0;
  for (std::size_t pos = text.find("<h3>"); pos != std::string::npos;
       pos = text.find("<h3>", pos + 1))
    ++expected;
  EXPECT_EQ(counted.matches, expected);
  EXPECT_GT(counted.matches, 0u);
}

class MatchCountProperty : public ::testing::TestWithParam<std::uint64_t> {};

// The satellite property: parallel == serial counts on random machines,
// with run convergence ON and off, across random chunkings. On partial
// machines convergent groups die together; the per-start totals must still
// reconstruct exactly through the merge tree.
TEST_P(MatchCountProperty, ParallelEqualsSerialOnRandomMachines) {
  Prng prng(GetParam());
  ThreadPool pool(4);
  RandomNfaConfig config;
  config.num_states = 5 + static_cast<std::int32_t>(prng.pick_index(20));
  config.num_symbols = 2 + static_cast<std::int32_t>(prng.pick_index(3));
  const Nfa nfa = random_nfa(prng, config);
  const Dfa dfa = minimize_dfa(determinize(nfa));
  for (int trial = 0; trial < 12; ++trial) {
    const auto input =
        testing::random_word(prng, dfa.num_symbols(), 1 + prng.pick_index(100));
    const QueryResult serial = count_matches_serial(dfa, input);
    const std::size_t chunks = 1 + prng.pick_index(9);
    for (const bool convergence : {false, true}) {
      const QueryResult parallel =
          count_matches(dfa, input, pool, counting(chunks, convergence));
      EXPECT_EQ(parallel.matches, serial.matches)
          << "chunks=" << chunks << " conv=" << convergence;
      EXPECT_EQ(parallel.died, serial.died)
          << "chunks=" << chunks << " conv=" << convergence;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchCountProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace rispar
