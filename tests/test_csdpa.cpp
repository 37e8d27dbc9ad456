#include "parallel/csdpa.hpp"

#include <gtest/gtest.h>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/random_nfa.hpp"
#include "automata/subset.hpp"
#include "core/interface_min.hpp"
#include "core/serial_match.hpp"
#include "helpers.hpp"
#include "regex/parser.hpp"
#include "regex/printer.hpp"
#include "regex/random_regex.hpp"

namespace rispar {
namespace {

struct Engines {
  Nfa nfa;
  Dfa min_dfa;
  Ridfa ridfa;

  explicit Engines(const Nfa& source)
      : nfa(source),
        min_dfa(minimize_dfa(determinize(source))),
        ridfa(build_minimized_ridfa(source)) {}
};

TEST(Csdpa, EmptyInputDecidedByInitialFinality) {
  ThreadPool pool(2);
  const Engines plus(glushkov_nfa(parse_regex("a+")));
  const Engines star(glushkov_nfa(parse_regex("a*")));
  const QueryOptions options{.chunks = 4, .convergence = false};
  const std::vector<Symbol> empty;
  EXPECT_FALSE(DfaDevice(plus.min_dfa).recognize(empty, pool, options).accepted);
  EXPECT_TRUE(DfaDevice(star.min_dfa).recognize(empty, pool, options).accepted);
  EXPECT_FALSE(NfaDevice(plus.nfa).recognize(empty, pool, options).accepted);
  EXPECT_TRUE(NfaDevice(star.nfa).recognize(empty, pool, options).accepted);
  EXPECT_FALSE(RidDevice(plus.ridfa).recognize(empty, pool, options).accepted);
  EXPECT_TRUE(RidDevice(star.ridfa).recognize(empty, pool, options).accepted);
}

TEST(Csdpa, ChunkCountClampsToInputLength) {
  ThreadPool pool(4);
  const Engines engines(glushkov_nfa(parse_regex("(ab)*")));
  const QueryOptions options{.chunks = 64, .convergence = false};
  const std::vector<Symbol> input{0, 1};  // "ab"
  const QueryResult stats =
      DfaDevice(engines.min_dfa).recognize(input, pool, options);
  EXPECT_TRUE(stats.accepted);
  EXPECT_EQ(stats.chunks, 2u);
}

TEST(Csdpa, StatsReportPhases) {
  ThreadPool pool(4);
  const Engines engines(glushkov_nfa(parse_regex("(ab)*")));
  std::vector<Symbol> input;
  for (int i = 0; i < 1000; ++i) {
    input.push_back(0);
    input.push_back(1);
  }
  const QueryOptions options{.chunks = 8, .convergence = false};
  const QueryResult stats =
      RidDevice(engines.ridfa).recognize(input, pool, options);
  EXPECT_TRUE(stats.accepted);
  EXPECT_GT(stats.transitions, 0u);
  EXPECT_GE(stats.reach_seconds, 0.0);
  EXPECT_GE(stats.join_seconds, 0.0);
  EXPECT_EQ(stats.total_seconds(), stats.reach_seconds + stats.join_seconds);
}

TEST(Csdpa, SerialChunkingMatchesSerialTransitionCount) {
  ThreadPool pool(2);
  const Engines engines(glushkov_nfa(parse_regex("(ab)*")));
  std::vector<Symbol> input;
  for (int i = 0; i < 50; ++i) {
    input.push_back(0);
    input.push_back(1);
  }
  const QueryOptions serial{.chunks = 1, .convergence = false};
  const QueryResult stats =
      DfaDevice(engines.min_dfa).recognize(input, pool, serial);
  EXPECT_EQ(stats.transitions, input.size());
}

TEST(Csdpa, RidNeverDoesMoreTransitionsThanDfaOnWinningFamily) {
  // [ab]*a[ab]{5}: minimal DFA 64 states, RI-DFA interface 8 — the RID must
  // execute far fewer speculative transitions with many chunks.
  ThreadPool pool(4);
  const Engines engines(glushkov_nfa(parse_regex("[ab]*a[ab]{5}")));
  Prng prng(55);
  std::vector<Symbol> input = testing::random_word(prng, 2, 4000);
  input[input.size() - 6] = 0;  // ensure membership
  const QueryOptions options{.chunks = 16, .convergence = false};
  const QueryResult dfa_stats =
      DfaDevice(engines.min_dfa).recognize(input, pool, options);
  const QueryResult rid_stats =
      RidDevice(engines.ridfa).recognize(input, pool, options);
  EXPECT_TRUE(dfa_stats.accepted);
  EXPECT_TRUE(rid_stats.accepted);
  EXPECT_LT(rid_stats.transitions * 3, dfa_stats.transitions);
}

class DeviceAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeviceAgreement, AllVariantsMatchSerialOracleOnRandomRegexes) {
  Prng prng(GetParam());
  ThreadPool pool(4);
  RandomRegexConfig config;
  config.alphabet = "ab";
  config.target_size = 8 + static_cast<int>(prng.pick_index(15));
  const RePtr re = random_regex(prng, config);
  const Nfa nfa = glushkov_nfa(re);
  const Engines engines(nfa);

  for (const std::size_t chunks : {1u, 2u, 3u, 7u}) {
    const QueryOptions options{.chunks = chunks, .convergence = false};
    for (int trial = 0; trial < 8; ++trial) {
      // Mix positive samples and random noise.
      std::vector<Symbol> input;
      std::string member;
      if (trial % 2 == 0 && random_member(re, prng, member)) {
        input = nfa.symbols().translate(member);
      } else {
        input = testing::random_word(prng, nfa.num_symbols(),
                                     1 + prng.pick_index(40));
      }
      const bool oracle = serial_match(engines.min_dfa, input).accepted;
      EXPECT_EQ(DfaDevice(engines.min_dfa).recognize(input, pool, options).accepted,
                oracle)
          << regex_to_string(re) << " chunks=" << chunks;
      EXPECT_EQ(NfaDevice(engines.nfa).recognize(input, pool, options).accepted, oracle)
          << regex_to_string(re) << " chunks=" << chunks;
      EXPECT_EQ(RidDevice(engines.ridfa).recognize(input, pool, options).accepted,
                oracle)
          << regex_to_string(re) << " chunks=" << chunks;
    }
  }
}

TEST_P(DeviceAgreement, AllVariantsMatchOnRandomNfas) {
  Prng prng(GetParam() ^ 0xfeed);
  ThreadPool pool(4);
  RandomNfaConfig config;
  config.num_states = 6 + static_cast<std::int32_t>(prng.pick_index(25));
  config.num_symbols = 2 + static_cast<std::int32_t>(prng.pick_index(3));
  const Nfa nfa = random_nfa(prng, config);
  const Engines engines(nfa);

  for (const std::size_t chunks : {2u, 5u}) {
    const QueryOptions plain{.chunks = chunks, .convergence = false};
    const QueryOptions converging{.chunks = chunks, .convergence = true};
    for (int trial = 0; trial < 10; ++trial) {
      const auto input = testing::random_word(prng, nfa.num_symbols(),
                                              1 + prng.pick_index(60));
      const bool oracle = serial_match(engines.min_dfa, input).accepted;
      EXPECT_EQ(DfaDevice(engines.min_dfa).recognize(input, pool, plain).accepted,
                oracle);
      EXPECT_EQ(DfaDevice(engines.min_dfa).recognize(input, pool, converging).accepted,
                oracle);
      EXPECT_EQ(NfaDevice(engines.nfa).recognize(input, pool, plain).accepted, oracle);
      EXPECT_EQ(RidDevice(engines.ridfa).recognize(input, pool, plain).accepted,
                oracle);
      EXPECT_EQ(RidDevice(engines.ridfa).recognize(input, pool, converging).accepted,
                oracle);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceAgreement, ::testing::Range<std::uint64_t>(0, 20));

class LookbackProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LookbackProperty, DfaWithLookbackMatchesOracle) {
  // Look-back speculation (QueryOptions::lookback) must never change the
  // decision, only the amount of speculative work.
  Prng prng(GetParam() ^ 0x100cba);
  ThreadPool pool(4);
  RandomNfaConfig config;
  config.num_states = 6 + static_cast<std::int32_t>(prng.pick_index(20));
  const Nfa nfa = random_nfa(prng, config);
  const Engines engines(nfa);
  for (const std::size_t lookback : {1u, 4u, 16u, 1000u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto input = testing::random_word(prng, nfa.num_symbols(),
                                              1 + prng.pick_index(80));
      const bool oracle = serial_match(engines.min_dfa, input).accepted;
      QueryOptions options{.chunks = 5, .convergence = false};
      options.lookback = lookback;
      EXPECT_EQ(DfaDevice(engines.min_dfa).recognize(input, pool, options).accepted,
                oracle)
          << "lookback=" << lookback;
    }
  }
}

TEST(Lookback, PrunesStartsWhereTheWindowPinsTheBoundary) {
  // Look-back pays off when speculative runs survive (so they are costly)
  // but a short window determines the boundary state — the [ab]*a[ab]{k}
  // family: the state after any k+1 symbols is a function of exactly those
  // symbols, so a (k+2)-symbol probe collapses 2^(k+1) starts to one.
  const Nfa nfa = glushkov_nfa(parse_regex("[ab]*a[ab]{5}"));
  const Engines engines(nfa);
  ThreadPool pool(4);
  Prng prng(77);
  std::vector<Symbol> input = testing::random_word(prng, 2, 4000);
  input[input.size() - 6] = 0;  // membership
  QueryOptions plain{.chunks = 8, .convergence = false};
  QueryOptions pruned{.chunks = 8, .convergence = false};
  pruned.lookback = 8;
  const auto base = DfaDevice(engines.min_dfa).recognize(input, pool, plain);
  const auto cut = DfaDevice(engines.min_dfa).recognize(input, pool, pruned);
  EXPECT_TRUE(base.accepted);
  EXPECT_TRUE(cut.accepted);
  // 64 surviving runs per chunk vs ~1 plus the probe: at least 10x saved.
  EXPECT_LT(cut.transitions * 10, base.transitions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookbackProperty, ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace rispar
