#include "core/sfa.hpp"

#include <gtest/gtest.h>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/random_nfa.hpp"
#include "automata/subset.hpp"
#include "core/serial_match.hpp"
#include "helpers.hpp"
#include "parallel/csdpa.hpp"
#include "regex/parser.hpp"

namespace rispar {
namespace {

TEST(Sfa, IdentityIsInitialState) {
  const Dfa dfa = testing::fig2_dfa();
  const auto sfa = try_build_sfa(dfa);
  ASSERT_TRUE(sfa.has_value());
  ASSERT_EQ(sfa->map_width(), 2);
  EXPECT_EQ(sfa->mapping_entry(sfa->initial(), 0), 0);
  EXPECT_EQ(sfa->mapping_entry(sfa->initial(), 1), 1);
}

TEST(Sfa, MappingsComposeLikeDfaRuns) {
  const Dfa dfa = testing::fig2_dfa();
  const auto sfa = try_build_sfa(dfa);
  ASSERT_TRUE(sfa.has_value());
  Prng prng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const auto word = testing::random_word(prng, 2, prng.pick_index(12));
    std::uint64_t transitions = 0;
    const State arrival = sfa->run(word.data(), word.size(), transitions);
    EXPECT_EQ(transitions, word.size());
    // mapping(arrival)[q] must equal δ*(q, word) for every q.
    for (State q = 0; q < dfa.num_states(); ++q) {
      std::uint64_t ignore = 0;
      const State direct = run_dfa_span(dfa, q, word.data(), word.size(), ignore);
      EXPECT_EQ(sfa->mapping_entry(arrival, q), direct);
    }
  }
}

TEST(Sfa, BudgetRejectsExplosion) {
  // Interestingly, the [ab]*a[ab]{k} family's SFA *collapses* (the mapping
  // is a function of the last k+1 symbols only), so the explosion witness
  // is the traffic line grammar, whose SFA has thousands of mappings.
  const Dfa dfa = minimize_dfa(determinize(glushkov_nfa(parse_regex(
      "(May [0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2} host[0-9] "
      "(sshd|kernel|systemd|nginxd)\\[[0-9]{1,5}\\]: "
      "(ACCEPT|REJECT|DROP) src=[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}"
      " dpt=[0-9]{1,5}\n)*"))));
  EXPECT_FALSE(try_build_sfa(dfa, 1 << 10).has_value());
  // With a generous budget the same machine fits (~8.5k mappings).
  EXPECT_TRUE(try_build_sfa(dfa, 1 << 15).has_value());
}

TEST(Sfa, SmallTotalAutomatonStaysSmall) {
  // fig2 is a 2-state total DFA: at most 3^2 mappings exist.
  const auto sfa = try_build_sfa(testing::fig2_dfa());
  ASSERT_TRUE(sfa.has_value());
  EXPECT_LE(sfa->num_states(), 9);
  EXPECT_GE(sfa->num_states(), 2);
}

TEST(SfaDevice, ZeroSpeculationTransitionCount) {
  // The whole point of the SFA: exactly n transitions regardless of c.
  const Dfa dfa = testing::fig2_dfa();
  const auto sfa = try_build_sfa(dfa);
  ASSERT_TRUE(sfa.has_value());
  ThreadPool pool(4);
  const std::vector<Symbol> input{1, 0, 1, 0, 0, 0};
  for (const std::size_t chunks : {1u, 2u, 3u, 6u}) {
    const QueryOptions options{.chunks = chunks, .convergence = false};
    const QueryResult stats = SfaDevice(*sfa, dfa).recognize(input, pool, options);
    EXPECT_TRUE(stats.accepted);
    EXPECT_EQ(stats.transitions, input.size()) << "c=" << chunks;
  }
}

TEST(SfaDevice, EmptyInput) {
  const Dfa star = minimize_dfa(determinize(glushkov_nfa(parse_regex("a*"))));
  const auto sfa = try_build_sfa(star);
  ASSERT_TRUE(sfa.has_value());
  ThreadPool pool(2);
  const QueryOptions options{.chunks = 4, .convergence = false};
  EXPECT_TRUE(SfaDevice(*sfa, star).recognize({}, pool, options).accepted);
}

class SfaAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SfaAgreement, MatchesSerialOracleOnRandomMachines) {
  Prng prng(GetParam());
  RandomNfaConfig config;
  config.num_states = 4 + static_cast<std::int32_t>(prng.pick_index(8));
  config.num_symbols = 2;
  config.density = 1.3;
  config.nondeterminism = 0.15;
  const Nfa nfa = random_nfa(prng, config);
  const Dfa dfa = minimize_dfa(determinize(nfa));
  const auto sfa = try_build_sfa(dfa, 1 << 14);
  if (!sfa.has_value()) GTEST_SKIP() << "SFA exploded (expected for some draws)";

  ThreadPool pool(4);
  for (const std::size_t chunks : {1u, 3u, 5u}) {
    const QueryOptions options{.chunks = chunks, .convergence = false};
    for (int trial = 0; trial < 15; ++trial) {
      const auto word =
          testing::random_word(prng, dfa.num_symbols(), 1 + prng.pick_index(40));
      const bool oracle = serial_match(dfa, word).accepted;
      EXPECT_EQ(SfaDevice(*sfa, dfa).recognize(word, pool, options).accepted, oracle);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SfaAgreement, ::testing::Range<std::uint64_t>(0, 15));

TEST(Sfa, PackedDeltaMatchesStepLoop) {
  // The SFA's own δ is width-packed at build time: packed() must hold the
  // symbol-major copy of the step table, run() must walk it to the same
  // arrival state and transition count as a naive step() loop, and the
  // width must follow the state count.
  Prng prng(77);
  for (int trial = 0; trial < 8; ++trial) {
    RandomNfaConfig config;
    config.num_states = 3 + static_cast<std::int32_t>(prng.pick_index(5));
    config.num_symbols = 2;
    const Nfa nfa = random_nfa(prng, config);
    const Dfa dfa = minimize_dfa(determinize(nfa));
    const auto sfa = try_build_sfa(dfa, 1 << 14);
    if (!sfa.has_value()) continue;

    const PackedTable& packed = sfa->packed();
    EXPECT_EQ(packed.num_states(), sfa->num_states());
    EXPECT_EQ(packed.num_symbols(), sfa->num_symbols());
    EXPECT_EQ(packed.width(), sfa->num_states() < 0xFF ? TableWidth::kU8
              : sfa->num_states() < 0xFFFF              ? TableWidth::kU16
                                                        : TableWidth::kI32);

    for (int word_trial = 0; word_trial < 10; ++word_trial) {
      auto word = testing::random_word(prng, sfa->num_symbols(),
                                       prng.pick_index(60));
      if (!word.empty() && prng.pick_index(3) == 0)
        word[prng.pick_index(word.size())] = sfa->num_symbols();  // alien
      State expected = sfa->initial();
      std::uint64_t expected_transitions = 0;
      bool aborted = false;
      for (const Symbol symbol : word) {
        if (symbol < 0 || symbol >= sfa->num_symbols()) {
          expected = sfa->all_dead_state().value_or(expected);
          aborted = true;
          break;
        }
        expected = sfa->step(expected, symbol);
        ++expected_transitions;
      }
      (void)aborted;
      std::uint64_t transitions = 0;
      EXPECT_EQ(sfa->run(word.data(), word.size(), transitions), expected);
      EXPECT_EQ(transitions, expected_transitions);
    }
  }
}

TEST(Sfa, ConstructionCostDwarfsRidfa) {
  // The paper's qualitative claim: SFA construction is far bigger than the
  // RI-DFA for rigid formats. The traffic line grammar: RI-DFA ~103 states
  // vs SFA in the thousands.
  const Nfa nfa = glushkov_nfa(parse_regex(
      "(May [0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2} host[0-9] "
      "(sshd|kernel|systemd|nginxd)\\[[0-9]{1,5}\\]: "
      "(ACCEPT|REJECT|DROP) src=[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}"
      " dpt=[0-9]{1,5}\n)*"));
  const Dfa dfa = minimize_dfa(determinize(nfa));
  const Ridfa ridfa = build_ridfa(nfa);
  const auto sfa = try_build_sfa(dfa, 1 << 15);
  ASSERT_TRUE(sfa.has_value());
  EXPECT_GT(sfa->num_states(), 4 * ridfa.num_states());
}

}  // namespace
}  // namespace rispar
