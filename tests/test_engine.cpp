#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>

#include "automata/glushkov.hpp"
#include "automata/random_nfa.hpp"
#include "automata/thompson.hpp"
#include "automata/timbuk.hpp"
#include "core/serial_match.hpp"
#include "core/sfa.hpp"
#include "helpers.hpp"
#include "parallel/match_count.hpp"
#include "regex/parser.hpp"
#include "regex/random_regex.hpp"

namespace rispar {
namespace {

constexpr Variant kAllVariants[] = {Variant::kDfa, Variant::kNfa, Variant::kRid,
                                    Variant::kSfa};

TEST(Pattern, CompileBuildsConsistentAutomata) {
  const Pattern pattern = Pattern::compile("(ab)*");
  EXPECT_FALSE(pattern.nfa().has_epsilon());
  EXPECT_GE(pattern.min_dfa().num_states(), 1);
  EXPECT_LE(pattern.ridfa().initial_count(), pattern.nfa().num_states());
}

TEST(Pattern, FromNfaWithEpsilonGetsCleaned) {
  const Nfa thompson = thompson_nfa(parse_regex("(a|b)*abb"));
  const Engine engine(Pattern::from_nfa(thompson));
  EXPECT_FALSE(engine.pattern().nfa().has_epsilon());
  EXPECT_TRUE(engine.accepts("abb"));
  EXPECT_FALSE(engine.accepts("ab"));
}

TEST(Pattern, CopyIsSharedOwnership) {
  const Pattern pattern = Pattern::compile("(ab)*");
  const Pattern copy = pattern;
  EXPECT_EQ(&pattern.min_dfa(), &copy.min_dfa());  // same compiled machines
}

TEST(Pattern, InvalidRegexPropagates) {
  EXPECT_THROW(Pattern::compile("(unclosed"), RegexError);
}

TEST(Pattern, FromTimbukRoundTrip) {
  const std::string text = timbuk_to_string(testing::fig1_nfa());
  const Engine engine(Pattern::from_timbuk(text), {.threads = 2});
  EXPECT_TRUE(engine.accepts(std::span<const Symbol>(testing::fig1_string())));
  const std::vector<Symbol> rejected{1};  // "b" alone is not in the language
  EXPECT_FALSE(engine.accepts(std::span<const Symbol>(rejected)));
}

TEST(Engine, VariantNamesAreStable) {
  EXPECT_STREQ(variant_name(Variant::kDfa), "DFA");
  EXPECT_STREQ(variant_name(Variant::kNfa), "NFA");
  EXPECT_STREQ(variant_name(Variant::kRid), "RID");
  EXPECT_STREQ(variant_name(Variant::kSfa), "SFA");
}

TEST(Engine, RecognizeDispatchesAllVariants) {
  const Engine engine(Pattern::compile("(ab)*"), {.threads = 4});
  for (const Variant variant : kAllVariants) {
    const QueryResult result =
        engine.recognize("abababab", {.variant = variant, .chunks = 3});
    EXPECT_TRUE(result.accepted) << variant_name(variant);
    EXPECT_FALSE(engine.recognize("aba", {.variant = variant, .chunks = 3}).accepted)
        << variant_name(variant);
  }
}

TEST(Engine, TranslateMatchesManualSymbolMap) {
  const Engine engine(Pattern::compile("[ab]c"));
  const auto via_engine = engine.translate("acz");
  const auto manual = engine.pattern().symbols().translate("acz");
  EXPECT_EQ(via_engine, manual);
  ASSERT_EQ(via_engine.size(), 3u);
  EXPECT_NE(via_engine[0], via_engine[1]);
  EXPECT_EQ(via_engine[2], SymbolMap::kUnmapped);
  // Byte-level and pre-translated entry points agree.
  EXPECT_EQ(engine.recognize("acz").accepted,
            engine.recognize(std::span<const Symbol>(via_engine)).accepted);
}

// Alien bytes (outside the pattern's symbol classes) must reject — never
// UB — on every variant. "[ab]*" is the regression witness: its chunk
// automaton is TOTAL on its own alphabet, so the seed SFA had no all-dead
// mapping and returned a live arrival state on alien input (accepting).
TEST(Engine, AlienBytesRejectNotUb) {
  for (const char* pattern : {"[ab]*", "a+", "(ab|ba)*"}) {
    const Engine engine(Pattern::compile(pattern), {.threads = 2});
    for (const Variant variant : kAllVariants) {
      for (const std::size_t chunks : {1u, 2u, 5u}) {
        const QueryResult result =
            engine.recognize("aZb", {.variant = variant, .chunks = chunks});
        EXPECT_FALSE(result.accepted)
            << pattern << " " << variant_name(variant) << " c=" << chunks;
      }
    }
  }
}

TEST(Engine, ValidationRejectsUnsupportedKnobs) {
  const Engine engine(Pattern::compile("(ab)*"));
  const std::string_view text = "abab";
  // Convergence: deterministic single-run devices only (DFA, RID).
  EXPECT_THROW(engine.recognize(text, {.variant = Variant::kNfa, .convergence = true}),
               QueryError);
  EXPECT_THROW(engine.recognize(text, {.variant = Variant::kSfa, .convergence = true}),
               QueryError);
  EXPECT_NO_THROW(
      engine.recognize(text, {.variant = Variant::kDfa, .convergence = true}));
  EXPECT_NO_THROW(
      engine.recognize(text, {.variant = Variant::kRid, .convergence = true}));
  // Kernel selection follows the same split.
  EXPECT_THROW(engine.recognize(text, {.variant = Variant::kNfa,
                                       .kernel = DetKernel::kReference}),
               QueryError);
  EXPECT_NO_THROW(engine.recognize(text, {.variant = Variant::kRid,
                                          .kernel = DetKernel::kReference}));
  // Look-back: DFA device only.
  EXPECT_THROW(engine.recognize(text, {.variant = Variant::kRid, .lookback = 4}),
               QueryError);
  EXPECT_NO_THROW(engine.recognize(text, {.variant = Variant::kDfa, .lookback = 4}));
  // Streaming rejects lookback even where one-shot allows it — on the
  // Engine path and on the direct device path alike, for symbol and byte
  // windows.
  EXPECT_THROW(engine.stream({.variant = Variant::kDfa, .lookback = 4}), QueryError);
  EXPECT_NO_THROW(engine.stream({.variant = Variant::kDfa, .convergence = true}));
  {
    StreamCarry carry;
    const std::vector<Symbol> window{0, 1};
    const QueryOptions lookback{.variant = Variant::kDfa, .lookback = 4};
    const Device& dfa = engine.device(Variant::kDfa);
    EXPECT_THROW(dfa.stream_feed(carry, window, engine.pool(), lookback), QueryError);
    EXPECT_THROW(dfa.stream_feed(carry, ByteSpan("ab", engine.pattern().symbols()),
                                 engine.pool(), lookback),
                 QueryError);
  }
  // Counting honors chunks + convergence, nothing else.
  EXPECT_NO_THROW(engine.count(text, {.chunks = 3, .convergence = true}));
  EXPECT_THROW(engine.count(text, {.kernel = DetKernel::kReference}), QueryError);
  EXPECT_THROW(engine.count(text, {.lookback = 2}), QueryError);
}

TEST(Engine, SfaBudgetExplosionIsAnError) {
  // A budget of 1 cannot even hold the identity mapping plus one successor.
  const Engine engine(Pattern::compile("(ab)*"), {.threads = 2, .sfa_budget = 1});
  EXPECT_EQ(engine.try_device(Variant::kSfa), nullptr);
  EXPECT_THROW(engine.recognize("abab", {.variant = Variant::kSfa}), QueryError);
  // The other devices are untouched.
  EXPECT_TRUE(engine.recognize("abab", {.variant = Variant::kRid}).accepted);
}

TEST(Engine, SubsetBudgetGuardsBlowupRegexes) {
  // The classic subset-construction bomb: (a|b)*a(a|b){k} determinizes to
  // ~2^k states (the DFA must remember the last k symbols). A bounded
  // Engine trips ResourceExhausted at the first count/find instead of
  // consuming unbounded memory — and the searcher stays UNBUILT, so the
  // same Pattern retried through a roomier Engine still works.
  const std::string bomb = "(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)";
  const Pattern pattern = Pattern::compile(bomb);
  const Engine tight(pattern, {.threads = 2, .subset_budget = 16});
  try {
    (void)tight.count("abab");
    FAIL() << "the subset budget did not trip";
  } catch (const ResourceExhausted& error) {
    EXPECT_EQ(error.resource(), "subset construction");
    EXPECT_EQ(error.limit(), 16);
    EXPECT_GT(error.observed(), error.limit());
  }
  EXPECT_THROW((void)tight.find("abab"), ResourceExhausted);
  // Recognition never needs the searcher — the same Engine still decides.
  EXPECT_TRUE(tight.recognize("aabbbbbbbb").accepted);

  // Same shared Pattern, bigger budget: the lazy build retries and wins.
  const Engine roomy(pattern, {.threads = 2});
  EXPECT_EQ(roomy.count("abbbbbbbb").matches, 1u);

  // The compile-time limit guards the minimal-DFA determinization too, so
  // a capped compile of the bomb trips the same typed error up front.
  EXPECT_THROW((void)Pattern::compile(bomb, {.max_subset_states = 16}),
               ResourceExhausted);
}

TEST(Engine, CountOccurrencesByteLevel) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  // Arbitrary bytes between occurrences are fine: the searcher's alphabet
  // covers all 256 bytes even though the pattern's classes do not.
  EXPECT_EQ(engine.count("xxabxxab!?").matches, 2u);
  EXPECT_EQ(engine.count("").matches, 0u);
  const Engine overlapping(Pattern::compile("aa"), {.threads = 2});
  EXPECT_EQ(overlapping.count("aaaa").matches, 3u);  // overlaps counted
}

TEST(Engine, MatchAllBatchesManyTexts) {
  const Engine engine(Pattern::compile("(ab|ba)+"), {.threads = 4});
  const std::vector<std::string_view> texts{"abba", "ab", "x", "", "baab", "aab"};
  const auto results = engine.match_all(texts, {.variant = Variant::kRid, .chunks = 2});
  ASSERT_EQ(results.size(), texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(results[i].accepted, engine.accepts(texts[i])) << texts[i];
    EXPECT_EQ(
        results[i].accepted,
        engine.recognize(texts[i], {.variant = Variant::kRid, .chunks = 2}).accepted);
  }
}

TEST(Engine, StreamSessionBytesAndSymbols) {
  const Engine engine(Pattern::compile("(ab)*"), {.threads = 2});
  StreamSession session = engine.stream({.variant = Variant::kRid, .chunks = 2});
  session.feed("abab");
  EXPECT_TRUE(session.accepted());
  session.feed("a");
  EXPECT_FALSE(session.accepted());
  session.feed("b");
  EXPECT_TRUE(session.accepted());
  EXPECT_EQ(session.windows(), 3u);
  session.reset();
  EXPECT_TRUE(session.accepted());  // empty string again
}

// ---------------------------------------------------------------------------
// The acceptance property: Engine::recognize / count / stream equal the
// direct device / legacy paths across all variants (including kSfa),
// options, and chunk counts — decisions AND transition counts.
// ---------------------------------------------------------------------------

class EngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, MatchesDirectDevicesAcrossOptions) {
  Prng prng(GetParam());
  RandomRegexConfig config;
  config.alphabet = "abc";
  config.target_size = 10;
  const RePtr re = random_regex(prng, config);
  const Pattern pattern = Pattern::from_nfa(glushkov_nfa(re));
  const Engine engine(pattern, {.threads = 4});

  // The direct (pre-Engine) paths: concrete devices over the same machines.
  const DfaDevice direct_dfa(pattern.min_dfa());
  const NfaDevice direct_nfa(pattern.nfa());
  const RidDevice direct_rid(pattern.ridfa());
  const auto direct_sfa = try_build_sfa(pattern.min_dfa());
  std::optional<SfaDevice> direct_sfa_device;
  if (direct_sfa.has_value()) direct_sfa_device.emplace(*direct_sfa, pattern.min_dfa());

  for (int trial = 0; trial < 6; ++trial) {
    std::string text;
    for (std::size_t i = 0; i < 1 + prng.pick_index(40); ++i)
      text.push_back("abc"[prng.pick_index(3)]);
    const auto input = engine.translate(text);
    const bool oracle = engine.accepts(input);

    for (const std::size_t chunks : {1u, 2u, 5u, 9u}) {
      for (const bool convergence : {false, true}) {
        for (const Variant variant : kAllVariants) {
          const Device* direct = nullptr;
          switch (variant) {
            case Variant::kDfa: direct = &direct_dfa; break;
            case Variant::kNfa: direct = &direct_nfa; break;
            case Variant::kRid: direct = &direct_rid; break;
            case Variant::kSfa:
              if (!direct_sfa_device.has_value()) continue;  // SFA exploded
              direct = &*direct_sfa_device;
              break;
          }
          QueryOptions options{.variant = variant, .chunks = chunks};
          if (convergence) {
            if (!direct->capabilities().convergence) continue;
            options.convergence = true;
          }
          const QueryResult via_engine = engine.recognize(input, options);
          const QueryResult via_device =
              direct->recognize(input, engine.pool(), options);
          EXPECT_EQ(via_engine.accepted, oracle)
              << variant_name(variant) << " c=" << chunks << " conv=" << convergence;
          EXPECT_EQ(via_engine.accepted, via_device.accepted);
          EXPECT_EQ(via_engine.transitions, via_device.transitions)
              << variant_name(variant) << " c=" << chunks << " conv=" << convergence;
          EXPECT_EQ(via_engine.chunks, via_device.chunks);
        }
      }
    }
  }
}

TEST_P(EngineEquivalence, StreamAnySegmentationMatchesOneShot) {
  Prng prng(GetParam() ^ 0xabcdef);
  RandomNfaConfig config;
  config.num_states = 5 + static_cast<std::int32_t>(prng.pick_index(12));
  config.num_symbols = 2 + static_cast<std::int32_t>(prng.pick_index(3));
  const Nfa nfa = random_nfa(prng, config);
  const Pattern pattern = Pattern::from_nfa(nfa);
  const Engine engine(pattern, {.threads = 4});

  for (int trial = 0; trial < 4; ++trial) {
    const auto input = testing::random_word(prng, pattern.nfa().num_symbols(),
                                            1 + prng.pick_index(90));
    for (const Variant variant : kAllVariants) {
      const Device* device = engine.try_device(variant);
      if (device == nullptr) continue;  // SFA exploded
      for (const bool convergence : {false, true}) {
        for (const DetKernel kernel :
             {DetKernel::kFused, DetKernel::kReference}) {
          if (convergence && !device->capabilities().convergence) continue;
          if (kernel != DetKernel::kFused && !device->capabilities().kernel_select)
            continue;
          const QueryOptions options{.variant = variant, .chunks = 3,
                                     .convergence = convergence, .kernel = kernel};
          const QueryResult one_shot = engine.recognize(input, options);

          // Single window: decision AND transition count match one-shot.
          StreamSession whole = engine.stream(options);
          whole.feed(std::span<const Symbol>(input));
          EXPECT_EQ(whole.accepted(), one_shot.accepted) << variant_name(variant);
          EXPECT_EQ(whole.transitions(), one_shot.transitions)
              << variant_name(variant) << " conv=" << convergence;

          // Random segmentation: the decision is segmentation-invariant.
          StreamSession session = engine.stream(options);
          std::size_t offset = 0;
          while (offset < input.size()) {
            const std::size_t take =
                std::min(input.size() - offset, 1 + prng.pick_index(25));
            session.feed(std::span<const Symbol>(input.data() + offset, take));
            offset += take;
          }
          EXPECT_EQ(session.accepted(), one_shot.accepted)
              << variant_name(variant) << " conv=" << convergence
              << " trial " << trial;
        }
      }
    }
  }
}

TEST_P(EngineEquivalence, CountMatchesSerialOracleUnderAllModes) {
  Prng prng(GetParam() ^ 0x5eed5);
  RandomRegexConfig config;
  config.alphabet = "ab";
  config.target_size = 8;
  const RePtr re = random_regex(prng, config);
  const Engine engine(Pattern::from_nfa(glushkov_nfa(re)), {.threads = 4});
  const Dfa& searcher = engine.searcher();

  for (int trial = 0; trial < 6; ++trial) {
    std::string text;
    for (std::size_t i = 0; i < prng.pick_index(120); ++i)
      text.push_back("abxy"[prng.pick_index(4)]);
    const auto input = searcher.symbols().translate(text);
    const QueryResult serial = count_matches_serial(searcher, input);
    for (const std::size_t chunks : {1u, 3u, 7u}) {
      for (const bool convergence : {false, true}) {
        const QueryOptions options{.chunks = chunks, .convergence = convergence};
        const QueryResult via_engine = engine.count(text, options);
        EXPECT_EQ(via_engine.matches, serial.matches)
            << "c=" << chunks << " conv=" << convergence << " text=" << text;
        EXPECT_EQ(via_engine.died, serial.died);
        // Count is find without the positions: same totals, same death, same
        // speculative work.
        const QueryResult found = engine.find(text, options);
        EXPECT_EQ(found.matches, via_engine.matches)
            << "c=" << chunks << " conv=" << convergence << " text=" << text;
        EXPECT_EQ(found.died, via_engine.died);
        EXPECT_EQ(found.transitions, via_engine.transitions);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace rispar
