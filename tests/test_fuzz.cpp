// Failure-injection and fuzz tests: random byte noise through the parser,
// hostile structures through the pipeline, budget exhaustion paths,
// structural invariants of the RI-DFA, Pattern bundle corruption, and the
// ISSUE 4 differential fuzz driver (streaming find vs one-shot find vs the
// serial scan). Nothing here may crash, hang, or corrupt — errors must
// surface as exceptions or nullopt.
//
// The differential driver's iteration count comes from RISPAR_FUZZ_ITERS
// (default sized for CI's tier-1 lane); the nightly long-fuzz CI job sets
// it high for a soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/random_nfa.hpp"
#include "automata/serialize.hpp"
#include "automata/subset.hpp"
#include "automata/timbuk.hpp"
#include "bundle/mapped_bundle.hpp"
#include "core/interface_min.hpp"
#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "helpers.hpp"
#include "parallel/match_count.hpp"
#include "regex/parser.hpp"
#include "regex/printer.hpp"
#include "regex/random_regex.hpp"
#include "regex/simplify.hpp"

namespace rispar {
namespace {

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RandomBytesNeverCrashTheParser) {
  Prng prng(GetParam());
  // Bias towards metacharacters so the interesting branches fire.
  static const char* kAtoms[] = {"a",  "b",  "(",  ")",  "[", "]", "{", "}",
                                 "*",  "+",  "?",  "|",  ".", "-", "^", "\\",
                                 "0",  "9",  ",",  "\\d", "\\x4", "  "};
  for (int trial = 0; trial < 200; ++trial) {
    std::string pattern;
    const std::size_t pieces = prng.pick_index(20);
    for (std::size_t i = 0; i < pieces; ++i)
      pattern += kAtoms[prng.pick_index(std::size(kAtoms))];
    try {
      const RePtr re = parse_regex(pattern);
      // A successful parse must survive the full downstream pipeline.
      const RePtr simplified = simplify_regex(re);
      const Nfa nfa = glushkov_nfa(simplified);
      (void)nfa.num_states();
      const std::string printed = regex_to_string(re);
      (void)parse_regex(printed);  // printed form must re-parse
    } catch (const RegexError&) {
      // Rejection is the expected outcome for garbage.
    }
  }
}

TEST_P(ParserFuzz, ArbitraryBytePatterns) {
  Prng prng(GetParam() ^ 0xbeef);
  for (int trial = 0; trial < 100; ++trial) {
    std::string pattern;
    const std::size_t length = prng.pick_index(24);
    for (std::size_t i = 0; i < length; ++i)
      pattern.push_back(static_cast<char>(prng.pick_index(256)));
    try {
      (void)parse_regex(pattern);
    } catch (const RegexError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range<std::uint64_t>(0, 8));

TEST(SerializeFuzz, RandomLinesNeverCrashLoaders) {
  Prng prng(404);
  static const char* kLines[] = {"nfa 3 2",   "dfa 2 2",      "initial 0",
                                 "final 1",   "edge 0 0 1",   "trans 0 1 1",
                                 "eps 0 2",   "edge 9 9 9",   "# noise",
                                 "garbage",   "nfa -2 1",     ""};
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const std::size_t lines = prng.pick_index(8);
    for (std::size_t i = 0; i < lines; ++i) {
      text += kLines[prng.pick_index(std::size(kLines))];
      text += '\n';
    }
    try {
      (void)nfa_from_string(text);
    } catch (const std::runtime_error&) {
    }
    try {
      (void)dfa_from_string(text);
    } catch (const std::runtime_error&) {
    }
    try {
      (void)timbuk_from_string(text);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(BudgetExhaustion, TryBuildRidfaFailsCleanly) {
  // A machine too big for the budget must return nullopt without leaking
  // or corrupting — repeat to shake out state reuse bugs.
  Prng prng(7);
  RandomNfaConfig config;
  config.num_states = 60;
  config.nondeterminism = 0.6;
  config.density = 2.2;
  const Nfa nfa = random_nfa(prng, config);
  for (int i = 0; i < 10; ++i) {
    const auto tiny = try_build_ridfa(nfa, 8);
    EXPECT_FALSE(tiny.has_value());
  }
  // The same NFA still builds with an adequate budget afterwards.
  const auto full = try_build_ridfa(nfa, 1 << 20);
  ASSERT_TRUE(full.has_value());
  EXPECT_GE(full->num_states(), nfa.num_states());
}

class RidfaInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RidfaInvariants, StructuralInvariantsHold) {
  Prng prng(GetParam());
  RandomNfaConfig config;
  config.num_states = 5 + static_cast<std::int32_t>(prng.pick_index(30));
  config.num_symbols = 2 + static_cast<std::int32_t>(prng.pick_index(4));
  const Nfa nfa = random_nfa(prng, config);
  Ridfa ridfa = build_ridfa(nfa);
  minimize_interface(ridfa);

  // (1) contents are sorted, unique, non-empty NFA state ids.
  for (State p = 0; p < ridfa.num_states(); ++p) {
    const auto& contents = ridfa.contents(p);
    ASSERT_FALSE(contents.empty());
    EXPECT_TRUE(std::is_sorted(contents.begin(), contents.end()));
    EXPECT_EQ(std::adjacent_find(contents.begin(), contents.end()), contents.end());
    for (const State q : contents) {
      EXPECT_GE(q, 0);
      EXPECT_LT(q, nfa.num_states());
    }
  }

  // (2) every singleton exists with exactly its own content.
  for (State q = 0; q < nfa.num_states(); ++q)
    EXPECT_EQ(ridfa.contents(ridfa.singleton(q)), std::vector<State>{q});

  // (3) the interface points into the initial set, and initial_states() is
  // exactly the deduplicated interface range.
  std::vector<State> range;
  for (State q = 0; q < nfa.num_states(); ++q) range.push_back(ridfa.interface_of(q));
  std::sort(range.begin(), range.end());
  range.erase(std::unique(range.begin(), range.end()), range.end());
  EXPECT_EQ(ridfa.initial_states(), range);

  // (4) finality == contents intersect NFA finals.
  for (State p = 0; p < ridfa.num_states(); ++p) {
    bool has_final = false;
    for (const State q : ridfa.contents(p)) has_final |= nfa.is_final(q);
    EXPECT_EQ(ridfa.is_final(p), has_final);
  }

  // (5) transitions respect the subset semantics: contents(δ(p, a)) equals
  // the union of ρ(q, a) over q in contents(p).
  for (State p = 0; p < ridfa.num_states(); ++p) {
    for (Symbol a = 0; a < ridfa.num_symbols(); ++a) {
      Bitset expected(static_cast<std::size_t>(nfa.num_states()));
      for (const State q : ridfa.contents(p))
        for (const auto& edge : nfa.edges(q, a))
          expected.set(static_cast<std::size_t>(edge.target));
      const State target = ridfa.step(p, a);
      if (target == kDeadState) {
        EXPECT_TRUE(expected.empty());
      } else {
        EXPECT_EQ(Bitset::from_indices(static_cast<std::size_t>(nfa.num_states()),
                                       ridfa.contents(target)),
                  expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RidfaInvariants, ::testing::Range<std::uint64_t>(0, 15));

// ------------------------------------------------- differential fuzz driver
// (ISSUE 4 acceptance): random regex × random text × random window splits;
// streaming find must equal one-shot Engine::find AND the serial one-scan
// oracle for every variant × chunks {1, 2, 7, 64} × convergence × kernel
// the device admits, with absolute offsets stable across arbitrary window
// boundaries — and the streamed DECISION must equal serial membership.

std::size_t fuzz_iterations(std::size_t fallback) {
  const char* env = std::getenv("RISPAR_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') return fallback;
  const unsigned long long parsed = std::strtoull(env, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// Random text that actually matches: members of L(re) embedded in noise
/// that includes bytes outside the pattern's classes (exercising the
/// searcher's extended all-bytes alphabet and device death).
std::string fuzz_text(Prng& prng, const RePtr& re, std::size_t target) {
  static const char kNoise[] = "abc xy.";
  std::string text;
  while (text.size() < target) {
    std::string member;
    if (prng.pick_index(2) == 0 && random_member(re, prng, member)) text += member;
    const std::size_t pad = prng.pick_index(6);
    for (std::size_t i = 0; i < pad; ++i)
      text += kNoise[prng.pick_index(sizeof(kNoise) - 1)];
    if (text.size() > 4 * target) break;  // star-heavy members can run long
  }
  return text;
}

TEST(DifferentialFuzz, StreamingFindEqualsOneShotAndSerialOracles) {
  const std::size_t iters = fuzz_iterations(12);
  Prng prng(0xd1ff5eed);
  static constexpr std::size_t kChunks[] = {1, 2, 7, 64};
  static constexpr Variant kVariants[] = {Variant::kDfa, Variant::kNfa,
                                          Variant::kRid, Variant::kSfa};
  static constexpr DetKernel kKernels[] = {DetKernel::kFused, DetKernel::kReference};

  for (std::size_t iter = 0; iter < iters; ++iter) {
    RandomRegexConfig config;
    config.alphabet = prng.pick_index(2) == 0 ? "ab" : "abc";
    config.target_size = 3 + static_cast<int>(prng.pick_index(10));
    const RePtr re = random_regex(prng, config);
    const std::string regex = regex_to_string(re);
    const std::string text = fuzz_text(prng, re, 40 + prng.pick_index(200));
    SCOPED_TRACE("iter " + std::to_string(iter) + " regex=" + regex +
                 " text=" + text);

    const Engine engine(Pattern::compile(regex), {.threads = 2});
    const Dfa& searcher = engine.searcher();
    const QueryResult oracle =
        find_matches_serial(searcher, searcher.symbols().translate(text));
    const bool oracle_accepts = engine.accepts(text);

    // One-shot find across the full kernel matrix (variant not consulted).
    for (const std::size_t chunks : kChunks) {
      for (const bool convergence : {false, true}) {
        for (const DetKernel kernel : kKernels) {
          const QueryResult one_shot = engine.find(
              text,
              {.chunks = chunks, .convergence = convergence, .kernel = kernel});
          ASSERT_EQ(one_shot.positions, oracle.positions)
              << "one-shot chunks=" << chunks << " conv=" << convergence
              << " kernel=" << kernel_name(kernel);
          ASSERT_EQ(one_shot.matches, oracle.matches);
        }
      }
    }

    // Streaming find: every variant × chunks × convergence × kernel the
    // device's streaming caps admit, each under a fresh random window
    // split, alternating the two drain shapes.
    for (const Variant variant : kVariants) {
      if (engine.try_device(variant) == nullptr) continue;  // SFA explosion
      const DeviceCaps caps = engine.device(variant).stream_capabilities();
      for (const std::size_t chunks : kChunks) {
        for (const bool convergence : {false, true}) {
          if (convergence && !caps.convergence) continue;
          for (const DetKernel kernel : kKernels) {
            if (kernel != DetKernel::kFused && !caps.kernel_select) continue;
            StreamSession stream = engine.stream({.variant = variant,
                                                  .chunks = chunks,
                                                  .convergence = convergence,
                                                  .kernel = kernel,
                                                  .positions = true});
            std::vector<Match> collected;
            const MatchSink sink = [&](const Match& m) { collected.push_back(m); };
            const bool use_sink = prng.pick_index(2) == 0;
            std::size_t offset = 0;
            while (offset < text.size()) {
              const std::size_t take =
                  std::min(text.size() - offset, 1 + prng.pick_index(40));
              const std::string_view window(text.data() + offset, take);
              if (use_sink) {
                stream.feed(window, sink);
              } else {
                stream.feed(window);
                for (const Match& m : stream.take_matches()) collected.push_back(m);
              }
              offset += take;
            }
            ASSERT_EQ(collected, oracle.positions)
                << variant_name(variant) << " chunks=" << chunks
                << " conv=" << convergence
                << " kernel=" << kernel_name(kernel)
                << " sink=" << use_sink;
            ASSERT_EQ(stream.matches(), oracle.matches);
            ASSERT_EQ(stream.accepted(), oracle_accepts) << variant_name(variant);
            ASSERT_EQ(stream.bytes_consumed(), text.size());
          }
        }
      }
    }
  }
}

// ---------------------------------------------- exact-begin differential fuzz
// (ISSUE 9 tentpole a): under begin_mode=kExact, every emitted begin must be
// the TRUE leftmost start — min{b : text[b..end) ∈ L(p)} — and the property
// must hold identically for one-shot find (all chunk counts × kernels),
// streaming find (all variants × chunk counts × random window splits) and
// the serial reverse-scan oracle. A brute-force membership sweep over every
// candidate begin gives a fully independent second oracle on short texts.

/// min{b : engine.accepts(text[b..end))}; end is a reported match end, so
/// some suffix must accept.
std::uint64_t brute_force_leftmost(const Engine& engine, std::string_view text,
                                   std::uint64_t end) {
  for (std::uint64_t b = 0; b <= end; ++b)
    if (engine.accepts(text.substr(b, static_cast<std::size_t>(end - b)))) return b;
  ADD_FAILURE() << "no suffix of text[0.." << end << ") accepts";
  return end + 1;
}

TEST(ExactBeginFuzz, ExactBeginsEqualAcrossAllPathsAndOracles) {
  const std::size_t iters = fuzz_iterations(8);
  Prng prng(0xe4ac7b39);
  static constexpr std::size_t kChunks[] = {1, 2, 7, 64};
  static constexpr Variant kVariants[] = {Variant::kDfa, Variant::kNfa,
                                          Variant::kRid, Variant::kSfa};
  static constexpr DetKernel kKernels[] = {DetKernel::kFused, DetKernel::kReference};

  for (std::size_t iter = 0; iter < iters; ++iter) {
    RandomRegexConfig config;
    config.alphabet = prng.pick_index(2) == 0 ? "ab" : "abc";
    config.target_size = 3 + static_cast<int>(prng.pick_index(10));
    const RePtr re = random_regex(prng, config);
    const std::string regex = regex_to_string(re);
    const std::string text = fuzz_text(prng, re, 30 + prng.pick_index(120));
    SCOPED_TRACE("iter " + std::to_string(iter) + " regex=" + regex +
                 " text=" + text);

    const Engine engine(Pattern::compile(regex), {.threads = 2});
    const Dfa& searcher = engine.searcher();
    const ReverseBegins& reverse = engine.pattern().reverse_begins();
    const std::vector<Symbol> input = searcher.symbols().translate(text);

    // The serial reverse-scan oracle: same ends as the separator oracle,
    // begins pinned by the reverse DFA from text start (floor 0).
    const QueryResult sep_oracle = find_matches_serial(searcher, input);
    const QueryResult exact_oracle =
        find_matches_serial(searcher, input, 0, &reverse.dfa);
    ASSERT_EQ(exact_oracle.positions.size(), sep_oracle.positions.size());
    for (std::size_t i = 0; i < exact_oracle.positions.size(); ++i) {
      const Match& exact = exact_oracle.positions[i];
      const Match& sep = sep_oracle.positions[i];
      ASSERT_EQ(exact.end, sep.end);
      // For patterns whose purity certificate holds, the separator is a
      // sound floor: never right of the true leftmost begin. (Without the
      // certificate a minimization merge CAN place the separator inside a
      // live match — the a|ba hazard — which is exactly why exact
      // resolution then rescans from the window base instead.)
      if (reverse.separators_sound)
        ASSERT_LE(sep.begin, exact.begin) << "end=" << exact.end;
      // The independent oracle: brute-force leftmost membership.
      ASSERT_EQ(exact.begin, brute_force_leftmost(engine, text, exact.end))
          << "end=" << exact.end << " separators_sound=" << reverse.separators_sound;
    }

    // One-shot exact find across the chunk × kernel matrix.
    for (const std::size_t chunks : kChunks) {
      for (const DetKernel kernel : kKernels) {
        const QueryResult one_shot =
            engine.find(text, {.chunks = chunks, .kernel = kernel,
                               .begin_mode = BeginMode::kExact});
        ASSERT_EQ(one_shot.positions, exact_oracle.positions)
            << "one-shot chunks=" << chunks << " kernel=" << kernel_name(kernel);
      }
    }

    // Streaming exact find: every variant × chunks under fresh random
    // window splits, alternating the drain shapes.
    for (const Variant variant : kVariants) {
      if (engine.try_device(variant) == nullptr) continue;  // SFA explosion
      for (const std::size_t chunks : kChunks) {
        StreamSession stream = engine.stream({.variant = variant,
                                              .chunks = chunks,
                                              .positions = true,
                                              .begin_mode = BeginMode::kExact});
        std::vector<Match> collected;
        const MatchSink sink = [&](const Match& m) { collected.push_back(m); };
        const bool use_sink = prng.pick_index(2) == 0;
        std::size_t offset = 0;
        while (offset < text.size()) {
          const std::size_t take =
              std::min(text.size() - offset, 1 + prng.pick_index(40));
          const std::string_view window(text.data() + offset, take);
          if (use_sink) {
            stream.feed(window, sink);
          } else {
            stream.feed(window);
            for (const Match& m : stream.take_matches()) collected.push_back(m);
          }
          offset += take;
        }
        ASSERT_EQ(collected, exact_oracle.positions)
            << variant_name(variant) << " chunks=" << chunks
            << " sink=" << use_sink;
      }
    }
  }
}

// ---------------------------------------------- multi-pattern streaming fuzz
// (ISSUE 9 tentpole b): one MultiStreamSession over N patterns, fed a random
// window split, must emit exactly the merge of N INDEPENDENT single-pattern
// StreamSessions fed the same windows — and exactly the one-shot
// PatternSet::find_all list — in (end, begin, pattern_id) order, under both
// begin modes and both drain shapes.

TEST(MultiPatternStreamFuzz, MergedStreamEqualsIndependentSessionsAndOneShot) {
  const std::size_t iters = fuzz_iterations(8);
  Prng prng(0x3a1b5c7d);

  for (std::size_t iter = 0; iter < iters; ++iter) {
    RandomRegexConfig config;
    config.alphabet = prng.pick_index(2) == 0 ? "ab" : "abc";
    const std::size_t n = 2 + prng.pick_index(3);
    std::vector<std::string> regexes;
    std::vector<Pattern> patterns;
    RePtr sample;  // members of one pattern seed the text with real matches
    for (std::size_t p = 0; p < n; ++p) {
      config.target_size = 3 + static_cast<int>(prng.pick_index(8));
      const RePtr re = random_regex(prng, config);
      if (p == 0) sample = re;
      regexes.push_back(regex_to_string(re));
      patterns.push_back(Pattern::compile(regexes.back()));
    }
    const std::string text = fuzz_text(prng, sample, 40 + prng.pick_index(160));
    const BeginMode begin_mode =
        prng.pick_index(2) == 0 ? BeginMode::kSeparator : BeginMode::kExact;
    const std::size_t chunks = 1 + prng.pick_index(8);
    std::string trace = "iter " + std::to_string(iter) + " text=" + text +
                        " mode=" + begin_mode_name(begin_mode) + " regexes=";
    for (const std::string& regex : regexes) trace += regex + " ; ";
    SCOPED_TRACE(trace);

    QueryOptions options;
    options.positions = true;
    options.chunks = chunks;
    options.begin_mode = begin_mode;

    // Pre-cut the window split so ALL consumers feed identical windows.
    std::vector<std::string_view> windows;
    std::size_t offset = 0;
    while (offset < text.size()) {
      const std::size_t take = std::min(text.size() - offset, 1 + prng.pick_index(30));
      windows.emplace_back(text.data() + offset, take);
      offset += take;
    }

    // Oracle 1: N independent single-pattern sessions, merged.
    std::vector<Match> independent;
    std::uint64_t independent_matches = 0;
    for (std::size_t p = 0; p < n; ++p) {
      const Engine engine(patterns[p], {.threads = 2});
      StreamSession stream = engine.stream(options);
      for (const std::string_view window : windows) stream.feed(window);
      for (Match m : stream.take_matches()) {
        m.pattern_id = static_cast<std::uint32_t>(p);
        independent.push_back(m);
      }
      independent_matches += stream.matches();
    }
    std::sort(independent.begin(), independent.end(),
              [](const Match& a, const Match& b) {
                if (a.end != b.end) return a.end < b.end;
                if (a.begin != b.begin) return a.begin < b.begin;
                return a.pattern_id < b.pattern_id;
              });

    // Oracle 2: the one-shot multi-pattern fan-out.
    const PatternSet set(patterns, {.threads = 2});
    const QueryResult one_shot = set.find(text, options);
    ASSERT_EQ(one_shot.positions, independent) << "one-shot vs independent";

    // The merged streaming session, under both drain shapes.
    for (const bool use_sink : {false, true}) {
      MultiStreamSession session = set.stream_find(options);
      ASSERT_EQ(session.patterns(), n);
      std::vector<Match> collected;
      const MatchSink sink = [&](const Match& m) { collected.push_back(m); };
      for (const std::string_view window : windows) {
        if (use_sink) {
          session.feed(window, sink);
        } else {
          session.feed(window);
          for (const Match& m : session.take_matches()) collected.push_back(m);
        }
      }
      ASSERT_EQ(collected, independent) << "merged stream, sink=" << use_sink;
      ASSERT_EQ(session.matches(), independent_matches);
      ASSERT_EQ(session.accepted(), independent_matches > 0);
      ASSERT_EQ(session.bytes_consumed(), text.size());
      ASSERT_FALSE(session.poisoned());

      // reset() starts the whole fleet over: a second pass agrees.
      session.reset();
      ASSERT_EQ(session.matches(), 0u);
      std::vector<Match> second;
      session.feed(text, [&](const Match& m) { second.push_back(m); });
      ASSERT_EQ(second, independent) << "after reset";
    }
  }
}

// -------------------------------------------------- pattern bundle fuzzing
// (ISSUE 4 satellite): Pattern::deserialize on hostile bundles — truncated,
// corrupted-section, wrong-magic — must return errors, never crash (the
// ASan/UBSan CI job runs these too).

TEST(PatternBundleFuzz, WrongMagicRejected) {
  EXPECT_THROW((void)Pattern::deserialize(""), std::runtime_error);
  EXPECT_THROW((void)Pattern::deserialize("# comments only\n"), std::runtime_error);
  EXPECT_THROW((void)Pattern::deserialize("bogus 1\n"), std::runtime_error);
  EXPECT_THROW((void)Pattern::deserialize("pattern 2\n"), std::runtime_error);
  EXPECT_THROW((void)Pattern::deserialize("pattern\n"), std::runtime_error);
  // A valid header with nothing behind it is just as dead.
  EXPECT_THROW((void)Pattern::deserialize("pattern 1\n"), std::runtime_error);
}

TEST(PatternBundleFuzz, TruncatedBundlesErrorCleanly) {
  const std::string bundle = Pattern::compile("(ab|ba)*a").serialize();
  // Every prefix near the front (header + section starts), then a stride
  // through the body: each must throw or load, never crash.
  for (std::size_t cut = 0; cut < bundle.size();
       cut += (cut < 64 || cut + 64 >= bundle.size()) ? 1 : 7) {
    try {
      (void)Pattern::deserialize(bundle.substr(0, cut));
    } catch (const std::runtime_error&) {
      // Rejection is the expected outcome for a torn bundle.
    }
  }
}

TEST(PatternBundleFuzz, CorruptedSectionsErrorCleanly) {
  const std::string bundle = Pattern::compile("a(b|c)*d").serialize();
  Prng prng(0xc0de);
  static const char kJunk[] = "0123456789 -#abz\n";
  for (int trial = 0; trial < 150; ++trial) {
    std::string corrupt = bundle;
    const std::size_t edits = 1 + prng.pick_index(6);
    for (std::size_t e = 0; e < edits; ++e)
      corrupt[prng.pick_index(corrupt.size())] =
          kJunk[prng.pick_index(sizeof(kJunk) - 1)];
    try {
      const Pattern loaded = Pattern::deserialize(corrupt);
      // A mutation that still parses must yield a USABLE pattern — queries
      // may disagree with the original, but nothing may crash.
      (void)Engine(loaded, {.threads = 1}).recognize("abd");
    } catch (const std::runtime_error&) {
      // Rejection (including RegexError-free load failures) is fine.
    }
  }
}

// ------------------------------------------------ binary bundle fuzzing
// (ISSUE 8 satellite): the .rpb zero-copy path on hostile images. Unlike
// the text path above, a mapped bundle's tables are ADOPTED, not parsed —
// so validation is the only line of defense: every corruption must surface
// as ValidationError (or load cleanly when the checksums happen to still
// hold), never as a crash or a wild read. from_memory() exercises the exact
// open() validation pipeline without touching the filesystem.

TEST(BinaryBundleFuzz, WrongMagicVersionAndGarbageRejected) {
  EXPECT_THROW((void)bundle::MappedBundle::from_memory(""), ValidationError);
  EXPECT_THROW((void)bundle::MappedBundle::from_memory("rispar"), ValidationError);
  EXPECT_THROW((void)bundle::MappedBundle::from_memory(std::string(4096, 'x')),
               ValidationError);
  std::string image = Pattern::bundle_image({});
  // Flip the magic, then (on a fresh image) the version field.
  std::string bad_magic = image;
  bad_magic[0] ^= 0x20;
  EXPECT_THROW((void)bundle::MappedBundle::from_memory(bad_magic), ValidationError);
  std::string bad_version = image;
  bad_version[8] = 99;
  EXPECT_THROW((void)bundle::MappedBundle::from_memory(bad_version),
               ValidationError);
}

TEST(BinaryBundleFuzz, TruncationsErrorCleanly) {
  const Pattern pattern = Pattern::compile("(ab|ba)*a");
  const std::string image = Pattern::bundle_image({&pattern, 1});
  // Dense sweep through the header + directory, strided through the body.
  for (std::size_t cut = 0; cut < image.size();
       cut += (cut < 256 || cut + 64 >= image.size()) ? 1 : 97) {
    try {
      const auto bundle = bundle::MappedBundle::from_memory(image.substr(0, cut));
      (void)Pattern::from_bundle(bundle);
      ADD_FAILURE() << "truncation at " << cut << " validated";
    } catch (const ValidationError&) {
      // The only acceptable outcome: file_bytes/checksums catch every cut.
    }
  }
}

TEST(BinaryBundleFuzz, RandomByteFlipsNeverCrash) {
  const Pattern pattern = Pattern::compile("a(b|c)*d");
  const std::string image = Pattern::bundle_image({&pattern, 1});
  Prng prng(0xbadb17);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = image;
    const std::size_t edits = 1 + prng.pick_index(8);
    for (std::size_t e = 0; e < edits; ++e)
      corrupt[prng.pick_index(corrupt.size())] ^=
          static_cast<char>(1 + prng.pick_index(255));
    try {
      const Pattern loaded =
          Pattern::from_bundle(bundle::MappedBundle::from_memory(corrupt));
      // Checksums make a silent survival astronomically unlikely, but IF an
      // image validates it must serve queries without crashing.
      (void)Engine(loaded, {.threads = 1}).recognize("abcd");
    } catch (const ValidationError&) {
      // The expected outcome.
    }
  }
}

TEST(BinaryBundleFuzz, DirectoryFieldMutationsAreContained) {
  // Target the header + directory specifically (offsets, sizes, counts,
  // section types): these drive every downstream read, so a wild value here
  // is where an unvalidated loader would walk off the mapping.
  const Pattern pattern = Pattern::compile("x[yz]{2,5}");
  const std::string image = Pattern::bundle_image({&pattern, 1});
  const std::size_t directory_end = std::min<std::size_t>(image.size(), 512);
  for (std::size_t at = 8; at < directory_end; ++at) {
    for (const unsigned char value : {0x00, 0x01, 0x7f, 0xff}) {
      std::string corrupt = image;
      corrupt[at] = static_cast<char>(value);
      try {
        const Pattern loaded =
            Pattern::from_bundle(bundle::MappedBundle::from_memory(corrupt));
        (void)Engine(loaded, {.threads = 1}).recognize("xyz");
      } catch (const ValidationError&) {
      }
    }
  }
}

// ------------------------------------------------- checkpoint/resume fuzz
// (ISSUE 10 tentpole a): random regex × random text × random window splits
// × random kill points. A session whose life is chopped into checkpoint/
// resume segments — resumed on the same Engine or a fresh one over the same
// source, under both begin modes, single and multi-pattern — must emit
// exactly the one-shot find list (itself oracle-checked by the drivers
// above). And the blobs themselves are hostile-input surfaces: every
// truncation and random byte flip must throw ValidationError, never crash.
// RISPAR_FUZZ_ITERS scales the sweep for the nightly soak.

/// Random window split of `text` (never empty windows).
std::vector<std::string_view> fuzz_windows(Prng& prng, std::string_view text) {
  std::vector<std::string_view> windows;
  std::size_t offset = 0;
  while (offset < text.size()) {
    const std::size_t take = std::min(text.size() - offset, 1 + prng.pick_index(30));
    windows.push_back(text.substr(offset, take));
    offset += take;
  }
  return windows;
}

TEST(CheckpointFuzz, KilledAndResumedSessionsEqualTheUninterruptedStream) {
  const std::size_t iters = fuzz_iterations(10);
  Prng prng(0xc4ec9017);

  for (std::size_t iter = 0; iter < iters; ++iter) {
    RandomRegexConfig config;
    config.alphabet = prng.pick_index(2) == 0 ? "ab" : "abc";
    config.target_size = 3 + static_cast<int>(prng.pick_index(9));
    const RePtr re = random_regex(prng, config);
    const std::string regex = regex_to_string(re);
    const std::string text = fuzz_text(prng, re, 40 + prng.pick_index(160));
    const BeginMode mode =
        prng.pick_index(2) == 0 ? BeginMode::kSeparator : BeginMode::kExact;
    const QueryOptions options{.chunks = 1 + prng.pick_index(4),
                               .positions = true, .begin_mode = mode};
    SCOPED_TRACE("iter " + std::to_string(iter) + " regex=" + regex +
                 " mode=" + begin_mode_name(mode) + " text=" + text);

    const Engine engine(Pattern::compile(regex), {.threads = 2});
    const Engine fresh(Pattern::compile(regex), {.threads = 2});
    const std::vector<Match> oracle =
        engine.find_all(text, {.begin_mode = mode});

    // The session's whole life as a chain of blobs: each segment resumes
    // from the previous checkpoint (a fresh session's checkpoint seeds the
    // chain), feeds a random run of windows, drains, and checkpoints again.
    // Kill points land between ANY two windows; the resuming engine
    // alternates between the original and a fresh compile of the same
    // source (the cross-process shape).
    const std::vector<std::string_view> windows = fuzz_windows(prng, text);
    std::vector<Match> collected;
    std::string blob = engine.stream(options).checkpoint();
    std::size_t window_index = 0;
    std::uint64_t consumed = 0;
    while (window_index < windows.size()) {
      const Engine& resumer = prng.pick_index(2) == 0 ? engine : fresh;
      StreamSession session = resumer.resume_stream(blob, options);
      ASSERT_EQ(session.bytes_consumed(), consumed);
      do {
        session.feed(windows[window_index]);
        consumed += windows[window_index].size();
        ++window_index;
      } while (window_index < windows.size() && prng.pick_index(3) != 0);
      for (const Match& m : session.take_matches()) collected.push_back(m);
      blob = session.checkpoint();
    }
    ASSERT_EQ(collected, oracle);

    // The final blob resumes to a session whose totals match the whole run.
    StreamSession last = engine.resume_stream(blob, options);
    EXPECT_EQ(last.bytes_consumed(), text.size());
    EXPECT_EQ(last.matches(), oracle.size());

    // Hostile-blob sweep on this iteration's final (non-trivial) blob:
    // strided truncations and random flips must all reject typed.
    for (std::size_t cut = 0; cut < blob.size();
         cut += (cut < 32 || cut + 16 >= blob.size()) ? 1 : 11) {
      EXPECT_THROW((void)engine.resume_stream(
                       std::string_view(blob).substr(0, cut), options),
                   ValidationError)
          << "truncated to " << cut;
    }
    for (int flip = 0; flip < 30; ++flip) {
      std::string corrupt = blob;
      corrupt[prng.pick_index(corrupt.size())] ^=
          static_cast<char>(1 + prng.pick_index(255));
      EXPECT_THROW((void)engine.resume_stream(corrupt, options), ValidationError)
          << "flip " << flip;
    }
  }
}

TEST(CheckpointFuzz, MultiPatternKillPointsPreserveTheMergedStream) {
  const std::size_t iters = fuzz_iterations(6);
  Prng prng(0x9e11ca7e);

  for (std::size_t iter = 0; iter < iters; ++iter) {
    RandomRegexConfig config;
    config.alphabet = prng.pick_index(2) == 0 ? "ab" : "abc";
    const std::size_t n = 2 + prng.pick_index(3);
    std::vector<std::string> regexes;
    std::vector<Pattern> patterns;
    std::vector<Pattern> recompiled;  // the cross-process fleet
    RePtr sample;
    for (std::size_t p = 0; p < n; ++p) {
      config.target_size = 3 + static_cast<int>(prng.pick_index(7));
      const RePtr re = random_regex(prng, config);
      if (p == 0) sample = re;
      regexes.push_back(regex_to_string(re));
      patterns.push_back(Pattern::compile(regexes.back()));
      recompiled.push_back(Pattern::compile(regexes.back()));
    }
    const std::string text = fuzz_text(prng, sample, 40 + prng.pick_index(120));
    const BeginMode mode =
        prng.pick_index(2) == 0 ? BeginMode::kSeparator : BeginMode::kExact;
    const QueryOptions options{.chunks = 1 + prng.pick_index(4),
                               .begin_mode = mode};
    std::string trace = "iter " + std::to_string(iter) + " text=" + text +
                        " mode=" + begin_mode_name(mode) + " regexes=";
    for (const std::string& regex : regexes) trace += regex + " ; ";
    SCOPED_TRACE(trace);

    const PatternSet set(patterns, {.threads = 2});
    const PatternSet fresh(recompiled, {.threads = 2});
    const std::vector<Match> oracle = set.find_all(text, options);

    const std::vector<std::string_view> windows = fuzz_windows(prng, text);
    std::vector<Match> collected;
    std::string blob = set.stream_find(options).checkpoint();
    std::size_t window_index = 0;
    std::uint64_t consumed = 0;
    while (window_index < windows.size()) {
      const PatternSet& resumer = prng.pick_index(2) == 0 ? set : fresh;
      MultiStreamSession session = resumer.resume_stream(blob, options);
      ASSERT_EQ(session.bytes_consumed(), consumed);
      do {
        session.feed(windows[window_index]);
        consumed += windows[window_index].size();
        ++window_index;
      } while (window_index < windows.size() && prng.pick_index(3) != 0);
      for (const Match& m : session.take_matches()) collected.push_back(m);
      blob = session.checkpoint();
    }
    ASSERT_EQ(collected, oracle);

    // Multi blobs face the same hostile sweep (lighter: the single-pattern
    // test above already walks the shared envelope dense).
    for (std::size_t cut = 0; cut < blob.size();
         cut += (cut < 24 || cut + 12 >= blob.size()) ? 1 : 23) {
      EXPECT_THROW((void)set.resume_stream(
                       std::string_view(blob).substr(0, cut), options),
                   ValidationError)
          << "truncated to " << cut;
    }
    for (int flip = 0; flip < 15; ++flip) {
      std::string corrupt = blob;
      corrupt[prng.pick_index(corrupt.size())] ^=
          static_cast<char>(1 + prng.pick_index(255));
      EXPECT_THROW((void)set.resume_stream(corrupt, options), ValidationError)
          << "flip " << flip;
    }
  }
}

TEST(HostileInputs, DeepNestingParses) {
  std::string pattern;
  for (int i = 0; i < 200; ++i) pattern += "(";
  pattern += "a";
  for (int i = 0; i < 200; ++i) pattern += ")";
  const RePtr re = parse_regex(pattern);
  EXPECT_EQ(re->kind, ReKind::kLiteral);
}

TEST(HostileInputs, WideAlternationCompiles) {
  std::string pattern = "a";
  for (int i = 0; i < 300; ++i) pattern += "|a";
  const Nfa nfa = glushkov_nfa(parse_regex(pattern));
  const Dfa minimal = minimize_dfa(determinize(nfa));
  EXPECT_EQ(minimal.num_states(), 2);
}

TEST(HostileInputs, LongLiteralChainRoundTrips) {
  std::string pattern(500, 'a');
  const Nfa nfa = glushkov_nfa(parse_regex(pattern));
  EXPECT_EQ(nfa.num_states(), 501);
}

}  // namespace
}  // namespace rispar
