// The two-pass find/count join (parallel/match_count.cpp): a serial walk
// sizes the output from per-chunk hit counts, then each chunk overlapping
// the requested page emits and resolves its begins on its own. Swept
// against find_matches_serial and count_matches over chunk counts,
// convergence, the three kernels and both begin modes, with paging windows
// that are empty, inside one chunk, straddling chunk boundaries or past
// the total; plus runs that die mid-chunk or at an alien symbol, a
// searcher whose consistent chain crosses merges, and the exact-begin
// hazards (ε-accepting and separator-unsound patterns).
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/subset.hpp"
#include "engine/pattern.hpp"
#include "parallel/chunking.hpp"
#include "parallel/match_count.hpp"
#include "regex/parser.hpp"
#include "util/prng.hpp"

namespace rispar {
namespace {

constexpr std::size_t kChunks[] = {1, 2, 3, 8, 16, 33};
constexpr DetKernel kKernels[] = {DetKernel::kFused, DetKernel::kReference};
constexpr std::uint32_t kPatternId = 7;

std::string random_text(std::size_t length, const std::string& alphabet,
                        std::uint64_t seed) {
  Prng prng(seed);
  std::string text(length, alphabet[0]);
  for (char& ch : text) ch = alphabet[prng.pick_index(alphabet.size())];
  return text;
}

/// Paging windows (offset, limit) over `total` hits: empty, the whole list,
/// single hits, windows past the total, and for every chunk boundary of
/// `spans` one window straddling it and one inside the chunk it opens.
std::vector<std::pair<std::size_t, std::size_t>> windows(
    const std::vector<Match>& all, const std::vector<ChunkSpan>& spans) {
  const std::size_t total = all.size();
  std::vector<std::pair<std::size_t, std::size_t>> out = {
      {0, 0},          {0, 1},
      {0, total},      {total / 2, 1},
      {total, 3},      {total + 5, 2},
      {total / 3, 0},  {total > 0 ? total - 1 : 0, 10}};
  for (std::size_t i = 1; i < spans.size(); ++i) {
    // Ordinal of the first hit ending past the boundary.
    const std::size_t k = static_cast<std::size_t>(
        std::partition_point(all.begin(), all.end(),
                             [&](const Match& m) { return m.end <= spans[i].begin; }) -
        all.begin());
    if (k > 0) out.push_back({k - 1, 3});
    out.push_back({k, 2});
  }
  return out;
}

/// Sweeps every (chunks, convergence, kernel, begin mode) combination on one
/// input: full finds equal the oracle, counts equal the finds, and every
/// paging window is the oracle's slice with the total intact.
void sweep(const Dfa& dfa, const std::vector<Symbol>& input,
           const ReverseBegins* reverse, const std::string& label) {
  ThreadPool pool(4);
  std::vector<BeginMode> modes = {BeginMode::kSeparator};
  if (reverse != nullptr) modes.push_back(BeginMode::kExact);
  const QueryResult counted_serial = count_matches_serial(dfa, input);
  for (const BeginMode mode : modes) {
    const bool exact = mode == BeginMode::kExact;
    const QueryResult serial =
        find_matches_serial(dfa, input, kPatternId, exact ? &reverse->dfa : nullptr);
    ASSERT_EQ(serial.matches, counted_serial.matches) << label;
    for (const std::size_t chunks : kChunks) {
      const std::vector<ChunkSpan> spans = split_chunks(input.size(), chunks);
      for (const bool convergence : {false, true}) {
        const QueryResult counted =
            count_matches(dfa, input, pool, {.chunks = chunks, .convergence = convergence});
        for (const DetKernel kernel : kKernels) {
          const std::string where = label + " c=" + std::to_string(chunks) +
                                    " conv=" + std::to_string(convergence) + " " +
                                    kernel_name(kernel) + (exact ? " exact" : "");
          QueryOptions options{.chunks = chunks,
                               .convergence = convergence,
                               .kernel = kernel,
                               .begin_mode = mode};
          const QueryResult found =
              find_matches(dfa, input, pool, options, kPatternId, nullptr, reverse);
          ASSERT_EQ(found.positions, serial.positions) << where;
          EXPECT_EQ(found.matches, serial.matches) << where;
          EXPECT_EQ(found.died, serial.died) << where;
          EXPECT_EQ(found.accepted, serial.accepted) << where;
          EXPECT_EQ(counted.matches, found.matches) << where;
          EXPECT_EQ(counted.died, found.died) << where;
          if (kernel == DetKernel::kFused) {
            EXPECT_EQ(counted.transitions, found.transitions) << where;
          }
          for (const auto& [offset, limit] : windows(serial.positions, spans)) {
            options.offset = offset;
            options.limit = limit;
            const QueryResult page =
                find_matches(dfa, input, pool, options, kPatternId, nullptr, reverse);
            const std::size_t lo = std::min(offset, serial.positions.size());
            const std::size_t hi = lo + std::min(limit, serial.positions.size() - lo);
            const std::vector<Match> expected(serial.positions.begin() + lo,
                                              serial.positions.begin() + hi);
            ASSERT_EQ(page.positions, expected)
                << where << " offset=" << offset << " limit=" << limit;
            EXPECT_EQ(page.matches, serial.matches) << where;
          }
        }
      }
    }
  }
}

/// A Σ*p pattern's searcher, its reverse artifact and a text in its symbols.
struct Searched {
  Pattern pattern;
  std::vector<Symbol> input;

  Searched(const char* regex, const std::string& text)
      : pattern(Pattern::compile(regex)),
        input(pattern.searcher().symbols().translate(text)) {}
  const Dfa& dfa() const { return pattern.searcher(); }
  const ReverseBegins* reverse() const { return &pattern.reverse_begins(); }
};

TEST(FindJoin, DenseHitsEqualTheOracles) {
  // The bulk-find catalog's regexp pattern, a hit at ~40% of positions:
  // every chunk of every split holds hits, so each page straddles chunks.
  const Searched s("aaaa[ab]{6}", random_text(12000, "aaaab", 0x7001));
  sweep(s.dfa(), s.input, s.reverse(), "aaaa[ab]{6}");
}

TEST(FindJoin, SparseHitsEqualTheOracles) {
  // Most chunks hold no hit, so the emit pass runs inline.
  const Searched s("abc", random_text(4000, "abcdefgh", 0x7002));
  sweep(s.dfa(), s.input, s.reverse(), "abc");
}

TEST(FindJoin, NoHitsAndEmptyInput) {
  const Searched s("xyz", random_text(500, "ab", 0x7003));
  sweep(s.dfa(), s.input, s.reverse(), "no hits");
  sweep(s.dfa(), {}, s.reverse(), "empty");
}

TEST(FindJoin, RunThatDiesMidChunk) {
  // A partial automaton (no Σ* wrap): (ab)+ dies at the doubled 'a', in
  // the middle of a chunk for every chunk count above 2; the hits before
  // the death are returned and `died` is set.
  const Dfa dfa = minimize_dfa(determinize(glushkov_nfa(parse_regex("(ab)+"))));
  std::string text;
  for (int i = 0; i < 700; ++i) text += "ab";
  text += "aab";
  for (int i = 0; i < 300; ++i) text += "ab";
  const auto input = dfa.symbols().translate(text);
  ASSERT_TRUE(find_matches_serial(dfa, input).died);
  sweep(dfa, input, nullptr, "(ab)+ dies");
}

TEST(FindJoin, AlienSymbolEndsTheRun) {
  // The searcher covers every byte, so the alien is injected as a symbol:
  // the run dies there uncounted, in both begin modes.
  Searched s("aaaa[ab]{6}", random_text(2500, "aaab", 0x7004));
  s.input[1337] = SymbolMap::kUnmapped;
  ASSERT_TRUE(find_matches_serial(s.dfa(), s.input).died);
  sweep(s.dfa(), s.input, s.reverse(), "alien");
}

TEST(FindJoin, ConsistentChainCrossesMerges) {
  // Over 'a' the searcher of x(a{8})*y cycles its eight phases, so a
  // lookback probe over an a-run never collapses them: the chunk keeps the
  // initial state and every phase as starts. Each episode opens an 'x'
  // 100 symbols before a chunk boundary B (of several chunk counts), so
  // the consistent run crosses B in a phase state; a second 'x' at B+40
  // merges every run, the consistent one into the run that was in the
  // initial state, and the 'y' 24 a's later is a hit of that merged chain.
  // Its begin is the consistent run's separator before the first 'x',
  // carried into the chunk — not the one the merged-into run recorded.
  std::string text(4096, 'a');
  for (const std::size_t boundary : {512u, 1024u, 1365u, 1536u, 2048u, 2730u, 3072u}) {
    text[boundary - 100] = 'x';
    text[boundary + 40] = 'x';
    text[boundary + 65] = 'y';
  }
  const Searched s("x(a{8})*y", text);
  const QueryResult serial = find_matches_serial(s.dfa(), s.input);
  ASSERT_EQ(serial.matches, 7u);
  EXPECT_EQ(serial.positions[1], (Match{0, 1024 - 100, 1024 + 66}));
  sweep(s.dfa(), s.input, s.reverse(), "x(a{8})*y");
}

TEST(FindJoin, EpsilonAcceptingPatternUnderExact) {
  // ε ∈ L((ab)*): the reverse scan accepts at the end itself, and every
  // position past a separator ends an occurrence.
  const Searched s("(ab)*", random_text(1500, "ab", 0x7005));
  ASSERT_GT(find_matches_serial(s.dfa(), s.input).matches, 700u);
  sweep(s.dfa(), s.input, s.reverse(), "(ab)*");
}

TEST(FindJoin, SeparatorUnsoundPatternUnderExact) {
  // a|ba: a separator may fall inside a live occurrence, so exact begins
  // scan past the approximate begin (to the text start one-shot).
  const Searched s("a|ba", random_text(1500, "abc", 0x7006));
  ASSERT_FALSE(s.reverse()->separators_sound);
  sweep(s.dfa(), s.input, s.reverse(), "a|ba");
}

TEST(FindJoin, ByteInputMatchesSymbolInput) {
  // The same two passes over raw bytes, paged across chunk boundaries.
  const std::string text = random_text(3000, "aaaab", 0x7007);
  const Searched s("aaaa[ab]{6}", text);
  ThreadPool pool(4);
  for (const BeginMode mode : {BeginMode::kSeparator, BeginMode::kExact}) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{123}}) {
      const QueryOptions options{
          .chunks = 16, .offset = offset, .limit = 400, .begin_mode = mode};
      const QueryResult bytes =
          find_matches(s.dfa(), ByteSpan{text, s.dfa().symbols()}, pool, options,
                       kPatternId, nullptr, s.reverse());
      const QueryResult symbols = find_matches(s.dfa(), s.input, pool, options,
                                               kPatternId, nullptr, s.reverse());
      EXPECT_EQ(bytes.positions, symbols.positions);
      EXPECT_EQ(bytes.matches, symbols.matches);
      EXPECT_EQ(bytes.positions.size(), 400u);
    }
  }
}

}  // namespace
}  // namespace rispar
