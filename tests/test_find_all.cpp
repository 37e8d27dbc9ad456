// The find_all / PatternSet acceptance properties (ISSUE 3):
//  * Engine::find positions == the naive serial reference scan for every
//    variant (which find does not consult — looped anyway to prove it),
//    chunk count {1, 2, 7, 64}, convergence on/off, and both kernels;
//  * count(text).matches == find_all(text).size();
//  * offset/limit page the payload without changing the total;
//  * PatternSet over N patterns == N independent Engine runs merged, while
//    sharing one pool;
//  * concurrent read-only callers on one shared Engine / PatternSet.
#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "parallel/match_count.hpp"
#include "util/prng.hpp"
#include "workloads/suite.hpp"

namespace rispar {
namespace {

std::vector<Match> serial_oracle(const Engine& engine, const std::string& text) {
  const Dfa& searcher = engine.searcher();
  return find_matches_serial(searcher, searcher.symbols().translate(text)).positions;
}

TEST(FindAll, ReportsEndAndSeparatorBegin) {
  const Engine engine(Pattern::compile("ab"));
  // "xxabyab": occurrences of "ab" end at 4 and 7; the scan re-enters the
  // initial state after every byte that cannot extend a partial match.
  const std::vector<Match> matches = engine.find_all("xxabyab");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], (Match{0, 2, 4}));
  EXPECT_EQ(matches[1], (Match{0, 5, 7}));
}

TEST(FindAll, OverlapsCountedAndChainedPartialsWidenBegin) {
  const Engine engine(Pattern::compile("aa"));
  // "aaaa": occurrences end at 2, 3, 4. Partial occurrences chain (every
  // position starts a new candidate), so the documented begin is the last
  // separator — position 0 for all three.
  const std::vector<Match> matches = engine.find_all("aaaa");
  ASSERT_EQ(matches.size(), 3u);
  for (std::size_t i = 0; i < matches.size(); ++i) {
    EXPECT_EQ(matches[i].begin, 0u);
    EXPECT_EQ(matches[i].end, i + 2);
  }
}

TEST(FindAll, EmptyTextAndNoMatch) {
  const Engine engine(Pattern::compile("abc"));
  EXPECT_TRUE(engine.find_all("").empty());
  EXPECT_TRUE(engine.find_all("ababab").empty());
  const QueryResult result = engine.find("ababab");
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.matches, 0u);
}

TEST(FindAll, CountIsFindAllSizeConsistent) {
  const Engine engine(Pattern::compile("(ab|ba)"));
  for (const char* text : {"abbaabba", "xxabyabzba", "bbbb", ""}) {
    EXPECT_EQ(engine.count(text).matches, engine.find_all(text).size()) << text;
  }
}

TEST(FindAll, PagingWindowsThePayloadNotTheTotal) {
  const Engine engine(Pattern::compile("ab"));
  std::string text;
  for (int i = 0; i < 10; ++i) text += "ab.";
  const std::vector<Match> all = engine.find_all(text);
  ASSERT_EQ(all.size(), 10u);

  const QueryResult page = engine.find(text, {.chunks = 4, .offset = 3, .limit = 4});
  EXPECT_EQ(page.matches, 10u);  // the total survives paging
  ASSERT_EQ(page.positions.size(), 4u);
  for (std::size_t i = 0; i < page.positions.size(); ++i)
    EXPECT_EQ(page.positions[i], all[i + 3]);

  const QueryResult tail = engine.find(text, {.offset = 8});
  EXPECT_EQ(tail.positions.size(), 2u);
  const QueryResult beyond = engine.find(text, {.offset = 64});
  EXPECT_TRUE(beyond.positions.empty());
  EXPECT_EQ(beyond.matches, 10u);
  const QueryResult none = engine.find(text, {.limit = 0});
  EXPECT_TRUE(none.positions.empty());
  EXPECT_EQ(none.matches, 10u);
}

TEST(FindAll, PagingRejectedWhereNotHonored) {
  const Engine engine(Pattern::compile("ab"));
  EXPECT_THROW(engine.recognize("ab", {.limit = 1}), QueryError);
  EXPECT_THROW(engine.recognize("ab", {.offset = 1}), QueryError);
  EXPECT_THROW(engine.count("ab", {.offset = 1}), QueryError);
  EXPECT_THROW(engine.stream({.limit = 1}), QueryError);
  // find rejects what IT cannot honor.
  EXPECT_THROW(engine.find("ab", {.lookback = 4}), QueryError);
}

// The acceptance matrix: positions equal the serial reference for every
// variant (not consulted — proven by sweeping it), chunk count {1,2,7,64},
// convergence on/off, and both kernels.
class FindAllEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FindAllEquivalence, ParallelEqualsSerialOracleEverywhere) {
  Prng prng(GetParam());
  const std::vector<std::string> regexes{"ab", "aa", "(ab|ba)*a", "a(b|c)*d",
                                         "<h3>"};
  const std::string& regex = regexes[prng.pick_index(regexes.size())];
  const Engine engine(Pattern::compile(regex), {.threads = 4});

  // Random byte text over a small alphabet that exercises both matching
  // and separator bytes (plus aliens for the searcher's extended classes).
  static const char kBytes[] = "abcd<h3>/ x";
  std::string text;
  const std::size_t length = 1 + prng.pick_index(300);
  for (std::size_t i = 0; i < length; ++i)
    text += kBytes[prng.pick_index(sizeof(kBytes) - 1)];

  const std::vector<Match> oracle = serial_oracle(engine, text);
  for (const Variant variant :
       {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa}) {
    for (const std::size_t chunks : {1u, 2u, 7u, 64u}) {
      for (const bool convergence : {false, true}) {
        for (const DetKernel kernel :
             {DetKernel::kFused, DetKernel::kReference}) {
          const QueryResult result =
              engine.find(text, {.variant = variant,
                                 .chunks = chunks,
                                 .convergence = convergence,
                                 .kernel = kernel});
          EXPECT_EQ(result.positions, oracle)
              << "regex=" << regex << " text=" << text << " chunks=" << chunks
              << " conv=" << convergence << " kernel=" << kernel_name(kernel);
          EXPECT_EQ(result.matches, oracle.size());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FindAllEquivalence,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(FindAll, WorkloadTextMatchesNaiveSubstringSearch) {
  // Every <h3> in the bible workload, positioned: ends/begins must equal
  // the naive std::string::find scan (the pattern has no self-overlap, so
  // begin is exact here, not just a bound).
  const Engine engine(Pattern::compile("<h3>"));
  Prng prng(11);
  const std::string text = bible_workload().text(50'000, prng);
  const std::vector<Match> matches = engine.find_all(text, {.chunks = 16});
  std::vector<Match> expected;
  for (std::size_t pos = text.find("<h3>"); pos != std::string::npos;
       pos = text.find("<h3>", pos + 1))
    expected.push_back({0, pos, pos + 4});
  EXPECT_EQ(matches, expected);
  EXPECT_GT(matches.size(), 0u);

  // The same large text through every kernel/convergence/chunking — deep
  // merge chains and chunk-boundary separators only show up at this size.
  for (const std::size_t chunks : {16u, 64u}) {
    for (const bool convergence : {false, true}) {
      for (const DetKernel kernel :
           {DetKernel::kFused, DetKernel::kReference}) {
        EXPECT_EQ(engine.find_all(text, {.chunks = chunks,
                                         .convergence = convergence,
                                         .kernel = kernel}),
                  expected)
            << "chunks=" << chunks << " conv=" << convergence
            << " kernel=" << kernel_name(kernel);
      }
    }
  }
}

std::vector<Match> merged_engine_runs(const std::vector<std::string>& regexes,
                                      const std::string& text,
                                      const QueryOptions& options = {}) {
  std::vector<Match> merged;
  for (std::size_t p = 0; p < regexes.size(); ++p) {
    const Engine engine(Pattern::compile(regexes[p]));
    for (Match m : engine.find_all(text, options)) {
      m.pattern_id = static_cast<std::uint32_t>(p);
      merged.push_back(m);
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Match& a, const Match& b) {
    if (a.end != b.end) return a.end < b.end;
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.pattern_id < b.pattern_id;
  });
  return merged;
}

TEST(PatternSet, EqualsIndependentEngineRunsMerged) {
  const std::vector<std::string> regexes{"ab", "ba", "aa", "(ab|ba)*a"};
  const PatternSet set =
      PatternSet::compile({"ab", "ba", "aa", "(ab|ba)*a"}, {.threads = 4});
  ASSERT_EQ(set.size(), 4u);

  Prng prng(3);
  for (int trial = 0; trial < 8; ++trial) {
    std::string text;
    const std::size_t length = prng.pick_index(200);
    for (std::size_t i = 0; i < length; ++i) text += "ab x"[prng.pick_index(4)];
    for (const std::size_t chunks : {1u, 7u}) {
      const std::vector<Match> matches = set.find_all(text, {.chunks = chunks});
      EXPECT_EQ(matches, merged_engine_runs(regexes, text, {.chunks = chunks}))
          << "text=" << text << " chunks=" << chunks;
    }
  }
}

TEST(PatternSet, FindReportsPerPatternTaggedTotals) {
  const PatternSet set = PatternSet::compile({"ab", "b"});
  const QueryResult result = set.find("abab");
  // "ab" ends at 2, 4; "b" ends at 2, 4 — merged ascending (end, id).
  EXPECT_EQ(result.matches, 4u);
  ASSERT_EQ(result.positions.size(), 4u);
  EXPECT_EQ(result.positions[0].end, 2u);
  EXPECT_EQ(result.positions[1].end, 2u);
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.positions[0].pattern_id, 0u);
  EXPECT_EQ(result.positions[1].pattern_id, 1u);
}

TEST(PatternSet, BatchFanOutMatchesSingleTextQueries) {
  const PatternSet set = PatternSet::compile({"ab", "aa"}, {.threads = 4});
  const std::vector<std::string> storage{"abab", "", "aaaa", "xbxa", "abba"};
  std::vector<std::string_view> texts(storage.begin(), storage.end());
  const std::vector<QueryResult> batch =
      set.find_all(std::span<const std::string_view>(texts), {.chunks = 3});
  ASSERT_EQ(batch.size(), storage.size());
  for (std::size_t t = 0; t < storage.size(); ++t) {
    const QueryResult single = set.find(storage[t], {.chunks = 3});
    EXPECT_EQ(batch[t].positions, single.positions) << storage[t];
    EXPECT_EQ(batch[t].matches, single.matches) << storage[t];
  }
}

TEST(PatternSet, PagingAppliesToTheMergedStream) {
  const PatternSet set = PatternSet::compile({"ab", "b"});
  const std::vector<Match> all = set.find_all("abab");
  ASSERT_EQ(all.size(), 4u);
  const QueryResult page = set.find("abab", {.offset = 1, .limit = 2});
  EXPECT_EQ(page.matches, 4u);
  ASSERT_EQ(page.positions.size(), 2u);
  EXPECT_EQ(page.positions[0], all[1]);
  EXPECT_EQ(page.positions[1], all[2]);
}

TEST(PatternSet, RejectsUnsupportedKnobs) {
  const PatternSet set = PatternSet::compile({"ab"});
  EXPECT_THROW(set.find("ab", {.lookback = 2}), QueryError);
}

// The concurrent-caller smoke tests (ISSUE 3 small fix): one shared
// Engine / PatternSet, many querying threads, every result exact.
TEST(ConcurrentQueries, SharedEngineServesManyThreads) {
  const Engine engine(Pattern::compile("(ab|ba)"), {.threads = 4});
  const std::string text = "abbaabbaxxabba";
  const std::vector<Match> expected = engine.find_all(text, {.chunks = 4});
  const std::uint64_t expected_count = engine.count(text).matches;
  ASSERT_FALSE(expected.empty());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        if (engine.find_all(text, {.chunks = 4}) != expected) ++failures;
        if (engine.count(text).matches != expected_count) ++failures;
        if (!engine.recognize(text, {.variant = Variant::kDfa}).accepted !=
            !engine.accepts(text))
          ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentQueries, SharedPatternSetServesManyThreads) {
  const PatternSet set = PatternSet::compile({"ab", "ba", "aa"}, {.threads = 4});
  const std::string text = "abbaabbaaab";
  const std::vector<Match> expected = set.find_all(text, {.chunks = 3});
  ASSERT_FALSE(expected.empty());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i)
        if (set.find_all(text, {.chunks = 3}) != expected) ++failures;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentQueries, MixedOptionsStressOnSharedEngineAndSet) {
  // The work-stealing shape: one Engine and one PatternSet sharing nothing
  // but their pools, hammered from many threads with varying chunk counts,
  // convergence and all three kernels at once — batches interleave in the
  // pools instead of queueing, and every answer must still be exact.
  const Engine engine(Pattern::compile("(ab|ba)*a"), {.threads = 3});
  const PatternSet set = PatternSet::compile({"ab", "aab", "<h3>"}, {.threads = 3});
  Prng prng(2026);
  std::string text;
  static const char kBytes[] = "aab<h3> b";
  for (int i = 0; i < 4000; ++i) text += kBytes[prng.pick_index(sizeof(kBytes) - 1)];

  const std::vector<Match> engine_expected = engine.find_all(text, {.chunks = 7});
  const std::vector<Match> set_expected = set.find_all(text, {.chunks = 7});

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      static constexpr DetKernel kKernels[] = {
          DetKernel::kFused, DetKernel::kReference};
      for (int i = 0; i < 15; ++i) {
        const QueryOptions options{
            .chunks = static_cast<std::size_t>(1 + (t + i) % 16),
            .convergence = (t + i) % 2 == 0,
            .kernel = kKernels[(t + i / 2) % std::size(kKernels)]};
        if (engine.find_all(text, options) != engine_expected) ++failures;
        if (set.find_all(text, options) != set_expected) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace rispar
