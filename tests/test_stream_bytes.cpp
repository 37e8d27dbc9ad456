// Byte-fed streaming find (stream_find_feed over a ByteSpan): the sessions
// feed raw window bytes, the chunk kernels and the exact-begin scan read
// them in place, and under BeginMode::kExact only the retained part of a
// window is translated into FindCarry::history. The byte path must be
// indistinguishable from feeding the translated window:
//  * the same matches from every feed and an equal FindCarry after it —
//    state, separator, history and its base, counters — over random
//    segmentations (empty, 1-byte and odd windows), chunks {1, 3, 8}, every
//    kernel with and without convergence, both begin modes, a
//    separators-unsound pattern next to sound ones;
//  * byte-identical checkpoint blobs, and resumes across the two inputs in
//    both directions;
//  * exact begins that straddle window boundaries;
//  * the retention rule: with sound separators the history covers exactly
//    [max(post-feed last separator, old base), consumed), and the
//    max_history_bytes cap trips before any mutation with the peak it
//    would have reached;
//  * a feed that throws (sink or governor) leaves the carry as it was;
//  * the decision carry (Device::stream_feed over a ByteSpan) on every
//    variant: accepted/dead/transitions/windows and checkpoint blobs equal
//    to feeding the pattern-translated windows, through alien bytes that
//    kill the carry and the feeds after its death.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/checkpoint.hpp"
#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "parallel/match_count.hpp"
#include "util/prng.hpp"

namespace rispar {
namespace {

constexpr DetKernel kKernels[] = {DetKernel::kFused, DetKernel::kReference};
constexpr std::size_t kChunks[] = {1, 3, 8};
constexpr BeginMode kModes[] = {BeginMode::kSeparator, BeginMode::kExact};

/// Sound separators ("ab", "a[bc]*d" — long matches that cross windows,
/// "(ab|cab)[abcd]{3}d" — a searcher with enough states for a multi-lane
/// lockstep) next to the separators-unsound hazard pattern "a|ba".
const std::vector<std::string_view> kRegexes = {"ab", "a[bc]*d", "(ab|cab)[abcd]{3}d",
                                                "a|ba"};

/// Random text over "abcd" with an occasional byte outside every pattern's
/// alphabet (the searcher's map still classes it).
std::string random_text(Prng& prng, std::size_t length) {
  std::string text(length, 'a');
  for (char& ch : text) ch = "abcdabcdabcdx"[prng.pick_index(13)];
  return text;
}

/// Window lengths summing to `total`: empty, 1-byte and odd windows mixed
/// with longer ones.
std::vector<std::size_t> random_cuts(Prng& prng, std::size_t total) {
  constexpr std::size_t kLengths[] = {0, 1, 1, 3, 5, 7, 13, 31, 64};
  std::vector<std::size_t> cuts;
  std::size_t fed = 0;
  while (fed < total) {
    const std::size_t take = std::min(total - fed, kLengths[prng.pick_index(9)]);
    cuts.push_back(take);
    fed += take;
  }
  return cuts;
}

void expect_same_carry(const FindCarry& bytes, const FindCarry& symbols) {
  EXPECT_EQ(bytes.state, symbols.state);
  EXPECT_EQ(bytes.at_start, symbols.at_start);
  EXPECT_EQ(bytes.died, symbols.died);
  EXPECT_EQ(bytes.consumed, symbols.consumed);
  EXPECT_EQ(bytes.last_sep, symbols.last_sep);
  EXPECT_EQ(bytes.matches, symbols.matches);
  EXPECT_EQ(bytes.transitions, symbols.transitions);
  EXPECT_EQ(bytes.history_base, symbols.history_base);
  EXPECT_EQ(bytes.history, symbols.history);
}

/// One pattern's stream fed both ways, window by window.
struct TwinFeed {
  const Dfa& searcher;
  const ReverseBegins* reverse;
  ThreadPool& pool;
  QueryOptions options;
  std::uint32_t pattern_id = 0;
  FindCarry by_bytes{};
  FindCarry by_symbols{};

  /// Feeds `window` both ways, checks the two agree, returns the matches.
  std::vector<Match> feed(std::string_view window) {
    std::vector<Match> from_bytes;
    std::vector<Match> from_symbols;
    stream_find_feed(
        searcher, by_bytes, ByteSpan(window, searcher.symbols()), pool, options,
        [&](const Match& m) { from_bytes.push_back(m); }, pattern_id, nullptr, reverse);
    const std::vector<Symbol> symbols = searcher.symbols().translate(window);
    stream_find_feed(
        searcher, by_symbols, symbols, pool, options,
        [&](const Match& m) { from_symbols.push_back(m); }, pattern_id, nullptr, reverse);
    EXPECT_EQ(from_bytes, from_symbols);
    expect_same_carry(by_bytes, by_symbols);
    return from_bytes;
  }
};

QueryOptions stream_options(BeginMode mode, std::size_t chunks = 1,
                            DetKernel kernel = DetKernel::kFused,
                            bool convergence = false) {
  QueryOptions options;
  options.positions = true;
  options.begin_mode = mode;
  options.chunks = chunks;
  options.kernel = kernel;
  options.convergence = convergence;
  return options;
}

std::string blob_of(const FindCarry& carry, const QueryOptions& options,
                    const Pattern& pattern) {
  const std::vector<Pattern> fleet{pattern};
  return checkpoint::encode_multi({&carry}, carry.consumed, options,
                                  checkpoint::fleet_fingerprint(fleet));
}

TEST(StreamBytes, ByteAndSymbolWindowsAgreeAfterEveryFeed) {
  const PatternSet set = PatternSet::compile(kRegexes, {.threads = 3});
  ASSERT_TRUE(set.pattern(0).reverse_begins().separators_sound);
  ASSERT_FALSE(set.pattern(3).reverse_begins().separators_sound);
  Prng prng(0x5b17e5);
  for (std::size_t p = 0; p < set.size(); ++p) {
    const Pattern& pattern = set.pattern(p);
    for (const BeginMode mode : kModes) {
      for (const std::size_t chunks : kChunks) {
        for (const DetKernel kernel : kKernels) {
          for (const bool convergence : {false, true}) {
            const std::string text = random_text(prng, 150 + prng.pick_index(150));
            SCOPED_TRACE(std::string(kRegexes[p]) + " mode=" + begin_mode_name(mode) +
                         " c=" + std::to_string(chunks) + " " + kernel_name(kernel) +
                         (convergence ? " convergent" : "") + " text=" + text);
            TwinFeed twin{pattern.searcher(),
                          mode == BeginMode::kExact ? &pattern.reverse_begins() : nullptr,
                          set.pool(), stream_options(mode, chunks, kernel, convergence)};
            std::vector<Match> streamed;
            std::size_t offset = 0;
            for (const std::size_t take : random_cuts(prng, text.size())) {
              const std::string_view window = std::string_view(text).substr(offset, take);
              for (const Match& m : twin.feed(window)) streamed.push_back(m);
              offset += take;
            }
            // Both equal the one-shot find over the whole text.
            QueryOptions one_shot;
            one_shot.begin_mode = mode;
            EXPECT_EQ(streamed, find_matches(pattern.searcher(),
                                             ByteSpan(text, pattern.searcher().symbols()),
                                             set.pool(), one_shot, 0, nullptr,
                                             twin.reverse)
                                    .positions);
            EXPECT_EQ(blob_of(twin.by_bytes, twin.options, pattern),
                      blob_of(twin.by_symbols, twin.options, pattern));
          }
        }
      }
    }
  }
}

TEST(StreamBytes, DecisionWindowsAgreeWithSymbolWindowsAfterEveryFeed) {
  // A long-lived carry, one that stays live on "ab"-runs, and the hazard
  // pattern, whose carry dies within a few bytes.
  const std::vector<std::string_view> regexes = {"[abcd]*a[bc]*d[abcd]*", "(ab|c[ad])*b?",
                                                 "a|ba"};
  Prng prng(0xdec1);
  for (const std::string_view regex : regexes) {
    const Engine engine(Pattern::compile(regex), {.threads = 3});
    const Pattern& pattern = engine.pattern();
    const Dfa& searcher = pattern.searcher();
    const std::uint64_t fingerprint = checkpoint::pattern_fingerprint(pattern);
    for (const Variant variant : {Variant::kDfa, Variant::kNfa, Variant::kRid,
                                  Variant::kSfa}) {
      ASSERT_NE(engine.try_device(variant), nullptr) << variant_name(variant);
      const Device& device = engine.device(variant);
      for (const std::size_t chunks : kChunks) {
        for (const bool positions : {false, true}) {
          // Text over the patterns' alphabet; every other text carries a
          // byte outside every pattern's classes, where the carry dies.
          std::string text(150 + prng.pick_index(150), 'a');
          for (char& ch : text) ch = "abcd"[prng.pick_index(4)];
          const bool alien = prng.pick_index(2) == 0;
          if (alien) text[prng.pick_index(text.size() / 2)] = 'x';
          SCOPED_TRACE(std::string(regex) + " " + variant_name(variant) +
                       " c=" + std::to_string(chunks) +
                       (positions ? " positions" : "") + " text=" + text);
          QueryOptions options;
          options.variant = variant;
          options.chunks = chunks;
          options.positions = positions;

          StreamSession session = engine.stream(options);
          StreamCarry twin;
          std::vector<Match> twin_matches;
          std::size_t offset = 0;
          for (const std::size_t take : random_cuts(prng, text.size())) {
            const std::string_view window = std::string_view(text).substr(offset, take);
            offset += take;
            session.feed(window);
            device.stream_feed(twin, pattern.translate(window), engine.pool(), options);
            if (positions)
              stream_find_feed(searcher, twin.find, ByteSpan(window, searcher.symbols()),
                               engine.pool(), options,
                               [&](const Match& m) { twin_matches.push_back(m); });
            EXPECT_EQ(session.accepted(), device.stream_accepted(twin));
            EXPECT_EQ(session.dead(), !twin.at_start && twin.states.empty());
            EXPECT_EQ(session.transitions(), twin.transitions);
            EXPECT_EQ(session.windows(), twin.windows);
            if (positions) {
              EXPECT_EQ(session.take_matches(), twin_matches);
              twin_matches.clear();
            }
            EXPECT_EQ(session.checkpoint(),
                      checkpoint::encode_stream(twin, variant, options, fingerprint));
          }
          if (alien) EXPECT_TRUE(session.dead());
          EXPECT_EQ(session.accepted(),
                    engine.recognize(text, {.variant = variant, .chunks = chunks}).accepted);
        }
      }
    }
  }
}

TEST(StreamBytes, SessionBlobsEqualSymbolFedBlobs) {
  const PatternSet set = PatternSet::compile(kRegexes, {.threads = 3});
  std::vector<Pattern> fleet;
  for (std::size_t p = 0; p < set.size(); ++p) fleet.push_back(set.pattern(p));
  Prng prng(0xb10b);
  for (const BeginMode mode : kModes) {
    for (const std::size_t chunks : kChunks) {
      const std::string text = random_text(prng, 400);
      SCOPED_TRACE(std::string("mode=") + begin_mode_name(mode) +
                   " c=" + std::to_string(chunks) + " text=" + text);
      const QueryOptions options = stream_options(mode, chunks);

      // The multi-pattern session against per-pattern symbol-fed carries.
      MultiStreamSession session = set.stream_find(options);
      std::vector<TwinFeed> twins;
      for (std::size_t p = 0; p < set.size(); ++p)
        twins.push_back({set.pattern(p).searcher(),
                         mode == BeginMode::kExact ? &set.pattern(p).reverse_begins()
                                                   : nullptr,
                         set.pool(), options, static_cast<std::uint32_t>(p)});
      // The single-pattern session's find side against the same twin.
      const Engine engine(set.pattern(1), {.threads = 2});
      StreamSession single = engine.stream(options);

      std::size_t offset = 0;
      for (const std::size_t take : random_cuts(prng, text.size())) {
        const std::string_view window = std::string_view(text).substr(offset, take);
        offset += take;
        session.feed(window);
        single.feed(window);
        std::vector<Match> expected;
        for (TwinFeed& twin : twins)
          for (const Match& m : twin.feed(window)) expected.push_back(m);
        std::sort(expected.begin(), expected.end(), [](const Match& a, const Match& b) {
          if (a.end != b.end) return a.end < b.end;
          if (a.begin != b.begin) return a.begin < b.begin;
          return a.pattern_id < b.pattern_id;
        });
        EXPECT_EQ(session.take_matches(), expected);
        std::vector<Match> single_expected;
        for (const Match& m : expected)
          if (m.pattern_id == 1) single_expected.push_back({0, m.begin, m.end});
        EXPECT_EQ(single.take_matches(), single_expected);
      }

      std::vector<const FindCarry*> carries;
      for (const TwinFeed& twin : twins) carries.push_back(&twin.by_symbols);
      EXPECT_EQ(session.checkpoint(),
                checkpoint::encode_multi(carries, text.size(), options,
                                         checkpoint::fleet_fingerprint(fleet)));
      const StreamCarry decoded =
          checkpoint::decode_stream(single.checkpoint(), Variant::kRid, options,
                                    checkpoint::pattern_fingerprint(engine.pattern()));
      expect_same_carry(decoded.find, twins[1].by_symbols);
    }
  }
}

TEST(StreamBytes, ResumesCrossBetweenByteAndSymbolFeeds) {
  const PatternSet set = PatternSet::compile(kRegexes, {.threads = 3});
  std::vector<Pattern> fleet;
  for (std::size_t p = 0; p < set.size(); ++p) fleet.push_back(set.pattern(p));
  const std::uint64_t fingerprint = checkpoint::fleet_fingerprint(fleet);
  Prng prng(0xc405);
  for (const BeginMode mode : kModes) {
    const std::string text = random_text(prng, 300);
    const std::size_t half = 137;
    SCOPED_TRACE(std::string("mode=") + begin_mode_name(mode) + " text=" + text);
    const QueryOptions options = stream_options(mode, 3);

    // The uninterrupted byte-fed session is the reference.
    MultiStreamSession whole = set.stream_find(options);
    whole.feed(std::string_view(text).substr(0, half));
    std::vector<Match> reference = whole.take_matches();
    whole.feed(std::string_view(text).substr(half));
    for (const Match& m : whole.take_matches()) reference.push_back(m);

    // Symbol-fed prefix → blob → byte-fed session.
    std::vector<TwinFeed> twins;
    for (std::size_t p = 0; p < set.size(); ++p)
      twins.push_back({set.pattern(p).searcher(),
                       mode == BeginMode::kExact ? &set.pattern(p).reverse_begins()
                                                 : nullptr,
                       set.pool(), options, static_cast<std::uint32_t>(p)});
    std::vector<Match> collected;
    std::vector<const FindCarry*> carries;
    for (TwinFeed& twin : twins) {
      for (const Match& m : twin.feed(std::string_view(text).substr(0, half)))
        collected.push_back(m);
      carries.push_back(&twin.by_symbols);
    }
    const std::string symbol_blob =
        checkpoint::encode_multi(carries, half, options, fingerprint);
    MultiStreamSession resumed = set.resume_stream(symbol_blob, options);
    resumed.feed(std::string_view(text).substr(half));
    for (const Match& m : resumed.take_matches()) collected.push_back(m);
    std::sort(collected.begin(), collected.end(), [](const Match& a, const Match& b) {
      if (a.end != b.end) return a.end < b.end;
      if (a.begin != b.begin) return a.begin < b.begin;
      return a.pattern_id < b.pattern_id;
    });
    EXPECT_EQ(collected, reference);
    EXPECT_EQ(resumed.checkpoint(), whole.checkpoint());

    // Byte-fed prefix → blob → symbol-fed continuation.
    MultiStreamSession prefix = set.stream_find(options);
    prefix.feed(std::string_view(text).substr(0, half));
    (void)prefix.take_matches();
    checkpoint::MultiImage image =
        checkpoint::decode_multi(prefix.checkpoint(), set.size(), options, fingerprint);
    const checkpoint::MultiImage end_image =
        checkpoint::decode_multi(whole.checkpoint(), set.size(), options, fingerprint);
    for (std::size_t p = 0; p < set.size(); ++p) {
      const Dfa& searcher = set.pattern(p).searcher();
      const std::vector<Symbol> rest =
          searcher.symbols().translate(std::string_view(text).substr(half));
      stream_find_feed(searcher, image.carries[p], rest, set.pool(), options,
                       [](const Match&) {}, static_cast<std::uint32_t>(p), nullptr,
                       twins[p].reverse);
      expect_same_carry(end_image.carries[p], image.carries[p]);
    }
  }
}

TEST(StreamBytes, ExactBeginsStraddleWindowBoundaries) {
  const Engine engine(Pattern::compile("a[bc]*d"), {.threads = 2});
  const Dfa& searcher = engine.searcher();
  const ReverseBegins& reverse = engine.pattern().reverse_begins();
  const std::string text = "xxabcbcbcdxxabdaaxabcbbbbbbcdcbad";
  const QueryResult oracle =
      find_matches_serial(searcher, searcher.symbols().translate(text), 0, &reverse.dfa);
  for (const std::size_t window : {1u, 2u, 3u, 5u}) {
    for (const std::size_t chunks : {1u, 3u}) {
      SCOPED_TRACE("window=" + std::to_string(window) + " c=" + std::to_string(chunks));
      TwinFeed twin{searcher, &reverse, engine.pool(),
                    stream_options(BeginMode::kExact, chunks)};
      std::vector<Match> streamed;
      bool straddled = false;
      for (std::size_t offset = 0; offset < text.size(); offset += window) {
        for (const Match& m : twin.feed(std::string_view(text).substr(offset, window))) {
          straddled = straddled || m.begin < offset;
          streamed.push_back(m);
        }
      }
      EXPECT_EQ(streamed, oracle.positions);
      EXPECT_TRUE(straddled);
    }
  }
}

TEST(StreamBytes, SoundHistoryCoversExactlyFromTheLastSeparator) {
  Prng prng(0x7e7a1);
  for (const std::string_view regex : {"ab", "a[bc]*d", "a|ba"}) {
    const Engine engine(Pattern::compile(regex), {.threads = 2});
    const Dfa& searcher = engine.searcher();
    const ReverseBegins& reverse = engine.pattern().reverse_begins();
    const std::string text = random_text(prng, 500);
    SCOPED_TRACE(std::string(regex) + " text=" + text);
    FindCarry carry;
    const QueryOptions options = stream_options(BeginMode::kExact, 3);
    std::size_t offset = 0;
    for (const std::size_t take : random_cuts(prng, text.size())) {
      const FindCarry before = carry;
      stream_find_feed(searcher, carry,
                       ByteSpan(std::string_view(text).substr(offset, take),
                                searcher.symbols()),
                       engine.pool(), options, [](const Match&) {}, 0, nullptr,
                       &reverse);
      offset += take;
      ASSERT_EQ(carry.consumed, offset);
      ASSERT_EQ(carry.history_base + carry.history.size(), carry.consumed);
      if (reverse.separators_sound) {
        EXPECT_GE(carry.history_base, before.last_sep);
        EXPECT_EQ(carry.history_base, std::max(carry.last_sep, before.history_base));
      } else {
        EXPECT_EQ(carry.history_base, 0u);  // retained from the stream start
      }
      EXPECT_EQ(carry.history,
                searcher.symbols().translate(std::string_view(text).substr(
                    carry.history_base, carry.consumed - carry.history_base)));
    }
  }
}

TEST(StreamBytes, HistoryCapThrowsBeforeAnyMutation) {
  // "a|ba" retains from the stream start; "ab" retains while a partial
  // occurrence is pending — a run of a's never returns to the initial state.
  struct Case {
    std::string_view regex;
    char byte;
    std::size_t first;
    std::size_t second;
    std::int64_t peak;
  };
  for (const Case& c : {Case{"a|ba", 'b', 48, 48, 96}, Case{"ab", 'a', 40, 40, 80}}) {
    const Engine engine(Pattern::compile(c.regex), {.threads = 2});
    const Dfa& searcher = engine.searcher();
    QueryOptions options = stream_options(BeginMode::kExact);
    options.max_history_bytes = 64;
    const std::string first(c.first, c.byte);
    const std::string second(c.second, c.byte);
    for (const bool bytes : {true, false}) {
      SCOPED_TRACE(std::string(c.regex) + (bytes ? " bytes" : " symbols"));
      FindCarry carry;
      const auto feed = [&](const std::string& window) {
        const MatchSink sink = [](const Match&) {};
        if (bytes) {
          stream_find_feed(searcher, carry, ByteSpan(window, searcher.symbols()),
                           engine.pool(), options, sink, 0, nullptr,
                           &engine.pattern().reverse_begins());
        } else {
          stream_find_feed(searcher, carry, searcher.symbols().translate(window),
                           engine.pool(), options, sink, 0, nullptr,
                           &engine.pattern().reverse_begins());
        }
      };
      feed(first);
      ASSERT_EQ(carry.history.size(), c.first);
      const FindCarry before = carry;
      try {
        feed(second);
        FAIL() << "the history cap did not trip";
      } catch (const ResourceExhausted& error) {
        EXPECT_EQ(error.resource(), "exact-begin history");
        EXPECT_EQ(error.limit(), 64);
        EXPECT_EQ(error.observed(), c.peak);
      }
      expect_same_carry(carry, before);
    }
  }
}

TEST(StreamBytes, ThrowingFeedLeavesTheCarryAsItWas) {
  // A feed that throws mid-join (the sink) or before it (a cancelled
  // governor) must leave the carry untouched — the history still covering
  // [history_base, consumed) — so feeding the same window again continues
  // the stream as if the throw had never happened.
  struct SinkThrew {};
  Prng prng(0x7b0a);
  for (const std::string_view regex : {"ab", "a[bc]*d", "a|ba"}) {
    const Engine engine(Pattern::compile(regex), {.threads = 2});
    const Dfa& searcher = engine.searcher();
    const ReverseBegins* reverse = &engine.pattern().reverse_begins();
    const std::string text = random_text(prng, 400);
    for (const BeginMode mode : kModes) {
      for (const bool bytes : {true, false}) {
        SCOPED_TRACE(std::string(regex) + (bytes ? " bytes" : " symbols") +
                     (mode == BeginMode::kExact ? " exact" : " separator"));
        const QueryOptions options = stream_options(mode, 3);
        const auto feed = [&](FindCarry& carry, std::string_view window,
                              const MatchSink& sink, const QueryOptions& with) {
          if (bytes) {
            stream_find_feed(searcher, carry, ByteSpan(window, searcher.symbols()),
                             engine.pool(), with, sink, 0, nullptr, reverse);
          } else {
            stream_find_feed(searcher, carry, searcher.symbols().translate(window),
                             engine.pool(), with, sink, 0, nullptr, reverse);
          }
        };
        FindCarry carry;
        FindCarry clean;  // the same windows, never interrupted
        std::size_t throws = 0;
        std::vector<Match> streamed;
        std::vector<Match> expected;
        const MatchSink collect = [&](const Match& m) { streamed.push_back(m); };
        CancelSource cancelled;
        cancelled.request_cancel();
        QueryOptions cancelling = options;
        cancelling.cancel = cancelled.token();
        std::size_t offset = 0;
        for (const std::size_t take : random_cuts(prng, text.size())) {
          const std::string_view window = std::string_view(text).substr(offset, take);
          const FindCarry before = carry;
          if (take != 0 && !carry.died) {
            EXPECT_THROW(feed(carry, window, collect, cancelling), QueryCancelled);
            expect_same_carry(carry, before);
          }
          std::vector<Match> taken;
          try {
            feed(carry, window,
                 [&](const Match& m) {
                   if (taken.size() == 1) throw SinkThrew{};
                   taken.push_back(m);
                 },
                 options);
            streamed.insert(streamed.end(), taken.begin(), taken.end());
          } catch (const SinkThrew&) {
            ++throws;
            expect_same_carry(carry, before);
            feed(carry, window, collect, options);
          }
          feed(clean, window, [&](const Match& m) { expected.push_back(m); }, options);
          expect_same_carry(carry, clean);
          offset += take;
        }
        EXPECT_EQ(streamed, expected);
        EXPECT_GT(throws, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace rispar
