// Session checkpoint/resume (engine/checkpoint.hpp): round trips across
// engines and begin modes, the reject taxonomy, and blob integrity. The
// randomized segmentation × kill-point sweep lives in tests/test_fuzz.cpp
// (CheckpointFuzz); these are the deterministic unit cases.
#include "engine/checkpoint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "util/prng.hpp"

namespace rispar {
namespace {

std::vector<Match> drain_full(const Engine& engine, std::string_view text,
                              const QueryOptions& options) {
  StreamSession session = engine.stream(options);
  session.feed(text);
  return session.take_matches();
}

TEST(Checkpoint, ResumeContinuesByteExact) {
  const std::string text = "xx ababab yy abab z ab ababab";
  for (const BeginMode mode : {BeginMode::kSeparator, BeginMode::kExact}) {
    const QueryOptions options{.chunks = 3, .positions = true, .begin_mode = mode};
    const Engine engine(Pattern::compile("(ab)+"), {.threads = 2});
    const std::vector<Match> oracle =
        engine.find_all(text, {.chunks = 3, .begin_mode = mode});
    const std::vector<Match> uninterrupted = drain_full(engine, text, options);
    ASSERT_EQ(uninterrupted, oracle) << begin_mode_name(mode);

    for (const std::size_t cut : {std::size_t{0}, std::size_t{5}, std::size_t{13},
                                  text.size()}) {
      StreamSession first = engine.stream(options);
      first.feed(text.substr(0, cut));
      std::vector<Match> collected = first.take_matches();
      const std::string blob = first.checkpoint();

      StreamSession second = engine.resume_stream(blob, options);
      EXPECT_EQ(second.bytes_consumed(), cut);
      second.feed(text.substr(cut));
      for (const Match& match : second.take_matches()) collected.push_back(match);
      EXPECT_EQ(collected, oracle)
          << begin_mode_name(mode) << " cut at " << cut;
    }
  }
}

TEST(Checkpoint, ResumeOnAFreshEngineIsEquivalent) {
  const std::string text = "the cat sat on the mat with a rat";
  const QueryOptions options{.chunks = 2, .positions = true,
                             .begin_mode = BeginMode::kExact};
  const Engine first(Pattern::compile("[a-z]at"), {.threads = 2});
  StreamSession session = first.stream(options);
  session.feed(text.substr(0, 14));
  std::vector<Match> collected = session.take_matches();
  const std::string blob = session.checkpoint();

  // A different Engine over the same source — the cross-process shape.
  const Engine second(Pattern::compile("[a-z]at"), {.threads = 2});
  StreamSession resumed = second.resume_stream(blob, options);
  resumed.feed(text.substr(14));
  for (const Match& match : resumed.take_matches()) collected.push_back(match);
  EXPECT_EQ(collected, second.find_all(text, {.begin_mode = BeginMode::kExact}));
}

TEST(Checkpoint, DecisionOnlySessionsRoundTrip) {
  const std::string text = "abababab";
  for (const Variant variant :
       {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa}) {
    const QueryOptions options{.variant = variant, .chunks = 2};
    const Engine engine(Pattern::compile("(ab)*"), {.threads = 2});
    StreamSession session = engine.stream(options);
    session.feed(text.substr(0, 3));
    const std::string blob = session.checkpoint();
    StreamSession resumed = engine.resume_stream(blob, options);
    EXPECT_EQ(resumed.accepted(), session.accepted()) << variant_name(variant);
    resumed.feed(text.substr(3));
    session.feed(text.substr(3));
    EXPECT_EQ(resumed.accepted(), session.accepted()) << variant_name(variant);
    EXPECT_TRUE(resumed.accepted()) << variant_name(variant);
  }
}

TEST(Checkpoint, FreshSessionCheckpointResumesFresh) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  const QueryOptions options{.positions = true};
  StreamSession fresh = engine.stream(options);
  StreamSession resumed = engine.resume_stream(fresh.checkpoint(), options);
  EXPECT_EQ(resumed.bytes_consumed(), 0u);
  resumed.feed("xaby");
  EXPECT_EQ(resumed.take_matches(), engine.find_all("xaby"));
}

TEST(Checkpoint, MultiPatternRoundTrip) {
  const std::string text = "error: timeout after 30ms, then error again";
  for (const BeginMode mode : {BeginMode::kSeparator, BeginMode::kExact}) {
    const QueryOptions options{.chunks = 2, .begin_mode = mode};
    const PatternSet set =
        PatternSet::compile({"error", "[0-9]+ms", "after|then"}, {.threads = 2});
    const std::vector<Match> oracle = set.find_all(text, options);

    MultiStreamSession session = set.stream_find(options);
    session.feed(text.substr(0, 21));
    std::vector<Match> collected = session.take_matches();
    const std::string blob = session.checkpoint();

    MultiStreamSession resumed = set.resume_stream(blob, options);
    EXPECT_EQ(resumed.bytes_consumed(), 21u);
    resumed.feed(text.substr(21));
    for (const Match& match : resumed.take_matches()) collected.push_back(match);
    EXPECT_EQ(collected, oracle) << begin_mode_name(mode);
  }
}

TEST(Checkpoint, UndrainedMatchesReject) {
  const Engine engine(Pattern::compile("a"), {.threads = 2});
  StreamSession session = engine.stream({.positions = true});
  session.feed("aaa");
  EXPECT_THROW((void)session.checkpoint(), ValidationError);
  (void)session.take_matches();
  EXPECT_NO_THROW((void)session.checkpoint());
}

TEST(Checkpoint, WrongPatternRejects) {
  const QueryOptions options{.positions = true};
  const Engine cats(Pattern::compile("cat"), {.threads = 2});
  const Engine dogs(Pattern::compile("dog"), {.threads = 2});
  StreamSession session = cats.stream(options);
  session.feed("the cat");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();
  EXPECT_THROW((void)dogs.resume_stream(blob, options), ValidationError);
  EXPECT_NO_THROW((void)cats.resume_stream(blob, options));
}

TEST(Checkpoint, SessionShapeMismatchesReject) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  const QueryOptions options{.variant = Variant::kRid, .chunks = 2,
                             .positions = true};
  StreamSession session = engine.stream(options);
  session.feed("xabx");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();

  QueryOptions wrong_variant = options;
  wrong_variant.variant = Variant::kDfa;
  EXPECT_THROW((void)engine.resume_stream(blob, wrong_variant), ValidationError);

  QueryOptions wrong_positions = options;
  wrong_positions.positions = false;
  EXPECT_THROW((void)engine.resume_stream(blob, wrong_positions), ValidationError);

  QueryOptions wrong_mode = options;
  wrong_mode.begin_mode = BeginMode::kExact;
  EXPECT_THROW((void)engine.resume_stream(blob, wrong_mode), ValidationError);
}

TEST(Checkpoint, SingleAndMultiBlobsDoNotCross) {
  const QueryOptions options{.positions = true};
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  const PatternSet set = PatternSet::compile({"ab"}, {.threads = 2});
  StreamSession single = engine.stream(options);
  MultiStreamSession multi = set.stream_find({});
  EXPECT_THROW((void)set.resume_stream(single.checkpoint(), {}), ValidationError);
  EXPECT_THROW((void)engine.resume_stream(multi.checkpoint(), options),
               ValidationError);
}

TEST(Checkpoint, FleetSizeAndOrderMismatchReject) {
  const PatternSet pair = PatternSet::compile({"cat", "dog"}, {.threads = 2});
  const PatternSet swapped = PatternSet::compile({"dog", "cat"}, {.threads = 2});
  const PatternSet triple =
      PatternSet::compile({"cat", "dog", "fox"}, {.threads = 2});
  MultiStreamSession session = pair.stream_find({});
  session.feed("a cat and a dog");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();
  EXPECT_THROW((void)swapped.resume_stream(blob, {}), ValidationError);
  EXPECT_THROW((void)triple.resume_stream(blob, {}), ValidationError);
  EXPECT_NO_THROW((void)pair.resume_stream(blob, {}));
}

TEST(Checkpoint, PoisonedSessionsCannotCheckpoint) {
  const Engine engine(Pattern::compile("a+"), {.threads = 2});
  CancelSource cancel;
  cancel.request_cancel();
  StreamSession session =
      engine.stream({.positions = true, .cancel = cancel.token()});
  EXPECT_THROW(session.feed("aaaa"), QueryCancelled);
  ASSERT_TRUE(session.poisoned());
  EXPECT_THROW((void)session.checkpoint(), ValidationError);
}

TEST(Checkpoint, EveryTruncationThrows) {
  const QueryOptions options{.positions = true, .begin_mode = BeginMode::kExact};
  const Engine engine(Pattern::compile("(ab)+"), {.threads = 2});
  StreamSession session = engine.stream(options);
  session.feed("xxabababyy");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(
        (void)engine.resume_stream(std::string_view(blob).substr(0, len), options),
        ValidationError)
        << "truncated to " << len;
  }
}

TEST(Checkpoint, RandomByteFlipsThrow) {
  const QueryOptions options{.chunks = 2, .positions = true,
                             .begin_mode = BeginMode::kExact};
  const Engine engine(Pattern::compile("a(b|c)*d"), {.threads = 2});
  StreamSession session = engine.stream(options);
  session.feed("zabbcbd abcd abd");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();

  Prng prng(77);
  for (int flip = 0; flip < 300; ++flip) {
    std::string corrupt = blob;
    const std::size_t at = prng.pick_index(corrupt.size());
    const char delta = static_cast<char>(1 + prng.pick_index(255));
    corrupt[at] = static_cast<char>(corrupt[at] ^ delta);
    EXPECT_THROW((void)engine.resume_stream(corrupt, options), ValidationError)
        << "flip " << flip << " at byte " << at;
  }
}

TEST(Checkpoint, TrailingBytesReject) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  const QueryOptions options{.positions = true};
  StreamSession session = engine.stream(options);
  session.feed("ab");
  (void)session.take_matches();
  std::string blob = session.checkpoint();
  blob.push_back('\0');  // breaks the checksum — still a typed reject
  EXPECT_THROW((void)engine.resume_stream(blob, options), ValidationError);
}

TEST(Checkpoint, FindCarryImageBytesArePinned) {
  // Blobs outlive the process that wrote them, so the find-carry image is a
  // persistence format: these bytes must not move. A hand-built kExact carry
  // (3 retained history symbols) in a one-pattern blob; layout in
  // engine/checkpoint.hpp, all integers little-endian.
  FindCarry carry;
  carry.state = 3;
  carry.at_start = false;
  carry.consumed = 10;
  carry.last_sep = 7;
  carry.matches = 2;
  carry.transitions = 12;
  carry.history_base = 7;
  carry.history = {1, 2, 0};
  const QueryOptions options{.positions = true, .begin_mode = BeginMode::kExact};
  const std::uint64_t fingerprint = 0x0123456789abcdefull;
  const std::string blob = checkpoint::encode_multi({&carry}, 10, options, fingerprint);

  const std::vector<std::uint8_t> expected = {
      0x52, 0x53, 0x43, 0x4b,                          // magic "RSCK"
      1, 0, 0, 0,                                      // version
      2, 0, 1, 1,                                      // kind, variant, positions, mode
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // fingerprint
      10, 0, 0, 0, 0, 0, 0, 0,                         // session consumed
      1, 0, 0, 0,                                      // npatterns
      3, 0, 0, 0,                                      // carry: state
      0, 0,                                            // at_start, died
      10, 0, 0, 0, 0, 0, 0, 0,                         // consumed
      7, 0, 0, 0, 0, 0, 0, 0,                          // last_sep
      2, 0, 0, 0, 0, 0, 0, 0,                          // matches
      12, 0, 0, 0, 0, 0, 0, 0,                         // transitions
      7, 0, 0, 0, 0, 0, 0, 0,                          // history_base
      3, 0, 0, 0, 0, 0, 0, 0,                          // nhistory
      1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,              // history symbols
  };
  ASSERT_EQ(blob.size(), expected.size() + 8);  // + the checksum64 trailer
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(static_cast<std::uint8_t>(blob[i]), expected[i]) << "byte " << i;

  const checkpoint::MultiImage image = checkpoint::decode_multi(blob, 1, options,
                                                                fingerprint);
  ASSERT_EQ(image.carries.size(), 1u);
  const FindCarry& back = image.carries[0];
  EXPECT_EQ(back.state, carry.state);
  EXPECT_FALSE(back.at_start);
  EXPECT_FALSE(back.died);
  EXPECT_EQ(back.consumed, carry.consumed);
  EXPECT_EQ(back.last_sep, carry.last_sep);
  EXPECT_EQ(back.matches, carry.matches);
  EXPECT_EQ(back.transitions, carry.transitions);
  EXPECT_EQ(back.history_base, carry.history_base);
  EXPECT_EQ(back.history, carry.history);
}

TEST(Checkpoint, LiveExactCarryWithoutItsHistoryRejects) {
  // kExact begins resolve over [history_base, consumed), so a live carry
  // whose history does not cover that span would read past the window on
  // the next hit. An empty history passes the general length check, so
  // the forged image must be refused on its own.
  const PatternSet set = PatternSet::compile({"a[bc]*d"}, {.threads = 2});
  const std::vector<Pattern> fleet{set.pattern(0)};
  const std::uint64_t fingerprint = checkpoint::fleet_fingerprint(fleet);
  const QueryOptions options{.positions = true, .begin_mode = BeginMode::kExact};
  FindCarry forged;
  forged.at_start = false;
  forged.state = set.pattern(0).searcher().initial();
  forged.consumed = 5000;
  forged.history_base = 0;  // nothing retained for [0, 5000)
  EXPECT_THROW((void)set.resume_stream(
                   checkpoint::encode_multi({&forged}, 5000, options, fingerprint),
                   options),
               ValidationError);
  // A died carry keeps no history while its byte count advances: valid.
  forged.died = true;
  EXPECT_NO_THROW((void)set.resume_stream(
      checkpoint::encode_multi({&forged}, 5000, options, fingerprint), options));
  // Under kSeparator nothing is retained, so the same live carry is valid.
  forged.died = false;
  const QueryOptions separator{.positions = true};
  EXPECT_NO_THROW((void)set.resume_stream(
      checkpoint::encode_multi({&forged}, 5000, separator, fingerprint), separator));

  // The single-pattern blob carries the same find image.
  const Engine engine(Pattern::compile("a[bc]*d"), {.threads = 2});
  StreamSession session = engine.stream(options);
  session.feed(std::string(40, 'x'));
  const std::string good = session.checkpoint();
  StreamCarry carry = checkpoint::decode_stream(
      good, Variant::kRid, options, checkpoint::pattern_fingerprint(engine.pattern()));
  carry.find.history.clear();
  carry.find.history_base = 0;
  const std::string bad = checkpoint::encode_stream(
      carry, Variant::kRid, options, checkpoint::pattern_fingerprint(engine.pattern()));
  EXPECT_THROW((void)engine.resume_stream(bad, options), ValidationError);
  EXPECT_NO_THROW((void)engine.resume_stream(good, options));
}

TEST(Checkpoint, FingerprintIsContentNotShape) {
  // "a" and "b" have identical minimal-DFA SHAPES; only the byte classes
  // differ. The fingerprint must still tell them apart.
  EXPECT_NE(checkpoint::pattern_fingerprint(Pattern::compile("a")),
            checkpoint::pattern_fingerprint(Pattern::compile("b")));
  EXPECT_EQ(checkpoint::pattern_fingerprint(Pattern::compile("a(b|c)*")),
            checkpoint::pattern_fingerprint(Pattern::compile("a(b|c)*")));
}

}  // namespace
}  // namespace rispar
