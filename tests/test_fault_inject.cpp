// The fault-injection sweep (ISSUE 6 tentpole part 4, acceptance: "the
// sweep runs green under ASan/UBSan — every injected fault surfaces as a
// typed error or a clean result, never a crash, leak or wedged pool").
//
// Self-skips unless the library was built with -DRISPAR_FAULT_INJECT=ON
// (the sanitize and long-fuzz CI legs build that way). Each swept seed arms
// the harness at a given rate, runs the full query battery — construction,
// one-shot recognize/count/find on every variant, streaming, PatternSet —
// and accepts exactly three outcomes per call: a correct result, a
// QueryError subclass, fault::FaultInjected or std::bad_alloc. Anything
// else (crash, terminate, wedge) fails the test run itself. After every
// battery the harness is disarmed and the SAME engine must answer
// correctly — injected faults never corrupt surviving state.
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "parallel/match_count.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/fault_inject.hpp"

namespace rispar {
namespace {

/// Outcome classifier: run `body`, swallowing exactly the legal failure
/// shapes. Returns true when the call completed (so the caller may check
/// the result), false when a typed fault surfaced. Anything else escapes
/// and fails the test.
template <typename Body>
bool survives(Body&& body) {
  try {
    body();
    return true;
  } catch (const QueryError&) {  // governance, validation, budgets
  } catch (const fault::FaultInjected&) {
  } catch (const std::bad_alloc&) {  // allocation sites
  }
  return false;
}

/// One full pass over the public query surface. Every call is wrapped in
/// survives(); the assertions only ever check completed calls.
void run_battery(const Engine& engine) {
  const std::string text = "abba abab baab abba";
  for (const Variant variant :
       {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa}) {
    survives([&] {
      const QueryOptions options{.variant = variant, .chunks = 3};
      (void)engine.recognize(text, options);
    });
  }
  survives([&] { (void)engine.count(text, {.chunks = 2}); });
  survives([&] { (void)engine.find(text, {.chunks = 2}); });
  survives([&] {
    const std::vector<std::string_view> texts{"abab", "ba", "abba"};
    (void)engine.match_all(texts, {.chunks = 2});
  });
  survives([&] {
    StreamSession stream = engine.stream({.chunks = 2, .positions = true});
    for (const std::string_view window : {"abba ", "abab ", "baab"}) {
      try {
        stream.feed(window);
      } catch (const ValidationError&) {
        break;  // poisoned by an earlier injected trip — documented behavior
      }
    }
    (void)stream.take_matches();  // drains whatever survived, poisoned or not
  });
}

/// Fixture so the harness is ALWAYS disarmed when a test exits, however it
/// exits — an armed harness leaking into later suites would fault their
/// pool tasks and turn unrelated tests into crashes.
class FaultInject : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kEnabled)
      GTEST_SKIP() << "library built without RISPAR_FAULT_INJECT";
  }
  void TearDown() override { fault::disable(); }
};

TEST_F(FaultInject, SeedSweepNeverCrashesAndStateSurvives) {
  std::uint64_t fired_total = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    // Construction under fire: subset/SFA/packed allocation sites may trip.
    fault::configure(seed, 0.02);
    survives([&] {
      const Engine engine(Pattern::compile("(ab|ba)*"), {.threads = 2});
      run_battery(engine);
      run_battery(engine);  // second pass: the pool survived the first
    });
    fired_total += fault::fire_count();

    // Disarmed rerun: the same configuration must answer correctly — no
    // injected fault may have corrupted anything that survived.
    const fault::ScopedDisable clean;
    (void)clean;
    const Engine engine(Pattern::compile("(ab|ba)*"), {.threads = 2});
    EXPECT_TRUE(engine.recognize("abba").accepted) << "seed " << seed;
    EXPECT_FALSE(engine.recognize("aba").accepted) << "seed " << seed;
    const Engine counter(Pattern::compile("ab"), {.threads = 2});
    EXPECT_EQ(counter.count("abba abab").matches, 3u) << "seed " << seed;
  }
  // A harness that never fires is a dead harness — fail loudly.
  EXPECT_GT(fired_total, 0u);
}

TEST_F(FaultInject, HighRateBatteryStillSurfacesTypedErrorsOnly) {
  // 30% per draw: nearly every query path trips somewhere. The point is
  // the worst case — even saturated with faults, nothing crashes and the
  // pool keeps accepting work.
  fault::configure(0xDEADu, 0.3);
  for (int round = 0; round < 8; ++round) {
    survives([&] {
      const Engine engine(Pattern::compile("a(b|c)*d"), {.threads = 2});
      run_battery(engine);
    });
  }
  EXPECT_GT(fault::fire_count(), 0u);

  const fault::ScopedDisable clean;
  (void)clean;
  const Engine engine(Pattern::compile("a(b|c)*d"), {.threads = 2});
  EXPECT_TRUE(engine.recognize("abcbcd").accepted);
}

TEST_F(FaultInject, PatternSetSurvivesInjectedFaults) {
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    fault::configure(seed, 0.05);
    survives([&] {
      const PatternSet set =
          PatternSet::compile({"ab", "ba", "abba"}, {.threads = 2});
      (void)set.find_all("abba abab baab");
      const std::vector<std::string_view> texts{"abab", "baab"};
      (void)set.find_all(texts);
    });
  }

  const fault::ScopedDisable clean;
  (void)clean;
  const PatternSet set = PatternSet::compile({"ab", "ba"}, {.threads = 2});
  EXPECT_EQ(set.find("abba").matches, 2u);
}

TEST_F(FaultInject, ReverseBuildFaultLeavesThePatternRetryable) {
  // Compile clean, then arm at rate 1.0: the reverse-begins build is a
  // serial path whose FIRST probe is the reverse.build site, so the throw
  // is deterministic. The lazy slot must stay empty on failure — the
  // SAME Pattern object retries successfully after disarm, and the rebuilt
  // artifact serves exact begins correctly.
  fault::disable();
  const Pattern pattern = Pattern::compile("(ab|ba)*a");
  fault::configure(11, 1.0);
  EXPECT_THROW((void)pattern.reverse_begins(), fault::FaultInjected);
  EXPECT_EQ(fault::fire_count(), 1u);

  fault::disable();
  const ReverseBegins& reverse = pattern.reverse_begins();  // the retry
  const Engine engine(pattern, {.threads = 2});
  const QueryResult exact =
      engine.find("abbaa", {.begin_mode = BeginMode::kExact});
  const Dfa& searcher = engine.searcher();
  const QueryResult oracle = find_matches_serial(
      searcher, searcher.symbols().translate("abbaa"), 0, &reverse.dfa);
  EXPECT_EQ(exact.positions, oracle.positions);
  EXPECT_GT(exact.matches, 0u);
}

TEST_F(FaultInject, MultiStreamMergeSiteFiresAndPoisons) {
  // A zero-pattern session fans out no pool tasks, so the feed's FIRST
  // draw is the mpstream.merge probe itself — rate 1.0 hits exactly that
  // site. The session must poison, reject further feeds with the
  // documented ValidationError, and come back clean after reset().
  fault::disable();
  const PatternSet empty_set(std::vector<Pattern>{}, {.threads = 2});
  MultiStreamSession session = empty_set.stream_find();
  fault::configure(21, 1.0);
  EXPECT_THROW(session.feed("abba"), fault::FaultInjected);
  EXPECT_EQ(fault::fire_count(), 1u);
  EXPECT_TRUE(session.poisoned());
  EXPECT_THROW(session.feed("x"), ValidationError);

  fault::disable();
  session.reset();
  EXPECT_FALSE(session.poisoned());
  session.feed("abba");
  EXPECT_EQ(session.matches(), 0u);
  EXPECT_EQ(session.bytes_consumed(), 4u);
}

TEST_F(FaultInject, MultiStreamSweepSurvivesAndRecovers) {
  // Real multi-pattern sessions under a seed sweep: any site may trip
  // (pool tasks, reverse builds under kExact, the merge). Every outcome
  // must be a typed error or a correct merge; a poisoned session keeps
  // draining and a fresh session answers the one-shot list after disarm.
  for (std::uint64_t seed = 200; seed < 208; ++seed) {
    fault::configure(seed, 0.05);
    const BeginMode mode =
        seed % 2 == 0 ? BeginMode::kSeparator : BeginMode::kExact;
    survives([&] {
      const PatternSet set =
          PatternSet::compile({"ab", "ba", "a(b|c)*"}, {.threads = 2});
      MultiStreamSession session = set.stream_find({.begin_mode = mode});
      for (const std::string_view window : {"abba ", "abab ", "bacb"}) {
        try {
          session.feed(window);
        } catch (const ValidationError&) {
          break;  // poisoned by an earlier injected trip
        }
      }
      (void)session.take_matches();
    });
  }

  const fault::ScopedDisable clean;
  (void)clean;
  const PatternSet set = PatternSet::compile({"ab", "ba"}, {.threads = 2});
  MultiStreamSession session = set.stream_find();
  session.feed("abba abab");
  EXPECT_EQ(session.take_matches(), set.find_all("abba abab"));
}

TEST_F(FaultInject, CheckpointEncodeSiteFiresAndLeavesTheSessionUsable) {
  // Rate 1.0 on a drained session: the serial checkpoint path's FIRST draw
  // is the checkpoint.encode site, so the throw is deterministic. The
  // failed encode must leave the carry untouched — the SAME session
  // checkpoints after disarm and the blob resumes byte-exact.
  fault::disable();
  const QueryOptions options{.positions = true};
  const Engine engine(Pattern::compile("(ab)+"), {.threads = 2});
  StreamSession session = engine.stream(options);
  session.feed("xxababy ");
  std::vector<Match> collected = session.take_matches();
  fault::configure(31, 1.0);
  EXPECT_THROW((void)session.checkpoint(), fault::FaultInjected);
  EXPECT_EQ(fault::fire_count(), 1u);

  fault::disable();
  const std::string blob = session.checkpoint();
  StreamSession resumed = engine.resume_stream(blob, options);
  resumed.feed("abab");
  for (const Match& m : resumed.take_matches()) collected.push_back(m);
  EXPECT_EQ(collected, engine.find_all("xxababy abab"));
}

TEST_F(FaultInject, CheckpointDecodeSiteFiresAndTheBlobStaysGood) {
  fault::disable();
  const QueryOptions options{.positions = true};
  const Engine engine(Pattern::compile("a(b|c)*d"), {.threads = 2});
  StreamSession session = engine.stream(options);
  session.feed("zabbcd ab");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();

  fault::configure(32, 1.0);
  EXPECT_THROW((void)engine.resume_stream(blob, options), fault::FaultInjected);
  EXPECT_GT(fault::fire_count(), 0u);

  // The blob was only read, never consumed: the disarmed retry resumes.
  fault::disable();
  StreamSession resumed = engine.resume_stream(blob, options);
  EXPECT_EQ(resumed.bytes_consumed(), 9u);
}

TEST_F(FaultInject, CheckpointRoundTripSweepSurvivesAndRecovers) {
  // Seed sweep over the full round trip — encode, decode, and the feed
  // sites on both sides of the cut may all trip. Every outcome must be a
  // typed error or a correct resume; the disarmed rerun answers exactly.
  for (std::uint64_t seed = 400; seed < 408; ++seed) {
    fault::configure(seed, 0.05);
    const BeginMode mode =
        seed % 2 == 0 ? BeginMode::kSeparator : BeginMode::kExact;
    const QueryOptions options{.positions = true, .begin_mode = mode};
    survives([&] {
      const Engine engine(Pattern::compile("(ab|ba)+"), {.threads = 2});
      StreamSession session = engine.stream(options);
      try {
        session.feed("abba ab");
      } catch (const ValidationError&) {
        return;  // poisoned by an injected trip — cannot checkpoint
      }
      (void)session.take_matches();
      const std::string blob = session.checkpoint();
      StreamSession resumed = engine.resume_stream(blob, options);
      try {
        resumed.feed("ba abba");
      } catch (const ValidationError&) {
        return;
      }
      (void)resumed.take_matches();
    });
  }

  const fault::ScopedDisable clean;
  (void)clean;
  const Engine engine(Pattern::compile("(ab|ba)+"), {.threads = 2});
  StreamSession session = engine.stream({.positions = true});
  session.feed("abba ");
  std::vector<Match> collected = session.take_matches();
  StreamSession resumed = engine.resume_stream(session.checkpoint(),
                                               {.positions = true});
  resumed.feed("baab");
  for (const Match& m : resumed.take_matches()) collected.push_back(m);
  EXPECT_EQ(collected, engine.find_all("abba baab"));
}

TEST_F(FaultInject, ServerDrainSiteSurfacesATypedErrorAndTheDrainCompletes) {
  // The server.drain site fires inside the drain's checkpoint emission:
  // armed, the client gets an ERROR frame instead of a DRAINING blob — but
  // the terminal frame and the close still happen, so the drain never
  // wedges. Disarmed, the same sequence delivers a resumable checkpoint.
  namespace rd = rispard;
  for (const bool armed : {true, false}) {
    fault::disable();
    rd::ServerConfig config;
    config.drain_deadline_ms = 20000;
    rd::Server server({"ab"}, config);
    std::thread thread([&] { server.run(); });
    const int fd = rd::connect_backoff(server.port());
    ASSERT_GE(fd, 0);
    rd::FrameReader reader;
    rd::Frame frame;
    rd::send_all(fd, rd::make_open_session(7, 0, 0, 2));
    ASSERT_TRUE(rd::recv_frame(fd, reader, frame));
    ASSERT_EQ(frame.type, rd::FrameType::kOpened);
    rd::send_all(fd, rd::make_feed(7, "xabx"));
    do {
      ASSERT_TRUE(rd::recv_frame(fd, reader, frame));
    } while (frame.type == rd::FrameType::kMatches);
    ASSERT_EQ(frame.type, rd::FrameType::kFed);

    if (armed) fault::configure(41, 1.0);
    server.stop(true);

    ASSERT_TRUE(rd::recv_frame(fd, reader, frame)) << "armed=" << armed;
    if (armed) {
      ASSERT_EQ(frame.type, rd::FrameType::kError);
      rd::PayloadReader payload(frame.payload);
      EXPECT_EQ(payload.get_u32(), 7u);
      EXPECT_EQ(static_cast<rd::ErrorCode>(payload.get_u8()),
                rd::ErrorCode::kInternal);
      EXPECT_GT(fault::fire_count(), 0u);
    } else {
      ASSERT_EQ(frame.type, rd::FrameType::kDraining);
      rd::PayloadReader payload(frame.payload);
      EXPECT_EQ(payload.get_u32(), 7u);
      payload.get_u32();  // pattern id
      EXPECT_FALSE(payload.rest().empty());  // a real, resumable blob
    }
    fault::disable();
    // Either way the terminal DRAINING frame and the close follow.
    ASSERT_TRUE(rd::recv_frame(fd, reader, frame));
    ASSERT_EQ(frame.type, rd::FrameType::kDraining);
    {
      rd::PayloadReader payload(frame.payload);
      EXPECT_EQ(payload.get_u32(), rd::kNoSession);
    }
    EXPECT_FALSE(rd::recv_frame(fd, reader, frame));  // EOF
    ::close(fd);
    thread.join();
  }
}

TEST_F(FaultInject, SameSeedSameFireCount) {
  // Determinism anchor: the same seed over the same single-threaded draw
  // sequence fires identically — a failing sweep seed reproduces exactly.
  // (Pool-task draws interleave across workers, so the battery here stays
  // on the serial construction path: compile + searcher build only.)
  const auto one_run = [] {
    survives([] {
      const Pattern pattern = Pattern::compile("(a|b)*abb");
      const Engine engine(pattern, {.threads = 1});
      (void)engine.count("abb aabb babb", {.chunks = 1});
    });
    return fault::fire_count();
  };
  fault::configure(42, 0.5);
  const std::uint64_t first = one_run();
  fault::configure(42, 0.5);
  const std::uint64_t second = one_run();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace rispar
