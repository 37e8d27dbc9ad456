// PatternSet — N compiled patterns, one pool, one pass over the text.
//
// The production scanners the paper motivates (grep over a ruleset, log
// triage, DPI signature sets) rarely serve a single regex: they hold a
// fleet of compiled patterns and answer "which patterns match this text,
// and where" for every document that arrives. PatternSet is that
// dispatcher, built on the same query vocabulary as Engine:
//
//   PatternSet set = PatternSet::compile({"ERROR", "timeout", "oom-kill"});
//   for (const Match& m : set.find_all(log_line))        // tagged by pattern_id
//     report(set.pattern(m.pattern_id), m.begin, m.end);
//   auto reports = set.find_all(documents);              // text × pattern fan-out
//
// Every pattern compiles once (searchers pre-warmed in parallel at
// construction); queries fan out text×pattern tasks over ONE shared
// ThreadPool — the per-pattern chunk runs nest inline on the same pool
// (ThreadPool reentrancy), so the sharding unit is the (text, pattern)
// pair. Results merge per text into one ascending (end, begin, pattern_id)
// stream of Match records; QueryOptions::offset/limit page the MERGED
// stream, the way a server caps a response, while `matches` still reports
// the total across all patterns.
//
// Concurrency: like Engine, a PatternSet is safe for concurrent read-only
// callers — the compiled machines are immutable and the pool serializes
// external batches (queries from different threads queue; each still runs
// with full parallelism).
#pragma once

#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "engine/pattern.hpp"
#include "parallel/match_count.hpp"
#include "parallel/thread_pool.hpp"

namespace rispar {

class MultiStreamSession;

class PatternSet {
 public:
  /// Takes ownership of already-compiled patterns (shared-ownership copies
  /// are cheap — the same Pattern may live in an Engine too). Pattern ids
  /// in emitted Match records are indices into this vector. Searchers are
  /// pre-warmed in parallel on the owned pool. Of EngineConfig `threads`
  /// and `admission` apply (the owned pool); finding runs the one
  /// deterministic searcher per pattern, so there is no SFA and
  /// `sfa_budget` has nothing to govern, and the patterns arrive already
  /// compiled so `subset_budget` does not either (set
  /// PatternLimits::max_subset_states at compile time instead).
  explicit PatternSet(std::vector<Pattern> patterns, EngineConfig config = {});

  /// Compiles one regex per entry. Throws RegexError on the first bad one.
  static PatternSet compile(std::span<const std::string_view> regexes,
                            EngineConfig config = {});
  static PatternSet compile(std::initializer_list<std::string_view> regexes,
                            EngineConfig config = {});

  /// Not movable, like Engine: the pool is referenced by in-flight queries.
  PatternSet(PatternSet&&) = delete;
  PatternSet& operator=(PatternSet&&) = delete;

  std::size_t size() const { return patterns_.size(); }
  const Pattern& pattern(std::size_t id) const { return patterns_[id]; }
  ThreadPool& pool() const { return *pool_; }

  /// Positioned occurrences of EVERY pattern in `text`, merged ascending by
  /// (end, begin, pattern_id) and windowed by options.offset/limit;
  /// `matches` totals all patterns' occurrences (equal to the sum of N
  /// independent Engine::find runs, property-tested). Honors chunks,
  /// convergence, kernel and paging; anything else raises QueryError.
  /// `transitions`/`matches` sum over the patterns' scans; `reach_seconds`/
  /// `join_seconds`/`chunks` report the maximum, since the scans overlap on
  /// the pool. `died` is true when any pattern's consistent run died.
  QueryResult find(std::string_view text, const QueryOptions& options = {}) const;

  /// Convenience over find(): just the merged positions payload.
  std::vector<Match> find_all(std::string_view text,
                              const QueryOptions& options = {}) const;

  /// Batch serving: every (text, pattern) pair is one pool task, one merged
  /// QueryResult per text in input order — match_all-shaped, but positioned
  /// and tagged.
  std::vector<QueryResult> find_all(std::span<const std::string_view> texts,
                                    const QueryOptions& options = {}) const;

  /// Opens a multi-pattern streaming-find session: ONE byte feed advances
  /// every pattern's searcher carry and emits the merged tagged match
  /// stream (see MultiStreamSession). Honors chunks, convergence, kernel
  /// and begin_mode; anything else raises QueryError at open. The session
  /// borrows this set's pool — it must not outlive the PatternSet.
  MultiStreamSession stream_find(const QueryOptions& options = {}) const;

  /// Reopens a multi-pattern session from a MultiStreamSession::checkpoint()
  /// blob, continuing byte-exact (the Engine::resume_stream analogue —
  /// engine/checkpoint.hpp). The blob must have been taken against the SAME
  /// fleet in the SAME order (validated via a combined content fingerprint)
  /// and `options` must request the same shape; any mismatch, corruption or
  /// truncation throws ValidationError.
  MultiStreamSession resume_stream(std::string_view blob,
                                   const QueryOptions& options = {}) const;

 private:
  std::vector<Pattern> patterns_;
  std::unique_ptr<ThreadPool> pool_;
};

/// N patterns, one byte stream, one merged match stream — the streaming
/// face of PatternSet::find_all (and of the rispard multi-pattern sessions
/// built directly from a serving catalog). Each feed fans one
/// stream_find_feed task per pattern over the shared pool (per-pattern
/// chunk runs nest inline — ThreadPool reentrancy), then merges the
/// window's matches ascending by (end, begin, pattern_id) — feeding a text
/// in any segmentation emits exactly the merged one-shot find_all list,
/// which in turn equals N independent single-pattern sessions
/// (fuzz-tested). Offsets are absolute byte offsets into the concatenation
/// of everything fed; Match::pattern_id indexes the construction vector.
///
/// Begin modes follow QueryOptions::begin_mode exactly like StreamSession:
/// kSeparator carries per-pattern last separators, kExact additionally
/// holds each pattern's reverse-DFA artifact and history tail (built and
/// pre-warmed at open).
///
/// Governance and poisoning mirror StreamSession: deadline/cancel apply PER
/// FEED (one governor covers all N pattern scans of the window); a feed
/// that fails part-way (deadline, cancellation, injected fault) leaves
/// SOME patterns advanced and others not, so the session POISONS — further
/// feeds throw ValidationError until reset(). Matches already buffered stay
/// drainable; counters describe the last consistent merge. Not
/// thread-safe: feed from one thread, in order.
class MultiStreamSession {
 public:
  /// Validates `options` against the streaming-find capability set (throws
  /// QueryError), pre-warms every searcher — and, under begin_mode=kExact,
  /// every reverse artifact — at open, never inside a feed. The pool must
  /// outlive the session (PatternSet::stream_find guarantees it; direct
  /// construction — the rispard catalog path — makes the caller
  /// responsible).
  MultiStreamSession(std::vector<Pattern> patterns, ThreadPool& pool,
                     QueryOptions options);

  /// Resume form: opens exactly like the plain constructor, then installs
  /// the carries decoded from `checkpoint` (a MultiStreamSession::
  /// checkpoint() blob taken against the same fleet in the same order).
  /// ValidationError on any mismatch, corruption or truncation — the
  /// session is never half-resumed. rispard's RESUME_SESSION path for
  /// multi-pattern sessions; PatternSet::resume_stream is the convenience.
  MultiStreamSession(std::vector<Pattern> patterns, ThreadPool& pool,
                     QueryOptions options, std::string_view checkpoint);

  /// Consumes the next window, buffering the merged matches for
  /// take_matches(). Empty windows are no-ops.
  void feed(std::string_view bytes);
  /// Consumes the next window, draining the merged matches through `sink`
  /// in (end, begin, pattern_id) order instead of buffering.
  void feed(std::string_view bytes, const MatchSink& sink);

  /// Takes the matches buffered since the last take; ascending
  /// (end, begin, pattern_id), absolute byte offsets.
  std::vector<Match> take_matches();

  /// Total occurrences emitted so far, summed over all patterns.
  std::uint64_t matches() const;
  /// True when any pattern matched anywhere in the stream — the CLOSED
  /// accounting of a server session.
  bool accepted() const { return matches() > 0; }
  std::uint64_t bytes_consumed() const { return consumed_; }
  /// Searcher transitions executed so far, summed over all patterns.
  std::uint64_t transitions() const;
  std::size_t patterns() const { return states_.size(); }
  const Pattern& pattern(std::size_t id) const { return states_[id].pattern; }

  /// True once a feed failed part-way; see the class comment.
  bool poisoned() const { return poisoned_; }

  /// Serializes every pattern's carry plus the shared byte count into a
  /// versioned, checksummed blob for the resume constructor /
  /// PatternSet::resume_stream. Same contract as StreamSession::
  /// checkpoint(): callable between feeds, rejects (ValidationError) on a
  /// poisoned session and on undrained buffered matches — take_matches()
  /// first.
  std::string checkpoint() const;

  /// Forgets all input; the next feed() starts every pattern from its
  /// initial state again. Also clears poisoning.
  void reset();

 private:
  struct PatternState {
    Pattern pattern;
    /// The pattern's cached reverse artifact under kExact (address stable —
    /// it lives in the shared Compiled block); nullptr under kSeparator.
    const ReverseBegins* reverse = nullptr;
    FindCarry carry{};
  };

  void feed_merged(std::string_view bytes, const MatchSink& sink);
  void ensure_live() const;

  std::vector<PatternState> states_;
  ThreadPool* pool_;
  QueryOptions options_;
  std::uint64_t consumed_ = 0;
  std::vector<Match> pending_;  ///< buffered matches awaiting take_matches()
  bool poisoned_ = false;
};

}  // namespace rispar
