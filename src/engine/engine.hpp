// rispar::Engine — the single entry point of the query API.
//
// One Pattern compiles a language once; an Engine binds it to a thread
// pool and exposes every query shape the paper's tool supports through one
// options surface (QueryOptions) and one result type (QueryResult):
//
//   Engine engine(Pattern::compile("(ab|ba)*"));
//   engine.recognize("abba");                       // parallel yes/no
//   engine.count("..abba..abba..");                 // occurrences of p
//   auto session = engine.stream();                 // window-by-window
//   engine.match_all(texts);                        // many texts, one pool
//
// All entry points accept raw bytes (std::string_view). Neither the one-shot
// ones (recognize, count, find, find_all, match_all) nor stream feeds
// materialize symbols: the chunk kernels read each chunk's bytes through the
// map inside its pool task. span<const Symbol> overloads are for pre-translated input — callers
// that translate once and query many times (tests, the bench drivers). The
// four devices — DFA, NFA, RID, SFA — sit behind the polymorphic Device
// registry; options a device cannot honor raise QueryError instead of being
// silently ignored.
//
// Concurrency: read-only queries (recognize/count/find/find_all/match_all)
// are safe from concurrent threads on one shared Engine — the compiled
// machines are immutable (lazy builds fill a mutex-guarded slot) and the pool
// serializes external reach batches, so concurrent callers queue rather
// than corrupt each other (ConcurrentQueries smoke tests in
// tests/test_find_all.cpp). For reach-phase parallelism ACROSS queries,
// compile one Pattern and give each querying thread its own Engine.
// StreamSessions remain single-threaded: feed each session from one thread,
// in order.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "engine/pattern.hpp"
#include "parallel/thread_pool.hpp"

namespace rispar {

class StreamSession;
class CompileCache;

struct EngineConfig {
  /// Worker threads of the owned pool (0 = hardware concurrency).
  unsigned threads = 0;
  /// SFA construction budget for Variant::kSfa (mappings interned before
  /// giving up — the explosion guard, see core/sfa.hpp).
  std::int32_t sfa_budget = 1 << 16;
  /// Subset-construction budget for the lazily built Σ*p searcher that
  /// count()/find() use, ON TOP of the Pattern's own
  /// PatternLimits::max_subset_states (the tighter wins; 0 = just the
  /// pattern's). A blow-up regex trips ResourceExhausted("subset
  /// construction", ...) at the first count/find instead of consuming
  /// unbounded memory; the searcher stays unbuilt, so retrying through an
  /// Engine with a bigger budget still works.
  std::int32_t subset_budget = 0;
  /// Admission control of the owned pool: bound the external injection
  /// queue and pick the overload response (reject with ResourceExhausted,
  /// or block — see parallel/thread_pool.hpp). Default: unbounded.
  PoolAdmission admission{};
  /// Run on THIS pool instead of owning one. A multi-tenant fleet of
  /// Engines (one per pattern, the rispard serving catalog) shares one
  /// work-stealing pool this way — N tenants, hardware-many workers, one
  /// admission gate — instead of N× oversubscribed worker sets. When set,
  /// `threads` and `admission` are ignored (the shared pool was already
  /// built with its own); the pool must outlive every Engine holding it,
  /// which shared ownership guarantees.
  std::shared_ptr<ThreadPool> shared_pool{};
  /// Memoize Pattern compilation through THIS cache
  /// (engine/compile_cache.hpp). Consulted by the compile-from-source entry
  /// points that accept an EngineConfig — PatternSet::compile and rispard's
  /// build_catalog — so repeated sources (hot reloads, repeated manifest
  /// lines, unchanged .rpb bundles) are shared_ptr bumps instead of fresh
  /// subset constructions. nullptr = compile every time.
  std::shared_ptr<CompileCache> compile_cache{};
};

class Engine {
 public:
  explicit Engine(Pattern pattern, EngineConfig config = {});

  /// Not movable: StreamSessions and device references point into this
  /// object, and a moved-from Engine would leave them dangling. Engines
  /// are cheap to build from a shared Pattern — construct one where you
  /// need it (or heap-allocate for containers).
  Engine(Engine&&) = delete;
  Engine& operator=(Engine&&) = delete;

  const Pattern& pattern() const { return pattern_; }
  ThreadPool& pool() const { return *pool_; }

  /// The device answering for `variant`. kSfa is built lazily with the
  /// configured budget; throws QueryError when its construction explodes.
  const Device& device(Variant variant) const;
  /// Same, but nullptr instead of a throw for an unbuildable device.
  const Device* try_device(Variant variant) const;

  /// Whole-input parallel recognition with options.variant's device.
  QueryResult recognize(std::string_view text, const QueryOptions& options = {}) const;
  QueryResult recognize(std::span<const Symbol> input,
                        const QueryOptions& options = {}) const;

  /// Occurrences of the pattern in `text` (prefixes ending a match, overlaps
  /// counted) via the lazily built Σ*p searcher. Counting has exactly one
  /// deterministic device, so options.variant is not consulted; chunks and
  /// convergence are honored, anything else raises QueryError. Byte-level
  /// only: the searcher runs on its own all-bytes SymbolMap, NOT the
  /// pattern's, so symbols from translate() would be misinterpreted —
  /// callers holding pre-translated searcher symbols use
  /// count_matches(searcher(), ...) directly.
  QueryResult count(std::string_view text, const QueryOptions& options = {}) const;

  /// Positioned occurrences of the pattern in `text` (one Match per prefix
  /// ending an occurrence, overlaps counted — find(t).matches always equals
  /// count(t).matches, and Match semantics are documented in query.hpp).
  /// Runs the position-emitting parallel kernel over the same Σ*p searcher
  /// as count(): options.variant is not consulted; chunks, convergence,
  /// kernel and offset/limit paging are honored, anything else raises
  /// QueryError. Offsets in the returned Match records are byte offsets
  /// into `text`.
  QueryResult find(std::string_view text, const QueryOptions& options = {}) const;

  /// Convenience over find(): just the positions payload.
  std::vector<Match> find_all(std::string_view text,
                              const QueryOptions& options = {}) const;

  /// Opens a byte-level streaming session on options.variant's device: feed
  /// windows of any size, in order; the decision always equals one-shot
  /// recognition of the concatenation (property-tested). With
  /// options.positions the session is a STREAMING FIND: every feed also
  /// emits the pattern's occurrences incrementally with absolute byte
  /// offsets, equal to find_all of the concatenation under any window
  /// segmentation (fuzz-tested) — drain with take_matches() or a MatchSink
  /// feed. The session borrows this Engine — it must not outlive it.
  StreamSession stream(const QueryOptions& options = {}) const;

  /// Reopens a streaming session from a StreamSession::checkpoint() blob,
  /// continuing BYTE-EXACT from the checkpointed position: feeding the
  /// resumed session the remaining stream yields the same decision and the
  /// same match list as the uninterrupted session and the serial oracle
  /// (fuzz-tested, engine/checkpoint.hpp). `options` must request the same
  /// session shape the checkpoint was taken under — variant, positions,
  /// begin_mode — and the blob must belong to THIS pattern (validated via a
  /// content fingerprint); any mismatch, corruption or truncation throws
  /// ValidationError. Works across Engines and processes: only the pattern
  /// must match, not the Engine instance.
  StreamSession resume_stream(std::string_view blob,
                              const QueryOptions& options = {}) const;

  /// Batch recognition: every text recognized (bytes in) on the shared
  /// pool (texts in parallel, chunks within a text inline), one QueryResult
  /// per text in input order.
  std::vector<QueryResult> match_all(std::span<const std::string_view> texts,
                                     const QueryOptions& options = {}) const;

  /// The counting machine (see Pattern::searcher()), built under this
  /// Engine's subset_budget — throws ResourceExhausted when it trips.
  const Dfa& searcher() const { return pattern_.searcher(config_.subset_budget); }

  /// Translates byte text with the pattern's SymbolMap.
  std::vector<Symbol> translate(std::string_view text) const {
    return pattern_.translate(text);
  }

  /// Serial ground truth (minimal-DFA run from its initial state).
  bool accepts(std::span<const Symbol> input) const;
  /// The same over raw bytes, classed through the pattern's map as they
  /// are stepped (no symbol vector is built).
  bool accepts(std::string_view text) const;

 private:
  Pattern pattern_;
  EngineConfig config_;
  mutable std::shared_ptr<ThreadPool> pool_;  ///< owned, or config_.shared_pool
  DfaDevice dfa_device_;
  NfaDevice nfa_device_;
  RidDevice rid_device_;
};

/// A byte-level streaming session (texts larger than memory, fed window by
/// window). Between windows only the device's PLAS carry survives — plus,
/// on positions sessions, the searcher's one-state find carry — so the
/// footprint is one window plus O(|carry|) plus any undrained matches.
/// Obtained from Engine::stream(); not thread-safe — feed from one thread,
/// in order.
///
/// Streaming find (sessions opened with QueryOptions::positions): every
/// byte feed also advances the Σ*p searcher and emits Match records with
/// ABSOLUTE byte offsets into the concatenation of everything fed. Two
/// drain shapes:
///   * feed(bytes) then take_matches() — the session buffers the window's
///     matches until taken (unbounded if never drained — drain per window);
///   * feed(bytes, sink) — the sink sees each match as the window joins;
///     nothing accumulates in the session.
/// A match's begin may point into an EARLIER window: under the default
/// BeginMode::kSeparator it is the carried separator (a left BOUND, same
/// semantics as one-shot find — see Match in engine/query.hpp); under
/// BeginMode::kExact it is the true leftmost start, resolved through the
/// reverse DFA over the carried history tail (begins cross window
/// boundaries exactly). Callers that slice text around matches must retain
/// bytes accordingly. Symbol-span feeds cannot serve finding (the searcher
/// translates raw bytes with its own map) and REJECT on positions sessions.
///
/// Governance and poisoning: QueryOptions::{deadline, cancel} apply PER
/// FEED — each feed's governor starts at the feed call. A trip (or any
/// other failure escaping a feed) leaves the carry mid-window, so the
/// session is POISONED: further feeds throw ValidationError
/// deterministically until reset(). Matches already buffered remain
/// drainable through take_matches(), accepted()/dead()/the counters stay
/// readable (they describe the last consistent join), and destruction is
/// always clean. Precondition rejects (wrong feed shape for the session)
/// never poison — nothing ran.
class StreamSession {
 public:
  /// Consumes the next window (may be empty — a no-op). On positions
  /// sessions the window's matches are buffered for take_matches().
  void feed(std::string_view bytes);
  /// Consumes the next window, draining its matches through `sink` instead
  /// of buffering. QueryError unless the session was opened with positions.
  void feed(std::string_view bytes, const MatchSink& sink);
  /// Device-symbol window (callers that translate once). QueryError on a
  /// positions session — finding needs the raw bytes.
  void feed(std::span<const Symbol> window);

  /// Decision over everything fed so far (callable repeatedly; feed() may
  /// continue afterwards).
  bool accepted() const { return device_->stream_accepted(carry_); }

  /// True when no DECISION run survives — every extension is rejected too,
  /// so a caller that only wants the decision can stop reading early. The
  /// find side of a positions session never dies on byte input: matches
  /// keep flowing after the decision is dead (substring occurrences outlive
  /// whole-stream membership), so streaming-find callers keep feeding.
  bool dead() const { return !carry_.at_start && carry_.states.empty(); }

  /// Takes the matches buffered since the last take (positions sessions;
  /// QueryError otherwise). Ascending (end, begin); absolute byte offsets.
  std::vector<Match> take_matches();

  /// Total occurrences emitted so far (buffered + drained + taken).
  std::uint64_t matches() const { return carry_.find.matches; }
  /// Whether this session emits positions (opened with
  /// QueryOptions::positions).
  bool finds_positions() const { return options_.positions; }

  Variant variant() const { return device_->variant(); }
  std::uint64_t transitions() const { return carry_.transitions; }
  std::uint64_t windows() const { return carry_.windows; }
  /// Bytes consumed by the find side so far (positions sessions).
  std::uint64_t bytes_consumed() const { return carry_.find.consumed; }

  /// True once a feed failed part-way (deadline, cancellation, injected
  /// fault): the carry is mid-window and further feeds reject until
  /// reset(). See the class comment.
  bool poisoned() const { return poisoned_; }

  /// Serializes the session's full between-window state — decision carry,
  /// find carry, counters, the kExact history tail — into a versioned,
  /// checksummed blob for Engine::resume_stream (engine/checkpoint.hpp has
  /// the format). Callable between feeds, repeatedly; the session stays
  /// usable. Two rejects (ValidationError, nothing encoded): a POISONED
  /// session (its carry is mid-window — there is no consistent state to
  /// save) and UNDRAINED buffered matches (checkpoints never carry match
  /// payloads, so take_matches() first — resuming would otherwise silently
  /// drop them).
  std::string checkpoint() const;

  /// Forgets all input; the next feed() starts from the initial state again.
  /// Also clears poisoning — the session is reusable after a tripped feed.
  void reset() {
    carry_ = StreamCarry{};
    pending_.clear();
    poisoned_ = false;
  }

 private:
  friend class Engine;
  StreamSession(const Device& device, Pattern pattern, ThreadPool& pool,
                QueryOptions options)
      : device_(&device), pattern_(std::move(pattern)), pool_(&pool),
        options_(std::move(options)) {}

  /// Throws ValidationError when the session is poisoned (call before any
  /// feed runs — preconditions that reject BEFORE this never poison).
  void ensure_live() const;

  const Device* device_;
  Pattern pattern_;  ///< shared ownership keeps the automata alive
  ThreadPool* pool_;
  QueryOptions options_;
  StreamCarry carry_;
  std::vector<Match> pending_;  ///< buffered matches awaiting take_matches()
  bool poisoned_ = false;  ///< a feed failed mid-window; see class comment
};

}  // namespace rispar
