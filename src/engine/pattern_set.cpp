#include "engine/pattern_set.hpp"

#include <algorithm>
#include <utility>

#include "engine/checkpoint.hpp"
#include "engine/compile_cache.hpp"
#include "parallel/match_count.hpp"
#include "util/fault_inject.hpp"

namespace rispar {

namespace {

constexpr const char* kPatternSetContext =
    "PatternSet::find (the position-emitting counting kernel per pattern; "
    "it honors chunks, convergence, kernel, begin_mode and offset/limit)";

constexpr const char* kMultiStreamContext =
    "PatternSet::stream_find (the multi-pattern window-fed kernel; it "
    "honors chunks, convergence, kernel and begin_mode)";

/// Merges the N per-pattern scans of one text into one QueryResult:
/// positions ascending by (end, begin, pattern_id) — unique, since each
/// pattern emits at most one Match per end — then windowed by the caller's
/// offset/limit. Counts/transitions sum; the phase times and chunk count
/// report the maximum, because the scans overlap on the pool.
QueryResult merge_text(std::span<QueryResult> per_pattern, const QueryOptions& options) {
  QueryResult merged;
  std::size_t total = 0;
  for (QueryResult& r : per_pattern) {
    merged.transitions += r.transitions;
    merged.matches += r.matches;
    merged.died = merged.died || r.died;
    merged.chunks = std::max(merged.chunks, r.chunks);
    merged.reach_seconds = std::max(merged.reach_seconds, r.reach_seconds);
    merged.join_seconds = std::max(merged.join_seconds, r.join_seconds);
    total += r.positions.size();
  }
  merged.accepted = merged.matches > 0;
  merged.positions.reserve(total);
  for (QueryResult& r : per_pattern)
    merged.positions.insert(merged.positions.end(),
                            std::make_move_iterator(r.positions.begin()),
                            std::make_move_iterator(r.positions.end()));
  std::sort(merged.positions.begin(), merged.positions.end(),
            [](const Match& a, const Match& b) {
              if (a.end != b.end) return a.end < b.end;
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.pattern_id < b.pattern_id;
            });
  // Page the MERGED stream (the per-pattern kernels ran unpaged — a global
  // window cannot be cut per pattern).
  if (options.offset >= merged.positions.size()) {
    merged.positions.clear();
  } else if (options.offset > 0) {
    merged.positions.erase(merged.positions.begin(),
                           merged.positions.begin() +
                               static_cast<std::ptrdiff_t>(options.offset));
  }
  if (merged.positions.size() > options.limit)
    merged.positions.resize(options.limit);
  return merged;
}

}  // namespace

PatternSet::PatternSet(std::vector<Pattern> patterns, EngineConfig config)
    : patterns_(std::move(patterns)),
      pool_(std::make_unique<ThreadPool>(config.threads, config.admission)) {
  // Pre-warm every searcher (the expensive lazy artifact: determinize +
  // minimize over an all-bytes alphabet) in parallel, once, before any
  // query fans out — pool workers never pay a build mid-query and the
  // first concurrent callers contend on nothing.
  pool_->run(patterns_.size(), [&](std::size_t p) { patterns_[p].searcher(); });
}

PatternSet PatternSet::compile(std::span<const std::string_view> regexes,
                               EngineConfig config) {
  std::vector<Pattern> patterns;
  patterns.reserve(regexes.size());
  for (const std::string_view regex : regexes) {
    if (config.compile_cache != nullptr) {
      patterns.push_back(config.compile_cache->get_or_compile(
          CompileCache::regex_key(regex, 0),
          [&] { return Pattern::compile(regex); }));
    } else {
      patterns.push_back(Pattern::compile(regex));
    }
  }
  return PatternSet(std::move(patterns), config);
}

PatternSet PatternSet::compile(std::initializer_list<std::string_view> regexes,
                               EngineConfig config) {
  return compile(std::span<const std::string_view>(regexes.begin(), regexes.size()),
                 config);
}

QueryResult PatternSet::find(std::string_view text, const QueryOptions& options) const {
  const std::string_view one[]{text};
  return std::move(find_all(std::span<const std::string_view>(one), options).front());
}

std::vector<Match> PatternSet::find_all(std::string_view text,
                                        const QueryOptions& options) const {
  return std::move(find(text, options).positions);
}

std::vector<QueryResult> PatternSet::find_all(std::span<const std::string_view> texts,
                                              const QueryOptions& options) const {
  // Reject before any fan-out; the kernels re-validate the stripped copy.
  validate_query(options, kFindingCaps, kPatternSetContext);
  QueryOptions scan_options = options;
  scan_options.offset = 0;
  scan_options.limit = QueryOptions::kNoLimit;

  // One task per (text, pattern) pair on the shared pool; the per-scan
  // chunk runs nest inline (ThreadPool reentrancy), so pattern scans of
  // one text and scans of different texts all shard at the same level.
  // The one-pair case skips the outer fan-out entirely — a nested run()
  // would execute its chunk tasks inline on one thread, and a lone scan
  // should parallelize at chunk level instead (one pattern, one text is
  // exactly the Engine::find shape).
  // Governance is PER (text, pattern) SCAN: each task's find_matches builds
  // its own governor from the options, so the deadline budgets one scan.
  // The batch-level governor only paces admission blocking (kBlock).
  // Exact begins: force every pattern's lazy reverse artifact BEFORE the
  // fan-out, so pool tasks never contend on a build (same discipline as the
  // constructor's searcher pre-warm; cached after the first exact query).
  const bool exact = options.begin_mode == BeginMode::kExact;
  if (exact)
    for (const Pattern& pattern : patterns_) (void)pattern.reverse_begins();

  const QueryGovernor batch_governor(options.deadline, options.cancel);
  const std::size_t n = patterns_.size();
  std::vector<QueryResult> per_pair(texts.size() * n);
  const auto scan_pair = [&](std::size_t task) {
    const std::size_t t = task / n;
    const auto p = static_cast<std::uint32_t>(task % n);
    const Dfa& dfa = patterns_[p].searcher();
    per_pair[task] = find_matches(dfa, ByteSpan{texts[t], dfa.symbols()}, *pool_,
                                  scan_options, p, nullptr,
                                  exact ? &patterns_[p].reverse_begins() : nullptr);
  };
  if (per_pair.size() == 1)
    scan_pair(0);
  else
    pool_->run(per_pair.size(), scan_pair,
               batch_governor.active() ? &batch_governor : nullptr);

  std::vector<QueryResult> results;
  results.reserve(texts.size());
  for (std::size_t t = 0; t < texts.size(); ++t)
    results.push_back(
        merge_text(std::span<QueryResult>(per_pair).subspan(t * n, n), options));
  return results;
}

MultiStreamSession PatternSet::stream_find(const QueryOptions& options) const {
  return MultiStreamSession(patterns_, *pool_, options);
}

MultiStreamSession PatternSet::resume_stream(std::string_view blob,
                                             const QueryOptions& options) const {
  return MultiStreamSession(patterns_, *pool_, options, blob);
}

MultiStreamSession::MultiStreamSession(std::vector<Pattern> patterns,
                                       ThreadPool& pool, QueryOptions options)
    : pool_(&pool), options_(std::move(options)) {
  options_.positions = true;  // implied, like Engine::find — this IS finding
  validate_query(options_, kStreamFindingCaps, kMultiStreamContext);
  const bool exact = options_.begin_mode == BeginMode::kExact;
  states_.reserve(patterns.size());
  for (Pattern& pattern : patterns) {
    PatternState state{.pattern = std::move(pattern)};
    // Pay the lazy builds at open, never inside a feed (Engine::stream's
    // discipline) — a blow-up pattern trips ResourceExhausted here.
    (void)state.pattern.searcher();
    if (exact) state.reverse = &state.pattern.reverse_begins();
    states_.push_back(std::move(state));
  }
}

MultiStreamSession::MultiStreamSession(std::vector<Pattern> patterns,
                                       ThreadPool& pool, QueryOptions options,
                                       std::string_view checkpoint)
    : MultiStreamSession(std::move(patterns), pool, std::move(options)) {
  std::vector<Pattern> fleet;
  fleet.reserve(states_.size());
  for (const PatternState& state : states_) fleet.push_back(state.pattern);
  checkpoint::MultiImage image = checkpoint::decode_multi(
      checkpoint, states_.size(), options_, checkpoint::fleet_fingerprint(fleet));
  consumed_ = image.consumed;
  for (std::size_t p = 0; p < states_.size(); ++p)
    states_[p].carry = std::move(image.carries[p]);
}

std::string MultiStreamSession::checkpoint() const {
  if (poisoned_)
    throw ValidationError(
        "stream_find (checkpoint): session is poisoned — some pattern carries "
        "advanced past others, so there is no consistent state to save; "
        "reset() and refeed, or resume an earlier checkpoint");
  if (!pending_.empty())
    throw ValidationError(
        "stream_find (checkpoint): " + std::to_string(pending_.size()) +
        " buffered matches are undrained — take_matches() first; checkpoints "
        "never carry match payloads, so resuming would silently drop them");
  std::vector<const FindCarry*> carries;
  std::vector<Pattern> fleet;
  carries.reserve(states_.size());
  fleet.reserve(states_.size());
  for (const PatternState& state : states_) {
    carries.push_back(&state.carry);
    fleet.push_back(state.pattern);
  }
  return checkpoint::encode_multi(carries, consumed_, options_,
                                  checkpoint::fleet_fingerprint(fleet));
}

void MultiStreamSession::ensure_live() const {
  if (poisoned_)
    throw ValidationError(
        "stream_find (feed): session is poisoned — a previous feed failed "
        "mid-window (deadline, cancellation or fault), so some pattern "
        "carries advanced and others did not; reset() to reuse the session "
        "(take_matches() still drains what was buffered)");
}

void MultiStreamSession::feed(std::string_view bytes) {
  feed_merged(bytes, [this](const Match& match) { pending_.push_back(match); });
}

void MultiStreamSession::feed(std::string_view bytes, const MatchSink& sink) {
  feed_merged(bytes, sink);
}

void MultiStreamSession::feed_merged(std::string_view bytes, const MatchSink& sink) {
  ensure_live();
  try {
    // One governor per FEED, shared by all N pattern scans — the deadline
    // budgets the whole window, not each pattern separately.
    const QueryGovernor governor(options_.deadline, options_.cancel);
    const QueryGovernor* gov = governor.active() ? &governor : nullptr;

    // Fan one streaming-find task per pattern; each reads the window's raw
    // bytes through its own searcher map (no per-pattern translated copy)
    // and collects into a private buffer (the merge below needs the whole
    // window's matches per pattern, so sinks cannot stream through — and a
    // shared sink would race).
    std::vector<std::vector<Match>> buffers(states_.size());
    pool_->run(
        states_.size(),
        [&](std::size_t p) {
          PatternState& state = states_[p];
          const Dfa& searcher = state.pattern.searcher();
          stream_find_feed(
              searcher, state.carry, ByteSpan(bytes, searcher.symbols()), *pool_,
              options_,
              [&buffers, p](const Match& match) { buffers[p].push_back(match); },
              static_cast<std::uint32_t>(p), gov, state.reverse);
        },
        gov);
    consumed_ += bytes.size();

    // Merge, serialized per window: per-pattern buffers arrive ascending
    // (end, begin) already, so one sort by the global order is cheap and
    // deterministic (at most one match per (pattern, end) — no ties).
    fault::maybe_throw("mpstream.merge");
    std::vector<Match> merged;
    std::size_t total = 0;
    for (const std::vector<Match>& buffer : buffers) total += buffer.size();
    merged.reserve(total);
    for (std::vector<Match>& buffer : buffers)
      merged.insert(merged.end(), buffer.begin(), buffer.end());
    std::sort(merged.begin(), merged.end(), [](const Match& a, const Match& b) {
      if (a.end != b.end) return a.end < b.end;
      if (a.begin != b.begin) return a.begin < b.begin;
      return a.pattern_id < b.pattern_id;
    });
    for (const Match& match : merged) sink(match);
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

std::vector<Match> MultiStreamSession::take_matches() {
  std::vector<Match> taken = std::move(pending_);
  pending_.clear();
  return taken;
}

std::uint64_t MultiStreamSession::matches() const {
  std::uint64_t total = 0;
  for (const PatternState& state : states_) total += state.carry.matches;
  return total;
}

std::uint64_t MultiStreamSession::transitions() const {
  std::uint64_t total = 0;
  for (const PatternState& state : states_) total += state.carry.transitions;
  return total;
}

void MultiStreamSession::reset() {
  for (PatternState& state : states_) state.carry = FindCarry{};
  pending_.clear();
  consumed_ = 0;
  poisoned_ = false;
}

}  // namespace rispar
