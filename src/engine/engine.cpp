#include "engine/engine.hpp"

#include <string>

#include "engine/checkpoint.hpp"
#include "parallel/kernel_input.hpp"
#include "parallel/match_count.hpp"

namespace rispar {

Engine::Engine(Pattern pattern, EngineConfig config)
    : pattern_(std::move(pattern)),
      config_(config),
      pool_(config.shared_pool != nullptr
                ? config.shared_pool
                : std::make_shared<ThreadPool>(config.threads, config.admission)),
      dfa_device_(pattern_.min_dfa()),
      nfa_device_(pattern_.nfa()),
      rid_device_(pattern_.ridfa()) {}

const Device* Engine::try_device(Variant variant) const {
  switch (variant) {
    case Variant::kDfa: return &dfa_device_;
    case Variant::kNfa: return &nfa_device_;
    case Variant::kRid: return &rid_device_;
    case Variant::kSfa: return pattern_.sfa_device(config_.sfa_budget);
  }
  return nullptr;
}

const Device& Engine::device(Variant variant) const {
  const Device* found = try_device(variant);
  if (found == nullptr) {
    // The probe is cached per Pattern, so the effective budget may not be
    // this Engine's configured one — report the budget that actually ran.
    // (try_build_sfa gives up when the interned mappings pass the budget,
    // so the observed demand is at least limit + 1 — the explosion case
    // the paper reports.)
    const std::int32_t probed = pattern_.sfa_probe_budget();
    std::string resource =
        std::string(variant_name(variant)) + ": SFA construction";
    if (probed != config_.sfa_budget)
      resource += " (the shared Pattern was first probed with budget " +
                  std::to_string(probed) + ", so this Engine's sfa_budget of " +
                  std::to_string(config_.sfa_budget) + " was not applied)";
    throw ResourceExhausted(std::move(resource), probed,
                            static_cast<std::int64_t>(probed) + 1);
  }
  return *found;
}

QueryResult Engine::recognize(std::string_view text, const QueryOptions& options) const {
  // Bytes in: the device's chunk tasks read the text through the pattern's
  // map, so no symbol vector is built and the governor covers the whole call.
  return device(options.variant).recognize(ByteSpan{text, pattern_.symbols()}, *pool_,
                                           options);
}

QueryResult Engine::recognize(std::span<const Symbol> input,
                              const QueryOptions& options) const {
  return device(options.variant).recognize(input, *pool_, options);
}

QueryResult Engine::count(std::string_view text, const QueryOptions& options) const {
  // Reject up front — before paying the lazy searcher build (determinize +
  // minimize); count_matches re-validates.
  validate_query(options, kCountingCaps, kCountingContext);
  // The governor's clock starts BEFORE the lazy searcher build: the
  // deadline budgets the whole call, not just the kernel. The kernels read
  // the bytes through the searcher's map inside their chunk tasks.
  const QueryGovernor governor(options.deadline, options.cancel);
  const Dfa& dfa = searcher();
  governor.poll();
  return count_matches(dfa, ByteSpan{text, dfa.symbols()}, *pool_, options, &governor);
}

QueryResult Engine::find(std::string_view text, const QueryOptions& options) const {
  // Reject up front, like count() — before the lazy searcher build;
  // find_matches re-validates.
  validate_query(options, kFindingCaps, kFindingContext);
  const QueryGovernor governor(options.deadline, options.cancel);
  const Dfa& dfa = searcher();
  governor.poll();
  // Exact begins pay the lazy reverse-DFA build here, inside the same
  // deadline budget as the searcher (subsequent calls hit the cache).
  const ReverseBegins* reverse =
      options.begin_mode == BeginMode::kExact
          ? &pattern_.reverse_begins(config_.subset_budget)
          : nullptr;
  governor.poll();
  return find_matches(dfa, ByteSpan{text, dfa.symbols()}, *pool_, options,
                      /*pattern_id=*/0, &governor, reverse);
}

std::vector<Match> Engine::find_all(std::string_view text,
                                    const QueryOptions& options) const {
  return std::move(find(text, options).positions);
}

StreamSession Engine::stream(const QueryOptions& options) const {
  const Device& dev = device(options.variant);
  // Fail at session creation, not at the first feed (which re-validates).
  validate_query(options, dev.stream_capabilities(),
                 device_context("stream", options.variant));
  // Positions sessions pay the lazy searcher build here, at open — never
  // inside the first feed on the hot path (and under this Engine's
  // subset_budget, so a blow-up pattern trips ResourceExhausted at open).
  // Exact-begin sessions likewise pre-pay the reverse-DFA build.
  if (options.positions) (void)searcher();
  if (options.begin_mode == BeginMode::kExact)
    (void)pattern_.reverse_begins(config_.subset_budget);
  return StreamSession(dev, pattern_, *pool_, options);
}

StreamSession Engine::resume_stream(std::string_view blob,
                                    const QueryOptions& options) const {
  // Exactly stream()'s open-time discipline — validation and lazy-artifact
  // pre-pay happen BEFORE the blob is decoded, so a resume rejects for the
  // same reasons at the same point a fresh open would.
  const Device& dev = device(options.variant);
  validate_query(options, dev.stream_capabilities(),
                 device_context("resume_stream", options.variant));
  if (options.positions) (void)searcher();
  if (options.begin_mode == BeginMode::kExact)
    (void)pattern_.reverse_begins(config_.subset_budget);
  StreamSession session(dev, pattern_, *pool_, options);
  session.carry_ = checkpoint::decode_stream(
      blob, options.variant, options, checkpoint::pattern_fingerprint(pattern_));
  return session;
}

std::vector<QueryResult> Engine::match_all(std::span<const std::string_view> texts,
                                           const QueryOptions& options) const {
  const Device& dev = device(options.variant);
  // Fail before any text runs; per-text recognize re-validates.
  validate_query(options, dev.capabilities(),
                 device_context("match_all", options.variant));
  std::vector<QueryResult> results(texts.size());
  // One task per text; per-text chunk runs nest on the same pool and
  // execute inline (ThreadPool reentrancy), so the sharding unit is the
  // text — the right shape for many small-to-medium documents.
  //
  // Governance is PER TASK: each text's recognize builds its own governor,
  // so the deadline budgets one text, not the batch. The batch-level
  // governor below only paces admission blocking (OverloadPolicy::kBlock).
  const QueryGovernor batch_governor(options.deadline, options.cancel);
  pool_->run(texts.size(), [&](std::size_t i) {
    results[i] = dev.recognize(ByteSpan{texts[i], pattern_.symbols()}, *pool_, options);
  }, batch_governor.active() ? &batch_governor : nullptr);
  return results;
}

namespace {

/// The serial decision of `dfa` over either input, stepping it in place.
template <typename Input>
bool dfa_accepts(const Dfa& dfa, const Input& input) {
  State state = dfa.initial();
  for (std::size_t i = 0; i < input.size(); ++i) {
    const Symbol symbol = detail::symbol_at(input, i);
    if (symbol < 0 || symbol >= dfa.num_symbols()) return false;
    state = dfa.step(state, symbol);
    if (state == kDeadState) return false;
  }
  return dfa.is_final(state);
}

}  // namespace

bool Engine::accepts(std::span<const Symbol> input) const {
  return dfa_accepts(pattern_.min_dfa(), input);
}

bool Engine::accepts(std::string_view text) const {
  // Bytes in: each byte is classed through the pattern's map as it is
  // stepped, so no symbol vector is built.
  return dfa_accepts(pattern_.min_dfa(), ByteSpan{text, pattern_.symbols()});
}

void StreamSession::ensure_live() const {
  if (poisoned_)
    throw ValidationError(
        "stream (feed): session is poisoned — a previous feed failed "
        "mid-window (deadline, cancellation or fault), so the carry is "
        "inconsistent; reset() to reuse the session (take_matches() still "
        "drains what was buffered)");
}

void StreamSession::feed(std::string_view bytes) {
  if (!options_.positions) {
    ensure_live();
    try {
      device_->stream_feed(carry_, ByteSpan(bytes, pattern_.symbols()), *pool_, options_);
    } catch (...) {
      poisoned_ = true;
      throw;
    }
    return;
  }
  feed(bytes, [this](const Match& match) { pending_.push_back(match); });
}

void StreamSession::feed(std::string_view bytes, const MatchSink& sink) {
  // Shape precondition first: rejecting here never poisons — nothing ran.
  if (!options_.positions)
    throw ValidationError(
        "stream (match drain): this session was not opened with positions — "
        "set QueryOptions::positions at Engine::stream to request streaming "
        "find");
  ensure_live();
  try {
    // The decision and the find side read the same bytes in place through
    // two maps: the pattern's classes for the device carry, the searcher's
    // all-bytes map for position emission. A dead decision only counts the
    // window; the find side still scans.
    const ReverseBegins* reverse = options_.begin_mode == BeginMode::kExact
                                       ? &pattern_.reverse_begins()
                                       : nullptr;
    const StreamFindWindow find{pattern_.searcher(), sink, /*pattern_id=*/0, reverse};
    device_->stream_feed(carry_, ByteSpan(bytes, pattern_.symbols()), *pool_, options_,
                         &find);
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

void StreamSession::feed(std::span<const Symbol> window) {
  if (options_.positions)
    throw ValidationError(
        "stream (positions): symbol-span windows cannot serve streaming find "
        "— the searcher translates raw bytes with its own map; feed "
        "string_view windows (or open the session without positions)");
  ensure_live();
  try {
    device_->stream_feed(carry_, window, *pool_, options_);
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

std::string StreamSession::checkpoint() const {
  if (poisoned_)
    throw ValidationError(
        "stream (checkpoint): session is poisoned — a previous feed failed "
        "mid-window, so there is no consistent carry to save; reset() and "
        "refeed, or resume an earlier checkpoint");
  if (!pending_.empty())
    throw ValidationError(
        "stream (checkpoint): " + std::to_string(pending_.size()) +
        " buffered matches are undrained — take_matches() first; checkpoints "
        "never carry match payloads, so resuming would silently drop them");
  return checkpoint::encode_stream(carry_, device_->variant(), options_,
                                   checkpoint::pattern_fingerprint(pattern_));
}

std::vector<Match> StreamSession::take_matches() {
  if (!options_.positions)
    throw ValidationError(
        "stream (take_matches): this session was not opened with positions — "
        "set QueryOptions::positions at Engine::stream to request streaming "
        "find");
  std::vector<Match> taken = std::move(pending_);
  pending_.clear();
  return taken;
}

}  // namespace rispar
