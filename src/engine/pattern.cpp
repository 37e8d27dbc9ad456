#include "engine/pattern.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/nfa_ops.hpp"
#include "automata/searcher.hpp"
#include "automata/serialize.hpp"
#include "automata/subset.hpp"
#include "automata/timbuk.hpp"
#include "bundle/mapped_bundle.hpp"
#include "bundle/reader.hpp"
#include "bundle/writer.hpp"
#include "core/interface_min.hpp"
#include "regex/parser.hpp"
#include "util/lazy_slot.hpp"

namespace rispar {

namespace {

/// The SFA probe's outcome: the budget it ran under and, unless the SFA
/// exploded past it, the machine and its device.
struct SfaArtifacts {
  std::int32_t probe_budget = 0;
  std::optional<Sfa> sfa;
  std::optional<SfaDevice> device;  ///< refers to `sfa`, so built in place
};

/// The SFA slot's probe outcome, probing under `max_states` first if the
/// slot is empty. The one place sfa() and sfa_device() build it.
const SfaArtifacts& probed_sfa(const LazySlot<SfaArtifacts>& slot, const Dfa& min_dfa,
                               std::int32_t max_states) {
  return slot.get([&](std::optional<SfaArtifacts>& fill) {
    SfaArtifacts& artifacts = fill.emplace();
    artifacts.probe_budget = max_states;
    artifacts.sfa = try_build_sfa(min_dfa, max_states);
    if (artifacts.sfa.has_value()) artifacts.device.emplace(*artifacts.sfa, min_dfa);
  });
}

}  // namespace

struct Pattern::Compiled {
  /// First member so it is destroyed LAST: adopted packed views co-own the
  /// mapping independently, but keeping the declaration order honest makes
  /// the lifetime story local. nullptr unless loaded via from_bundle.
  std::shared_ptr<const bundle::MappedBundle> bundle;
  std::string source;          ///< regex (source_is_regex) or display name
  bool source_is_regex = false;
  Nfa nfa;
  Dfa min_dfa;
  Ridfa ridfa;
  PatternLimits limits;

  // Lazily built artifacts, shared by every copy of the Pattern. The slots
  // keep concurrent first uses safe and stay empty after a throwing build;
  // they live behind the shared_ptr, so their addresses are stable for the
  // devices that reference them.
  LazySlot<Dfa> searcher;
  LazySlot<ReverseBegins> reverse;
  LazySlot<SfaArtifacts> sfa;
};

namespace {

/// The tighter of the caller's and the pattern's own subset budget (0 =
/// none) — shared by the lazy searcher/reverse builds.
std::int32_t tighter_budget(std::int32_t own, std::int32_t requested) {
  std::int32_t budget = own;
  if (requested > 0 && (budget <= 0 || requested < budget)) budget = requested;
  return budget;
}

}  // namespace

Pattern::Pattern(std::shared_ptr<const Compiled> compiled)
    : compiled_(std::move(compiled)) {}

Pattern Pattern::compile(std::string_view regex, PatternLimits limits) {
  Pattern pattern = from_nfa(glushkov_nfa(parse_regex(std::string(regex))), limits);
  // Safe: the Compiled block has no other owner yet.
  auto& c = const_cast<Compiled&>(*pattern.compiled_);
  c.source = std::string(regex);
  c.source_is_regex = true;
  return pattern;
}

Pattern Pattern::from_nfa(Nfa nfa, PatternLimits limits, std::string_view source) {
  Nfa eps_free = nfa.has_epsilon() ? remove_epsilon(nfa) : std::move(nfa);
  Nfa trimmed = trim_unreachable(eps_free);
  Dfa min_dfa = minimize_dfa(determinize_bounded(trimmed, limits.max_subset_states));
  Ridfa ridfa = build_minimized_ridfa(trimmed);
  // Pre-warm the packed tables once, before any device or pool sees them.
  min_dfa.packed();
  ridfa.dfa().packed();
  auto compiled = std::make_shared<Compiled>();
  compiled->source = std::string(source);
  compiled->nfa = std::move(trimmed);
  compiled->min_dfa = std::move(min_dfa);
  compiled->ridfa = std::move(ridfa);
  compiled->limits = limits;
  return Pattern(std::move(compiled));
}

Pattern Pattern::from_timbuk(const std::string& text, PatternLimits limits) {
  return from_nfa(timbuk_from_string(text), limits);
}

std::string Pattern::serialize() const {
  std::ostringstream out;
  out << "# rispar compiled pattern (docs/api.md, 'Ahead-of-time compiled fleets')\n";
  out << "pattern 1\n";
  save_symbol_map(out, symbols());
  save_nfa(out, nfa());
  save_dfa(out, min_dfa());
  return out.str();
}

Pattern Pattern::deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    std::int32_t version = 0;
    fields >> kind >> version;
    if (kind != "pattern" || version != 1)
      throw std::runtime_error(
          "malformed pattern file: expected 'pattern 1' header, got '" + line + "'");
    saw_header = true;
    break;
  }
  if (!saw_header) throw std::runtime_error("malformed pattern file: missing header");

  const SymbolMap map = load_symbol_map(in);
  Nfa nfa = load_nfa(in, map);
  Dfa min_dfa = load_dfa(in, map);

  // The serialized NFA was ε-free and trimmed, but hand-edited bundles get
  // the same normalization a fresh compile would.
  Nfa eps_free = nfa.has_epsilon() ? remove_epsilon(nfa) : std::move(nfa);
  Nfa trimmed = trim_unreachable(eps_free);
  Ridfa ridfa = build_minimized_ridfa(trimmed);
  // Deliberately NO packed() pre-warm here: a fleet deserializing hundreds
  // of patterns should pay the pack on first use, not at load time (the
  // devices warm it in their constructors anyway). Same laziness as the
  // mmap'd bundle path, which never packs at all.
  auto compiled = std::make_shared<Compiled>();
  compiled->nfa = std::move(trimmed);
  compiled->min_dfa = std::move(min_dfa);
  compiled->ridfa = std::move(ridfa);
  return Pattern(std::move(compiled));
}

const Nfa& Pattern::nfa() const { return compiled_->nfa; }
const Dfa& Pattern::min_dfa() const { return compiled_->min_dfa; }
const Ridfa& Pattern::ridfa() const { return compiled_->ridfa; }
const SymbolMap& Pattern::symbols() const { return compiled_->nfa.symbols(); }

std::vector<Symbol> Pattern::translate(std::string_view text) const {
  return symbols().translate(text);
}

const Dfa& Pattern::searcher(std::int32_t max_subset_states) const {
  const Compiled& c = *compiled_;
  // A throw (ResourceExhausted, or an injected bad_alloc) leaves the slot
  // empty, so a later call may retry — possibly with a bigger budget.
  const std::int32_t budget =
      tighter_budget(c.limits.max_subset_states, max_subset_states);
  return c.searcher.get(
      [&](std::optional<Dfa>& slot) { slot.emplace(build_searcher_dfa(c.nfa, budget)); });
}

const ReverseBegins& Pattern::reverse_begins(std::int32_t max_subset_states) const {
  const Compiled& c = *compiled_;
  const std::int32_t budget =
      tighter_budget(c.limits.max_subset_states, max_subset_states);
  return c.reverse.get([&](std::optional<ReverseBegins>& slot) {
    slot.emplace(build_reverse_begins(c.nfa, budget));
  });
}

const Sfa* Pattern::sfa(std::int32_t max_states) const {
  const SfaArtifacts& artifacts = probed_sfa(compiled_->sfa, compiled_->min_dfa, max_states);
  return artifacts.sfa.has_value() ? &*artifacts.sfa : nullptr;
}

std::int32_t Pattern::sfa_probe_budget() const {
  const SfaArtifacts* artifacts = compiled_->sfa.peek();
  return artifacts != nullptr ? artifacts->probe_budget : 0;  // 0 = never probed
}

const PatternLimits& Pattern::limits() const { return compiled_->limits; }

const SfaDevice* Pattern::sfa_device(std::int32_t max_states) const {
  const SfaArtifacts& artifacts = probed_sfa(compiled_->sfa, compiled_->min_dfa, max_states);
  return artifacts.device.has_value() ? &*artifacts.device : nullptr;
}

// --- binary bundles ---

namespace {

/// Assembles the writer's view of one pattern, forcing the lazy artifacts
/// so the bundle ships the full family (an exploded SFA stays absent — the
/// mapped pattern keeps the same nullptr outcome lazily).
bundle::PatternSections sections_of(const Pattern& pattern) {
  bundle::PatternSections s;
  s.source = pattern.source();
  s.source_is_regex = pattern.source_is_regex();
  s.max_subset_states = pattern.limits().max_subset_states;
  s.nfa = &pattern.nfa();
  s.min_dfa = &pattern.min_dfa();
  s.ridfa = &pattern.ridfa();
  s.searcher = &pattern.searcher();
  s.sfa = pattern.sfa();
  s.sfa_probe_budget = pattern.sfa_probe_budget();
  return s;
}

std::vector<bundle::PatternSections> sections_of_all(
    std::span<const Pattern> patterns) {
  std::vector<bundle::PatternSections> sections;
  sections.reserve(patterns.size());
  for (const Pattern& pattern : patterns) sections.push_back(sections_of(pattern));
  return sections;
}

}  // namespace

void Pattern::save_bundle(const std::string& path) const {
  save_bundle_many(path, std::span<const Pattern>(this, 1));
}

void Pattern::save_bundle_many(const std::string& path,
                               std::span<const Pattern> patterns) {
  bundle::write_bundle_file(path, sections_of_all(patterns));
}

std::string Pattern::bundle_image(std::span<const Pattern> patterns) {
  return bundle::write_bundle(sections_of_all(patterns));
}

Pattern Pattern::from_bundle(std::shared_ptr<const bundle::MappedBundle> bundle,
                             std::uint32_t index) {
  bundle::LoadedPattern loaded = bundle::load_pattern(bundle, index);
  auto compiled = std::make_shared<Compiled>();
  compiled->bundle = std::move(bundle);
  compiled->source = std::move(loaded.source);
  compiled->source_is_regex = loaded.source_is_regex;
  compiled->limits.max_subset_states = loaded.max_subset_states;
  compiled->nfa = std::move(loaded.nfa);
  compiled->min_dfa = std::move(loaded.min_dfa);
  compiled->ridfa = std::move(loaded.ridfa);
  // Pre-seed the lazy artifacts the bundle shipped: filling the slots now
  // means searcher()/sfa() hand back the mapped machines instead of
  // rebuilding them. A bundle WITHOUT these sections leaves the slots
  // empty — the artifacts rebuild lazily, like a text-loaded pattern.
  if (loaded.searcher.has_value()) {
    compiled->searcher.get(
        [&](std::optional<Dfa>& slot) { slot = std::move(loaded.searcher); });
  }
  if (loaded.sfa.has_value()) {
    compiled->sfa.get([&](auto& slot) {
      SfaArtifacts& artifacts = slot.emplace();
      artifacts.probe_budget = loaded.sfa_probe_budget;
      artifacts.sfa = std::move(loaded.sfa);
      artifacts.device.emplace(*artifacts.sfa, compiled->min_dfa);
    });
  }
  return Pattern(std::move(compiled));
}

Pattern Pattern::load_mapped(const std::string& path, std::uint32_t index) {
  return from_bundle(bundle::MappedBundle::open(path), index);
}

const std::shared_ptr<const bundle::MappedBundle>& Pattern::mapped_bundle() const {
  return compiled_->bundle;
}

std::string_view Pattern::source() const { return compiled_->source; }
bool Pattern::source_is_regex() const { return compiled_->source_is_regex; }

std::size_t Pattern::approx_bytes() const {
  const Compiled& c = *compiled_;
  std::size_t bytes = sizeof(Compiled) + c.source.size();
  bytes += c.nfa.num_edges() * sizeof(NfaEdge) +
           static_cast<std::size_t>(c.nfa.num_states()) * 32;
  bytes += c.min_dfa.table().size() * sizeof(State);
  bytes += c.ridfa.dfa().table().size() * sizeof(State);
  for (State p = 0; p < c.ridfa.num_states(); ++p)
    bytes += c.ridfa.contents(p).size() * sizeof(State) + sizeof(std::vector<State>);
  bytes += static_cast<std::size_t>(c.ridfa.num_nfa_states()) * 2 * sizeof(State);
  // ×2 headroom stands in for the packed copies and the lazy artifacts —
  // deliberately NOT forcing packed()/searcher()/sfa() here (the cache must
  // be able to account for a pattern without materializing it).
  return bytes * 2;
}

}  // namespace rispar
