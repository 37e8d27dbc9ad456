// Byte input of the chunk kernels (ByteSpan, parallel/kernel_input.hpp):
// every one-shot entry point feeds raw bytes to the kernels, which class
// them through the SymbolMap inside the chunk tasks. The byte path must be
// indistinguishable from translating first and running the symbol-span
// path — same λ, distinct_ends and transitions per chunk run, same start
// sets from chunk_starts, same decisions, matches, begins, deaths and
// transitions end to end:
//  * chunk level — run_chunk_det under every kernel × convergence × table
//    width (u8/u16/i32) × start-set size (1, 2–7, ≥8), including an adopted
//    table; the find/count chunk runs through find_matches/count_matches on
//    DFAs whose chunks keep 1, a few or many starts; chunk_starts at many
//    boundaries;
//  * alien bytes at offset 0, mid-chunk, on the last byte, exactly on a
//    chunk boundary and inside a lookback window (plus a byte the map knows
//    but the table's alphabet does not);
//  * engine level — recognize/match_all/find/count on a string_view against
//    the span path under all four variants, chunks ∈ {1, 3, 16, > length},
//    both begin modes, convergence on and off, and a load_mapped pattern.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <unistd.h>
#include <vector>

#include "automata/packed_table.hpp"
#include "engine/engine.hpp"
#include "parallel/ca_run.hpp"
#include "parallel/chunking.hpp"
#include "parallel/match_count.hpp"
#include "util/prng.hpp"

namespace rispar {
namespace {

constexpr DetKernel kKernels[] = {DetKernel::kFused, DetKernel::kReference};
constexpr Variant kVariants[] = {Variant::kDfa, Variant::kNfa, Variant::kRid,
                                 Variant::kSfa};

/// A DFA over the identity alphabet 'a', 'b', 'c' (symbols 0..2): with
/// `permute` every symbol permutes the states (runs never die or merge);
/// otherwise targets are random and a transition is dead with probability
/// 1/`dead_one_in` (0 = never). Every fourth state is final.
Dfa random_dfa(Prng& prng, std::int32_t num_states, bool permute,
               std::size_t dead_one_in = 0) {
  Dfa dfa = Dfa::with_identity_alphabet(3);
  for (std::int32_t s = 0; s < num_states; ++s) dfa.add_state();
  // Finals after the states: add_state re-copies the final set every call.
  for (State s = 3; s < num_states; s += 4) dfa.set_final(s);
  dfa.set_initial(0);
  for (Symbol a = 0; a < 3; ++a) {
    std::vector<State> target(static_cast<std::size_t>(num_states));
    std::iota(target.begin(), target.end(), State{0});
    for (std::size_t i = target.size(); i > 1; --i)
      std::swap(target[i - 1], target[prng.pick_index(i)]);
    for (State s = 0; s < num_states; ++s) {
      if (dead_one_in != 0 && prng.pick_index(dead_one_in) == 0) continue;
      const State to = permute ? target[static_cast<std::size_t>(s)]
                               : static_cast<State>(prng.pick_index(
                                     static_cast<std::size_t>(num_states)));
      dfa.set_transition(s, a, to);
    }
  }
  return dfa;
}

/// Random text over "abc" with each `alien` byte written at its offset.
std::string random_text(Prng& prng, std::size_t length,
                        const std::vector<std::pair<std::size_t, char>>& aliens = {}) {
  std::string text(length, 'a');
  for (char& ch : text) ch = "abc"[prng.pick_index(3)];
  for (const auto& [at, byte] : aliens)
    if (at < text.size()) text[at] = byte;
  return text;
}

/// The alien placements of the chunk-level sweeps, for a text of `length`.
std::vector<std::vector<std::pair<std::size_t, char>>> alien_cases(std::size_t length) {
  return {{},
          {{0, 'z'}},
          {{length / 2, '\0'}},
          {{length - 1, '\xff'}},
          {{length / 3, 'd'}}};  // 'd': known to identity(4), not to the table
}

std::vector<State> first_states(std::int32_t num_states, std::size_t count) {
  std::vector<State> starts;
  for (std::size_t i = 0; i < count && i < static_cast<std::size_t>(num_states); ++i)
    starts.push_back(
        static_cast<State>((i * 7919) % static_cast<std::size_t>(num_states)));
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  return starts;
}

void expect_same(const DetChunkResult& bytes, const DetChunkResult& symbols,
                 const std::string& what) {
  EXPECT_EQ(bytes.lambda, symbols.lambda) << what;
  EXPECT_EQ(bytes.distinct_ends, symbols.distinct_ends) << what;
  EXPECT_EQ(bytes.transitions, symbols.transitions) << what;
}

/// run_chunk_det on bytes vs on their translation, every kernel ×
/// convergence × start-set size × alien placement.
void sweep_det_chunk(const Dfa& dfa, Prng& prng, const std::string& label) {
  const SymbolMap wide = SymbolMap::identity(4);  // 'd' maps past the table
  for (const std::size_t count : {1u, 4u, 12u, 64u}) {
    const std::vector<State> starts = first_states(dfa.num_states(), count);
    for (const auto& aliens : alien_cases(1100)) {
      const std::string text = random_text(prng, 1100, aliens);
      const std::vector<Symbol> symbols = wide.translate(text);
      for (const DetKernel kernel : kKernels) {
        for (const bool convergence : {false, true}) {
          const DetChunkOptions options{.convergence = convergence, .kernel = kernel};
          const std::string what = label + " starts=" + std::to_string(starts.size()) +
                                   " " + kernel_name(kernel) +
                                   " conv=" + std::to_string(convergence) +
                                   " aliens=" + std::to_string(aliens.size());
          expect_same(run_chunk_det(dfa, ByteSpan{text, wide}, starts, options),
                      run_chunk_det(dfa, symbols, starts, options), what);
        }
      }
    }
  }
}

TEST(ByteInput, DetChunkEqualsTranslatedSpanAtEveryWidth) {
  Prng prng(0xb17e5);
  struct Shape {
    std::int32_t states;
    TableWidth width;
  };
  for (const Shape shape : {Shape{40, TableWidth::kU8}, Shape{300, TableWidth::kU16},
                            Shape{70000, TableWidth::kI32}}) {
    for (const bool permute : {true, false}) {
      const Dfa dfa = random_dfa(prng, shape.states, permute, permute ? 0 : 500);
      ASSERT_EQ(dfa.packed().width(), shape.width);
      sweep_det_chunk(dfa, prng,
                      "n=" + std::to_string(shape.states) +
                          (permute ? " permuting" : " random"));
    }
  }
}

TEST(ByteInput, DetChunkOnAnAdoptedTable) {
  Prng prng(0xad0b7);
  for (const std::int32_t states : {40, 300}) {
    const Dfa built = random_dfa(prng, states, /*permute=*/true);
    // Adopt a copy of the packed entries in place, as the bundle loader
    // does: the dead column must come with the adopted view.
    const auto owner = std::make_shared<const PackedTable>(built.packed());
    const void* entries = owner->width() == TableWidth::kU8
                              ? static_cast<const void*>(owner->data<std::uint8_t>())
                              : static_cast<const void*>(owner->data<std::uint16_t>());
    Dfa adopted = built;
    adopted.adopt_packed(std::make_shared<const PackedTable>(PackedTable::adopt(
        owner->width(), owner->num_states(), owner->num_symbols(), entries, owner)));
    ASSERT_TRUE(adopted.packed().adopted());
    sweep_det_chunk(adopted, prng, "adopted n=" + std::to_string(states));
  }
}

/// find_matches/count_matches on bytes vs on their translation.
void expect_same_find(const Dfa& dfa, const std::string& text, ThreadPool& pool,
                      const QueryOptions& options, const std::string& what,
                      const ReverseBegins* reverse = nullptr) {
  const std::vector<Symbol> symbols = dfa.symbols().translate(text);
  const ByteSpan bytes_in{text, dfa.symbols()};
  const QueryResult bytes =
      find_matches(dfa, bytes_in, pool, options, 0, nullptr, reverse);
  const QueryResult spans =
      find_matches(dfa, symbols, pool, options, 0, nullptr, reverse);
  EXPECT_EQ(bytes.positions, spans.positions) << what;
  EXPECT_EQ(bytes.matches, spans.matches) << what;
  EXPECT_EQ(bytes.died, spans.died) << what;
  EXPECT_EQ(bytes.transitions, spans.transitions) << what;
  EXPECT_EQ(bytes.chunks, spans.chunks) << what;
  if (options.begin_mode != BeginMode::kSeparator || options.kernel != DetKernel::kFused)
    return;  // counting runs the default kernel and separator begins only
  QueryOptions count_options;
  count_options.chunks = options.chunks;
  count_options.convergence = options.convergence;
  const QueryResult counted = count_matches(dfa, bytes_in, pool, count_options);
  const QueryResult counted_spans = count_matches(dfa, symbols, pool, count_options);
  EXPECT_EQ(counted.matches, counted_spans.matches) << what;
  EXPECT_EQ(counted.died, counted_spans.died) << what;
  EXPECT_EQ(counted.transitions, counted_spans.transitions) << what;
}

TEST(ByteInput, FindAndCountChunkRunsEqualTranslatedSpans) {
  // Chunks that keep one start (a collapsing searcher: scan_chunk), a few
  // (a 4-state permutation: the lockstep find kernel), or many (40/300
  // permuting states: the lockstep over many lanes; a random 70000-
  // state machine at i32 width, kept short — its chunks start from
  // thousands of states). Alien bytes on a chunk boundary and inside the
  // lookback window before another one kill the true run mid-text.
  Prng prng(0xf1d);
  ThreadPool pool(3);
  const Pattern pattern = Pattern::compile("ab[abc]c|ca");
  struct Machine {
    const Dfa* dfa;
    std::string label;
    std::size_t length;
    std::vector<std::size_t> chunk_counts;
    bool boundary_aliens_only = false;
  };
  const Dfa four = random_dfa(prng, 4, true);
  const Dfa forty = random_dfa(prng, 40, true);
  const Dfa wide = random_dfa(prng, 300, true);
  const Dfa huge = random_dfa(prng, 70000, false);
  const std::vector<std::size_t> all_counts = {1, 3, 16};
  const std::vector<Machine> machines = {
      {&pattern.searcher(), "searcher", 1500, all_counts},
      {&four, "perm4", 1500, all_counts},
      {&forty, "perm40", 1500, all_counts},
      {&wide, "perm300", 1500, all_counts},
      {&huge, "random70000", 400, {3}, true}};
  for (const Machine& machine : machines) {
    for (const std::size_t chunks : machine.chunk_counts) {
      const std::vector<ChunkSpan> spans = split_chunks(machine.length, chunks);
      const std::size_t boundary = spans.back().begin;
      std::vector<std::vector<std::pair<std::size_t, char>>> placements;
      if (!machine.boundary_aliens_only)
        placements = {{}, {{0, 'z'}}, {{machine.length - 1, 'z'}}};
      if (boundary > 0) {
        placements.push_back({{boundary, '\xfe'}});  // exactly on the boundary
        if (boundary > 8) placements.push_back({{boundary - 5, 'z'}});  // in the probe
      }
      for (const auto& aliens : placements) {
        const std::string text = random_text(prng, machine.length, aliens);
        for (const DetKernel kernel : kKernels) {
          for (const bool convergence : {false, true}) {
            const QueryOptions options{
                .chunks = chunks, .convergence = convergence, .kernel = kernel};
            expect_same_find(*machine.dfa, text, pool, options,
                             machine.label + " c=" + std::to_string(chunks) + " " +
                                 kernel_name(kernel) +
                                 " conv=" + std::to_string(convergence) +
                                 " aliens=" + std::to_string(aliens.size()));
          }
        }
      }
    }
  }
}

TEST(ByteInput, ChunkStartsEqualTranslatedSpans) {
  Prng prng(0xc4a5);
  const Pattern pattern = Pattern::compile("a(b|c)*a|bb");
  const Dfa four = random_dfa(prng, 4, true);
  const Dfa forty = random_dfa(prng, 40, true);
  const Dfa partial = random_dfa(prng, 40, false, 60);
  for (const Dfa* dfa : {&pattern.searcher(), &four, &forty, &partial}) {
    const std::size_t length = 2000;
    const std::string text =
        random_text(prng, length, {{700, 'z'}, {1500 - 3, '\0'}});  // aliens in windows
    const std::vector<Symbol> symbols = dfa->symbols().translate(text);
    const ByteSpan bytes{text, dfa->symbols()};
    for (const std::size_t boundary : {0u, 1u, 15u, 16u, 17u, 64u, 703u, 1000u, 1500u}) {
      for (const std::size_t chunk_length : {8u, 200u, 1000u}) {
        for (const bool convergence : {false, true}) {
          std::uint64_t byte_steps = 0;
          std::uint64_t span_steps = 0;
          const State first = dfa->initial();
          const std::vector<State> from_bytes = chunk_starts(
              *dfa, bytes, boundary, chunk_length, first, convergence, byte_steps);
          const std::vector<State> from_spans = chunk_starts(
              *dfa, symbols, boundary, chunk_length, first, convergence, span_steps);
          EXPECT_EQ(from_bytes, from_spans)
              << "boundary=" << boundary << " length=" << chunk_length;
          EXPECT_EQ(byte_steps, span_steps) << "boundary=" << boundary;
        }
      }
    }
  }
}

// --------------------------------------------------------------- engine level

/// The option sets a device honors, over the engine-level chunk counts.
std::vector<QueryOptions> recognize_options(const Engine& engine, Variant variant,
                                            std::size_t length) {
  const DeviceCaps caps = engine.device(variant).capabilities();
  std::vector<QueryOptions> all;
  for (const std::size_t chunks : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                                   length + 7}) {
    for (const DetKernel kernel : kKernels) {
      if (kernel != DetKernel::kFused && !caps.kernel_select) continue;
      for (const bool convergence : {false, true}) {
        if (convergence && !caps.convergence) continue;
        all.push_back({.variant = variant, .chunks = chunks, .convergence = convergence,
                       .kernel = kernel});
        if (caps.lookback) {
          QueryOptions lookback = all.back();
          lookback.lookback = 8;
          all.push_back(lookback);
        }
      }
    }
  }
  return all;
}

void expect_engine_equal(const Engine& engine, const std::vector<std::string>& texts) {
  ThreadPool pool(2);
  for (const std::string& text : texts) {
    const std::vector<Symbol> symbols = engine.translate(text);
    for (const Variant variant : kVariants) {
      for (const QueryOptions& options :
           recognize_options(engine, variant, text.size())) {
        const std::string what = std::string(variant_name(variant)) + " c=" +
                                 std::to_string(options.chunks) + " " +
                                 kernel_name(options.kernel) +
                                 " conv=" + std::to_string(options.convergence) +
                                 " lookback=" + std::to_string(options.lookback) +
                                 " text=" + std::to_string(text.size());
        const QueryResult bytes = engine.recognize(text, options);
        const QueryResult spans = engine.recognize(symbols, options);
        EXPECT_EQ(bytes.accepted, spans.accepted) << what;
        EXPECT_EQ(bytes.accepted, engine.accepts(text)) << what;
        EXPECT_EQ(bytes.transitions, spans.transitions) << what;
        EXPECT_EQ(bytes.chunks, spans.chunks) << what;
      }
    }

    // find / count on the searcher: bytes in vs translated with its map.
    const Dfa& searcher = engine.searcher();
    const std::vector<Symbol> found_symbols = searcher.symbols().translate(text);
    for (const std::size_t chunks : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                                     text.size() + 7}) {
      for (const BeginMode mode : {BeginMode::kSeparator, BeginMode::kExact}) {
        const ReverseBegins* reverse =
            mode == BeginMode::kExact ? &engine.pattern().reverse_begins() : nullptr;
        for (const DetKernel kernel : kKernels) {
          for (const bool convergence : {false, true}) {
            const QueryOptions options{.chunks = chunks, .convergence = convergence,
                                       .kernel = kernel, .begin_mode = mode};
            const std::string what = "find c=" + std::to_string(chunks) + " " +
                                     kernel_name(kernel) +
                                     " conv=" + std::to_string(convergence) +
                                     " exact=" + std::to_string(reverse != nullptr);
            const QueryResult bytes = engine.find(text, options);
            const QueryResult spans =
                find_matches(searcher, found_symbols, pool, options, 0, nullptr, reverse);
            EXPECT_EQ(bytes.positions, spans.positions) << what;
            EXPECT_EQ(bytes.matches, spans.matches) << what;
            EXPECT_EQ(bytes.transitions, spans.transitions) << what;
            const Dfa* oracle_reverse = reverse ? &reverse->dfa : nullptr;
            EXPECT_EQ(bytes.positions,
                      find_matches_serial(searcher, found_symbols, 0, oracle_reverse)
                          .positions)
                << what;
          }
        }
      }
      for (const bool convergence : {false, true}) {
        const QueryOptions options{.chunks = chunks, .convergence = convergence};
        const QueryResult bytes = engine.count(text, options);
        const QueryResult spans = count_matches(searcher, found_symbols, pool, options);
        EXPECT_EQ(bytes.matches, spans.matches) << "count c=" << chunks;
        EXPECT_EQ(bytes.transitions, spans.transitions) << "count c=" << chunks;
      }
    }
  }

  // match_all: one byte-input recognize per text.
  std::vector<std::string_view> views(texts.begin(), texts.end());
  const QueryOptions batch{.chunks = 3};
  const std::vector<QueryResult> batched = engine.match_all(views, batch);
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const QueryResult spans = engine.recognize(engine.translate(texts[i]), batch);
    EXPECT_EQ(batched[i].accepted, spans.accepted) << "match_all " << i;
    EXPECT_EQ(batched[i].transitions, spans.transitions) << "match_all " << i;
  }
}

TEST(ByteInput, EngineQueriesOnBytesEqualTheSpanPath) {
  Prng prng(0xe961);
  const Engine engine(Pattern::compile("(ab|b[ac])*(a|cc)"), {.threads = 3});
  std::vector<std::string> texts = {"", "a", "abbacc"};
  for (const std::size_t length : {37u, 900u}) {
    std::string text;
    while (text.size() + 2 < length)
      text += std::string(prng.pick_index(2) ? "ab" : "ba");
    text += "a";
    texts.push_back(text);                         // mostly accepted
    texts.push_back(random_text(prng, length));    // random
    std::string alien = text;
    alien[alien.size() / 2] = 'z';                 // alien mid-text
    texts.push_back(alien);
    texts.push_back("\x01" + text);                // alien at offset 0
  }
  expect_engine_equal(engine, texts);
}

TEST(ByteInput, MappedPatternOnBytesEqualsTheSpanPath) {
  const std::string path = ::testing::TempDir() + "rispar_byte_input_" +
                           std::to_string(::getpid()) + ".rpb";
  Pattern::compile("a[bc]*a|cab").save_bundle(path);
  {
    const Engine engine(Pattern::load_mapped(path), {.threads = 2});
    ASSERT_TRUE(engine.pattern().min_dfa().packed().adopted());
    Prng prng(0x3a9);
    std::string text = random_text(prng, 300);
    std::string alien = text;
    alien[150] = '\x80';
    expect_engine_equal(engine, {"abca", text, alien});
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace
}  // namespace rispar
