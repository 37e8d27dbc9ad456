// Binary bundle (.rpb) tests — the zero-copy deployment path of ISSUE 8.
//
// The contract under test: a mapped pattern is indistinguishable from the
// compiled original (bit-identical serialized forms, equal query results
// across every variant × kernel), load_mapped derives NOTHING (no parse, no
// subset construction, no table re-pack — asserted via the PackedTable
// build counter), and the mapping's lifetime is governed by shared
// ownership, not by the Pattern that opened it.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "automata/glushkov.hpp"
#include "automata/packed_table.hpp"
#include "bundle/mapped_bundle.hpp"
#include "engine/engine.hpp"
#include "util/governance.hpp"
#include "workloads/suite.hpp"

namespace rispar {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rispar_bundle_test_" + std::to_string(::getpid()) +
         "_" + name;
}

/// Removes the file on scope exit (bundles are multi-megabyte; don't let
/// failed runs accumulate them in /tmp).
struct FileGuard {
  std::string path;
  ~FileGuard() { std::error_code ec; std::filesystem::remove(path, ec); }
};

// --------------------------------------------------------- exact round-trip

TEST(Bundle, MappedPatternIsBitIdenticalToTheOriginal) {
  for (const std::string regex : {"(ab|ba)*", "[a-c]x|yz*", "<h3>", "a"}) {
    const Pattern original = Pattern::compile(regex);
    const FileGuard file{temp_path("roundtrip.rpb")};
    original.save_bundle(file.path);
    const Pattern loaded = Pattern::load_mapped(file.path);

    EXPECT_EQ(loaded.source(), regex);
    EXPECT_TRUE(loaded.source_is_regex());
    // The text serialization covers bytemap, NFA and minimal DFA with exact
    // state/symbol numbering — byte equality means nothing drifted.
    EXPECT_EQ(loaded.serialize(), original.serialize()) << regex;
    // Re-bundling the loaded pattern reproduces the image byte-for-byte:
    // every adopted table and every lazy artifact round-trips exactly.
    EXPECT_EQ(Pattern::bundle_image({&loaded, 1}),
              Pattern::bundle_image({&original, 1}))
        << regex;
  }
}

// ---------------------------------------------- no derivation on the map path

TEST(Bundle, LoadMappedNeverParsesSubsetsOrRepacks) {
  const Pattern original = Pattern::compile("(May|June) [0-9]{2} (ACCEPT|DROP)");
  const FileGuard file{temp_path("norepack.rpb")};
  original.save_bundle(file.path);

  const std::uint64_t packs_before = PackedTable::build_count();
  const Pattern loaded = Pattern::load_mapped(file.path);
  // Queries must also run on the adopted tables, not trigger deferred packs:
  // the bundle ships the searcher and the SFA, so nothing is left to build.
  const Engine engine(loaded, {.threads = 2});
  EXPECT_TRUE(engine.accepts("May 12 ACCEPT"));
  EXPECT_EQ(engine.count("x May 12 ACCEPT y June 30 DROP").matches, 2u);
  for (const Variant variant :
       {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa})
    EXPECT_TRUE(
        engine.recognize(std::string_view("June 01 DROP"), {.variant = variant, .chunks = 3})
            .accepted);
  EXPECT_EQ(PackedTable::build_count(), packs_before)
      << "the mapped load path re-packed a table it should have adopted";
}

// ------------------------------------------------------- differential sweep

/// Every provenance of the same language answers every query identically.
void expect_same_answers(const Pattern& reference, const Pattern& candidate,
                         const std::vector<std::string>& texts) {
  const Engine ref(reference, {.threads = 2});
  const Engine cand(candidate, {.threads = 2});
  const bool both_sfa = reference.sfa_device() != nullptr &&
                        candidate.sfa_device() != nullptr;
  for (const std::string& text : texts) {
    for (const Variant variant : {Variant::kDfa, Variant::kNfa, Variant::kRid,
                                  Variant::kSfa}) {
      if (variant == Variant::kSfa && !both_sfa) continue;
      for (const DetKernel kernel :
           {DetKernel::kFused, DetKernel::kReference}) {
        // Kernel choice applies to the deterministic devices only.
        if (variant == Variant::kNfa || variant == Variant::kSfa) continue;
        const QueryOptions options{
            .variant = variant, .chunks = 4, .kernel = kernel};
        EXPECT_EQ(cand.recognize(text, options).accepted,
                  ref.recognize(text, options).accepted)
            << variant_name(variant) << "/" << kernel_name(kernel) << " on "
            << text.substr(0, 32);
      }
      const QueryOptions options{.variant = variant, .chunks = 4};
      EXPECT_EQ(cand.recognize(text, options).accepted,
                ref.recognize(text, options).accepted)
          << variant_name(variant) << " on " << text.substr(0, 32);
    }
    EXPECT_EQ(cand.count(text).matches, ref.count(text).matches);
    EXPECT_EQ(cand.find_all(text), ref.find_all(text));
  }
}

TEST(Bundle, AllFourProvenancesAgreeOnTheWorkloadSuite) {
  Prng prng(41);
  for (const auto& spec : benchmark_suite()) {
    const Pattern compiled =
        Pattern::from_nfa(glushkov_nfa(spec.regex()), {}, spec.name);
    const FileGuard file{temp_path("sweep_" + spec.name + ".rpb")};
    compiled.save_bundle(file.path);

    const Pattern text = Pattern::deserialize(compiled.serialize());
    const Pattern mapped = Pattern::load_mapped(file.path);
    const std::string image = Pattern::bundle_image({&compiled, 1});
    const Pattern memory =
        Pattern::from_bundle(bundle::MappedBundle::from_memory(image));

    std::vector<std::string> texts = {spec.text(4'000, prng), "", "x",
                                      spec.text(257, prng)};
    expect_same_answers(compiled, text, texts);
    expect_same_answers(compiled, mapped, texts);
    expect_same_answers(compiled, memory, texts);
  }
}

// ------------------------------------------------------- mapping lifetime

TEST(Bundle, MappingOutlivesThePatternThroughSharedOwnership) {
  const FileGuard file{temp_path("lifetime.rpb")};
  Pattern::compile("(ab)*").save_bundle(file.path);

  std::weak_ptr<const bundle::MappedBundle> watch;
  Dfa keeper = [&] {
    const Pattern loaded = Pattern::load_mapped(file.path);
    watch = loaded.mapped_bundle();
    EXPECT_FALSE(watch.expired());
    return loaded.min_dfa();  // copies share the adopted packed view
  }();
  // The Pattern died, but the Dfa copy co-owns the mapping — the adopted
  // pages must stay valid for as long as any machine references them.
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(keeper.step(keeper.initial(), 0), 1);

  keeper = Dfa::with_identity_alphabet(1);  // drop the last owner
  EXPECT_TRUE(watch.expired());
}

TEST(Bundle, MappedPatternSurvivesUnlinkOfTheFile) {
  const std::string path = temp_path("unlinked.rpb");
  Pattern::compile("ab+a").save_bundle(path);
  const Pattern loaded = Pattern::load_mapped(path);
  ASSERT_EQ(::unlink(path.c_str()), 0);
  // POSIX keeps mapped pages alive past the unlink — a fleet can republish
  // over a served bundle without tearing running queries.
  const Engine engine(loaded);
  EXPECT_TRUE(engine.accepts("abba"));
  EXPECT_FALSE(engine.accepts("aba_"));
}

// ------------------------------------------------------------ multi-pattern

TEST(Bundle, ManyPatternBundleLoadsByIndexAndRejectsOutOfRange) {
  const std::vector<std::string> regexes = {"a+", "(ab)*", "[0-9]{3}"};
  std::vector<Pattern> patterns;
  for (const auto& regex : regexes) patterns.push_back(Pattern::compile(regex));
  const FileGuard file{temp_path("many.rpb")};
  Pattern::save_bundle_many(file.path, patterns);

  const auto bundle = bundle::MappedBundle::open(file.path);
  ASSERT_EQ(bundle->pattern_count(), regexes.size());
  for (std::uint32_t i = 0; i < regexes.size(); ++i) {
    const Pattern loaded = Pattern::from_bundle(bundle, i);
    EXPECT_EQ(loaded.source(), regexes[i]);
    EXPECT_EQ(loaded.serialize(), patterns[i].serialize());
  }
  EXPECT_THROW((void)Pattern::from_bundle(bundle, 3), ValidationError);
  EXPECT_THROW((void)Pattern::load_mapped(file.path, 99), ValidationError);
}

TEST(Bundle, MissingFileAndNonBundleFileAreTypedErrors) {
  EXPECT_THROW((void)Pattern::load_mapped(temp_path("does_not_exist.rpb")),
               std::system_error);
  const FileGuard file{temp_path("not_a_bundle.rpb")};
  {
    std::ofstream out(file.path, std::ios::binary);
    out << "this is not a bundle, it is a text file\n";
  }
  EXPECT_THROW((void)Pattern::load_mapped(file.path), ValidationError);
}

}  // namespace
}  // namespace rispar
