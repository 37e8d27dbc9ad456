// rispar_bundle — producer and inspector for .rpb pattern bundles.
//
//   rispar_bundle build --out set.rpb --regex "(ab|ba)*" --regex "a+b"
//   rispar_bundle build --out set.rpb --manifest patterns.txt
//   rispar_bundle build --out corpus.rpb --bench-corpus
//   rispar_bundle inspect set.rpb
//   rispar_bundle verify set.rpb [--deep]
//
// `build` compiles every source (regexes in order: --regex flags, then
// manifest lines, then the five paper workloads when --bench-corpus) and
// writes one bundle; pattern ids are that order. `verify` maps the bundle
// and restores every pattern (all checksums and structural checks run);
// --deep additionally recompiles each regex-sourced pattern from scratch
// and requires the mapped machines to be BIT-IDENTICAL through
// Pattern::serialize(). CI runs build + verify --deep on the five-workload
// corpus.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "automata/glushkov.hpp"
#include "bundle/format.hpp"
#include "bundle/mapped_bundle.hpp"
#include "engine/pattern.hpp"
#include "util/prng.hpp"
#include "workloads/suite.hpp"

namespace {

using rispar::Pattern;
using rispar::bundle::MappedBundle;
using rispar::bundle::SectionEntry;
using rispar::bundle::SectionType;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  rispar_bundle build --out FILE [--regex RE]... [--manifest FILE]\n"
      "                      [--bench-corpus] [--max-subset-states N]\n"
      "  rispar_bundle inspect FILE\n"
      "  rispar_bundle verify FILE [--deep]\n");
  return 1;
}

std::vector<std::string> manifest_lines(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot read manifest " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    const std::size_t end = line.find_last_not_of(" \t");
    line = line.substr(start, end - start + 1);
    if (line.empty() || line.front() == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

int cmd_build(int argc, char** argv) {
  std::string out;
  std::vector<std::string> regexes;
  bool bench_corpus = false;
  rispar::PatternLimits limits;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--regex" && i + 1 < argc) {
      regexes.emplace_back(argv[++i]);
    } else if (arg == "--manifest" && i + 1 < argc) {
      for (std::string& line : manifest_lines(argv[++i]))
        regexes.push_back(std::move(line));
    } else if (arg == "--bench-corpus") {
      bench_corpus = true;
    } else if (arg == "--max-subset-states" && i + 1 < argc) {
      limits.max_subset_states = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "rispar_bundle build: bad argument '%s'\n", argv[i]);
      return usage();
    }
  }
  if (out.empty() || (regexes.empty() && !bench_corpus)) return usage();

  std::vector<Pattern> patterns;
  for (const std::string& regex : regexes) {
    std::fprintf(stderr, "compiling %s\n", regex.c_str());
    patterns.push_back(Pattern::compile(regex, limits));
  }
  if (bench_corpus) {
    // The five paper workloads ship as ASTs, not strings — compile via
    // from_nfa with the workload name as the recorded (non-regex) source.
    for (const rispar::WorkloadSpec& w : rispar::benchmark_suite()) {
      std::fprintf(stderr, "compiling workload %s\n", w.name.c_str());
      patterns.push_back(
          Pattern::from_nfa(rispar::glushkov_nfa(w.regex()), limits, w.name));
    }
  }
  Pattern::save_bundle_many(out, patterns);
  const auto bundle = MappedBundle::open(out);  // read back = self-check
  std::printf("%s: %u patterns, %llu bytes\n", out.c_str(),
              bundle->pattern_count(),
              static_cast<unsigned long long>(bundle->header().file_bytes));
  return 0;
}

int cmd_inspect(const std::string& path) {
  const auto bundle = MappedBundle::open(path);
  std::printf("%s: format v%u, %u patterns, %u sections, %llu bytes\n",
              path.c_str(), bundle->header().version, bundle->pattern_count(),
              bundle->header().section_count,
              static_cast<unsigned long long>(bundle->header().file_bytes));
  for (std::uint32_t i = 0; i < bundle->pattern_count(); ++i) {
    const std::string_view source = bundle->source(i);
    std::printf("pattern %u: %s%.*s%s\n", i,
                bundle->source_is_regex(i) ? "regex \"" : "\"",
                static_cast<int>(source.size()), source.data(), "\"");
    for (const SectionEntry& s : bundle->sections(i))
      std::printf("  %-16s offset %10llu  bytes %10llu\n",
                  rispar::bundle::section_type_name(
                      static_cast<SectionType>(s.type)),
                  static_cast<unsigned long long>(s.offset),
                  static_cast<unsigned long long>(s.bytes));
  }
  return 0;
}

int cmd_verify(const std::string& path, bool deep) {
  const auto bundle = MappedBundle::open(path);  // checksums verified here
  for (std::uint32_t i = 0; i < bundle->pattern_count(); ++i) {
    const Pattern mapped = Pattern::from_bundle(bundle, i);
    std::string status = "load ok";
    if (deep) {
      if (mapped.source_is_regex()) {
        // The strongest cross-check: a fresh compile of the recorded regex
        // must serialize to the very same bytes as the mapped machines.
        const Pattern fresh = Pattern::compile(std::string(mapped.source()),
                                               mapped.limits());
        if (fresh.serialize() != mapped.serialize()) {
          std::fprintf(stderr,
                       "pattern %u: mapped machines differ from a fresh "
                       "compile of '%s'\n",
                       i, std::string(mapped.source()).c_str());
          return 2;
        }
        status = "deep ok (recompiled + bit-identical)";
      } else {
        // No regex recorded: round-trip through the text format instead.
        if (Pattern::deserialize(mapped.serialize()).serialize() !=
            mapped.serialize()) {
          std::fprintf(stderr, "pattern %u: text round-trip not stable\n", i);
          return 2;
        }
        status = "deep ok (text round-trip)";
      }
    }
    const std::string_view source = mapped.source();
    std::printf("pattern %u (%.*s): %s\n", i, static_cast<int>(source.size()),
                source.data(), status.c_str());
  }
  std::printf("%s: OK\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view command = argv[1];
  try {
    if (command == "build") return cmd_build(argc - 2, argv + 2);
    if (command == "inspect" && argc == 3) return cmd_inspect(argv[2]);
    if (command == "verify" && (argc == 3 || argc == 4)) {
      const bool deep = argc == 4 && std::string_view(argv[3]) == "--deep";
      if (argc == 4 && !deep) return usage();
      return cmd_verify(argv[2], deep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rispar_bundle: %s\n", e.what());
    return 2;
  }
  return usage();
}
