// Shared plumbing for the table/figure drivers: workload setup, timed
// recognition, and formatting conventions. The drivers print the paper's
// tables and figure series as text so runs can be diffed and pasted into
// EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "automata/glushkov.hpp"
#include "engine/engine.hpp"
#include "util/prng.hpp"
#include "util/stopwatch.hpp"
#include "workloads/suite.hpp"

namespace rispar::bench {

/// The one benchmark-arg encoding of the kernel knob, shared by every
/// micro driver (and mirrored in the `*/reference`, `*/fused` series
/// labels): 0 = reference, 1 = fused. Any other value throws: mapped to a
/// kernel, it would repeat that kernel's label.
inline DetKernel kernel_from_range(std::int64_t value) {
  if (value == 0) return DetKernel::kReference;
  if (value == 1) return DetKernel::kFused;
  throw std::invalid_argument("kernel arg " + std::to_string(value) +
                              " (0 = reference, 1 = fused)");
}

/// A workload compiled to its chunk automata plus a symbol text, behind a
/// default Engine. Drivers that sweep thread counts build further Engines
/// from `prepared.engine.pattern()` — the compiled machines are shared.
struct Prepared {
  std::string name;
  bool winning = false;
  Engine engine;
  std::vector<Symbol> input;

  Prepared(const WorkloadSpec& spec, std::size_t bytes, std::uint64_t seed,
           unsigned threads = 0)
      : name(spec.name),
        winning(spec.winning),
        engine(Pattern::from_nfa(glushkov_nfa(spec.regex())),
               EngineConfig{.threads = threads}),
        input([&] {
          Prng prng(seed ^ stable_hash(spec.name));
          return engine.translate(spec.text(bytes, prng));
        }()) {}
};

/// Wall-time of one parallel recognition, averaged over enough repetitions
/// to be stable. The decision is checked on every repetition.
inline double timed_recognition(const Engine& engine, const std::string& name,
                                std::span<const Symbol> input,
                                const QueryOptions& options,
                                double min_seconds = 0.25) {
  bool accepted = true;
  const double seconds = time_average(
      [&] { accepted = accepted && engine.recognize(input, options).accepted; },
      min_seconds, /*min_reps=*/2);
  if (!accepted)
    std::fprintf(stderr, "WARNING: %s rejected its own text under %s\n",
                 name.c_str(), variant_name(options.variant));
  return seconds;
}

inline double timed_recognition(const Prepared& prepared, const QueryOptions& options,
                                double min_seconds = 0.25) {
  return timed_recognition(prepared.engine, prepared.name, prepared.input, options,
                           min_seconds);
}

/// Transition count of one recognition (deterministic, no timing).
inline std::uint64_t transitions_of(const Prepared& prepared,
                                    const QueryOptions& options) {
  return prepared.engine.recognize(prepared.input, options).transitions;
}

/// Default text size: the paper's maximum for the benchmark, capped so the
/// default `for b in build/bench/*` sweep stays laptop-friendly, times the
/// user's --scale factor.
inline std::size_t scaled_bytes(std::size_t paper_bytes, double scale,
                                std::size_t cap = 2u << 20) {
  const std::size_t base = std::min(paper_bytes, cap);
  return static_cast<std::size_t>(static_cast<double>(base) * scale);
}

}  // namespace rispar::bench
