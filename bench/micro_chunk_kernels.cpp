// Microbenchmarks of the reach-phase kernels: speculative deterministic
// runs (fused vs reference implementation, independent vs convergent) and
// the NFA frontier kernel, on one chunk of each benchmark group's
// representative. The RID interface-start and single-run rows come twice:
// over pre-translated symbols and over the raw bytes (the input every
// one-shot query now feeds the kernels, translation included).
//
// Unless the caller passes --benchmark_out, results are also written as
// machine-readable JSON to BENCH_chunk_kernels.json in the working
// directory, so CI and successive PRs can track the kernel throughput
// trajectory (see docs/perf.md).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "benchmark_json_main.hpp"
#include "common.hpp"
#include "automata/glushkov.hpp"
#include "parallel/ca_run.hpp"
#include "engine/pattern.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace rispar;

struct ChunkFixture {
  Pattern pattern;
  std::string text;
  std::vector<Symbol> chunk;  ///< text translated with the pattern's map
  std::vector<State> dfa_starts;
  std::vector<State> nfa_starts;

  explicit ChunkFixture(const WorkloadSpec& spec, std::size_t bytes = 1u << 16)
      : pattern(Pattern::from_nfa(glushkov_nfa(spec.regex()))),
        text([&] {
          Prng prng(stable_hash(spec.name) ^ 0xc0ffee);
          return spec.text(bytes, prng);
        }()),
        chunk(pattern.translate(text)) {
    for (State s = 0; s < pattern.min_dfa().num_states(); ++s) dfa_starts.push_back(s);
    for (State s = 0; s < pattern.nfa().num_states(); ++s) nfa_starts.push_back(s);
  }
};

const ChunkFixture& bible_fixture() {
  static const ChunkFixture fixture(bible_workload());
  return fixture;
}
const ChunkFixture& traffic_fixture() {
  static const ChunkFixture fixture(traffic_workload());
  return fixture;
}

using rispar::bench::kernel_from_range;

DetChunkOptions options_from_args(const benchmark::State& state) {
  return DetChunkOptions{.convergence = state.range(0) != 0,
                         .kernel = kernel_from_range(state.range(1))};
}

std::string label_from_args(const benchmark::State& state) {
  std::string label = state.range(0) ? "convergent" : "independent";
  label += std::string("/") + kernel_name(kernel_from_range(state.range(1)));
  return label;
}

// The acceptance-criterion shape: >= 16 speculative starts over a 64 KiB
// chunk (bible's minimal DFA has 17 states). Args: (convergence, kernel).
void BM_DetKernelAllStarts_Winning(benchmark::State& state) {
  const ChunkFixture& f = bible_fixture();
  const DetChunkOptions options = options_from_args(state);
  for (auto _ : state) {
    const DetChunkResult result =
        run_chunk_det(f.pattern.min_dfa(), f.chunk, f.dfa_starts, options);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetLabel(label_from_args(state));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK(BM_DetKernelAllStarts_Winning)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

void BM_DetKernelAllStarts_Even(benchmark::State& state) {
  const ChunkFixture& f = traffic_fixture();
  const DetChunkOptions options = options_from_args(state);
  for (auto _ : state) {
    const DetChunkResult result =
        run_chunk_det(f.pattern.min_dfa(), f.chunk, f.dfa_starts, options);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetLabel(label_from_args(state));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK(BM_DetKernelAllStarts_Even)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

void BM_RidKernelInterfaceStarts(benchmark::State& state) {
  const ChunkFixture& f = bible_fixture();
  const DetChunkOptions options{.kernel = kernel_from_range(state.range(0))};
  for (auto _ : state) {
    const DetChunkResult result = run_chunk_det(
        f.pattern.ridfa().dfa(), f.chunk, f.pattern.ridfa().initial_states(), options);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetLabel(kernel_name(kernel_from_range(state.range(0))));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK(BM_RidKernelInterfaceStarts)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The same chunk as raw bytes: the kernels class each byte through the
// pattern's map as they read it (the bulk-recognize path).
void BM_RidKernelInterfaceStartsBytes(benchmark::State& state) {
  const ChunkFixture& f = bible_fixture();
  const DetChunkOptions options{.kernel = kernel_from_range(state.range(0))};
  const ByteSpan bytes{f.text, f.pattern.symbols()};
  for (auto _ : state) {
    const DetChunkResult result = run_chunk_det(
        f.pattern.ridfa().dfa(), bytes, f.pattern.ridfa().initial_states(), options);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetLabel(std::string(kernel_name(kernel_from_range(state.range(0)))) + "/bytes");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.text.size()));
}
BENCHMARK(BM_RidKernelInterfaceStartsBytes)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Lockstep sweep across the three table widths: synthetic cycle DFAs
// sized to force u8 / u16 / i32 packing, 64 speculative starts that all
// survive a 64 KiB chunk — the pure many-live-runs shape where the
// per-symbol advance is everything. Cycle steps preserve start
// distinctness, so the convergent rows keep every group live too (no
// collapse to the one-start scan). No query produces this start set. The
// name predates the scalar-only sweep and keys its rows' CI trajectory.
// Args: (width: 0=u8 1=u16 2=i32, kernel: 1=fused, convergence).
Dfa cycle_dfa(std::int32_t n) {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  for (std::int32_t s = 0; s < n; ++s) dfa.add_state(s == n - 1);
  dfa.set_initial(0);
  for (std::int32_t s = 0; s < n; ++s) dfa.set_transition(s, 0, (s + 1) % n);
  dfa.set_transition(0, 1, 0);  // symbol 1 is dead everywhere else
  return dfa;
}

void BM_GatherWidthSweep(benchmark::State& state) {
  static const Dfa u8_dfa = cycle_dfa(200);
  static const Dfa u16_dfa = cycle_dfa(4000);
  static const Dfa i32_dfa = cycle_dfa(70000);
  const Dfa& dfa =
      state.range(0) == 0 ? u8_dfa : (state.range(0) == 1 ? u16_dfa : i32_dfa);
  static const std::vector<Symbol> chunk(1u << 16, 0);  // every run survives
  std::vector<State> starts;
  Prng prng(7);
  for (int i = 0; i < 64; ++i)
    starts.push_back(static_cast<State>(
        prng.pick_index(static_cast<std::size_t>(dfa.num_states()))));
  const DetChunkOptions options{.convergence = state.range(2) != 0,
                                .kernel = kernel_from_range(state.range(1))};
  for (auto _ : state) {
    const DetChunkResult result = run_chunk_det(dfa, chunk, starts, options);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  const char* width = state.range(0) == 0 ? "u8" : (state.range(0) == 1 ? "u16" : "i32");
  state.SetLabel(std::string(width) + (state.range(2) ? "/convergent/" : "/") +
                 kernel_name(kernel_from_range(state.range(1))));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * chunk.size()));
}
BENCHMARK(BM_GatherWidthSweep)
    ->Args({0, 1, 0})
    ->Args({1, 1, 0})
    ->Args({2, 1, 0})
    ->Args({0, 1, 1})
    ->Args({1, 1, 1})
    ->Unit(benchmark::kMillisecond);

// Governance-overhead series (the deadline_checkpoint rows of
// BENCH_chunk_kernels.json, guarded by CI's bench-compare gate): the same
// all-starts chunk run with an ACTIVE governor — a generous 1 h deadline
// that makes every stride poll take the real clock-read path but never
// trips — against the ungoverned baseline. The poll amortizes over
// kGovernorStride symbols (util/governance.hpp), so the governed rows must
// stay within the documented <2% of their baselines (docs/perf.md,
// "Checkpoint polling granularity"). Args: (kernel, governed).
void BM_DeadlineCheckpoint(benchmark::State& state) {
  const ChunkFixture& f = bible_fixture();
  static const QueryGovernor governor(std::chrono::hours(1), CancelToken{});
  DetChunkOptions options{.kernel = kernel_from_range(state.range(0))};
  if (state.range(1) != 0) options.governor = &governor;
  for (auto _ : state) {
    const DetChunkResult result =
        run_chunk_det(f.pattern.min_dfa(), f.chunk, f.dfa_starts, options);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetLabel(std::string(kernel_name(kernel_from_range(state.range(0)))) +
                 (state.range(1) ? "/governed" : "/baseline"));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK(BM_DeadlineCheckpoint)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

void BM_NfaKernelAllStarts(benchmark::State& state) {
  const ChunkFixture& f = traffic_fixture();
  for (auto _ : state) {
    const NfaChunkResult result = run_chunk_nfa(f.pattern.nfa(), f.chunk, f.nfa_starts);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK(BM_NfaKernelAllStarts)->Unit(benchmark::kMillisecond);

void BM_SingleDfaRun(benchmark::State& state) {
  // The non-speculative baseline: one run over the chunk.
  const ChunkFixture& f = bible_fixture();
  const std::vector<State> one{f.pattern.min_dfa().initial()};
  for (auto _ : state) {
    const DetChunkResult result = run_chunk_det(f.pattern.min_dfa(), f.chunk, one);
    benchmark::DoNotOptimize(result.transitions);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK(BM_SingleDfaRun)->Unit(benchmark::kMillisecond);

void BM_SingleDfaRunBytes(benchmark::State& state) {
  // The same run over the raw bytes of the chunk.
  const ChunkFixture& f = bible_fixture();
  const std::vector<State> one{f.pattern.min_dfa().initial()};
  const ByteSpan bytes{f.text, f.pattern.symbols()};
  for (auto _ : state) {
    const DetChunkResult result = run_chunk_det(f.pattern.min_dfa(), bytes, one);
    benchmark::DoNotOptimize(result.transitions);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.text.size()));
}
BENCHMARK(BM_SingleDfaRunBytes)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rispar::bench::run_benchmarks_with_default_out(
      argc, argv, "BENCH_chunk_kernels.json");
}
