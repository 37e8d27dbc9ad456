// Microbenchmarks of the streaming-find path (ISSUE 4): a positions
// StreamSession fed window by window against the one-shot find_matches
// scan of the same text, across window size × chunk fan-out ×
// (convergence, kernel). The interesting trade-off is window sizing: each
// window pays one serialized join, one pool batch and, for every chunk
// past the first, a lookback probe from all searcher states before its
// boundary — small windows amortize badly, large windows delay emission
// (docs/perf.md, "Streaming find").
//
// Unless the caller passes --benchmark_out, results are also written as
// machine-readable JSON to BENCH_stream_find.json in the working
// directory, so CI and successive PRs can track the streaming-serving
// trajectory next to BENCH_chunk_kernels.json and BENCH_find_all.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "benchmark_json_main.hpp"
#include "common.hpp"
#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "parallel/match_count.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace rispar;

struct StreamFixture {
  Engine engine;
  std::string text;

  StreamFixture(const char* regex, std::size_t bytes = 1u << 20)
      : engine(Pattern::compile(regex), {.threads = 4}) {
    Prng prng(stable_hash("stream_find"));
    text = bible_workload().text(bytes, prng);
    (void)engine.searcher();  // pay the lazy build outside the timed loop
  }
};

StreamFixture& fixture() {
  static StreamFixture f("<h3>");
  return f;
}

// The tentpole path: a positions session fed in windows, matches drained
// through a sink (nothing accumulates). Args: (window KiB, chunks,
// convergence, fused).
void BM_StreamFind(benchmark::State& state) {
  StreamFixture& f = fixture();
  QueryOptions options;
  options.positions = true;
  options.chunks = static_cast<std::size_t>(state.range(1));
  options.convergence = state.range(2) != 0;
  options.kernel = rispar::bench::kernel_from_range(state.range(3));
  const std::size_t window = static_cast<std::size_t>(state.range(0)) << 10;

  for (auto _ : state) {
    StreamSession stream = f.engine.stream(options);
    std::uint64_t sum = 0;
    const MatchSink sink = [&](const Match& m) { sum += m.end; };
    for (std::size_t offset = 0; offset < f.text.size(); offset += window)
      stream.feed(std::string_view(f.text)
                      .substr(offset, std::min(window, f.text.size() - offset)),
                  sink);
    benchmark::DoNotOptimize(sum);
    benchmark::DoNotOptimize(stream.matches());
  }
  state.SetLabel("w=" + std::to_string(state.range(0)) + "KiB/c=" +
                 std::to_string(state.range(1)) +
                 (state.range(2) ? "/convergent" : "/independent") +
                 "/" + kernel_name(options.kernel));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * f.text.size()));
}
BENCHMARK(BM_StreamFind)
    ->Args({4, 1, 0, 1})
    ->Args({64, 1, 0, 1})
    ->Args({64, 8, 0, 1})
    ->Args({64, 8, 0, 0})
    ->Args({64, 8, 1, 1})
    ->Args({256, 8, 0, 1})
    ->Args({256, 8, 1, 1})
    ->Unit(benchmark::kMillisecond);

// What window-by-window feeding costs over the one-shot scan of the same
// text (the no-streaming upper bound). Args: (chunks, convergence, fused).
void BM_OneShotFindBaseline(benchmark::State& state) {
  StreamFixture& f = fixture();
  QueryOptions options;
  options.chunks = static_cast<std::size_t>(state.range(0));
  options.convergence = state.range(1) != 0;
  options.kernel = state.range(2) != 0 ? DetKernel::kFused : DetKernel::kReference;
  const Dfa& searcher = f.engine.searcher();
  const std::vector<Symbol> input = searcher.symbols().translate(f.text);
  for (auto _ : state) {
    const QueryResult result =
        find_matches(searcher, input, f.engine.pool(), options);
    benchmark::DoNotOptimize(result.positions.size());
  }
  state.SetLabel("c=" + std::to_string(state.range(0)) +
                 (state.range(1) ? "/convergent" : "/independent") +
                 (state.range(2) ? "/fused" : "/reference"));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * input.size()));
}
BENCHMARK(BM_OneShotFindBaseline)
    ->Args({1, 0, 1})
    ->Args({8, 0, 1})
    ->Args({8, 1, 1})
    ->Unit(benchmark::kMillisecond);

// Streaming exact begins (ISSUE 9): the same windowed feed with
// begin_mode = kExact — each window's hits resolve through the reverse DFA
// and the carry retains the history tail between windows. New series (no
// baseline → bench_compare.py reports "new", not gated); expected overhead
// over BM_StreamFind is the per-hit backward walk plus the history
// bookkeeping, both small for separator-sound patterns. Args: (window KiB,
// chunks).
void BM_StreamFindExactBegin(benchmark::State& state) {
  StreamFixture& f = fixture();
  QueryOptions options;
  options.positions = true;
  options.begin_mode = BeginMode::kExact;
  options.chunks = static_cast<std::size_t>(state.range(1));
  const std::size_t window = static_cast<std::size_t>(state.range(0)) << 10;
  for (auto _ : state) {
    StreamSession stream = f.engine.stream(options);
    std::uint64_t sum = 0;
    const MatchSink sink = [&](const Match& m) { sum += m.begin; };
    for (std::size_t offset = 0; offset < f.text.size(); offset += window)
      stream.feed(std::string_view(f.text)
                      .substr(offset, std::min(window, f.text.size() - offset)),
                  sink);
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel("w=" + std::to_string(state.range(0)) + "KiB/c=" +
                 std::to_string(state.range(1)) + "/exact");
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * f.text.size()));
}
BENCHMARK(BM_StreamFindExactBegin)
    ->Args({64, 1})
    ->Args({64, 8})
    ->Args({256, 8})
    ->Unit(benchmark::kMillisecond);

// Multi-pattern streaming (ISSUE 9): one feed, N searcher carries, merged
// tagged emission — against N× the single-pattern cost. New series (no
// baseline → not gated). Args: (window KiB, chunks, exact).
void BM_MultiStreamFind(benchmark::State& state) {
  static const PatternSet set =
      PatternSet::compile({"<h3>", "section", "the"}, {.threads = 4});
  StreamFixture& f = fixture();
  QueryOptions options;
  options.chunks = static_cast<std::size_t>(state.range(1));
  if (state.range(2) != 0) options.begin_mode = BeginMode::kExact;
  const std::size_t window = static_cast<std::size_t>(state.range(0)) << 10;
  for (auto _ : state) {
    MultiStreamSession session = set.stream_find(options);
    std::uint64_t sum = 0;
    const MatchSink sink = [&](const Match& m) { sum += m.end + m.pattern_id; };
    for (std::size_t offset = 0; offset < f.text.size(); offset += window)
      session.feed(std::string_view(f.text)
                       .substr(offset, std::min(window, f.text.size() - offset)),
                   sink);
    benchmark::DoNotOptimize(sum);
    benchmark::DoNotOptimize(session.matches());
  }
  state.SetLabel("3 patterns, w=" + std::to_string(state.range(0)) + "KiB/c=" +
                 std::to_string(state.range(1)) +
                 (state.range(2) ? "/exact" : "/separator"));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * f.text.size()));
}
BENCHMARK(BM_MultiStreamFind)
    ->Args({64, 1, 0})
    ->Args({64, 1, 1})
    ->Args({64, 4, 1})  // the serve-backfill shape: 64 KiB, c=4, kExact
    ->Args({64, 8, 0})
    ->Unit(benchmark::kMillisecond);

// The buffered drain shape (feed + take_matches per window) against the
// sink shape above — what the convenience costs. Arg: window KiB.
void BM_StreamFindTakeMatches(benchmark::State& state) {
  StreamFixture& f = fixture();
  QueryOptions options;
  options.positions = true;
  const std::size_t window = static_cast<std::size_t>(state.range(0)) << 10;
  for (auto _ : state) {
    StreamSession stream = f.engine.stream(options);
    std::size_t taken = 0;
    for (std::size_t offset = 0; offset < f.text.size(); offset += window) {
      stream.feed(std::string_view(f.text)
                      .substr(offset, std::min(window, f.text.size() - offset)));
      taken += stream.take_matches().size();
    }
    benchmark::DoNotOptimize(taken);
  }
  state.SetLabel("w=" + std::to_string(state.range(0)) + "KiB/take_matches");
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * f.text.size()));
}
BENCHMARK(BM_StreamFindTakeMatches)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rispar::bench::run_benchmarks_with_default_out(
      argc, argv, "BENCH_stream_find.json");
}
