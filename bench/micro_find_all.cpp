// Microbenchmarks of the position-emitting finding path (ISSUE 3): the
// find_matches kernel against count_matches on the same kernels, across
// (convergence × kernel implementation), a dense-hit find that costs the
// join, plus PatternSet multi-pattern serving of one text.
//
// Unless the caller passes --benchmark_out, results are also written as
// machine-readable JSON to BENCH_find_all.json in the working directory,
// so CI and successive PRs can track the serving-path throughput
// trajectory next to BENCH_chunk_kernels.json (see docs/perf.md).
#include <benchmark/benchmark.h>

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

struct FindFixture {
  Pattern pattern;
  std::string text;
  std::vector<Symbol> input;  ///< translated with the searcher's map
  ThreadPool pool;

  FindFixture(const char* regex, std::size_t bytes = 1u << 20)
      : pattern(Pattern::compile(regex)), pool(4) {
    Prng prng(stable_hash("find_all"));
    text = bible_workload().text(bytes, prng);
    input = pattern.searcher().symbols().translate(text);
  }
};

FindFixture& fixture() {
  static FindFixture f("<h3>");
  return f;
}

using rispar::bench::kernel_from_range;

QueryOptions options_from_args(const benchmark::State& state) {
  QueryOptions options;
  options.chunks = static_cast<std::size_t>(state.range(0));
  options.convergence = state.range(1) != 0;
  options.kernel = kernel_from_range(state.range(2));
  return options;
}

std::string label_from_args(const benchmark::State& state) {
  std::string label = "c=" + std::to_string(state.range(0));
  label += state.range(1) ? "/convergent" : "/independent";
  label += std::string("/") + kernel_name(kernel_from_range(state.range(2)));
  return label;
}

// The tentpole path: positioned occurrences over the Σ*p searcher. Args:
// (chunks, convergence, kernel).
void BM_FindMatches(benchmark::State& state) {
  FindFixture& f = fixture();
  const QueryOptions options = options_from_args(state);
  for (auto _ : state) {
    const QueryResult result =
        find_matches(f.pattern.searcher(), f.input, f.pool, options);
    benchmark::DoNotOptimize(result.positions.size());
  }
  state.SetLabel(label_from_args(state));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.input.size()));
}
BENCHMARK(BM_FindMatches)
    ->Args({1, 0, 1})
    ->Args({8, 0, 0})
    ->Args({8, 0, 1})
    ->Args({8, 0, 2})
    ->Args({8, 1, 0})
    ->Args({8, 1, 1})
    ->Args({8, 1, 2})
    ->Args({32, 1, 1})
    ->Args({32, 1, 2})
    ->Unit(benchmark::kMillisecond);

// The multi-start find path: BM_FindMatches' searcher forgets its past
// within a few symbols, so every chunk there collapses to one start. Over
// runs of 'a' the searcher of x(a{8})*y cycles eight phases that never
// collapse, so with no 'x' or 'y' within 4 KiB before a chunk boundary the
// lookback probe keeps nine starts (`starts` counter: chunk 1's). Each
// 8 KiB block holds one episode x a^512 y, a hit. Independent runs step
// all nine lanes through the chunk; convergent runs merge at the chunk's
// first 'x' and the survivor finishes as a one-start scan. Args: (chunks,
// convergence, kernel).
void BM_FindMatchesMultiStart(benchmark::State& state) {
  static const Pattern pattern = Pattern::compile("x(a{8})*y");
  static const std::vector<Symbol> input = [] {
    std::string text(1u << 20, 'a');
    for (std::size_t block = 0; block < text.size(); block += 8192) {
      text[block + 1000] = 'x';
      text[block + 1000 + 1 + 8 * 64] = 'y';
    }
    return pattern.searcher().symbols().translate(text);
  }();
  static ThreadPool pool(4);
  const Dfa& searcher = pattern.searcher();
  const QueryOptions options = options_from_args(state);
  for (auto _ : state) {
    const QueryResult result = find_matches(searcher, input, pool, options);
    benchmark::DoNotOptimize(result.positions.data());
  }
  std::uint64_t probed = 0;
  const std::size_t chunk = input.size() / options.chunks;
  state.counters["starts"] = static_cast<double>(
      chunk_starts(searcher, input, chunk, chunk, searcher.initial(), options.convergence,
                   probed)
          .size());
  state.SetLabel(label_from_args(state) + "/a-runs");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * input.size()));
}
BENCHMARK(BM_FindMatchesMultiStart)
    ->Args({8, 0, 1})
    ->Args({8, 0, 2})
    ->Args({8, 1, 1})
    ->Args({8, 1, 2})
    ->Unit(benchmark::kMillisecond);

// Exact-begin resolution layered on the same scan (ISSUE 9): every joined
// hit additionally walks the cached reverse DFA backwards from its end to
// the leftmost start. New series — no baseline in earlier BENCH files, so
// bench_compare.py reports it as "new" rather than gating it; the expected
// cost over BM_FindMatches is the per-hit backward walk, bounded by
// match density × backward distance to the resolution floor (small for
// separator-sound patterns like this literal). Args: (chunks, convergence,
// kernel).
void BM_FindMatchesExactBegin(benchmark::State& state) {
  FindFixture& f = fixture();
  const ReverseBegins& reverse = f.pattern.reverse_begins();  // cached, unpaid
  QueryOptions options = options_from_args(state);
  options.begin_mode = BeginMode::kExact;
  for (auto _ : state) {
    const QueryResult result = find_matches(f.pattern.searcher(), f.input,
                                            f.pool, options, 0, nullptr, &reverse);
    benchmark::DoNotOptimize(result.positions.size());
  }
  state.SetLabel(label_from_args(state) + "/exact");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.input.size()));
}
BENCHMARK(BM_FindMatchesExactBegin)
    ->Args({1, 0, 1})
    ->Args({8, 0, 1})
    ->Args({8, 1, 1})
    ->Args({32, 1, 1})
    ->Unit(benchmark::kMillisecond);

// Dense hits: the bulk-find catalog's regexp pattern aaaa[ab]{6} over 1 MiB
// of the regexp generator's a/b text — a hit at about one position in 16,
// ~65k per find — fed as raw bytes at c=16, as Engine::find does. Here the
// join (the walk that sizes the output, then the emit that writes the
// Matches and resolves exact begins) is a visible share of a find:
// `join_share` = join_seconds / (reach_seconds + join_seconds), with
// `reach_ms` and `join_ms` per find. Arg: begin mode (0 separator, 1 exact).
void BM_FindMatchesDense(benchmark::State& state) {
  static const Pattern pattern = Pattern::compile("aaaa[ab]{6}");
  static const std::string text = [] {
    Prng prng(stable_hash("find_all_dense"));
    return regexp_workload().text(1u << 20, prng);
  }();
  static ThreadPool pool(4);
  const Dfa& searcher = pattern.searcher();
  const bool exact = state.range(0) != 0;
  const ReverseBegins* reverse = exact ? &pattern.reverse_begins() : nullptr;
  const QueryOptions options{.chunks = 16,
                             .begin_mode = exact ? BeginMode::kExact : BeginMode::kSeparator};
  double reach = 0;
  double join = 0;
  std::uint64_t matches = 0;
  for (auto _ : state) {
    const QueryResult result = find_matches(searcher, ByteSpan{text, searcher.symbols()},
                                            pool, options, 0, nullptr, reverse);
    reach += result.reach_seconds;
    join += result.join_seconds;
    matches = result.matches;
    benchmark::DoNotOptimize(result.positions.data());
  }
  const auto finds = static_cast<double>(state.iterations());
  state.counters["reach_ms"] = 1e3 * reach / finds;
  state.counters["join_ms"] = 1e3 * join / finds;
  state.counters["join_share"] = join / (reach + join);
  state.counters["hits"] = static_cast<double>(matches);
  state.SetLabel(std::string("aaaa[ab]{6} regexp c=16/") + (exact ? "exact" : "separator"));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_FindMatchesDense)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// What positions cost over bare counting on the identical scan. Args as
// above.
void BM_CountMatchesBaseline(benchmark::State& state) {
  FindFixture& f = fixture();
  QueryOptions options = options_from_args(state);
  options.kernel = DetKernel::kFused;  // counting has no kernel knob
  for (auto _ : state) {
    const QueryResult result =
        count_matches(f.pattern.searcher(), f.input, f.pool, options);
    benchmark::DoNotOptimize(result.matches);
  }
  state.SetLabel("c=" + std::to_string(state.range(0)) +
                 (state.range(1) ? "/convergent" : "/independent"));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.input.size()));
}
BENCHMARK(BM_CountMatchesBaseline)
    ->Args({8, 0, 1})
    ->Args({8, 1, 1})
    ->Unit(benchmark::kMillisecond);

// Multi-pattern serving: N patterns, one text, one pool — the PatternSet
// text×pattern fan-out. Arg: chunks per scan.
void BM_PatternSetFind(benchmark::State& state) {
  static const PatternSet set =
      PatternSet::compile({"<h3>", "section", "the"}, {.threads = 4});
  const FindFixture& f = fixture();
  QueryOptions options;
  options.chunks = static_cast<std::size_t>(state.range(0));
  options.convergence = true;
  for (auto _ : state) {
    const QueryResult result = set.find(f.text, options);
    benchmark::DoNotOptimize(result.matches);
  }
  state.SetLabel("3 patterns, c=" + std::to_string(state.range(0)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.text.size()));
}
BENCHMARK(BM_PatternSetFind)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rispar::bench::run_benchmarks_with_default_out(
      argc, argv, "BENCH_find_all.json");
}
