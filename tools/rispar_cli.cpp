// rispar — command-line front end to the rispar::Engine query API.
//
//   rispar compile <pattern>                  automata statistics for an RE
//   rispar match   <pattern> <file|->         parallel recognition of a file
//          [--variant dfa|nfa|rid|sfa|all] [--chunks N] [--threads N]
//          [--convergence]
//   rispar count   <pattern> <file|->         occurrences of pattern
//          [--chunks N] [--convergence]
//   rispar find    <pattern|--patterns FILE> <file|->   positioned matches
//          [--positions] [--chunks N] [--threads N] [--convergence]
//          [--offset N] [--limit N]
//   rispar export  <pattern> [--machine nfa|dfa|ridfa] [--format native|timbuk]
//   rispar gen     <benchmark> <bytes> [--seed N]     workload text to stdout
//   rispar bench-list                         the five paper workloads
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "automata/serialize.hpp"
#include "automata/timbuk.hpp"
#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "regex/parser.hpp"
#include "util/stopwatch.hpp"
#include "workloads/suite.hpp"

using namespace rispar;

namespace {

const char* const kUsage =
    "usage:\n"
    "  rispar compile <pattern>\n"
    "  rispar match <pattern> <file|-> [--variant dfa|nfa|rid|sfa|all]\n"
    "               [--chunks N] [--threads N] [--convergence]\n"
    "               [--kernel fused|simd|reference] [--timeout-ms N]\n"
    "  rispar count <pattern> <file|-> [--chunks N] [--convergence]\n"
    "               [--timeout-ms N]\n"
    "  rispar find <pattern> <file|-> [--positions] [--chunks N] [--threads N]\n"
    "              [--convergence] [--kernel fused|simd|reference]\n"
    "              [--offset N] [--limit N] [--timeout-ms N] [--exact-begins]\n"
    "  rispar find --patterns <patterns-file> <file|-> [same flags]\n"
    "  rispar find <pattern|--patterns FILE> <file|-> --stream\n"
    "              [--window BYTES] [--positions] [--chunks N] [--threads N]\n"
    "              [--convergence] [--kernel fused|simd|reference]\n"
    "              [--timeout-ms N] [--exact-begins]\n"
    "  rispar export <pattern> [--machine nfa|dfa|ridfa] [--format native|timbuk]\n"
    "  rispar gen <benchmark> <bytes> [--seed N]\n"
    "  rispar bench-list\n"
    "\n"
    "find reports positioned occurrences. --positions prints one grep-style\n"
    "line per match, 'offset:length:slice': the smallest region guaranteed\n"
    "to contain the match ending there (its start is the scan's last\n"
    "restart point, so when overlapping partial matches chain — e.g. 'aa'\n"
    "in 'aaaa' — the region extends left of the match; for patterns that\n"
    "cannot chain, offset/length are exact). --exact-begins runs the\n"
    "reverse-DFA confirmation pass instead, pinning every offset to the\n"
    "true leftmost start of the match ending there (one extra backward\n"
    "scan per match; see docs/api.md). With --patterns a leading\n"
    "'id:' gives the pattern's 0-based index among the patterns actually\n"
    "loaded (blank lines and lines starting with '#' are skipped and not\n"
    "counted). Without --positions, a per-pattern summary is printed.\n"
    "--offset/--limit page the match list server-style: the printed window\n"
    "moves, the reported total does not. A patterns file holds one regex\n"
    "per line.\n"
    "\n"
    "--kernel picks the step of the one deterministic chunk core: every\n"
    "chunk with one start runs a serial scan, and a lockstep over several\n"
    "starts hands its last live run to that scan. 'fused' (default) steps\n"
    "the lockstep through the width-packed tables, 'simd' advances all live\n"
    "runs per symbol through vector gathers from 8 starts on (AVX2 when the\n"
    "CPU has it, a portable unrolled loop otherwise — detected at runtime,\n"
    "so 'simd' works on any machine), and 'reference' runs the seed oracle\n"
    "implementation. All three return identical results; variants\n"
    "that run no deterministic kernel (nfa, sfa) reject a non-default\n"
    "choice. count runs the default (fused) finding kernel and takes no\n"
    "--kernel.\n"
    "\n"
    "--stream reads the input in windows of at most --window bytes (default\n"
    "64 KiB) through a streaming-find session: at no point does the whole\n"
    "input exist in memory, matches print as each window is joined, and\n"
    "offsets are absolute positions in the stream. The log-tailing shape:\n"
    "pipe an unbounded source to stdin ('-') — a slow pipe feeds whatever\n"
    "has arrived instead of waiting for a full window. With --positions\n"
    "each match prints as 'offset:length' (no slice: its begin may lie in\n"
    "a window already scrolled away). --offset/--limit do not apply to\n"
    "streams (an unbounded input has no total to page against) and are\n"
    "rejected. --stream --patterns FILE opens ONE multi-pattern session:\n"
    "every pattern scans the same byte feed and matches print merged in\n"
    "(end, begin, id) order as 'id:offset:length' — the streaming face of\n"
    "the one-shot --patterns fan-out (identical match lists, any window\n"
    "segmentation).\n"
    "\n"
    "--timeout-ms bounds the query's wall-clock budget: the kernels poll a\n"
    "deadline cooperatively (sub-millisecond granularity) and a query that\n"
    "overruns exits with status 4 instead of running away. On --stream the\n"
    "budget applies PER WINDOW — each feed must complete within it.\n"
    "\n"
    "exit status (grep semantics):\n"
    "  0  match / count / find found at least one match (or the command has\n"
    "     no match notion: compile, export, gen, bench-list succeeded)\n"
    "  1  the input was searched cleanly but nothing matched\n"
    "  2  error: bad usage, bad pattern, unsupported option combination\n"
    "     (QueryError), or unreadable input\n"
    "  4  resource governance tripped: --timeout-ms elapsed before the query\n"
    "     finished (DeadlineExceeded) or a construction/admission budget ran\n"
    "     out (ResourceExhausted)\n";

int usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

std::string flag_value(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  for (int i = 0; i < argc - 1; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return fallback;
}

bool flag_present(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

/// Parses --timeout-ms into a deadline (0 / absent = ungoverned). A tripped
/// deadline surfaces as DeadlineExceeded, mapped to exit 4 in main().
std::chrono::nanoseconds parse_timeout_flag(int argc, char** argv) {
  const std::string value = flag_value(argc, argv, "--timeout-ms", "0");
  return std::chrono::milliseconds(std::strtoull(value.c_str(), nullptr, 10));
}

/// Parses --kernel (default: fused). Returns false after printing the
/// error when the value is unknown. 'simd' is always accepted — hardware
/// without AVX2 runs the portable fallback, picked at runtime.
bool parse_kernel_flag(int argc, char** argv, DetKernel& kernel) {
  const std::string value = flag_value(argc, argv, "--kernel", "fused");
  if (value == "fused") {
    kernel = DetKernel::kFused;
  } else if (value == "simd") {
    kernel = DetKernel::kSimd;
  } else if (value == "reference") {
    kernel = DetKernel::kReference;
  } else {
    std::fprintf(stderr, "rispar: unknown kernel '%s' (fused|simd|reference)\n",
                 value.c_str());
    return false;
  }
  return true;
}

int cmd_compile(const std::string& pattern_text) {
  const Pattern pattern = Pattern::compile(pattern_text);
  std::printf("pattern              : %s\n", pattern_text.c_str());
  std::printf("symbol classes       : %d\n", pattern.symbols().num_symbols());
  std::printf("NFA states           : %d (%zu edges)\n", pattern.nfa().num_states(),
              pattern.nfa().num_edges());
  std::printf("minimal DFA states   : %d\n", pattern.min_dfa().num_states());
  std::printf("RI-DFA states        : %d\n", pattern.ridfa().num_states());
  std::printf("RI-DFA interface     : %d initial states\n",
              pattern.ridfa().initial_count());
  return 0;
}

std::string read_input(const std::string& path, bool& ok) {
  ok = true;
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return buffer.str();
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "rispar: cannot open '%s'\n", path.c_str());
    ok = false;
    return {};
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

int cmd_match(const std::string& pattern_text, const std::string& path, int argc,
              char** argv) {
  bool ok = false;
  const std::string text = read_input(path, ok);
  if (!ok) return 2;

  const std::string variant_name_arg = flag_value(argc, argv, "--variant", "rid");
  const auto chunks = static_cast<std::size_t>(
      std::strtoul(flag_value(argc, argv, "--chunks", "16").c_str(), nullptr, 10));
  const auto threads = static_cast<unsigned>(
      std::strtoul(flag_value(argc, argv, "--threads", "0").c_str(), nullptr, 10));
  const bool convergence = flag_present(argc, argv, "--convergence");
  DetKernel kernel = DetKernel::kFused;
  if (!parse_kernel_flag(argc, argv, kernel)) return 2;

  const Engine engine(Pattern::compile(pattern_text), {.threads = threads});
  const std::vector<Symbol> input = engine.translate(text);

  std::vector<Variant> variants;
  if (variant_name_arg == "all") {
    variants = {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa};
  } else if (variant_name_arg == "dfa") {
    variants = {Variant::kDfa};
  } else if (variant_name_arg == "nfa") {
    variants = {Variant::kNfa};
  } else if (variant_name_arg == "rid") {
    variants = {Variant::kRid};
  } else if (variant_name_arg == "sfa") {
    variants = {Variant::kSfa};
  } else {
    std::fprintf(stderr, "rispar: unknown variant '%s'\n", variant_name_arg.c_str());
    return 2;
  }

  const bool sweeping_all = variant_name_arg == "all";
  bool accepted = false;
  for (const Variant variant : variants) {
    if (engine.try_device(variant) == nullptr) {
      if (!sweeping_all) {
        // The one requested device cannot run: surface the typed
        // ResourceExhausted (exit 4 in main), not a no-match (exit 1).
        (void)engine.device(variant);  // throws with the probed budget
      }
      std::printf("%-4s: unavailable (SFA construction exceeded its budget)\n",
                  variant_name(variant));
      continue;
    }
    QueryOptions options{.variant = variant, .chunks = chunks,
                         .convergence = convergence, .kernel = kernel};
    options.deadline = parse_timeout_flag(argc, argv);
    // A single requested variant that cannot honor --convergence or
    // --kernel rejects (QueryError, exit 2). In the `all` sweep, drop the
    // knob per variant with an explicit note so rows are never silently
    // mislabeled.
    if (convergence && sweeping_all &&
        !engine.device(variant).capabilities().convergence) {
      std::fprintf(stderr, "rispar: note: %s does not support --convergence; "
                           "running it without\n",
                   variant_name(variant));
      options.convergence = false;
    }
    if (kernel != DetKernel::kFused && sweeping_all &&
        !engine.device(variant).capabilities().kernel_select) {
      std::fprintf(stderr,
                   "rispar: note: %s runs no deterministic kernel; ignoring "
                   "--kernel %s for it\n",
                   variant_name(variant), kernel_name(kernel));
      options.kernel = DetKernel::kFused;
    }
    Stopwatch clock;
    const QueryResult result = engine.recognize(input, options);
    std::printf("%-4s: %-8s %9.3f ms, %llu transitions, c=%llu\n",
                variant_name(variant), result.accepted ? "MATCH" : "no-match",
                clock.millis(), static_cast<unsigned long long>(result.transitions),
                static_cast<unsigned long long>(result.chunks));
    accepted = result.accepted;
  }
  return accepted ? 0 : 1;
}

int cmd_count(const std::string& pattern_text, const std::string& path, int argc,
              char** argv) {
  bool ok = false;
  const std::string text = read_input(path, ok);
  if (!ok) return 2;

  const auto chunks = static_cast<std::size_t>(
      std::strtoul(flag_value(argc, argv, "--chunks", "16").c_str(), nullptr, 10));
  const Engine engine(Pattern::compile(pattern_text));
  QueryOptions options{.chunks = chunks,
                       .convergence = flag_present(argc, argv, "--convergence")};
  options.deadline = parse_timeout_flag(argc, argv);
  Stopwatch clock;
  const QueryResult counted = engine.count(text, options);
  std::printf("%llu occurrence%s in %zu bytes (%.3f ms%s)\n",
              static_cast<unsigned long long>(counted.matches),
              counted.matches == 1 ? "" : "s", text.size(), clock.millis(),
              counted.died ? "; scan aborted on foreign byte" : "");
  return counted.matches > 0 ? 0 : 1;
}

/// Loads one regex per line ('#' comments and blank lines skipped, CRLF
/// tolerated). Returns false after printing the error.
bool read_patterns_file(const char* path, std::vector<std::string>& out) {
  std::ifstream patterns_file(path);
  if (!patterns_file) {
    std::fprintf(stderr, "rispar: cannot open patterns file '%s'\n", path);
    return false;
  }
  std::string line;
  while (std::getline(patterns_file, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF rulesets
    if (line.empty() || line[0] == '#') continue;
    out.push_back(line);
  }
  if (out.empty()) {
    std::fprintf(stderr, "rispar: patterns file '%s' holds no patterns\n", path);
    return false;
  }
  return true;
}

int cmd_find_stream(const std::vector<std::string>& pattern_texts, bool multi,
                    const std::string& path, int argc, char** argv) {
  QueryOptions options;
  options.positions = true;
  options.chunks = static_cast<std::size_t>(
      std::strtoul(flag_value(argc, argv, "--chunks", "16").c_str(), nullptr, 10));
  options.convergence = flag_present(argc, argv, "--convergence");
  if (!parse_kernel_flag(argc, argv, options.kernel)) return 2;
  if (flag_present(argc, argv, "--exact-begins"))
    options.begin_mode = BeginMode::kExact;
  // Per-feed deadline: each window must join within the budget.
  options.deadline = parse_timeout_flag(argc, argv);
  // Paging knobs pass through so the session REJECTS them (QueryError,
  // exit 2) instead of this front end silently dropping them.
  options.offset = static_cast<std::size_t>(
      std::strtoull(flag_value(argc, argv, "--offset", "0").c_str(), nullptr, 10));
  const std::string limit_flag = flag_value(argc, argv, "--limit", "");
  if (!limit_flag.empty())
    options.limit =
        static_cast<std::size_t>(std::strtoull(limit_flag.c_str(), nullptr, 10));
  const auto threads = static_cast<unsigned>(
      std::strtoul(flag_value(argc, argv, "--threads", "0").c_str(), nullptr, 10));
  const auto window_bytes = static_cast<std::size_t>(std::strtoull(
      flag_value(argc, argv, "--window", "65536").c_str(), nullptr, 10));
  if (window_bytes == 0) {
    std::fprintf(stderr, "rispar: --window must be positive\n");
    return 2;
  }

  // One of the two session kinds, behind optionals because neither owner
  // (Engine, PatternSet) is movable. QueryError at open -> exit 2 either way.
  std::optional<Engine> engine;
  std::optional<StreamSession> stream;
  std::optional<PatternSet> set;
  std::optional<MultiStreamSession> multi_stream;
  if (multi) {
    std::vector<Pattern> patterns;
    patterns.reserve(pattern_texts.size());
    for (const std::string& pattern_text : pattern_texts)
      patterns.push_back(Pattern::compile(pattern_text));
    set.emplace(std::move(patterns), EngineConfig{.threads = threads});
    multi_stream = set->stream_find(options);
  } else {
    engine.emplace(Pattern::compile(pattern_texts.front()),
                   EngineConfig{.threads = threads});
    stream = engine->stream(options);
  }

  std::ifstream file;
  if (path != "-") {
    file.open(path, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "rispar: cannot open '%s'\n", path.c_str());
      return 2;
    }
  }

  const bool print_positions = flag_present(argc, argv, "--positions");
  const MatchSink sink = [&](const Match& m) {
    if (!print_positions) return;
    if (multi) std::printf("%u:", m.pattern_id);
    std::printf("%llu:%llu\n", static_cast<unsigned long long>(m.begin),
                static_cast<unsigned long long>(m.end - m.begin));
  };

  // A tailing consumer reads matches as they happen: line-buffer stdout
  // even when it is a pipe (block buffering would sit on matches for ages).
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Stopwatch clock;
  std::string buffer(window_bytes, '\0');
  while (true) {
    std::size_t got = 0;
    if (path == "-") {
      // POSIX read on the stdin fd: returns as soon as SOME bytes are
      // available on a pipe — the tailing shape. istream::read would block
      // until a full window accumulated, stalling slow sources for hours.
      const ssize_t n = ::read(STDIN_FILENO, buffer.data(), buffer.size());
      if (n < 0) {
        std::fprintf(stderr, "rispar: read error on stdin\n");
        return 2;
      }
      got = static_cast<std::size_t>(n);
    } else {
      file.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      got = static_cast<std::size_t>(file.gcount());
    }
    if (got == 0) break;
    const std::string_view window(buffer.data(), got);
    if (multi)
      multi_stream->feed(window, sink);
    else
      stream->feed(window, sink);
  }
  if (multi) {
    std::fprintf(stderr,
                 "rispar: %llu match%s across %zu patterns in %llu bytes (%.3f ms)\n",
                 static_cast<unsigned long long>(multi_stream->matches()),
                 multi_stream->matches() == 1 ? "" : "es", multi_stream->patterns(),
                 static_cast<unsigned long long>(multi_stream->bytes_consumed()),
                 clock.millis());
    return multi_stream->matches() > 0 ? 0 : 1;
  }
  std::fprintf(stderr,
               "rispar: %llu match%s in %llu bytes over %llu windows (%.3f ms)\n",
               static_cast<unsigned long long>(stream->matches()),
               stream->matches() == 1 ? "" : "es",
               static_cast<unsigned long long>(stream->bytes_consumed()),
               static_cast<unsigned long long>(stream->windows()), clock.millis());
  return stream->matches() > 0 ? 0 : 1;
}

int cmd_find(int argc, char** argv) {
  // Grammar: find <pattern> <file|->  |  find --patterns <file> <file|->
  //          |  find <pattern> <file|-> --stream.
  if (flag_present(argc, argv, "--stream")) {
    if (std::strcmp(argv[2], "--patterns") == 0) {
      if (argc < 5) return usage();
      std::vector<std::string> pattern_texts;
      if (!read_patterns_file(argv[3], pattern_texts)) return 2;
      return cmd_find_stream(pattern_texts, /*multi=*/true, argv[4], argc, argv);
    }
    return cmd_find_stream({argv[2]}, /*multi=*/false, argv[3], argc, argv);
  }
  std::vector<std::string> pattern_texts;
  std::string input_path;
  bool from_file = false;
  if (std::strcmp(argv[2], "--patterns") == 0) {
    if (argc < 5) return usage();
    from_file = true;
    if (!read_patterns_file(argv[3], pattern_texts)) return 2;
    input_path = argv[4];
  } else {
    pattern_texts.emplace_back(argv[2]);
    input_path = argv[3];
  }

  bool ok = false;
  const std::string text = read_input(input_path, ok);
  if (!ok) return 2;

  QueryOptions options;
  options.chunks = static_cast<std::size_t>(
      std::strtoul(flag_value(argc, argv, "--chunks", "16").c_str(), nullptr, 10));
  options.convergence = flag_present(argc, argv, "--convergence");
  if (!parse_kernel_flag(argc, argv, options.kernel)) return 2;
  if (flag_present(argc, argv, "--exact-begins"))
    options.begin_mode = BeginMode::kExact;
  options.deadline = parse_timeout_flag(argc, argv);
  options.offset = static_cast<std::size_t>(
      std::strtoull(flag_value(argc, argv, "--offset", "0").c_str(), nullptr, 10));
  const std::string limit_flag = flag_value(argc, argv, "--limit", "");
  if (!limit_flag.empty())
    options.limit =
        static_cast<std::size_t>(std::strtoull(limit_flag.c_str(), nullptr, 10));
  const auto threads = static_cast<unsigned>(
      std::strtoul(flag_value(argc, argv, "--threads", "0").c_str(), nullptr, 10));

  std::vector<Pattern> patterns;
  patterns.reserve(pattern_texts.size());
  for (const std::string& pattern_text : pattern_texts)
    patterns.push_back(Pattern::compile(pattern_text));
  const PatternSet set(std::move(patterns), {.threads = threads});

  Stopwatch clock;
  const QueryResult result = set.find(text, options);
  const double millis = clock.millis();

  if (flag_present(argc, argv, "--positions")) {
    for (const Match& m : result.positions) {
      if (from_file) std::printf("%u:", m.pattern_id);
      std::printf("%llu:%llu:%.*s\n", static_cast<unsigned long long>(m.begin),
                  static_cast<unsigned long long>(m.end - m.begin),
                  static_cast<int>(m.end - m.begin), text.data() + m.begin);
    }
    if (result.matches > result.positions.size())
      std::fprintf(stderr, "rispar: showing %zu of %llu matches (--offset/--limit)\n",
                   result.positions.size(),
                   static_cast<unsigned long long>(result.matches));
  } else {
    std::printf("%llu match%s across %zu pattern%s in %zu bytes (%.3f ms%s)\n",
                static_cast<unsigned long long>(result.matches),
                result.matches == 1 ? "" : "es", set.size(),
                set.size() == 1 ? "" : "s", text.size(), millis,
                result.died ? "; a scan aborted on foreign byte" : "");
    if (set.size() > 1) {
      std::vector<std::uint64_t> per_pattern(set.size(), 0);
      for (const Match& m : result.positions) ++per_pattern[m.pattern_id];
      for (std::size_t p = 0; p < set.size(); ++p)
        std::printf("  pattern %zu '%s': %llu in window\n", p,
                    pattern_texts[p].c_str(),
                    static_cast<unsigned long long>(per_pattern[p]));
    }
  }
  return result.matches > 0 ? 0 : 1;
}

int cmd_export(const std::string& pattern_text, int argc, char** argv) {
  const std::string machine = flag_value(argc, argv, "--machine", "nfa");
  const std::string format = flag_value(argc, argv, "--format", "native");
  const Pattern pattern = Pattern::compile(pattern_text);
  if (machine == "nfa") {
    if (format == "timbuk")
      save_timbuk(std::cout, pattern.nfa());
    else
      save_nfa(std::cout, pattern.nfa());
  } else if (machine == "dfa") {
    if (format == "timbuk")
      save_timbuk(std::cout, dfa_to_nfa(pattern.min_dfa()));
    else
      save_dfa(std::cout, pattern.min_dfa());
  } else if (machine == "ridfa") {
    // The RI-DFA exports as its underlying DFA plus an interface comment.
    std::cout << "# RI-DFA: initial interface states:";
    for (const State p : pattern.ridfa().initial_states()) std::cout << ' ' << p;
    std::cout << '\n';
    save_dfa(std::cout, pattern.ridfa().dfa());
  } else {
    std::fprintf(stderr, "rispar: unknown machine '%s'\n", machine.c_str());
    return 2;
  }
  return 0;
}

int cmd_gen(const std::string& name, std::size_t bytes, std::uint64_t seed) {
  for (const auto& spec : benchmark_suite()) {
    if (spec.name != name) continue;
    Prng prng(seed);
    std::cout << spec.text(bytes, prng);
    return 0;
  }
  std::fprintf(stderr, "rispar: unknown benchmark '%s' (try bench-list)\n",
               name.c_str());
  return 2;
}

int cmd_bench_list() {
  for (const auto& spec : benchmark_suite())
    std::printf("%-8s %-8s paper max text %.2f MB\n", spec.name.c_str(),
                spec.winning ? "winning" : "even",
                static_cast<double>(spec.paper_bytes) / (1 << 20));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  try {
    if (command == "compile" && argc >= 3) return cmd_compile(argv[2]);
    if (command == "match" && argc >= 4)
      return cmd_match(argv[2], argv[3], argc, argv);
    if (command == "count" && argc >= 4)
      return cmd_count(argv[2], argv[3], argc, argv);
    if (command == "find" && argc >= 4) return cmd_find(argc, argv);
    if (command == "export" && argc >= 3) return cmd_export(argv[2], argc, argv);
    if (command == "gen" && argc >= 4)
      return cmd_gen(argv[2], std::strtoul(argv[3], nullptr, 10),
                     std::strtoul(flag_value(argc, argv, "--seed", "1").c_str(),
                                  nullptr, 10));
    if (command == "bench-list") return cmd_bench_list();
  } catch (const RegexError& error) {
    std::fprintf(stderr, "rispar: bad pattern: %s\n", error.what());
    return 2;
  } catch (const DeadlineExceeded& error) {
    // Governance trips get their own exit status (documented above): a
    // timeout is not a bad query — the caller's retry policy differs.
    std::fprintf(stderr, "rispar: %s\n", error.what());
    return 4;
  } catch (const ResourceExhausted& error) {
    std::fprintf(stderr, "rispar: %s\n", error.what());
    return 4;
  } catch (const QueryError& error) {
    std::fprintf(stderr, "rispar: bad query: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rispar: %s\n", error.what());
    return 2;
  }
  return usage();
}
