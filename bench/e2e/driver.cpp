// rispar_e2e — the end-to-end benchmark driver. bench/e2e/run.sh builds and
// starts it; README.md documents the workloads and metrics.
//
//   rispar_e2e --workload NAME --seed N --seconds S --trace 0|1
//              --pinned FILE --rispard BINARY --work-dir DIR
//
// Generates the corpus from the seed, refuses to run when the inputs drift
// from the pinned fingerprint, computes the serial oracles untimed, runs the
// workload, checks every result, and prints one JSON object on stdout:
// end-to-end metrics untraced (--trace 0), per-layer metrics traced
// (--trace 1). Everything else goes to stderr.
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace e2e {

void log(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
}

void add_latency_metrics(Result& result, std::vector<double> latencies_ms) {
  const std::size_t n = latencies_ms.size();
  const double p50 = percentile(latencies_ms, 50);
  const double p90 = percentile(latencies_ms, 90);
  result.metrics.push_back({"latency_p50_ms", p50, "ms"});
  result.metrics.push_back({"latency_p90_ms", p90, "ms"});
  log("latency_p50_ms = %.4f ms (n=%zu)\n", p50, n);
  log("latency_p90_ms = %.4f ms (n=%zu, %zu above it)\n", p90, n, n / 10);
}

void add_setup_metric(Result& result, const std::vector<double>& setup_seconds) {
  const double value = median(setup_seconds);
  result.metrics.push_back({"setup_s", value, "s"});
  log("setup_s = %.4f s (median of %zu cold starts)\n", value, setup_seconds.size());
}

}  // namespace e2e

namespace {

using namespace e2e;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "rispar_e2e: %s\n"
               "usage: rispar_e2e --workload NAME --seed N --seconds S --trace 0|1\n"
               "                  --pinned FILE --rispard BINARY --work-dir DIR\n"
               "workloads: bulk-recognize bulk-find serve-tail serve-backfill\n",
               message);
  std::exit(2);
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void print_result(const Result& result) {
  bool correct = result.correct;
  std::string metrics;
  for (const Metric& m : result.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      log("metric %s is not finite\n", m.name.c_str());
      value = 0;
      correct = false;
    }
    char buffer[160];
    std::snprintf(buffer, sizeof buffer, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    metrics += buffer;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string pinned_path;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        trace = std::stoi(value());
      } else if (arg == "--pinned") {
        pinned_path = value();
      } else if (arg == "--rispard") {
        options.rispard = value();
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  const std::string& w = options.workload;
  if (w != "bulk-recognize" && w != "bulk-find" && w != "serve-tail" &&
      w != "serve-backfill")
    usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || (trace != 0 && trace != 1) || pinned_path.empty() ||
      options.rispard.empty() || options.work_dir.empty())
    usage(
        "--seed, --seconds, --trace 0|1, --pinned, --rispard and --work-dir are "
        "required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");

  // Generator guard: one generator thread, kConnections connections, both
  // within the machine's processors.
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc < kConnections) {
    log("rispar_e2e: the generator needs %zu processors (connections), this machine "
        "has %u\n",
        kConnections, nproc);
    return 2;
  }

  try {
    const Pinned pinned(pinned_path);
    const std::uint64_t default_seed = pinned.number("default_seed");
    const std::uint64_t pinned_fingerprint = pinned.number("fingerprint");
    options.tail_rate = static_cast<double>(pinned.number("serve_tail_rate"));

    // Input pinning: the default seed's corpus must hash to the pinned
    // fingerprint on every run, so a change to the generators cannot
    // silently change what is measured. Checked first, one document at a
    // time, so it adds nothing to the driver's peak memory.
    const std::uint64_t default_fingerprint = corpus_fingerprint(default_seed);
    if (default_fingerprint != pinned_fingerprint) {
      log("rispar_e2e: REFUSED: the seed-%llu corpus hashes to %s, pinned %s; the "
          "inputs drifted\n",
          static_cast<unsigned long long>(default_seed), hex(default_fingerprint).c_str(),
          hex(pinned_fingerprint).c_str());
      return 3;
    }
    const Corpus corpus = make_corpus(options.seed);
    log("corpus: seed %llu, %zu documents, %zu bytes, fingerprint %s\n",
        static_cast<unsigned long long>(options.seed), corpus.docs.size(), corpus.bytes,
        hex(corpus.fingerprint).c_str());

    Result result;
    if (trace == 1) {
      Tracer tracer;
      result = run_traced(options, corpus, tracer);
      const std::string spans = options.work_dir + "/spans-" + w + "-seed" +
                                std::to_string(options.seed) + ".jsonl";
      if (!tracer.write(spans)) throw std::runtime_error("cannot write " + spans);
      log("spans: %zu written to %s\n", tracer.spans().size(), spans.c_str());
    } else {
      if (w == "bulk-recognize" || w == "bulk-find")
        result = run_bulk(options, corpus, w == "bulk-find");
      else if (w == "serve-tail")
        result = run_serve_tail(options, corpus);
      else
        result = run_serve_backfill(options, corpus);
      const std::string key = "oracle." + w;
      log("pin: %s %llu %s\n", key.c_str(),
          static_cast<unsigned long long>(result.oracle.count),
          hex(result.oracle.hash).c_str());
      const std::vector<std::string>& pin = pinned.get(key);
      if (options.seed == default_seed &&
          (pin.size() != 2 || std::stoull(pin[0], nullptr, 0) != result.oracle.count ||
           std::stoull(pin[1], nullptr, 0) != result.oracle.hash)) {
        log("rispar_e2e: REFUSED: the seed-%llu oracle totals differ from the pinned "
            "%s\n",
            static_cast<unsigned long long>(default_seed), key.c_str());
        return 3;
      }
    }
    log("%s: attempted %llu, failed %llu (failed_share = %.6f), %s\n", w.c_str(),
        static_cast<unsigned long long>(result.attempted),
        static_cast<unsigned long long>(result.failed),
        static_cast<double>(result.failed) / static_cast<double>(result.attempted),
        result.correct ? "correct" : "INCORRECT");
    print_result(result);
  } catch (const std::exception& e) {
    log("rispar_e2e: %s\n", e.what());
    return 1;
  }
  return 0;
}
