// The four workloads and the traced layer run, behind one result shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker.hpp"
#include "corpus.hpp"
#include "trace.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string rispard;   ///< the server binary the serve workloads spawn
  std::string work_dir;  ///< build-e2e/: the bundle and span files go here
  double tail_rate = 0;  ///< serve-tail schedule, feeds/s (pinned)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Digest of the oracle outputs, pinned at the default seed.
  MatchDigest oracle;
};

/// Seconds of warm-up before the measured phase, so caches fill and lazily
/// built state exists before anything is timed.
inline constexpr double kWarmupSeconds = 2;
/// Setup repetitions whose median is reported as setup_s. A cold start
/// takes milliseconds, so a single one is mostly scheduler jitter.
inline constexpr int kSetupRuns = 21;
/// The generator's connection count; the driver refuses to run when the
/// machine has fewer processors.
inline constexpr std::size_t kConnections = 4;

Result run_bulk(const Options& options, const Corpus& corpus, bool find);
Result run_serve_tail(const Options& options, const Corpus& corpus);
Result run_serve_backfill(const Options& options, const Corpus& corpus);
Result run_traced(const Options& options, const Corpus& corpus, Tracer& tracer);

/// Appends latency_p50_ms and latency_p90_ms and logs both with the sample
/// count. p90 is the tail: on a shared host p95 and p99 move with single
/// scheduler stalls by more than the metric's bound from run to run.
void add_latency_metrics(Result& result, std::vector<double> latencies_ms);
void add_setup_metric(Result& result, const std::vector<double>& setup_seconds);

/// Human-readable progress goes to stderr; stdout carries only the result.
void log(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace e2e
