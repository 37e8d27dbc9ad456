// bulk-recognize and bulk-find: closed loops with one caller over the
// whole corpus, one document per operation, round-robin.
#include <array>
#include <memory>

#include "engine/engine.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr std::size_t kChunks = 16;

std::vector<std::unique_ptr<rispar::Engine>> cold_start(bool find) {
  std::vector<std::unique_ptr<rispar::Engine>> engines;
  for (rispar::Pattern& pattern : find ? compile_catalog() : compile_suite()) {
    engines.push_back(std::make_unique<rispar::Engine>(std::move(pattern)));
    // The first find would build the searcher lazily: that is set-up work.
    if (find) (void)engines.back()->searcher();
  }
  return engines;
}

}  // namespace

Result run_bulk(const Options& options, const Corpus& corpus, bool find) {
  Result result;
  std::vector<std::unique_ptr<rispar::Engine>> engines;
  std::vector<double> setups;
  for (int run = 0; run < kSetupRuns; ++run) {
    engines.clear();  // the previous set's pools join before the clock starts
    const auto t0 = Clock::now();
    engines = cold_start(find);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  add_setup_metric(result, setups);

  // Oracles, untimed: the minimal DFA's serial run for each decision, the
  // one-scan serial finder for each document's match list.
  std::vector<MatchDigest> expected(corpus.docs.size());
  parallel_for(corpus.docs.size(), [&](std::size_t i) {
    const Doc& doc = corpus.docs[i];
    const rispar::Engine& engine = *engines[doc.type];
    if (find) {
      expected[i] = digest_of(serial_matches(engine.pattern(), doc.text));
    } else {
      expected[i].add(0, 0, engine.accepts(doc.text) ? 1 : 0);
    }
  });
  for (std::size_t i = 0; i < expected.size(); ++i)
    result.oracle.add(static_cast<std::uint32_t>(i), expected[i].count, expected[i].hash);

  rispar::QueryOptions query;
  query.chunks = kChunks;
  std::vector<double> latencies;
  std::array<std::vector<double>, kTypes> by_type;
  double bytes = 0;
  const auto one_op = [&](std::size_t i, bool measured) {
    const Doc& doc = corpus.docs[i];
    const rispar::Engine& engine = *engines[doc.type];
    MatchDigest got;
    bool ok = true;
    const auto t0 = Clock::now();
    try {
      if (find) {
        const rispar::QueryResult r = engine.find(doc.text, query);
        const auto t1 = Clock::now();
        got = digest_of(r.positions);
        ok = r.matches == got.count;
        if (measured) latencies.push_back(seconds_between(t0, t1) * 1e3);
      } else {
        const bool accepted = engine.recognize(doc.text, query).accepted;
        if (measured) latencies.push_back(seconds_between(t0, Clock::now()) * 1e3);
        got.add(0, 0, accepted ? 1 : 0);
      }
      if (measured) by_type[doc.type].push_back(latencies.back());
    } catch (const std::exception& e) {
      log("%s on document %zu failed: %s\n", find ? "find" : "recognize", i, e.what());
      ok = false;
    }
    ok = ok && got == expected[i];
    if (!ok) result.correct = false;
    if (measured) {
      ++result.attempted;
      result.failed += ok ? 0 : 1;
      bytes += static_cast<double>(doc.text.size());
    }
  };

  const auto warm_from = Clock::now();
  for (std::size_t i = 0; seconds_between(warm_from, Clock::now()) < kWarmupSeconds; ++i)
    one_op(i % corpus.docs.size(), false);
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_between(start, Clock::now()) < options.seconds; ++i)
    one_op(i % corpus.docs.size(), true);
  const double wall = seconds_between(start, Clock::now());
  for (std::size_t t = 0; t < kTypes; ++t)
    log("  %-8s p50 %.4f ms (n=%zu)\n", kTypeNames[t], median(by_type[t]),
        by_type[t].size());

  result.metrics.push_back({"throughput_mbps", bytes / wall / 1e6, "MB/s"});
  log("throughput_mbps = %.3f MB/s (%.0f bytes in %.3f s)\n", bytes / wall / 1e6, bytes,
      wall);
  add_latency_metrics(result, std::move(latencies));
  const double rss = peak_rss_mb("self");
  result.metrics.push_back({"peak_rss_mb", rss, "MB"});
  log("peak_rss_mb = %.3f MB (driver VmHWM)\n", rss);
  return result;
}

}  // namespace e2e
