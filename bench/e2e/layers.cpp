// The traced run: every layer's public entry point timed on the same
// corpus bytes (the per-layer metrics), then the chosen workload's
// operation split into its layer calls (the waterfall), alternating with
// the untraced operation so the tracing overhead is measured too.
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "core/serial_match.hpp"
#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "parallel/match_count.hpp"
#include "serve.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using rispar::Match;
using rispar::QueryOptions;
using rispar::QueryResult;
using rispar::Symbol;

constexpr std::size_t kChunks = 16;
constexpr std::size_t kProbeDocs = 3;  ///< documents per type timed per probe
constexpr std::size_t kStreamWindow = 4096;
constexpr std::size_t kStreamBytes = 256 * 1024;  ///< per type, for the 4 KiB probes
constexpr std::size_t kMultiWindow = 64 * 1024;
constexpr std::size_t kMultiChunks = 4;
constexpr std::size_t kCheckpointEvery = 4;
constexpr std::size_t kBackfillCheckpointEvery = 16;

QueryOptions chunked(std::size_t chunks) {
  QueryOptions options;
  options.chunks = chunks;
  return options;
}

QueryOptions positions_c1() {
  QueryOptions options;
  options.positions = true;
  return options;
}

QueryOptions multi_exact() {
  QueryOptions options = chunked(kMultiChunks);
  options.begin_mode = rispar::BeginMode::kExact;
  return options;
}

std::vector<std::string_view> windows_of(std::string_view text, std::size_t window) {
  std::vector<std::string_view> out;
  for (std::size_t at = 0; at < text.size(); at += window)
    out.push_back(text.substr(at, window));
  return out;
}

/// Spans plus the bookkeeping every probe shares.
class Probes {
 public:
  Probes(Tracer& tracer, Result& result) : tracer_(tracer), result_(result) {}

  /// Runs fn inside a span; returns its duration in ms.
  template <typename Fn>
  double timed(const char* name, std::uint64_t bytes, Fn&& fn) {
    const std::int32_t span = tracer_.open(name, next_op_++, bytes);
    fn();
    tracer_.close(span);
    return tracer_.spans()[static_cast<std::size_t>(span)].duration_ms();
  }

  void check(bool ok, const std::string& what) {
    ++result_.attempted;
    if (ok) return;
    ++result_.failed;
    result_.correct = false;
    log("traced run: %s disagrees with its oracle\n", what.c_str());
  }

  void metric(const std::string& name, double value, const char* unit) {
    result_.metrics.push_back({name, value, unit});
  }

  std::uint64_t next_op() { return next_op_++; }
  Tracer& tracer() { return tracer_; }

 private:
  Tracer& tracer_;
  Result& result_;
  std::uint64_t next_op_ = 0;
};

double mbps(double bytes, double ms) { return bytes / ms / 1e3; }

MatchDigest relabeled(std::span<const Match> matches, std::uint32_t pattern_id) {
  MatchDigest digest;
  for (const Match& m : matches) digest.add(pattern_id, m.begin, m.end);
  return digest;
}

struct Engines {
  std::vector<rispar::Pattern> suite;
  std::vector<rispar::Pattern> catalog;
  std::vector<std::unique_ptr<rispar::Engine>> recognizers;  ///< one per suite regex
  std::vector<std::unique_ptr<rispar::Engine>> finders;      ///< one per catalog pattern
};

void setup_probes(Probes& probes, const Options& options, Engines& engines) {
  std::vector<double> compile, searchers, reverses, loads;
  const std::string bundle = options.work_dir + "/catalog.rpb";
  for (int run = 0; run < kSetupRuns; ++run) {
    compile.push_back(probes.timed("setup.compile", 0, [&] {
      engines.suite = compile_suite();
      engines.catalog = compile_catalog();
    }));
    searchers.push_back(probes.timed("setup.searcher_build", 0, [&] {
      for (const rispar::Pattern& p : engines.catalog) (void)p.searcher();
    }));
    reverses.push_back(probes.timed("setup.reverse_build", 0, [&] {
      for (const rispar::Pattern& p : engines.catalog) (void)p.reverse_begins();
    }));
  }
  rispar::Pattern::save_bundle_many(bundle, engines.catalog);
  for (int run = 0; run < kSetupRuns; ++run) {
    std::vector<rispar::Pattern> mapped;
    loads.push_back(probes.timed("setup.load_mapped", 0, [&] {
      for (std::uint32_t i = 0; i < kTypes; ++i)
        mapped.push_back(rispar::Pattern::load_mapped(bundle, i));
    }));
    for (std::size_t i = 0; i < kTypes; ++i)
      probes.check(mapped[i].source() == kFindPatterns[i], "load_mapped pattern source");
  }
  probes.metric("setup.compile_ms", median(compile), "ms");
  probes.metric("setup.searcher_build_ms", median(searchers), "ms");
  probes.metric("setup.reverse_build_ms", median(reverses), "ms");
  probes.metric("setup.load_mapped_ms", median(loads), "ms");

  for (std::size_t t = 0; t < kTypes; ++t) {
    engines.recognizers.push_back(std::make_unique<rispar::Engine>(engines.suite[t]));
    engines.finders.push_back(std::make_unique<rispar::Engine>(engines.catalog[t]));
  }
}

/// automata, core, parallel.ca_run, parallel.match_count, parallel.thread_pool.
void bulk_probes(Probes& probes, const Corpus& corpus, const Engines& engines) {
  const auto pool_executed = [&] {
    std::uint64_t executed = 0;
    for (const auto* set : {&engines.recognizers, &engines.finders})
      for (const auto& engine : *set) executed += engine->pool().stats().executed;
    return executed;
  };
  const std::uint64_t executed_before = pool_executed();
  std::uint64_t chunked_queries = 0;
  double searcher_bytes = 0, searcher_ms = 0;

  for (std::size_t t = 0; t < kTypes; ++t) {
    const std::string type = kTypeNames[t];
    const rispar::Engine& recognizer = *engines.recognizers[t];
    const rispar::Engine& finder = *engines.finders[t];
    const rispar::Dfa& searcher = finder.searcher();
    const rispar::ReverseBegins& reverse = finder.pattern().reverse_begins();
    rispar::ThreadPool& pool = finder.pool();
    const QueryOptions c16 = chunked(kChunks);
    QueryOptions exact = c16;
    exact.begin_mode = rispar::BeginMode::kExact;
    std::vector<double> translate, scan, reach, join, find_serial, find_chunked,
        count_chunked, exact_resolve, hits;
    for (std::size_t j = 0; j < kProbeDocs; ++j) {
      const std::string& doc = corpus.docs[j * kTypes + t].text;
      const double bytes = static_cast<double>(doc.size());

      std::vector<Symbol> symbols;
      translate.push_back(mbps(bytes, probes.timed("automata.translate", doc.size(), [&] {
        symbols = recognizer.translate(doc);
      })));
      rispar::MatchResult serial;
      scan.push_back(mbps(bytes, probes.timed("core.serial_scan", doc.size(), [&] {
        serial = rispar::serial_match(recognizer.pattern().min_dfa(), symbols);
      })));
      probes.check(serial.accepted, type + " document is a member of its language");
      QueryResult recognized;
      probes.timed("parallel.ca_run", doc.size(),
                   [&] { recognized = recognizer.recognize(symbols, c16); });
      probes.check(recognized.accepted == serial.accepted, type + " recognize");
      reach.push_back(recognized.reach_seconds * 1e3);
      join.push_back(recognized.join_seconds * 1e3);

      std::vector<Symbol> find_symbols;
      searcher_ms += probes.timed("automata.searcher_translate", doc.size(), [&] {
        find_symbols = searcher.symbols().translate(doc);
      });
      searcher_bytes += bytes;
      QueryResult oracle, oracle_exact, found, counted, found_exact;
      const double serial_ms = probes.timed("find.serial", doc.size(), [&] {
        oracle = rispar::find_matches_serial(searcher, find_symbols);
      });
      find_serial.push_back(mbps(bytes, serial_ms));
      // Exact-begin resolution: the kExact serial find minus the separator
      // serial find just before it on the same symbols. The serial pair
      // isolates the reverse scans; the chunked pair's run-to-run noise is
      // larger than the cost.
      exact_resolve.push_back(probes.timed("find.serial_exact", doc.size(), [&] {
        oracle_exact =
            rispar::find_matches_serial(searcher, find_symbols, 0, &reverse.dfa);
      }) - serial_ms);
      const double find_ms = probes.timed("parallel.match_count.find", doc.size(), [&] {
        found = rispar::find_matches(searcher, find_symbols, pool, c16);
      });
      find_chunked.push_back(mbps(bytes, find_ms));
      probes.check(digest_of(found.positions) == digest_of(oracle.positions) &&
                       found.matches == oracle.matches,
                   type + " chunked find");
      const double count_ms = probes.timed("parallel.match_count.count", doc.size(), [&] {
        counted = rispar::count_matches(searcher, find_symbols, pool, c16);
      });
      count_chunked.push_back(mbps(bytes, count_ms));
      probes.check(counted.matches == oracle.matches, type + " chunked count");
      probes.timed("parallel.match_count.find_exact", doc.size(), [&] {
        found_exact = rispar::find_matches(searcher, find_symbols, pool, exact, 0,
                                           nullptr, &reverse);
      });
      probes.check(digest_of(found_exact.positions) == digest_of(oracle_exact.positions),
                   type + " chunked exact find");
      hits.push_back(static_cast<double>(oracle.matches) / (bytes / 1024));
      chunked_queries += 4;

      if (j == 0) {
        // Transition counts are exact and repeat run to run on one seed.
        QueryOptions dfa = c16;
        dfa.variant = rispar::Variant::kDfa;
        QueryResult by_dfa;
        probes.timed("parallel.ca_run.dfa", doc.size(),
                     [&] { by_dfa = recognizer.recognize(symbols, dfa); });
        probes.check(by_dfa.accepted == serial.accepted, type + " DFA-variant recognize");
        ++chunked_queries;
        probes.metric("recognize.transitions_per_byte." + type,
                      static_cast<double>(recognized.transitions) / bytes, "count/B");
        probes.metric("recognize.dfa_transitions_per_byte." + type,
                      static_cast<double>(by_dfa.transitions) / bytes, "count/B");
        probes.metric("find.transitions_per_byte." + type,
                      static_cast<double>(found.transitions) / bytes, "count/B");
      }
    }
    probes.metric("automata.translate_mbps." + type, median(translate), "MB/s");
    probes.metric("core.serial_scan_mbps." + type, median(scan), "MB/s");
    probes.metric("recognize.reach_ms." + type, median(reach), "ms");
    probes.metric("recognize.join_ms." + type, median(join), "ms");
    probes.metric("find.serial_mbps." + type, median(find_serial), "MB/s");
    probes.metric("find.chunked_mbps." + type, median(find_chunked), "MB/s");
    probes.metric("count.chunked_mbps." + type, median(count_chunked), "MB/s");
    probes.metric("find.hits_per_kib." + type, median(hits), "1/KiB");
    probes.metric("find.exact_resolve_ms." + type, median(exact_resolve), "ms");
  }
  probes.metric("automata.searcher_translate_mbps", mbps(searcher_bytes, searcher_ms),
                "MB/s");
  const auto executed = static_cast<double>(pool_executed() - executed_before);
  probes.metric("pool.tasks_per_query", executed / static_cast<double>(chunked_queries),
                "count");
}

struct StreamOracles {
  /// Per type: the serial find list over the first kStreamBytes of doc 0.
  std::array<std::vector<Match>, kTypes> prefix;
  /// Per type: the merged whole-catalog exact list over doc 0.
  std::array<std::vector<Match>, kTypes> catalog_exact;
};

/// engine.stream, engine.checkpoint; returns the 4 KiB streaming feed median
/// (us) the server overhead is measured against.
double stream_probes(Probes& probes, const Corpus& corpus, const Engines& engines,
                     const StreamOracles& oracles) {
  std::vector<double> feed, decision, find_only, multi, encode, resume, blob_bytes;
  for (std::size_t t = 0; t < kTypes; ++t) {
    const std::string type = kTypeNames[t];
    const rispar::Engine& finder = *engines.finders[t];
    const rispar::Dfa& searcher = finder.searcher();
    const std::string_view prefix =
        std::string_view(corpus.docs[t].text).substr(0, kStreamBytes);

    rispar::StreamSession session = finder.stream(positions_c1());
    rispar::StreamSession decider = finder.stream(QueryOptions{});
    rispar::FindCarry carry;
    MatchDigest streamed, carried;
    const rispar::MatchSink sink = [&](const Match& m) { streamed.add(m); };
    const rispar::MatchSink carry_sink = [&](const Match& m) { carried.add(m); };
    for (const std::string_view window : windows_of(prefix, kStreamWindow)) {
      feed.push_back(1e3 * probes.timed("engine.stream.feed", window.size(),
                                        [&] { session.feed(window, sink); }));
      decision.push_back(1e3 * probes.timed("engine.stream.decision", window.size(),
                                            [&] { decider.feed(window); }));
      const std::vector<Symbol> symbols = searcher.symbols().translate(window);
      const double find_only_ms =
          probes.timed("engine.stream.find_only", window.size(), [&] {
            rispar::stream_find_feed(searcher, carry, symbols, finder.pool(),
                                     positions_c1(), carry_sink);
          });
      find_only.push_back(1e3 * find_only_ms);
    }
    const MatchDigest expected = digest_of(oracles.prefix[t]);
    probes.check(streamed == expected, type + " streaming find");
    probes.check(carried == expected, type + " stream_find_feed");
    probes.check(decider.accepted() == finder.accepts(prefix),
                 type + " streaming decision");
  }

  // Multi-pattern feeds nest each pattern's chunk batch inside a pool task,
  // so idle workers steal from each other; single-pattern queries submit
  // from outside the pool, where claims are never steals.
  rispar::PatternSet set(engines.catalog);
  const rispar::PoolStats pool_before = set.pool().stats();
  for (std::size_t t = 0; t < kTypes; ++t) {
    rispar::MultiStreamSession session = set.stream_find(multi_exact());
    MatchDigest streamed;
    const rispar::MatchSink sink = [&](const Match& m) { streamed.add(m); };
    std::size_t fed = 0;
    for (const std::string_view window : windows_of(corpus.docs[t].text, kMultiWindow)) {
      multi.push_back(1e3 * probes.timed("engine.multistream.feed", window.size(),
                                         [&] { session.feed(window, sink); }));
      if (++fed % kCheckpointEvery != 0) continue;
      std::string blob;
      encode.push_back(1e3 * probes.timed("engine.checkpoint.encode", 0,
                                          [&] { blob = session.checkpoint(); }));
      blob_bytes.push_back(static_cast<double>(blob.size()));
      std::uint64_t resumed_at = 0;
      resume.push_back(1e3 * probes.timed("engine.checkpoint.resume", blob.size(), [&] {
        resumed_at = set.resume_stream(blob, multi_exact()).bytes_consumed();
      }));
      probes.check(resumed_at == session.bytes_consumed(), "checkpoint resume position");
    }
    probes.check(streamed == digest_of(oracles.catalog_exact[t]),
                 std::string(kTypeNames[t]) + " multi-pattern exact streaming find");
  }
  const double feed_us = median(feed);
  probes.metric("stream.feed_us.4k_c1", feed_us, "us");
  probes.metric("stream.decision_us.4k_c1", median(decision), "us");
  probes.metric("stream.find_only_us.4k_c1", median(find_only), "us");
  probes.metric("multistream.feed_us.64k_c4_exact", median(multi), "us");
  probes.metric("checkpoint.encode_us", median(encode), "us");
  probes.metric("checkpoint.resume_us", median(resume), "us");
  probes.metric("checkpoint.blob_bytes", median(blob_bytes), "B");
  const rispar::PoolStats pool_after = set.pool().stats();
  probes.metric("pool.steal_share",
                static_cast<double>(pool_after.stolen - pool_before.stolen) /
                    static_cast<double>(pool_after.executed - pool_before.executed),
                "share");
  return feed_us;
}

/// The value of `"key":N` in a STATS_JSON payload, 0 when absent.
std::uint64_t stats_counter(std::string_view json, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string_view::npos) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = at + needle.size();
       i < json.size() && json[i] >= '0' && json[i] <= '9'; ++i)
    value = value * 10 + static_cast<std::uint64_t>(json[i] - '0');
  return value;
}

/// server: unloaded FEED->FED round trips of the same 4 KiB windows the
/// stream probe fed in process.
void server_probe(Probes& probes, Result& result, const Options& options,
                  const Corpus& corpus, const StreamOracles& oracles, double feed_us) {
  using namespace rispar::rispard;
  ServerProcess server(options.rispard, kFindPatterns);
  std::vector<double> rtt;
  double response_bytes = 0, input_bytes = 0;
  {
    Conn conn(server.port());
    Frame frame;
    const auto expect = [&](FrameType type, const char* what) {
      const bool ok = conn.await(frame) && frame.type == type;
      probes.check(ok, what);
      return ok;
    };
    for (std::size_t t = 0; t < kTypes && result.correct; ++t) {
      const auto sid = static_cast<std::uint32_t>(t);
      conn.queue(make_open_session(sid, sid, 0, 1));
      if (!expect(FrameType::kOpened, "server OPEN_SESSION")) break;
      MatchDigest streamed;
      const std::string_view prefix =
          std::string_view(corpus.docs[t].text).substr(0, kStreamBytes);
      for (const std::string_view window : windows_of(prefix, kStreamWindow)) {
        bool acked = false;
        rtt.push_back(1e3 * probes.timed("server.feed_rtt", window.size(), [&] {
          conn.queue(make_feed(sid, window));
          while (conn.await(frame)) {
            response_bytes +=
                static_cast<double>(kFrameHeaderBytes + frame.payload.size());
            if (frame.type == FrameType::kFed) {
              acked = true;
              break;
            }
            if (frame.type != FrameType::kMatches) break;
            PayloadReader payload(frame.payload);
            payload.get_u32();
            const std::uint32_t count = payload.get_u32();
            // Checked under the session's catalog id, as serve.cpp does:
            // single-pattern MATCHES are tagged 0 on the wire.
            for (std::uint32_t i = 0; i < count; ++i) {
              payload.get_u32();
              const std::uint64_t begin = payload.get_u64();
              streamed.add(sid, begin, payload.get_u64());
            }
          }
        }));
        input_bytes += static_cast<double>(window.size());
        if (!acked) break;
      }
      probes.check(streamed == relabeled(oracles.prefix[t], sid),
                   "server streaming find");
      conn.queue(make_close(sid));
      expect(FrameType::kClosed, "server CLOSE");
    }
    conn.queue(make_stats());
    if (expect(FrameType::kStatsJson, "server STATS")) {
      // Server-side failures count as failed operations of the run.
      const std::uint64_t errors = stats_counter(frame.payload, "error_frames") +
                                   stats_counter(frame.payload, "feed_rejects");
      result.failed += errors;
      if (errors > 0) result.correct = false;
    }
  }
  server.stop();
  const double rtt_us = median(rtt);
  probes.metric("server.rtt_p50_us", rtt_us, "us");
  probes.metric("server.overhead_us", rtt_us - feed_us, "us");
  probes.metric("server.response_bytes_per_input_byte", response_bytes / input_bytes,
                "B/B");
}

/// One workload operation split into its layer calls ("op" span with one
/// child per call), alternating with the same operation untraced.
class Waterfall {
 public:
  explicit Waterfall(Probes& probes) : probes_(probes) {}
  virtual ~Waterfall() = default;
  virtual void traced(std::uint64_t op) = 0;
  /// Returns the untraced operation's latency in ms.
  virtual double untraced() = 0;

 protected:
  Probes& probes_;
};

class RecognizeWaterfall final : public Waterfall {
 public:
  RecognizeWaterfall(const Corpus& corpus, const Engines& engines, Probes& probes)
      : Waterfall(probes), corpus_(corpus), engines_(engines) {}

  void traced(std::uint64_t op) override {
    const Doc& doc = next_doc();
    const rispar::Engine& engine = *engines_.recognizers[doc.type];
    ScopedSpan span(probes_.tracer(), "op", op, doc.text.size());
    std::vector<Symbol> symbols;
    probes_.timed("automata.translate", doc.text.size(),
                 [&] { symbols = engine.translate(doc.text); });
    bool accepted = false;
    probes_.timed("parallel.ca_run", doc.text.size(), [&] {
      accepted = engine.recognize(symbols, chunked(kChunks)).accepted;
    });
    probes_.check(accepted, "traced recognize");
  }

  double untraced() override {
    const Doc& doc = next_doc();
    const auto t0 = Clock::now();
    const bool accepted =
        engines_.recognizers[doc.type]->recognize(doc.text, chunked(kChunks)).accepted;
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    probes_.check(accepted, "recognize");
    return ms;
  }

 private:
  const Doc& next_doc() { return corpus_.docs[next_++ % corpus_.docs.size()]; }
  const Corpus& corpus_;
  const Engines& engines_;
  std::size_t next_ = 0;
};

class FindWaterfall final : public Waterfall {
 public:
  FindWaterfall(const Corpus& corpus, const Engines& engines, Probes& probes)
      : Waterfall(probes),
        corpus_(corpus),
        engines_(engines),
        expected_(corpus.docs.size()) {
    parallel_for(corpus.docs.size(), [&](std::size_t i) {
      const Doc& doc = corpus.docs[i];
      expected_[i] =
          digest_of(serial_matches(engines.finders[doc.type]->pattern(), doc.text));
    });
  }

  void traced(std::uint64_t op) override {
    const std::size_t i = next_++ % corpus_.docs.size();
    const Doc& doc = corpus_.docs[i];
    const rispar::Engine& engine = *engines_.finders[doc.type];
    ScopedSpan span(probes_.tracer(), "op", op, doc.text.size());
    std::vector<Symbol> symbols;
    probes_.timed("automata.searcher_translate", doc.text.size(),
                 [&] { symbols = engine.searcher().symbols().translate(doc.text); });
    QueryResult found;
    probes_.timed("parallel.match_count.find", doc.text.size(), [&] {
      found = rispar::find_matches(engine.searcher(), symbols, engine.pool(),
                                   chunked(kChunks));
    });
    probes_.check(digest_of(found.positions) == expected_[i], "traced find");
  }

  double untraced() override {
    const std::size_t i = next_++ % corpus_.docs.size();
    const Doc& doc = corpus_.docs[i];
    const auto t0 = Clock::now();
    const QueryResult found =
        engines_.finders[doc.type]->find(doc.text, chunked(kChunks));
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    probes_.check(digest_of(found.positions) == expected_[i], "find");
    return ms;
  }

 private:
  const Corpus& corpus_;
  const Engines& engines_;
  std::vector<MatchDigest> expected_;
  std::size_t next_ = 0;
};

/// serve-tail's per-FEED work in process: 4 KiB windows at c=1 over each
/// type's doc 0, types round-robin. The traced split is the decision side
/// (skipped once the decision is dead, as StreamSession::feed skips it)
/// and the find side, each with its own translation.
class TailWaterfall final : public Waterfall {
 public:
  TailWaterfall(const Corpus& corpus, const Engines& engines, Probes& probes)
      : Waterfall(probes) {
    lanes_.reserve(kTypes);
    for (std::size_t t = 0; t < kTypes; ++t) {
      Lane& lane = lanes_.emplace_back(*engines.finders[t]);
      lane.windows = windows_of(corpus.docs[t].text, kStreamWindow);
      lane.expected =
          digest_of(serial_matches(engines.finders[t]->pattern(), corpus.docs[t].text));
    }
  }

  void traced(std::uint64_t op) override {
    Lane& lane = lanes_[next_traced_++ % kTypes];
    const std::string_view window = lane.next(lane.traced_at, [&] {
      probes_.check(lane.traced_digest == lane.expected, "traced streaming find");
      lane.decider.reset();
      lane.carry = rispar::FindCarry{};
      lane.traced_digest = {};
    });
    const rispar::Engine& engine = lane.engine;
    ScopedSpan span(probes_.tracer(), "op", op, window.size());
    if (!lane.decider.dead()) {
      std::vector<Symbol> symbols;
      probes_.timed("automata.translate", window.size(),
                   [&] { symbols = engine.translate(window); });
      probes_.timed("engine.stream.decision", window.size(),
                   [&] { lane.decider.feed(std::span<const Symbol>(symbols)); });
    }
    std::vector<Symbol> find_symbols;
    probes_.timed("automata.searcher_translate", window.size(),
                 [&] { find_symbols = engine.searcher().symbols().translate(window); });
    probes_.timed("engine.stream.find_only", window.size(), [&] {
      rispar::stream_find_feed(engine.searcher(), lane.carry, find_symbols, engine.pool(),
                               positions_c1(),
                               [&](const Match& m) { lane.traced_digest.add(m); });
    });
  }

  double untraced() override {
    Lane& lane = lanes_[next_untraced_++ % kTypes];
    const std::string_view window = lane.next(lane.untraced_at, [&] {
      probes_.check(lane.untraced_digest == lane.expected, "streaming find");
      lane.session.reset();
      lane.untraced_digest = {};
    });
    const auto t0 = Clock::now();
    lane.session.feed(window, [&](const Match& m) { lane.untraced_digest.add(m); });
    return seconds_between(t0, Clock::now()) * 1e3;
  }

 private:
  struct Lane {
    explicit Lane(const rispar::Engine& e)
        : engine(e),
          session(e.stream(positions_c1())),
          decider(e.stream(QueryOptions{})) {}
    /// The window at `at`, advancing it; at the end of the document runs
    /// `restart` (check and reset) and starts over.
    template <typename Fn>
    std::string_view next(std::size_t& at, Fn&& restart) {
      if (at == windows.size()) {
        restart();
        at = 0;
      }
      return windows[at++];
    }
    const rispar::Engine& engine;
    rispar::StreamSession session;
    rispar::StreamSession decider;
    rispar::FindCarry carry;
    std::vector<std::string_view> windows;
    std::size_t traced_at = 0, untraced_at = 0;
    MatchDigest expected, traced_digest, untraced_digest;
  };

  std::vector<Lane> lanes_;
  std::size_t next_traced_ = 0, next_untraced_ = 0;
};

/// serve-backfill's per-FEED work in process: 64 KiB whole-catalog kExact
/// windows at c=4 with a checkpoint after every 16th.
class BackfillWaterfall final : public Waterfall {
 public:
  BackfillWaterfall(const Corpus& corpus, const Engines& engines, Probes& probes,
                    const StreamOracles& oracles)
      : Waterfall(probes), set_(engines.catalog) {
    for (std::size_t t = 0; t < kTypes; ++t) {
      windows_[t] = windows_of(corpus.docs[t].text, kMultiWindow);
      expected_[t] = digest_of(oracles.catalog_exact[t]);
    }
    traced_.emplace(set_.stream_find(multi_exact()));
    untraced_.emplace(set_.stream_find(multi_exact()));
  }

  void traced(std::uint64_t op) override {
    const std::string_view window = next(traced_lane_, *traced_, traced_digest_);
    ScopedSpan span(probes_.tracer(), "op", op, window.size());
    probes_.timed("engine.multistream.feed", window.size(), [&] {
      traced_->feed(window, [&](const Match& m) { traced_digest_.add(m); });
    });
    if (++traced_lane_.feeds % kBackfillCheckpointEvery == 0)
      probes_.timed("engine.checkpoint.encode", 0, [&] { (void)traced_->checkpoint(); });
  }

  double untraced() override {
    const std::string_view window = next(untraced_lane_, *untraced_, untraced_digest_);
    const auto t0 = Clock::now();
    untraced_->feed(window, [&](const Match& m) { untraced_digest_.add(m); });
    if (++untraced_lane_.feeds % kBackfillCheckpointEvery == 0)
      (void)untraced_->checkpoint();
    return seconds_between(t0, Clock::now()) * 1e3;
  }

 private:
  struct Position {
    std::size_t type = 0, window = 0;
    std::uint64_t feeds = 0;
  };

  /// The next window of the session's current document; at the document's
  /// end the session is checked, reset and moved to the next type.
  std::string_view next(Position& at, rispar::MultiStreamSession& session,
                        MatchDigest& digest) {
    if (at.window == windows_[at.type].size()) {
      probes_.check(digest == expected_[at.type], "multi-pattern exact streaming find");
      session.reset();
      digest = {};
      at.type = (at.type + 1) % kTypes;
      at.window = 0;
    }
    return windows_[at.type][at.window++];
  }

  rispar::PatternSet set_;
  std::array<std::vector<std::string_view>, kTypes> windows_;
  std::array<MatchDigest, kTypes> expected_;
  std::optional<rispar::MultiStreamSession> traced_, untraced_;
  Position traced_lane_, untraced_lane_;
  MatchDigest traced_digest_, untraced_digest_;
};

void run_waterfall(Probes& probes, Waterfall& waterfall, double seconds) {
  // Warm the caches and lazy state of both paths first.
  for (int i = 0; i < 5; ++i) {
    waterfall.traced(probes.next_op());
    (void)waterfall.untraced();
  }
  const std::size_t first_span = probes.tracer().spans().size();
  std::vector<double> untraced;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds) {
    waterfall.traced(probes.next_op());
    untraced.push_back(waterfall.untraced());
  }

  // Self time per stage: each op's children by name, the op's own remainder
  // as "op.self"; the stage sum is the sum of the per-stage medians.
  const std::vector<Tracer::Span>& spans = probes.tracer().spans();
  std::vector<double> ops;
  std::map<std::string, std::vector<double>> stages;
  std::map<std::int32_t, std::map<std::string, double>> per_op;
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    if (std::strcmp(s.name, "op") == 0) {
      ops.push_back(s.duration_ms());
      per_op[static_cast<std::int32_t>(i)]["op.self"] += s.duration_ms();
    } else if (s.parent >= 0) {
      per_op[s.parent][s.name] += s.duration_ms();
      per_op[s.parent]["op.self"] -= s.duration_ms();
    }
  }
  for (const auto& [op, parts] : per_op)
    for (const auto& [name, ms] : parts) stages[name];
  for (const auto& [op, parts] : per_op)
    for (auto& [name, values] : stages) {
      const auto it = parts.find(name);
      values.push_back(it == parts.end() ? 0.0 : it->second);
    }
  double stage_sum = 0;
  for (const auto& [name, values] : stages) {
    const double ms = median(values);
    log("waterfall: %-32s %10.4f ms (median self time per op)\n", name.c_str(), ms);
    stage_sum += ms;
  }
  const double traced_p50 = median(ops), untraced_p50 = median(untraced);
  log("waterfall: %zu traced and %zu untraced ops; stage sum %.4f ms vs untraced p50 "
      "%.4f ms (%.1f%%)\n",
      ops.size(), untraced.size(), stage_sum, untraced_p50,
      100.0 * stage_sum / untraced_p50);
  probes.metric("waterfall.op_p50_ms", traced_p50, "ms");
  probes.metric("waterfall.untraced_op_p50_ms", untraced_p50, "ms");
  probes.metric("waterfall.stage_sum_ms", stage_sum, "ms");
  probes.metric("waterfall.stage_sum_share", stage_sum / untraced_p50, "share");
  probes.metric("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
}

}  // namespace

Result run_traced(const Options& options, const Corpus& corpus, Tracer& tracer) {
  Result result;
  Probes probes(tracer, result);
  Engines engines;
  setup_probes(probes, options, engines);
  bulk_probes(probes, corpus, engines);

  StreamOracles oracles;
  for (std::size_t t = 0; t < kTypes; ++t) {
    const std::string_view doc = corpus.docs[t].text;
    oracles.prefix[t] =
        serial_matches(engines.finders[t]->pattern(), doc.substr(0, kStreamBytes));
    oracles.catalog_exact[t] = catalog_exact_matches(engines.catalog, doc);
  }
  const double feed_us = stream_probes(probes, corpus, engines, oracles);
  server_probe(probes, result, options, corpus, oracles, feed_us);

  std::unique_ptr<Waterfall> waterfall;
  if (options.workload == "bulk-recognize")
    waterfall = std::make_unique<RecognizeWaterfall>(corpus, engines, probes);
  else if (options.workload == "bulk-find")
    waterfall = std::make_unique<FindWaterfall>(corpus, engines, probes);
  else if (options.workload == "serve-tail")
    waterfall = std::make_unique<TailWaterfall>(corpus, engines, probes);
  else
    waterfall = std::make_unique<BackfillWaterfall>(corpus, engines, probes, oracles);
  run_waterfall(probes, *waterfall, options.seconds / 2);
  return result;
}

}  // namespace e2e
