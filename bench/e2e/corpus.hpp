// The benchmark's pinned inputs: the seeded corpus, the two pattern
// catalogs and the small shared helpers every workload uses (timing,
// percentiles, the pinned-value file).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/pattern.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// The paper's five Tab. 1 generators, in src/workloads/suite.hpp order.
inline constexpr std::size_t kTypes = 5;
inline constexpr std::array<const char*, kTypes> kTypeNames = {
    "bigdata", "regexp", "bible", "fasta", "traffic"};

/// 8 documents x 1 MiB per type: 40 MiB, larger than the last-level cache,
/// so no workload runs cache-resident.
inline constexpr std::size_t kDocsPerType = 8;
inline constexpr std::size_t kDocBytes = std::size_t{1} << 20;

/// The find/serve catalog: one searcher pattern per corpus type, spanning
/// searcher size (9 to 68 states) and hit density (0.4 to 64 hits per KiB).
inline constexpr std::array<const char*, kTypes> kFindPatterns = {
    "abababab",
    "aaaa[ab]{6}",
    "<h3>[a-z0-9 ]*[0-9][a-z0-9 ]{2}</h3>",
    "GATTACA|CCGGTTAA|ACGTACGT",
    "(sshd|nginxd)\\[[0-9]{1,5}\\]: DROP src=",
};

struct Doc {
  std::size_t type = 0;
  std::string text;
};

/// Documents interleave the types (doc i has type i % kTypes), so a
/// round-robin loop alternates winning and even documents.
struct Corpus {
  std::vector<Doc> docs;
  std::uint64_t fingerprint = 0;
  std::size_t bytes = 0;
};

Corpus make_corpus(std::uint64_t seed);
/// make_corpus(seed).fingerprint, one document in memory at a time.
std::uint64_t corpus_fingerprint(std::uint64_t seed);

/// The concatenation of one type's documents: the byte stream every serve
/// session of that type feeds.
std::string type_stream(const Corpus& corpus, std::size_t type);

/// The five suite regexes (whole-input semantics), compiled the way the
/// paper's drivers compile them: Glushkov NFA, then the Pattern pipeline.
std::vector<rispar::Pattern> compile_suite();
std::vector<rispar::Pattern> compile_catalog();

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = 0xcbf29ce484222325ull);

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Runs fn(i) for every i in [0, n) on at most one thread per processor
/// (the untimed oracle computations). Rethrows the first exception.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Nearest-rank percentile (0..100) of `values`; reorders them.
double percentile(std::vector<double>& values, double pct);
double median(std::vector<double> values);

/// VmHWM, the peak resident set, of process `pid` ("self" for this one), in
/// MB (10^6 bytes).
double peak_rss_mb(const std::string& pid);

/// bench/e2e/pinned.conf: "key value..." lines, '#' comments. Values that
/// must not drift between commits live here, not in BENCHMARK.json.
class Pinned {
 public:
  explicit Pinned(const std::string& path);
  /// The words after `key`, or an empty vector when the key is absent.
  const std::vector<std::string>& get(const std::string& key) const;
  std::uint64_t number(const std::string& key) const;

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

}  // namespace e2e
