#include "corpus.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "automata/glushkov.hpp"
#include "util/prng.hpp"
#include "workloads/suite.hpp"

namespace e2e {

namespace {

constexpr std::size_t kDocs = kTypes * kDocsPerType;

/// Document `i` (type i % kTypes) of the seed's corpus.
std::string make_doc(const std::vector<rispar::WorkloadSpec>& suite, std::uint64_t seed,
                     std::size_t i) {
  const std::size_t type = i % kTypes;
  rispar::Prng prng(seed ^ rispar::stable_hash(suite[type].name) ^
                    ((i / kTypes + 1) * 0x9e3779b97f4a7c15ull));
  return suite[type].text(kDocBytes, prng);
}

/// The fingerprint extended by one document: its length, then its bytes.
std::uint64_t fingerprint_add(std::uint64_t hash, std::string_view text) {
  const std::uint64_t size = text.size();
  hash = fnv1a(std::string_view(reinterpret_cast<const char*>(&size), sizeof size), hash);
  return fnv1a(text, hash);
}

}  // namespace

Corpus make_corpus(std::uint64_t seed) {
  const std::vector<rispar::WorkloadSpec> suite = rispar::benchmark_suite();
  Corpus corpus;
  corpus.fingerprint = fnv1a({});
  for (std::size_t i = 0; i < kDocs; ++i) {
    const Doc& doc = corpus.docs.emplace_back(Doc{i % kTypes, make_doc(suite, seed, i)});
    corpus.fingerprint = fingerprint_add(corpus.fingerprint, doc.text);
    corpus.bytes += doc.text.size();
  }
  return corpus;
}

std::uint64_t corpus_fingerprint(std::uint64_t seed) {
  const std::vector<rispar::WorkloadSpec> suite = rispar::benchmark_suite();
  std::uint64_t fingerprint = fnv1a({});
  for (std::size_t i = 0; i < kDocs; ++i)
    fingerprint = fingerprint_add(fingerprint, make_doc(suite, seed, i));
  return fingerprint;
}

std::string type_stream(const Corpus& corpus, std::size_t type) {
  std::string stream;
  for (const Doc& doc : corpus.docs)
    if (doc.type == type) stream += doc.text;
  return stream;
}

std::vector<rispar::Pattern> compile_suite() {
  std::vector<rispar::Pattern> patterns;
  for (const rispar::WorkloadSpec& spec : rispar::benchmark_suite())
    patterns.push_back(rispar::Pattern::from_nfa(rispar::glushkov_nfa(spec.regex())));
  return patterns;
}

std::vector<rispar::Pattern> compile_catalog() {
  std::vector<rispar::Pattern> patterns;
  for (const char* regex : kFindPatterns)
    patterns.push_back(rispar::Pattern::compile(regex));
  return patterns;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  const std::size_t workers =
      std::min<std::size_t>(n, std::max(1u, std::thread::hardware_concurrency()));
  for (std::size_t t = 1; t < workers; ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

double percentile(std::vector<double>& values, double pct) {
  if (values.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil: nearest rank
  index = std::clamp<std::size_t>(index, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // the value is in kB
  throw std::runtime_error("no VmHWM in /proc/" + pid + "/status");
}

Pinned::Pinned(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read pinned values " + path);
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string key, word;
    words >> key;
    std::vector<std::string>& value = values_[key];
    while (words >> word) value.push_back(word);
  }
}

const std::vector<std::string>& Pinned::get(const std::string& key) const {
  static const std::vector<std::string> kAbsent;
  const auto it = values_.find(key);
  return it == values_.end() ? kAbsent : it->second;
}

std::uint64_t Pinned::number(const std::string& key) const {
  const std::vector<std::string>& words = get(key);
  if (words.size() != 1)
    throw std::runtime_error("pinned value '" + key + "' is missing");
  return std::stoull(words[0], nullptr, 0);
}

}  // namespace e2e
