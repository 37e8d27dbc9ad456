// Result checking against serial oracles. A match stream is reduced to an
// order-dependent digest (count + hash of every (pattern, begin, end) in
// emission order), so a client can check a stream as it arrives without
// storing it, and a session that stopped part-way is checked against the
// prefix of its oracle that ends where the session's input ended.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "engine/pattern.hpp"
#include "engine/query.hpp"
#include "parallel/match_count.hpp"

namespace e2e {

struct MatchDigest {
  std::uint64_t count = 0;
  std::uint64_t hash = 0;

  void add(std::uint32_t pattern, std::uint64_t begin, std::uint64_t end) {
    std::uint64_t h = hash ^ (0x9e3779b97f4a7c15ull * (count + 1));
    for (const std::uint64_t word : {std::uint64_t{pattern}, begin, end}) {
      h ^= word;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
    }
    hash = h;
    ++count;
  }
  void add(const rispar::Match& match) { add(match.pattern_id, match.begin, match.end); }

  bool operator==(const MatchDigest&) const = default;
};

inline MatchDigest digest_of(std::span<const rispar::Match> matches) {
  MatchDigest digest;
  for (const rispar::Match& match : matches) digest.add(match);
  return digest;
}

/// The serial oracle of one pattern: its one-scan searcher over `text`,
/// separator begins, every match tagged `pattern_id`.
inline std::vector<rispar::Match> serial_matches(const rispar::Pattern& pattern,
                                                 std::string_view text,
                                                 std::uint32_t pattern_id = 0) {
  const rispar::Dfa& searcher = pattern.searcher();
  return rispar::find_matches_serial(searcher, searcher.symbols().translate(text),
                                     pattern_id)
      .positions;
}

/// The serial oracle of a whole-catalog kExact multi-pattern session: each
/// pattern's exact-begin matches (tagged with its catalog index) merged in
/// emission order, ascending (end, begin, pattern_id).
inline std::vector<rispar::Match> catalog_exact_matches(
    std::span<const rispar::Pattern> catalog, std::string_view text) {
  std::vector<rispar::Match> merged;
  for (std::size_t p = 0; p < catalog.size(); ++p) {
    const rispar::Dfa& searcher = catalog[p].searcher();
    const rispar::QueryResult found = rispar::find_matches_serial(
        searcher, searcher.symbols().translate(text), static_cast<std::uint32_t>(p),
        &catalog[p].reverse_begins().dfa);
    merged.insert(merged.end(), found.positions.begin(), found.positions.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const rispar::Match& a, const rispar::Match& b) {
              return std::tie(a.end, a.begin, a.pattern_id) <
                     std::tie(b.end, b.begin, b.pattern_id);
            });
  return merged;
}

/// The expected digest of every prefix of one oracle match list. Matches
/// must be in emission order: ascending (end, begin, pattern_id).
class PrefixOracle {
 public:
  PrefixOracle() = default;
  explicit PrefixOracle(std::span<const rispar::Match> matches) {
    ends_.reserve(matches.size());
    digests_.reserve(matches.size() + 1);
    MatchDigest digest;
    for (const rispar::Match& match : matches) {
      digest.add(match);
      ends_.push_back(match.end);
      digests_.push_back(digest);
    }
  }

  /// Digest of the matches a stream emits once `consumed` bytes are fed:
  /// exactly those ending at or before that offset.
  MatchDigest upto(std::uint64_t consumed) const {
    const auto it = std::upper_bound(ends_.begin(), ends_.end(), consumed);
    return digests_[static_cast<std::size_t>(it - ends_.begin())];
  }
  MatchDigest total() const { return digests_.back(); }

 private:
  std::vector<std::uint64_t> ends_;
  std::vector<MatchDigest> digests_{MatchDigest{}};
};

/// Feeds to count as failed for a session that received `got` after
/// `consumed` bytes: all of its `feeds` on a mismatch, none otherwise.
inline std::uint64_t failed_feeds(const MatchDigest& got, const PrefixOracle& oracle,
                                  std::uint64_t consumed, std::uint64_t feeds) {
  return got == oracle.upto(consumed) ? 0 : feeds;
}

}  // namespace e2e
