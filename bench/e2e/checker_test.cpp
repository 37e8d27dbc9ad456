// The checker must count a failure for any match list that differs from its
// oracle. Runs the real serial finder on a small text, then feeds the
// checker the true list and perturbed copies of it.
//
//   bench/e2e/run.sh --self-test
#include <cstdio>
#include <string>
#include <vector>

#include "checker.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  const rispar::Pattern pattern = rispar::Pattern::compile("ab(c|d)");
  std::string text;
  for (int i = 0; i < 64; ++i) text += i % 3 == 0 ? "xxabcyy" : "abdab";
  const std::vector<rispar::Match> truth = e2e::serial_matches(pattern, text);
  const e2e::PrefixOracle oracle(truth);
  const std::uint64_t feeds = 7;
  const auto failed = [&](const std::vector<rispar::Match>& got, std::uint64_t consumed) {
    return e2e::failed_feeds(e2e::digest_of(got), oracle, consumed, feeds);
  };

  expect(truth.size() > 10, "the oracle finds matches");
  expect(failed(truth, text.size()) == 0, "the true list passes");

  std::vector<rispar::Match> prefix;
  const std::uint64_t cut = text.size() / 2;
  for (const rispar::Match& m : truth)
    if (m.end <= cut) prefix.push_back(m);
  expect(failed(prefix, cut) == 0, "a true prefix passes at its offset");
  expect(failed(prefix, text.size()) == feeds, "a prefix fails against the whole stream");

  std::vector<rispar::Match> shifted = truth;
  shifted[3].begin += 1;
  expect(failed(shifted, text.size()) == feeds, "a shifted begin counts a failure");

  std::vector<rispar::Match> dropped = truth;
  dropped.erase(dropped.begin() + 5);
  expect(failed(dropped, text.size()) == feeds, "a dropped match counts a failure");

  std::vector<rispar::Match> duplicated = truth;
  duplicated.insert(duplicated.begin() + 2, duplicated[2]);
  expect(failed(duplicated, text.size()) == feeds, "a duplicated match counts a failure");

  std::vector<rispar::Match> swapped = truth;
  std::swap(swapped[0], swapped[1]);
  expect(failed(swapped, text.size()) == feeds, "reordered matches count a failure");

  std::vector<rispar::Match> relabeled = truth;
  relabeled.back().pattern_id = 1;
  expect(failed(relabeled, text.size()) == feeds, "a wrong pattern id counts a failure");

  std::printf("%s\n", failures == 0 ? "checker: all checks passed" : "checker: FAILED");
  return failures == 0 ? 0 : 1;
}
