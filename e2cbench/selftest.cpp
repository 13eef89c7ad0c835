// Self-tests of the benchmark's own machinery, run with `e2cbench --selftest`:
// nearest-rank percentiles and the ten-beyond rule, seed threading (one seed
// always gives one digest, another seed another), transparency of the timing
// wrapper on the overload shape, and the recorded-digest check.
#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "harness.hpp"

namespace e2cbench {

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::cerr << (condition ? "[ok]   " : "[FAIL] ") << what << "\n";
  if (!condition) ++failures;
}

void percentile_tests() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(nearest_rank(hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
  expect(nearest_rank(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(nearest_rank(hundred, 1.00) == 100.0, "p100 of 1..100 is 100");
  expect(nearest_rank({7.0}, 0.99) == 7.0, "any percentile of one sample is that sample");
  expect(std::isnan(nearest_rank({}, 0.5)), "percentile of no samples is NaN");

  std::vector<double> with_failure(99, 1.0);
  with_failure.push_back(std::numeric_limits<double>::infinity());
  expect(nearest_rank(with_failure, 0.99) == 1.0, "one failure in 100 stays beyond p99");
  with_failure.push_back(std::numeric_limits<double>::infinity());
  expect(std::isinf(nearest_rank(with_failure, 0.99)), "two failures in 101 make p99 +inf");

  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  expect(samples_beyond(20, 0.50) == 10, "20 samples leave 10 beyond p50");
}

void seed_and_wrapper_tests() {
  constexpr std::size_t kTasks = 20'000;
  const std::uint64_t a = overload_digest(3, kTasks, false);
  expect(a == overload_digest(3, kTasks, false), "the same seed gives the same digest");
  expect(a != overload_digest(4, kTasks, false), "another seed gives another digest");
  expect(a == overload_digest(3, kTasks, true),
         "the timing wrapper gives the bare policy's digest on overload");
}

void recorded_digest_tests(const Options& base) {
  Options options = base;
  options.workload = "selftest";
  options.seed = 1;
  options.digest_dir = (std::filesystem::path(base.work_dir) / "selftest-digests").string();
  std::filesystem::remove_all(options.digest_dir);
  expect(check_recorded_digest(options, 42), "the first digest of a seed is recorded");
  expect(check_recorded_digest(options, 42), "the same digest matches the record");
  expect(!check_recorded_digest(options, 43), "a different digest is caught");
  std::filesystem::remove_all(options.digest_dir);
}

}  // namespace

int run_selftests(const Options& options) {
  percentile_tests();
  seed_and_wrapper_tests();
  recorded_digest_tests(options);
  std::cerr << (failures == 0 ? "self-tests passed\n" : "self-tests FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace e2cbench
