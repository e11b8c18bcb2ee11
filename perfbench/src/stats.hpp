// Percentiles, response classification and the per-run tally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (p in (0, 1]): the ceil(p * n)-th smallest sample.
// 0 for an empty set. Sorts a copy.
double NearestRank(std::vector<double> samples, double p);

// Samples strictly above the nearest-rank p-th percentile of n samples. A
// percentile is reported only when at least ten samples lie beyond it, so
// p99 needs n >= 1000.
std::size_t SamplesBeyond(std::size_t n, double p);
inline constexpr std::size_t kMinSamplesBeyond = 10;

// A run cut into `windows` equal time slices: the median over slices of
// each slice's p50 latency and of its completion rate. Medians of slices
// keep a burst of host noise in one slice from moving the run's figure.
// `done_s[i]` is when sample i completed, in seconds since the run began.
struct Windowed {
  double p50 = 0;
  double rate = 0;  // completions per second
};
Windowed WindowedMedians(const std::vector<double>& done_s, const std::vector<double>& latency,
                         double run_seconds, int windows);

// What one response means for error accounting.
enum class Outcome {
  kOk,          // ok, every unit feasible, checks passed
  kRefused,     // "overloaded" or "unavailable"
  kError,       // any other ok:false reply, or an unparseable line
  kInfeasible,  // ok, but some unit not feasible
  kMismatch,    // ok and feasible, but an output check disagreed
  kTransport,   // no reply (connection failure)
};

struct UnitResult {
  std::string solver;
  bool feasible = false;
  bool cached = false;
  long long weight = 0;
  long rounds = 0;
  double wall_ms = 0.0;
  std::string key;
  std::vector<long long> edges;
};

struct Response {
  Outcome outcome = Outcome::kError;
  std::string error;
  double wall_ms = 0.0;
  bool warm = false;
  std::string key;  // revise: the revised canonical key
  std::vector<UnitResult> units;
};

// Parses and classifies one response line. `expect_key` (may be empty) is
// the canonical key a revise/solve response must report.
Response ClassifyResponse(std::string_view line, std::string_view expect_key);

// Attempted / failed counters; error_rate = failed / attempted.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;
  std::uint64_t failed = 0;  // every non-ok outcome, refusals included

  void Add(Outcome o);
  void Merge(const Tally& other);
  [[nodiscard]] double ErrorRate() const;
};

// The request line with its "id" member removed (the router keys on the
// id-free text), and likewise for a response line.
std::string StripId(std::string_view line);

}  // namespace perfbench
