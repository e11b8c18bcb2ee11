// Command-line flags of the `dsf` binary (src/cli/main.cpp): one table per
// mode, one argv loop, and one --help generator.
//
// A row names a flag, the metavar of its value (empty for a switch), one
// help sentence, and a setter that parses, range-checks, and stores into
// the mode's option struct. Flags that several modes accept are defined
// once and take a parameter only where the modes really differ. Cross-flag
// rules (which flags need which) run as plain code after the parse.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "suite/runner.hpp"

namespace dsf {

struct Flag {
  std::string name;     // "--threads"
  std::string metavar;  // "N"; empty for a switch, which takes no value
  std::string help;     // ends with "(default V)" when the field has one
  // Parses, range-checks, and stores the value ("" for a switch); throws
  // std::runtime_error with a message naming the flag.
  std::function<void(const std::string&)> set;
};

struct Mode {
  std::string name;      // error prefix: "dsf", "dsf serve", ...
  std::string synopsis;  // --help's usage line(s), after "usage: "
  std::vector<Flag> flags;
  std::string notes;     // closing --help paragraph; may be empty
  // Cross-flag rules, run after a clean parse: an error message, or "".
  std::function<std::string()> check;
};

// Parses `args` (argv after the mode word) into the option struct `mode`
// was built over, then runs its cross-flag rules. Returns nullopt when the
// mode should run; otherwise its exit status: 0 after printing usage to
// `out` (-h/--help, wherever it appears before an error), or 2 after
// printing "NAME: ERROR" and the usage to `err`.
std::optional<int> ParseFlags(const Mode& mode,
                              const std::vector<std::string>& args,
                              std::ostream& out, std::ostream& err);

// `dsf --scenario FILE`: the one-shot batch run.
struct CliArgs {
  std::string scenario_path;
  std::vector<std::string> solvers;  // empty => the spec's, else all
  std::uint64_t seed = 0;
  bool seed_set = false;  // --seed given: overrides the scenario-level seed
  int threads = 1;
  double epsilon = 0.0;
  int repetitions = 1;
  int deadline_ms = 0;  // anytime per-unit deadline; 0 = none
  bool reference = false;
  bool prune = true;
  std::string json_path;  // empty => stdout
  bool list_solvers = false;
  bool list_generators = false;
};

// `dsf suite`: the benchmark wall.
struct SuiteArgs {
  std::string manifest_path = "scenarios/suite/manifest.dsf-suite";
  std::string baseline_path = "bench/SUITE_baseline.json";
  std::string out_path;
  std::string corpus_dir;
  bool record = false;
  bool check = false;
  SuiteRunOptions run;
};

// The five modes. Each Mode's setters write through to the struct it was
// built over, which must outlive it.
Mode CliMode(CliArgs& args);
Mode ServeMode(ServeOptions& options);
Mode RouterMode(RouterOptions& options);
Mode ClientMode(ClientArgs& args);
Mode SuiteMode(SuiteArgs& args);

}  // namespace dsf
