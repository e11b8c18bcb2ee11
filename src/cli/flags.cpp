#include "cli/flags.hpp"

#include <algorithm>
#include <climits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/text.hpp"
#include "solve/solver_spec.hpp"

namespace dsf {
namespace {

std::runtime_error InvalidValue(const std::string& flag,
                                const std::string& value) {
  return std::runtime_error("invalid value for " + flag + ": '" + value +
                            "'");
}

// The field's starting value is its default; "" (an empty string, or a
// number the flag cannot be set to, such as client --port 0) shows none.
std::string WithDefault(std::string help, const std::string& value) {
  return value.empty() ? help : help + " (default " + value + ")";
}

Flag Switch(std::string name, std::string help, bool* out,
            bool value = true) {
  return {std::move(name), "", std::move(help),
          [out, value](const std::string&) { *out = value; }};
}

Flag Text(std::string name, std::string metavar, std::string help,
          std::string* out) {
  return {std::move(name), std::move(metavar),
          WithDefault(std::move(help), *out),
          [out](const std::string& v) { *out = v; }};
}

// Strict integer parsing: trailing garbage and overflow are usage errors,
// not silently-zero values (atoi("x2") == 0 would flip semantics).
template <class T>
Flag Int(std::string name, std::string help, long long lo, long long hi,
         T* out) {
  const auto now = static_cast<long long>(*out);
  help = WithDefault(std::move(help),
                     now >= lo && now <= hi ? std::to_string(now) : "");
  return {name, "N", std::move(help),
          [name, lo, hi, out](const std::string& v) {
            const auto value = ParseNumber<long long>(v);
            if (!value) throw InvalidValue(name, v);
            if (*value < lo || *value > hi) {
              throw std::runtime_error(name + " must be in [" +
                                       std::to_string(lo) + ", " +
                                       std::to_string(hi) + "]");
            }
            *out = static_cast<T>(*value);
          }};
}

// The client sends this double over the wire, and the one-shot CLI must
// solve with the same value; both read it here.
Flag NonNegativeReal(std::string name, std::string help, double* out) {
  std::ostringstream now;
  now << *out;
  return {name, "X", WithDefault(std::move(help), now.str()),
          [name, out](const std::string& v) {
            const auto value = ParseNumber<double>(v);
            if (!value) throw InvalidValue(name, v);
            if (*value < 0.0) throw std::runtime_error(name + " must be >= 0");
            *out = *value;
          }};
}

// --- flags of several modes -------------------------------------------------

// The listeners accept 0 (an ephemeral port); the client needs a real one.
Flag PortFlag(int* out, int lo) {
  return Int("--port",
             lo == 0 ? "listen port (0 = ephemeral; the bound port is "
                       "printed as a JSON line on stdout)"
                     : "server port (required)",
             lo, 65535, out);
}

Flag HostFlag(std::string* out) {
  return Text("--host", "A", "address to bind, or of the server to reach",
              out);
}

Flag ThreadsFlag(int* out) {
  return Int("--threads", "batch executors (0 = hardware concurrency)", 0,
             1024, out);
}

Flag DeadlineFlag(int* out) {
  return Int("--deadline-ms",
             "anytime deadline per unit in wall ms: keep the best feasible "
             "forest found by then (0 = none); serve caps every request's "
             "deadline at it",
             0, 86'400'000, out);
}

Flag SeedFlag(std::uint64_t* out, bool* seed_set) {
  return {"--seed", "N",
          "overrides the workload's seed, which drives expansion and the "
          "per-request seeds (>= 1)",
          [out, seed_set](const std::string& v) {
            const auto value = ParseNumber<std::uint64_t>(v);
            if (!value) throw InvalidValue("--seed", v);
            // 0 is BatchEngine's "keep per-request seeds" sentinel;
            // accepting it would silently stop deriving per-request seeds.
            if (*value == 0) throw std::runtime_error("--seed must be >= 1");
            *out = *value;
            *seed_set = true;
          }};
}

Flag EpsilonFlag(double* out) {
  return NonNegativeReal("--epsilon",
                         "Algorithm 2 epsilon for the moat solvers", out);
}

Flag RepetitionsFlag(int* out) {
  return Int("--repetitions", "dist-rand repetitions", 1, 1 << 20, out);
}

// 'all' keeps the default; any other list reaches `store` verbatim.
Flag SolversFlag(std::function<void(const std::string&)> store) {
  return {"--solvers", "LIST",
          "comma-separated solver specs: registry names or "
          "portfolio(roster=a+b+c,mode=all|first[,deadline_ms=N]); 'all' "
          "means the default, the workload's 'as' list or else every "
          "registered solver",
          [store = std::move(store)](const std::string& v) {
            if (v != "all") store(v);
          }};
}

Flag NoPruneFlag(bool* prune) {
  return Switch("--no-prune", "skip minimal-subforest pruning", prune, false);
}

Flag JsonFlag(std::string* out) {
  return Text("--json", "FILE", "write the JSON output to FILE", out);
}

Flag ScenarioFlag(std::string* out) {
  return Text("--scenario", "FILE",
              "workload file: graph sources, sweeps, ic/cr/sampled instances",
              out);
}

Flag RetriesFlag(int* out) {
  return Int("--retries",
             "attempts after the first, with jittered exponential backoff",
             0, 100, out);
}

Flag BackoffFlag(int* out) {
  return Int("--backoff-ms", "base retry backoff in ms", 0, 60'000, out);
}

Flag SendTimeoutFlag(int* out) {
  return Int("--send-timeout-ms",
             "per-connection send deadline in ms (0 disables)", 0,
             86'400'000, out);
}

Flag RecvTimeoutFlag(int* out) {
  return Int("--recv-timeout-ms",
             "per-connection receive deadline in ms (0 disables)", 0,
             86'400'000, out);
}

Flag FaultFlag(std::string* out) {
  return Text("--fault", "SPEC",
              "chaos hook on this listener: exit_after=N, drop_every=N, "
              "truncate_every=N, delay_every=N, delay_ms=D (the DSF_FAULT "
              "environment variable is the fallback)",
              out);
}

// --- --help ------------------------------------------------------------------

std::string Head(const Flag& flag) {
  return flag.metavar.empty() ? flag.name : flag.name + " " + flag.metavar;
}

// One row per flag, help word-wrapped at 79 columns beside the widest head.
std::string Usage(const Mode& mode) {
  std::vector<Flag> rows = mode.flags;
  rows.push_back({"-h, --help", "", "print this help and exit", {}});
  std::size_t column = 0;
  for (const Flag& row : rows) column = std::max(column, Head(row).size());
  column += 4;

  std::ostringstream os;
  os << "usage: " << mode.synopsis << "\n\noptions:\n";
  for (const Flag& row : rows) {
    std::string line = "  " + Head(row);
    line.resize(column, ' ');
    std::istringstream words(row.help);
    std::string word;
    std::string gap;  // "" before the first word of a line
    while (words >> word) {
      if (!gap.empty() && line.size() + 1 + word.size() > 79) {
        os << line << "\n";
        line.assign(column, ' ');
        gap.clear();
      }
      line += gap + word;
      gap = " ";
    }
    os << line << "\n";
  }
  if (!mode.notes.empty()) os << "\n" << mode.notes << "\n";
  return os.str();
}

}  // namespace

std::optional<int> ParseFlags(const Mode& mode,
                              const std::vector<std::string>& args,
                              std::ostream& out, std::ostream& err) {
  std::string error;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "-h" || args[i] == "--help") {
        out << Usage(mode);
        return 0;
      }
      const auto flag =
          std::find_if(mode.flags.begin(), mode.flags.end(),
                       [&](const Flag& f) { return f.name == args[i]; });
      if (flag == mode.flags.end()) {
        throw std::runtime_error("unknown flag: " + args[i]);
      }
      if (flag->metavar.empty()) {
        flag->set("");
      } else if (i + 1 == args.size()) {
        throw std::runtime_error("missing value for " + flag->name);
      } else {
        flag->set(args[++i]);
      }
    }
    if (mode.check) error = mode.check();
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  if (error.empty()) return std::nullopt;
  err << mode.name << ": " << error << "\n" << Usage(mode);
  return 2;
}

Mode CliMode(CliArgs& a) {
  Mode mode;
  mode.name = "dsf";
  mode.synopsis =
      "dsf --scenario FILE [options]\n"
      "       dsf --list-solvers | --list-generators\n"
      "       dsf serve | shard-router | client | suite [options]";
  mode.flags = {
      ScenarioFlag(&a.scenario_path),
      SolversFlag([&a](const std::string& list) {
        // Paren-aware split: portfolio(...) specs carry commas of their own.
        for (std::string& spec : SplitSolverList(list)) {
          a.solvers.push_back(std::move(spec));
        }
      }),
      SeedFlag(&a.seed, &a.seed_set),
      ThreadsFlag(&a.threads),
      EpsilonFlag(&a.epsilon),
      RepetitionsFlag(&a.repetitions),
      DeadlineFlag(&a.deadline_ms),
      Switch("--reference",
             "also solve exactly and report approximation ratios (small "
             "instances)",
             &a.reference),
      NoPruneFlag(&a.prune),
      JsonFlag(&a.json_path),
      Switch("--list-solvers", "print the solver registry and exit",
             &a.list_solvers),
      Switch("--list-generators",
             "print the generator and sampler registries with their "
             "parameter schemas and exit",
             &a.list_generators),
  };
  mode.notes =
      "A bare SteinLib .stp file also works as --scenario. The JSON goes to\n"
      "stdout, or to --json FILE with a summary table on stdout. Exit status\n"
      "is 0 iff every output was feasible. Each mode has its own options:\n"
      "dsf <mode> --help.";
  mode.check = [&a]() -> std::string {
    if (a.scenario_path.empty() && !a.list_solvers && !a.list_generators) {
      return "--scenario is required";
    }
    return "";
  };
  return mode;
}

Mode ServeMode(ServeOptions& o) {
  Mode mode;
  mode.name = "dsf serve";
  mode.synopsis = "dsf serve [options]";
  mode.flags = {
      PortFlag(&o.port, 0),
      HostFlag(&o.host),
      ThreadsFlag(&o.threads),
      Int("--cache", "result cache capacity in entries (0 disables)", 0,
          1LL << 30, &o.cache_entries),
      Int("--cache-shards", "result cache shards", 1, 64, &o.cache_shards),
      Int("--batch-max", "max units per dispatched batch", 1, 4096,
          &o.batch_max),
      Int("--max-pending", "admission bound on queued + running units", 1,
          1 << 24, &o.max_pending),
      DeadlineFlag(&o.deadline_ms),
      SendTimeoutFlag(&o.send_timeout_ms),
      RecvTimeoutFlag(&o.recv_timeout_ms),
      FaultFlag(&o.fault_spec),
  };
  mode.notes = "SIGINT / SIGTERM drain the queue and exit 0.";
  return mode;
}

Mode RouterMode(RouterOptions& o) {
  Mode mode;
  mode.name = "dsf shard-router";
  mode.synopsis =
      "dsf shard-router --backend HOST:PORT [--backend HOST:PORT ...] "
      "[options]";
  mode.flags = {
      {"--backend", "H:P",
       "one `dsf serve` endpoint, HOST:PORT or a bare port (repeatable; at "
       "least one)",
       [&o](const std::string& v) {
         o.backends.push_back(ParseBackendSpec(v));
       }},
      PortFlag(&o.port, 0),
      HostFlag(&o.host),
      RetriesFlag(&o.retry.retries),
      BackoffFlag(&o.retry.backoff_ms),
      Int("--ring-replicas", "virtual nodes per backend", 1, 4096,
          &o.ring_replicas),
      Int("--probe-interval-ms", "health-probe cadence (0 disables)", 0,
          3'600'000, &o.probe_interval_ms),
      Int("--probe-timeout-ms", "per-probe deadline", 1, 600'000,
          &o.probe_timeout_ms),
      Int("--connect-timeout-ms", "upstream connect deadline", 1, 600'000,
          &o.connect_timeout_ms),
      Int("--upstream-timeout-ms", "upstream response deadline", 1,
          86'400'000, &o.upstream_recv_timeout_ms),
      Int("--failures-to-down",
          "transport failures before a backend is marked down", 1, 1000,
          &o.health.failures_to_down),
      Int("--successes-to-up",
          "consecutive probe successes before a down backend rejoins", 1,
          1000, &o.health.successes_to_up),
      Int("--hot-cache", "router-local response cache entries (0 disables)",
          0, 1LL << 30, &o.hot_cache_entries),
      SendTimeoutFlag(&o.send_timeout_ms),
      RecvTimeoutFlag(&o.recv_timeout_ms),
      FaultFlag(&o.fault_spec),
  };
  mode.notes = "SIGINT / SIGTERM drain in-flight requests and exit 0.";
  mode.check = [&o]() -> std::string {
    return o.backends.empty() ? "at least one --backend HOST:PORT is required"
                              : "";
  };
  return mode;
}

Mode ClientMode(ClientArgs& a) {
  Mode mode;
  mode.name = "dsf client";
  mode.synopsis =
      "dsf client (--scenario FILE | --generate SPEC [--instance SPEC]\n"
      "                   | --stats | --ping) --port N [options]";
  mode.flags = {
      PortFlag(&a.port, 1),
      HostFlag(&a.host),
      ScenarioFlag(&a.scenario_path),
      Text("--generate", "SPEC",
           "named generator spec, e.g. 'grid rows=4 cols=4'", &a.generate),
      Text("--instance", "SPEC",
           "sampler spec for --generate, e.g. 'random-ic k=2 tpc=2'",
           &a.instance),
      Switch("--stats", "request the stats counters", &a.stats),
      Switch("--ping", "liveness probe", &a.ping),
      Text("--revise", "KEY",
           "send op=revise against the cached base result named by KEY, the "
           "32-hex \"key\" of a prior response; the solve framing describes "
           "the base instance",
           &a.revise_base),
      Text("--delta", "SPEC",
           "edits for --revise, comma or space separated: add=U-V, rm=U-V "
           "(CR pairs), addt=V:L, rmt=V (IC terminals); default empty",
           &a.delta),
      {"--revise-mode", "M", "warm (the default) or exact-match",
       [&a](const std::string& v) {
         if (v != "warm" && v != "exact-match") {
           throw std::runtime_error(
               "--revise-mode must be warm or exact-match");
         }
         a.revise_mode = v;
       }},
      SolversFlag([&a](const std::string& list) { a.solvers = list; }),
      SeedFlag(&a.seed, &a.seed_set),
      EpsilonFlag(&a.epsilon),
      RepetitionsFlag(&a.repetitions),
      DeadlineFlag(&a.deadline_ms),
      NoPruneFlag(&a.prune),
      Int("--repeat", "send the same request N times (a duplicate burst)", 1,
          1 << 20, &a.repeat),
      RetriesFlag(&a.retry.retries),
      BackoffFlag(&a.retry.backoff_ms),
      JsonFlag(&a.json_path),
  };
  mode.notes =
      "--scenario sends FILE's text inline; the server rejects `import`.";
  mode.check = [&a]() -> std::string {
    const int framings = (a.scenario_path.empty() ? 0 : 1) +
                         (a.generate.empty() ? 0 : 1) + (a.stats ? 1 : 0) +
                         (a.ping ? 1 : 0);
    if (framings != 1) {
      return "need exactly one of --scenario, --generate, --stats, --ping";
    }
    if (a.port == 0) return "--port is required";
    if (!a.instance.empty() && a.generate.empty()) {
      return "--instance needs --generate";
    }
    if (!a.revise_base.empty() && (a.stats || a.ping)) {
      return "--revise needs a solve framing (--scenario or --generate)";
    }
    if ((!a.delta.empty() || !a.revise_mode.empty()) &&
        a.revise_base.empty()) {
      return "--delta / --revise-mode need --revise";
    }
    return "";
  };
  return mode;
}

Mode SuiteMode(SuiteArgs& a) {
  Mode mode;
  mode.name = "dsf suite";
  mode.synopsis =
      "dsf suite [--manifest FILE] [--record | --check | --emit-corpus DIR]\n"
      "                 [options]";
  mode.flags = {
      Text("--manifest", "FILE", "suite manifest", &a.manifest_path),
      Text("--baseline", "FILE", "committed baseline", &a.baseline_path),
      Switch("--record",
             "write the fresh run to --baseline, re-recording the committed "
             "wall (do this deliberately)",
             &a.record),
      Switch("--check",
             "diff the fresh run against --baseline: quality exact, p95 "
             "banded; exit 1 with a regression table on drift",
             &a.check),
      Text("--out", "FILE", "also write the fresh run's JSON to FILE",
           &a.out_path),
      ThreadsFlag(&a.run.threads),
      Text("--emit-corpus", "DIR",
           "write the deterministic instance corpus into DIR and exit",
           &a.corpus_dir),
      Int("--inject-cost", "test hook: add N to every cell's cost",
          LLONG_MIN, LLONG_MAX, &a.run.inject_cost_delta),
      NonNegativeReal("--inject-p95-ms",
                      "test hook: add X ms to every cell's p95",
                      &a.run.inject_p95_ms),
  };
  mode.notes =
      "Runs every manifest instance against every roster solver and records\n"
      "cost, ratio vs the dual lower bound, rounds, messages, and p50/p95\n"
      "latency per cell. With neither --record nor --check, the fresh\n"
      "baseline JSON goes to stdout (or --out).";
  mode.check = [&a]() -> std::string {
    return a.record && a.check ? "--record and --check are mutually exclusive"
                               : "";
  };
  return mode;
}

}  // namespace dsf
