// The `dsf` binary's argv grammar (cli/flags.hpp): every mode's table, the
// shared argv loop and --help generator, the cross-flag rules, and the
// request line `dsf client` builds from its flags. The argv lists below
// are the ones the repo's own callers pass (CI, perfbench, the bench
// script, README), pinned to the option values they have always parsed to.
#include "cli/flags.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/json.hpp"

namespace dsf {
namespace {

struct Outcome {
  std::optional<int> status;  // nullopt: the mode would run
  std::string out;
  std::string err;
};

Outcome Parse(const Mode& mode, std::initializer_list<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  Outcome o;
  o.status = ParseFlags(mode, args, out, err);
  o.out = out.str();
  o.err = err.str();
  return o;
}

// Parses and expects the mode to run.
template <class Options>
Options Runs(Mode (*make)(Options&), std::initializer_list<std::string> args) {
  Options options;
  const Outcome o = Parse(make(options), args);
  EXPECT_FALSE(o.status.has_value()) << o.err;
  return options;
}

std::string FirstLine(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

std::set<std::string> Names(const Mode& mode) {
  std::set<std::string> names;
  for (const Flag& f : mode.flags) names.insert(f.name);
  return names;
}

struct AllModes {
  CliArgs cli;
  ServeOptions serve;
  RouterOptions router;
  ClientArgs client;
  SuiteArgs suite;
  std::vector<Mode> modes = {CliMode(cli), ServeMode(serve),
                             RouterMode(router), ClientMode(client),
                             SuiteMode(suite)};
};

TEST(FlagTableTest, EveryModeKeepsItsFlags) {
  AllModes all;
  const std::vector<std::set<std::string>> expected = {
      {"--scenario", "--solvers", "--seed", "--threads", "--epsilon",
       "--repetitions", "--deadline-ms", "--reference", "--no-prune",
       "--json", "--list-solvers", "--list-generators"},
      {"--port", "--host", "--threads", "--cache", "--cache-shards",
       "--batch-max", "--max-pending", "--deadline-ms", "--send-timeout-ms",
       "--recv-timeout-ms", "--fault"},
      {"--backend", "--port", "--host", "--retries", "--backoff-ms",
       "--ring-replicas", "--probe-interval-ms", "--probe-timeout-ms",
       "--connect-timeout-ms", "--upstream-timeout-ms", "--failures-to-down",
       "--successes-to-up", "--hot-cache", "--send-timeout-ms",
       "--recv-timeout-ms", "--fault"},
      {"--port", "--host", "--scenario", "--generate", "--instance",
       "--stats", "--ping", "--revise", "--delta", "--revise-mode",
       "--solvers", "--seed", "--epsilon", "--repetitions", "--deadline-ms",
       "--no-prune", "--repeat", "--retries", "--backoff-ms", "--json"},
      {"--manifest", "--baseline", "--record", "--check", "--out",
       "--threads", "--emit-corpus", "--inject-cost", "--inject-p95-ms"},
  };
  const std::vector<std::size_t> sizes = {12, 11, 16, 20, 9};
  for (std::size_t m = 0; m < all.modes.size(); ++m) {
    EXPECT_EQ(all.modes[m].flags.size(), sizes[m]) << all.modes[m].name;
    EXPECT_EQ(Names(all.modes[m]), expected[m]) << all.modes[m].name;
  }
}

TEST(FlagTableTest, HelpListsEveryRowAndExitsZero) {
  AllModes all;
  for (const Mode& mode : all.modes) {
    const Outcome o = Parse(mode, {"--help"});
    ASSERT_EQ(o.status, 0) << mode.name;
    EXPECT_EQ(o.out.rfind("usage: " + mode.name, 0), 0u) << o.out;
    EXPECT_TRUE(o.err.empty());
    for (const Flag& f : mode.flags) {
      const std::string head =
          f.metavar.empty() ? f.name : f.name + " " + f.metavar;
      EXPECT_NE(o.out.find("  " + head + " "), std::string::npos)
          << mode.name << " --help lacks " << head;
    }
    EXPECT_NE(o.out.find("  -h, --help "), std::string::npos) << mode.name;
  }
}

TEST(FlagTableTest, HelpWinsEvenBeforeAnUnknownFlag) {
  AllModes all;
  for (const Mode& mode : all.modes) {
    EXPECT_EQ(Parse(mode, {"-h", "--bogus"}).status, 0) << mode.name;
    EXPECT_EQ(Parse(mode, {"--help", "--port"}).status, 0) << mode.name;
    // An error before the -h still fails.
    EXPECT_EQ(Parse(mode, {"--bogus", "-h"}).status, 2) << mode.name;
  }
}

// Unknown flags, missing values, non-numeric values, and out-of-range
// values all exit 2 with a first line naming the mode and the flag.
TEST(FlagTableTest, BadValuesExitTwoNamingTheFlag) {
  AllModes all;
  for (const Mode& mode : all.modes) {
    const Outcome unknown = Parse(mode, {"--bogus"});
    EXPECT_EQ(unknown.status, 2);
    EXPECT_EQ(FirstLine(unknown.err), mode.name + ": unknown flag: --bogus");
    EXPECT_NE(unknown.err.find("usage: "), std::string::npos);
    for (const Flag& f : mode.flags) {
      if (f.metavar.empty()) continue;
      const Outcome missing = Parse(mode, {f.name});
      EXPECT_EQ(missing.status, 2) << f.name;
      EXPECT_EQ(FirstLine(missing.err),
                mode.name + ": missing value for " + f.name);
      if (f.metavar != "N" && f.metavar != "X") continue;
      // A number is the whole value: no leading '+', no padding.
      for (const std::string word : {"x2", " 2", "+5"}) {
        const Outcome bad = Parse(mode, {f.name, word});
        EXPECT_EQ(bad.status, 2) << f.name;
        EXPECT_EQ(FirstLine(bad.err), mode.name + ": invalid value for " +
                                          f.name + ": '" + word + "'");
      }
      if (f.name == "--inject-cost") continue;  // any long long is valid
      const Outcome low = Parse(mode, {f.name, "-99999999999"});
      EXPECT_EQ(low.status, 2) << f.name;
      EXPECT_NE(FirstLine(low.err).find(f.name), std::string::npos)
          << low.err;
    }
  }
  // Upper bounds, and the messages that spell out a range.
  ServeOptions serve;
  EXPECT_EQ(FirstLine(Parse(ServeMode(serve), {"--port", "65536"}).err),
            "dsf serve: --port must be in [0, 65535]");
  ClientArgs client;
  EXPECT_EQ(FirstLine(Parse(ClientMode(client), {"--port", "0"}).err),
            "dsf client: --port must be in [1, 65535]");
  CliArgs cli;
  EXPECT_EQ(FirstLine(Parse(CliMode(cli), {"--seed", "0"}).err),
            "dsf: --seed must be >= 1");
  EXPECT_EQ(FirstLine(Parse(CliMode(cli), {"--seed", "-1"}).err),
            "dsf: invalid value for --seed: '-1'");
  EXPECT_EQ(FirstLine(Parse(CliMode(cli), {"--threads", "1025"}).err),
            "dsf: --threads must be in [0, 1024]");
  EXPECT_EQ(FirstLine(Parse(CliMode(cli), {"--epsilon", "-0.5"}).err),
            "dsf: --epsilon must be >= 0");
  EXPECT_EQ(Parse(ClientMode(client), {"--revise-mode", "cold"}).status, 2);
  RouterOptions router;
  EXPECT_EQ(FirstLine(Parse(RouterMode(router), {"--backend", "x:y"}).err),
            "dsf shard-router: invalid backend 'x:y' (want HOST:PORT or "
            "PORT)");
}

TEST(FlagTableTest, CrossFlagRulesStillReject) {
  const auto client = [](std::initializer_list<std::string> args) {
    ClientArgs a;
    return FirstLine(Parse(ClientMode(a), args).err);
  };
  const std::string framing =
      "dsf client: need exactly one of --scenario, --generate, --stats, "
      "--ping";
  EXPECT_EQ(client({"--port", "1"}), framing);
  EXPECT_EQ(client({"--port", "1", "--stats", "--ping"}), framing);
  EXPECT_EQ(client({"--port", "1", "--scenario", "f", "--generate", "g"}),
            framing);
  EXPECT_EQ(client({"--ping"}), "dsf client: --port is required");
  EXPECT_EQ(client({"--port", "1", "--ping", "--instance", "random-ic"}),
            "dsf client: --instance needs --generate");
  EXPECT_EQ(client({"--port", "1", "--stats", "--revise", "k"}),
            "dsf client: --revise needs a solve framing (--scenario or "
            "--generate)");
  EXPECT_EQ(client({"--port", "1", "--generate", "g", "--delta", "add=1-2"}),
            "dsf client: --delta / --revise-mode need --revise");
  EXPECT_EQ(client({"--port", "1", "--generate", "g", "--revise-mode",
                    "warm"}),
            "dsf client: --delta / --revise-mode need --revise");

  RouterOptions router;
  EXPECT_EQ(FirstLine(Parse(RouterMode(router), {"--port", "0"}).err),
            "dsf shard-router: at least one --backend HOST:PORT is required");

  SuiteArgs suite;
  const Outcome both = Parse(SuiteMode(suite), {"--record", "--check"});
  EXPECT_EQ(both.status, 2);
  EXPECT_EQ(FirstLine(both.err),
            "dsf suite: --record and --check are mutually exclusive");

  CliArgs cli;
  EXPECT_EQ(FirstLine(Parse(CliMode(cli), {"--threads", "2"}).err),
            "dsf: --scenario is required");
  CliArgs listing;
  EXPECT_FALSE(Parse(CliMode(listing), {"--list-solvers"}).status.has_value());
  EXPECT_FALSE(
      Parse(CliMode(listing), {"--list-generators"}).status.has_value());
}

// --- the repo's own callers ----------------------------------------------

TEST(FlagCallersTest, OneShotArgvFromCiAndReadme) {
  CliArgs a = Runs(&CliMode, {"--scenario", "scenarios/demo.dsf",
                              "--solvers", "all", "--reference", "--threads",
                              "2", "--json", "build/dsf_demo.json"});
  EXPECT_EQ(a.scenario_path, "scenarios/demo.dsf");
  EXPECT_TRUE(a.solvers.empty());  // 'all' keeps the default
  EXPECT_TRUE(a.reference);
  EXPECT_EQ(a.threads, 2);
  EXPECT_EQ(a.json_path, "build/dsf_demo.json");
  EXPECT_FALSE(a.seed_set);
  EXPECT_EQ(a.epsilon, 0.0);
  EXPECT_EQ(a.repetitions, 1);
  EXPECT_EQ(a.deadline_ms, 0);
  EXPECT_TRUE(a.prune);

  a = Runs(&CliMode, {"--scenario", "scenarios/sweep_demo.dsf", "--solvers",
                      "all", "--threads", "8", "--json",
                      "build/dsf_sweep8.json"});
  EXPECT_EQ(a.threads, 8);
  EXPECT_FALSE(a.reference);

  a = Runs(&CliMode, {"--scenario", "build/revise_rev1.dsf", "--solvers",
                      "local-search", "--json", "build/revise_oneshot.json"});
  EXPECT_EQ(a.solvers, std::vector<std::string>{"local-search"});
  EXPECT_EQ(a.threads, 1);

  // Paren-aware split: the portfolio spec's own commas stay inside it.
  a = Runs(&CliMode,
           {"--scenario", "scenarios/demo.dsf", "--threads", "4", "--solvers",
            "portfolio(roster=gw-moat+mst-prune+greedy-merge,mode=first)"});
  EXPECT_EQ(a.solvers,
            std::vector<std::string>{
                "portfolio(roster=gw-moat+mst-prune+greedy-merge,mode=first)"});
  a = Runs(&CliMode, {"--scenario", "scenarios/sweep_demo.dsf", "--solvers",
                      "portfolio", "--deadline-ms", "50"});
  EXPECT_EQ(a.solvers, std::vector<std::string>{"portfolio"});
  EXPECT_EQ(a.deadline_ms, 50);
  a = Runs(&CliMode, {"--scenario", "s.dsf", "--solvers", "gw-moat,dist-det",
                      "--solvers", "exact", "--seed", "18446744073709551615",
                      "--epsilon", "0.25", "--repetitions", "3",
                      "--no-prune"});
  EXPECT_EQ(a.solvers,
            (std::vector<std::string>{"gw-moat", "dist-det", "exact"}));
  EXPECT_TRUE(a.seed_set);
  EXPECT_EQ(a.seed, 18446744073709551615ULL);
  EXPECT_EQ(a.epsilon, 0.25);
  EXPECT_EQ(a.repetitions, 3);
  EXPECT_FALSE(a.prune);

  a = Runs(&CliMode, {"--list-solvers"});
  EXPECT_TRUE(a.list_solvers);
  a = Runs(&CliMode, {"--list-generators"});
  EXPECT_TRUE(a.list_generators);
}

TEST(FlagCallersTest, ServeAndRouterArgvFromCiAndPerfbench) {
  const ServeOptions defaults;
  ServeOptions s = Runs(&ServeMode, {"--port", "0", "--threads", "1"});
  EXPECT_EQ(s.port, 0);
  EXPECT_EQ(s.threads, 1);
  EXPECT_EQ(s.host, defaults.host);
  EXPECT_EQ(s.cache_entries, defaults.cache_entries);
  EXPECT_EQ(s.cache_shards, defaults.cache_shards);
  EXPECT_EQ(s.batch_max, defaults.batch_max);
  EXPECT_EQ(s.max_pending, defaults.max_pending);
  EXPECT_EQ(s.deadline_ms, defaults.deadline_ms);
  EXPECT_EQ(s.send_timeout_ms, defaults.send_timeout_ms);
  EXPECT_EQ(s.recv_timeout_ms, defaults.recv_timeout_ms);
  EXPECT_TRUE(s.fault_spec.empty());

  s = Runs(&ServeMode, {"--threads", "1", "--fault", "exit_after=6"});
  EXPECT_EQ(s.fault_spec, "exit_after=6");
  s = Runs(&ServeMode,
           {"--host", "0.0.0.0", "--port", "65535", "--cache", "1073741824",
            "--cache-shards", "64", "--batch-max", "4096", "--max-pending",
            "16777216", "--deadline-ms", "86400000", "--send-timeout-ms", "0",
            "--recv-timeout-ms", "86400000"});
  EXPECT_EQ(s.host, "0.0.0.0");
  EXPECT_EQ(s.port, 65535);
  EXPECT_EQ(s.cache_entries, std::size_t{1} << 30);
  EXPECT_EQ(s.cache_shards, 64);
  EXPECT_EQ(s.batch_max, 4096);
  EXPECT_EQ(s.max_pending, 1 << 24);
  EXPECT_EQ(s.deadline_ms, 86'400'000);
  EXPECT_EQ(s.send_timeout_ms, 0);
  EXPECT_EQ(s.recv_timeout_ms, 86'400'000);

  const RouterOptions defaults_r;
  RouterOptions r = Runs(&RouterMode, {"--port", "0", "--backend",
                                       "127.0.0.1:41001", "--backend",
                                       "127.0.0.1:41002"});
  ASSERT_EQ(r.backends.size(), 2u);
  EXPECT_EQ(r.backends[1].host, "127.0.0.1");
  EXPECT_EQ(r.backends[1].port, 41002);
  EXPECT_EQ(r.retry.retries, defaults_r.retry.retries);
  EXPECT_EQ(r.retry.backoff_ms, defaults_r.retry.backoff_ms);
  EXPECT_EQ(r.probe_interval_ms, defaults_r.probe_interval_ms);
  EXPECT_EQ(r.hot_cache_entries, defaults_r.hot_cache_entries);

  r = Runs(&RouterMode,
           {"--backend", "127.0.0.1:41001", "--backend", "127.0.0.1:41002",
            "--backend", "127.0.0.1:41003", "--retries", "4", "--backoff-ms",
            "10", "--probe-interval-ms", "100"});
  EXPECT_EQ(r.backends.size(), 3u);
  EXPECT_EQ(r.retry.retries, 4);
  EXPECT_EQ(r.retry.backoff_ms, 10);
  EXPECT_EQ(r.retry.max_backoff_ms, defaults_r.retry.max_backoff_ms);
  EXPECT_EQ(r.probe_interval_ms, 100);

  r = Runs(&RouterMode,
           {"--backend", "7", "--ring-replicas", "8", "--probe-timeout-ms",
            "5", "--connect-timeout-ms", "6", "--upstream-timeout-ms", "7",
            "--failures-to-down", "2", "--successes-to-up", "3",
            "--hot-cache", "0", "--send-timeout-ms", "9",
            "--recv-timeout-ms", "10", "--fault", "drop_every=2"});
  EXPECT_EQ(r.backends[0].port, 7);
  EXPECT_EQ(r.ring_replicas, 8);
  EXPECT_EQ(r.probe_timeout_ms, 5);
  EXPECT_EQ(r.connect_timeout_ms, 6);
  EXPECT_EQ(r.upstream_recv_timeout_ms, 7);
  EXPECT_EQ(r.upstream_send_timeout_ms, defaults_r.upstream_send_timeout_ms);
  EXPECT_EQ(r.health.failures_to_down, 2);
  EXPECT_EQ(r.health.successes_to_up, 3);
  EXPECT_EQ(r.hot_cache_entries, 0u);
  EXPECT_EQ(r.send_timeout_ms, 9);
  EXPECT_EQ(r.recv_timeout_ms, 10);
  EXPECT_EQ(r.fault_spec, "drop_every=2");
}

TEST(FlagCallersTest, ClientArgvFromCiAndReadme) {
  ClientArgs c = Runs(&ClientMode, {"--port", "42113", "--ping"});
  EXPECT_EQ(c.port, 42113);
  EXPECT_TRUE(c.ping);
  EXPECT_EQ(c.host, "127.0.0.1");
  EXPECT_EQ(c.repeat, 1);
  EXPECT_EQ(c.retry.retries, 0);
  EXPECT_EQ(c.retry.backoff_ms, 50);

  c = Runs(&ClientMode, {"--port", "9", "--scenario", "scenarios/demo.dsf",
                         "--repeat", "8", "--json", "build/client_burst.json"});
  EXPECT_EQ(c.scenario_path, "scenarios/demo.dsf");
  EXPECT_EQ(c.repeat, 8);
  EXPECT_EQ(c.json_path, "build/client_burst.json");
  c = Runs(&ClientMode,
           {"--port", "9", "--stats", "--json", "build/client_stats.json"});
  EXPECT_TRUE(c.stats);

  c = Runs(&ClientMode, {"--port", "9", "--scenario", "scenarios/demo.dsf",
                         "--solvers", "gw-moat,dist-det", "--repeat", "3"});
  EXPECT_EQ(c.solvers, "gw-moat,dist-det");  // the raw list goes on the wire
  c = Runs(&ClientMode, {"--port", "9", "--scenario", "s", "--solvers",
                         "all"});
  EXPECT_TRUE(c.solvers.empty());

  c = Runs(&ClientMode,
           {"--port", "9", "--scenario", "build/revise_base.dsf", "--solvers",
            "local-search", "--revise", "0123456789abcdef0123456789abcdef",
            "--delta", "addt=12:5 addt=13:5", "--json",
            "build/revise_b.json"});
  EXPECT_EQ(c.revise_base, "0123456789abcdef0123456789abcdef");
  EXPECT_EQ(c.delta, "addt=12:5 addt=13:5");
  EXPECT_TRUE(c.revise_mode.empty());
  c = Runs(&ClientMode,
           {"--port", "9", "--scenario", "build/revise_base.dsf", "--solvers",
            "local-search", "--revise", "00000000000000000000000000000000",
            "--delta", "addt=12:5", "--revise-mode", "exact-match"});
  EXPECT_EQ(c.revise_mode, "exact-match");

  c = Runs(&ClientMode,
           {"--port", "42225", "--retries", "4", "--backoff-ms", "10",
            "--generate", "grid rows=4 cols=4 salt=3", "--instance",
            "random-ic k=2 tpc=2", "--seed", "3", "--json",
            "build/chaos_one.json"});
  EXPECT_EQ(c.retry.retries, 4);
  EXPECT_EQ(c.retry.backoff_ms, 10);
  EXPECT_EQ(c.generate, "grid rows=4 cols=4 salt=3");
  EXPECT_EQ(c.instance, "random-ic k=2 tpc=2");
  EXPECT_TRUE(c.seed_set);
  EXPECT_EQ(c.seed, 3u);

  c = Runs(&ClientMode,
           {"--port", "9", "--host", "10.0.0.1", "--generate", "grid",
            "--epsilon", "0.1", "--repetitions", "2", "--deadline-ms", "50",
            "--no-prune"});
  EXPECT_EQ(c.host, "10.0.0.1");
  EXPECT_EQ(c.epsilon, 0.1);  // strtod: the double the one-shot CLI reads
  EXPECT_EQ(c.repetitions, 2);
  EXPECT_EQ(c.deadline_ms, 50);
  EXPECT_FALSE(c.prune);
}

TEST(FlagCallersTest, SuiteArgvFromCiAndBenchScript) {
  const SuiteArgs defaults;
  SuiteArgs s = Runs(&SuiteMode, {"--check", "--out", "F.json"});
  EXPECT_TRUE(s.check);
  EXPECT_FALSE(s.record);
  EXPECT_EQ(s.out_path, "F.json");
  EXPECT_EQ(s.manifest_path, "scenarios/suite/manifest.dsf-suite");
  EXPECT_EQ(s.baseline_path, "bench/SUITE_baseline.json");
  EXPECT_EQ(s.run.threads, 1);

  s = Runs(&SuiteMode, {"--emit-corpus", "build-release/corpus"});
  EXPECT_EQ(s.corpus_dir, "build-release/corpus");
  s = Runs(&SuiteMode, {"--check", "--inject-cost", "1"});
  EXPECT_EQ(s.run.inject_cost_delta, 1);
  s = Runs(&SuiteMode, {"--check", "--inject-p95-ms", "100000"});
  EXPECT_EQ(s.run.inject_p95_ms, 100000.0);
  s = Runs(&SuiteMode, {"--record", "--manifest", "m", "--baseline", "b",
                        "--threads", "0", "--inject-cost", "-3"});
  EXPECT_TRUE(s.record);
  EXPECT_EQ(s.manifest_path, "m");
  EXPECT_EQ(s.baseline_path, "b");
  EXPECT_EQ(s.run.threads, 0);
  EXPECT_EQ(s.run.inject_cost_delta, -3);
  s = Runs(&SuiteMode, {});
  EXPECT_EQ(s.run.inject_cost_delta, defaults.run.inject_cost_delta);
  EXPECT_EQ(s.run.inject_p95_ms, defaults.run.inject_p95_ms);
}

// --- the request `dsf client` sends ----------------------------------------

// The "delta" member of the revise request BuildClientRequest writes; with
// no --revise-mode it is the request object's last member.
std::string DeltaJson(const std::string& spec) {
  ClientArgs args;
  args.generate = "grid rows=3 cols=3";
  args.revise_base = "0123456789abcdef0123456789abcdef";
  args.delta = spec;
  const std::string line = BuildClientRequest(args);
  EXPECT_EQ(ParseJson(line).GetString("op", ""), "revise");
  const std::size_t at = line.find("\"delta\":") + 8;
  return line.substr(at, line.size() - at - 1);
}

TEST(ClientRequestTest, DeltaGrammarBuildsTheWireObject) {
  EXPECT_EQ(DeltaJson("add=1-2,rm=3-4 addt=5:2, rmt=6"),
            R"({"add_pairs":[[1,2]],"remove_pairs":[[3,4]],)"
            R"("add_terminals":[[5,2]],"remove_terminals":[6]})");
  EXPECT_EQ(DeltaJson("addt=12:5 addt=13:5"),
            R"({"add_terminals":[[12,5],[13,5]]})");
  EXPECT_EQ(DeltaJson("rmt=2,rmt=22"), R"({"remove_terminals":[2,22]})");
  EXPECT_EQ(DeltaJson("add=0-7 , add=1-6"),
            R"({"add_pairs":[[0,7],[1,6]]})");
  EXPECT_EQ(DeltaJson(""), "{}");
  for (const char* bad : {"add=1", "rmt=-1", "addt=3", "x=1", "add=1-2-3"}) {
    EXPECT_THROW((void)DeltaJson(bad), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace dsf
