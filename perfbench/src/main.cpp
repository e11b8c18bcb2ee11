// perfbench: drives router -> serve -> solve from outside with one seeded
// workload and prints the metrics (see ../README.md).
//
//   perfbench --dsf PATH --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones
// (stats scrapes of the same closed-loop run plus the traced in-process
// replay). The last stdout line is one JSON object:
//   {"correct":B,"attempted":N,"failed":N,"metrics":{NAME:{"value":X,"unit":U}}}
// Exit status 0 iff every output check passed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "cli/json.hpp"
#include "common/hash.hpp"
#include "replay.hpp"
#include "serve/client.hpp"
#include "stats.hpp"
#include "steiner/validate.hpp"
#include "stream.hpp"
#include "topology.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 5;                // topologies spawned per run; setup_s is their median
constexpr std::size_t kMinRequests = 1000;  // p99 needs ten samples beyond it
constexpr double kCheckSeconds = 4.0;     // budget for re-solving sampled responses
constexpr int kWindows = 10;              // time slices behind the p50 and throughput medians

struct Args {
  std::string dsf;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--dsf") {
      a.dsf = v;
    } else if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.dsf.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

// Responses re-checked after the run: roughly 30-60 per run per workload.
long SampleEvery(Workload w) {
  switch (w) {
    case Workload::kColdDist:
      return 32;
    case Workload::kHotMix:
      return 500;
    case Workload::kChurnRevise:
      return 16;
  }
  return 100;
}

bool Sampled(std::uint64_t seed, int client, long k, long every) {
  const std::uint64_t h =
      dsf::Mix64(seed ^ dsf::Mix64((static_cast<std::uint64_t>(client) << 40) ^
                                   static_cast<std::uint64_t>(k)));
  return h % static_cast<std::uint64_t>(every) == 0;
}

struct Sample {
  int client = 0;
  long k = 0;
  Request request;
  std::string response;
};

// What one closed-loop client observed in the measured phase.
struct ClientLog {
  std::vector<double> rtt_ms;
  std::vector<double> done_s;  // completion time of each rtt_ms sample
  std::vector<double> transport_ms;  // RTT - response wall_ms (router hot hits excluded)
  std::vector<double> backend_ms;    // response wall_ms - sum of computed units' wall_ms
  Tally tally;
  double weight_sum = 0;
  long weight_units = 0;
  double rounds_sum = 0;
  long dist_units = 0;
  double bytes_sum = 0;
  long revises = 0;
  long warm = 0;
  long replays = 0;
  std::vector<Sample> samples;
};

// Router hot hits replay a stored line byte for byte (stale wall_ms
// included): a response identical to the last one seen for the same
// id-free request text is one.
class ReplayDetector {
 public:
  bool IsReplay(const std::string& request, const std::string& response) {
    const std::size_t req = std::hash<std::string>{}(StripId(request));
    const std::size_t resp = std::hash<std::string>{}(StripId(response));
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = last_.try_emplace(req, resp);
    if (!inserted && it->second == resp) return true;
    it->second = resp;
    return false;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::size_t, std::size_t> last_;
};

void Record(ClientLog& log, const Request& req, const std::string& response, double rtt_ms,
            double done_s, ReplayDetector& replays) {
  const Response r = ClassifyResponse(response, req.expect_key);
  log.tally.Add(r.outcome);
  log.bytes_sum += static_cast<double>(response.size());
  if (r.outcome != Outcome::kOk) {
    std::cerr << "perfbench: failed response (" << r.error << "): " << response.substr(0, 200)
              << "\n";
    return;
  }
  log.rtt_ms.push_back(rtt_ms);
  log.done_s.push_back(done_s);
  if (req.revise) {
    ++log.revises;
    log.warm += r.warm ? 1 : 0;
  }
  double computed_ms = 0;
  for (const UnitResult& u : r.units) {
    log.weight_sum += static_cast<double>(u.weight);
    ++log.weight_units;
    if (u.solver.rfind("dist-", 0) == 0) {
      log.rounds_sum += static_cast<double>(u.rounds);
      ++log.dist_units;
    }
    if (!u.cached) computed_ms += u.wall_ms;
  }
  if (replays.IsReplay(req.line, response)) {
    ++log.replays;
  } else {
    log.transport_ms.push_back(rtt_ms - r.wall_ms);
    log.backend_ms.push_back(r.wall_ms - computed_ms);
  }
}

// Stats counters that matter, summed over the router or both backends.
struct Counters {
  double router_requests = 0, hot_hits = 0, retries = 0;
  std::vector<double> forwarded;
  double cache_hits = 0, cache_misses = 0, evictions = 0;
  double coalesced = 0, rejected = 0, batches = 0, computed = 0;
};

double Num(const dsf::JsonValue* obj, std::string_view key) {
  return obj == nullptr ? 0.0 : obj->GetNumber(key, 0.0);
}

Counters Scrape(const Topology& top) {
  Counters c;
  const dsf::JsonValue router = Query(top.RouterPort(), R"({"op":"stats"})");
  c.router_requests = Num(router.Find("counters"), "requests");
  c.hot_hits = Num(router.Find("counters"), "hot_hits");
  c.retries = Num(router.Find("counters"), "retries");
  if (const dsf::JsonValue* backends = router.Find("backends")) {
    for (const dsf::JsonValue& b : backends->array) c.forwarded.push_back(b.GetNumber("forwarded", 0));
  }
  for (const int port : top.BackendPorts()) {
    const dsf::JsonValue s = Query(port, R"({"op":"stats"})");
    c.cache_hits += Num(s.Find("cache"), "hits");
    c.cache_misses += Num(s.Find("cache"), "misses");
    c.evictions += Num(s.Find("cache"), "evictions");
    c.coalesced += Num(s.Find("queue"), "coalesced");
    c.rejected += Num(s.Find("queue"), "rejected");
    c.batches += Num(s.Find("queue"), "batches");
    c.computed += Num(s.Find("queue"), "computed");
  }
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Re-checks one sampled response in-process: solve units must equal a
// one-shot Solve() in weight and edge list; revise results must be
// feasible on the revised instance.
bool CheckSample(const RequestStream& stream, const Sample& s, std::string& why) {
  const Response r = ClassifyResponse(s.response, s.request.expect_key);
  if (s.request.revise) {
    const auto [j, step] = stream.ChurnAt(s.client, s.k);
    const ChurnChain& chain = stream.Chain(j);
    const dsf::IcInstance state = stream.ChurnState(j, step);
    const UnitResult& u = r.units.front();
    const std::vector<dsf::EdgeId> forest(u.edges.begin(), u.edges.end());
    if (!dsf::IsFeasible(chain.graph, state, forest) || chain.graph.WeightOf(forest) != u.weight) {
      why = "revise result infeasible on the revised instance";
      return false;
    }
    return true;
  }
  const std::vector<dsf::SolveResult> expect = OneShotSolve(s.request.line);
  if (expect.size() != r.units.size()) {
    why = "unit count differs from the one-shot run";
    return false;
  }
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const std::vector<long long> edges(expect[i].forest.begin(), expect[i].forest.end());
    if (expect[i].weight != r.units[i].weight || edges != r.units[i].edges) {
      why = "unit " + std::to_string(i) + " differs from the one-shot Solve()";
      return false;
    }
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  dsf::JsonWriter json(os);
  json.BeginObject();
  json.Key("correct");
  json.Bool(correct);
  json.Key("attempted");
  json.UInt(attempted);
  json.Key("failed");
  json.UInt(failed);
  json.Key("metrics");
  json.BeginObject();
  for (const Metric& m : metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.Key("value");
    json.DoubleExact(m.value);
    json.Key("unit");
    json.String(m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return os.str();
}

double P50(const std::vector<double>& v) { return NearestRank(v, 0.5); }

// Per-layer metrics from the traced replay (see README.md for the map).
void AddReplayMetrics(const ReplayResult& rr, std::vector<Metric>& m) {
  const auto& sp = rr.spans_us;
  m.push_back({"cli.json.parse_us.p50", P50(sp[kJsonParse]), "us"});
  m.push_back({"cli.json.write_us.p50", P50(sp[kJsonWrite]), "us"});
  m.push_back({"workload.parse_us.p50", P50(sp[kWorkloadParse]), "us"});
  m.push_back({"workload.expand_us.p50", P50(sp[kExpand]), "us"});
  m.push_back({"workload.build_requests_us.p50", P50(sp[kBuildRequests]), "us"});
  m.push_back({"graph.connected_us.p50", P50(sp[kConnected]), "us"});
  m.push_back({"serve.cache.hash_us.p50", P50(sp[kHash]), "us"});
  m.push_back({"serve.cache.lookup_us.p50", P50(sp[kLookup]), "us"});
  m.push_back({"serve.router.key_us.p50", P50(sp[kRouterKey]), "us"});
  m.push_back({"solve.incremental.prepare_ms.p50", P50(sp[kPrepare]) / 1000.0, "ms"});

  std::vector<double> params_ms, insert_us, transform_ms, minimal_us, prune_us, validate_us;
  std::map<std::string, std::vector<double>> core_ms;
  double params_calls = 0, dist_messages = 0, dist_bits = 0, dist_seconds = 0, dist_units = 0;
  double sum_params = 0, sum_core = 0, sum_other = 0, sum_insert = 0;
  for (const StagedUnit& u : rr.staged) {
    if (u.params_calls > 0) params_ms.push_back(u.params_us / 1000.0);
    params_calls += u.params_calls;
    insert_us.push_back(u.insert_us);
    if (u.cr) transform_ms.push_back(u.transform_us / 1000.0);
    minimal_us.push_back(u.make_minimal_us);
    core_ms[u.solver].push_back(u.core_us / 1000.0);
    prune_us.push_back(u.prune_us);
    validate_us.push_back(u.validate_us);
    if (u.distributed) {
      dist_messages += static_cast<double>(u.messages);
      dist_bits += static_cast<double>(u.bits);
      dist_seconds += (u.core_us + u.transform_us) / 1e6;
      ++dist_units;
    }
    sum_params += u.params_us;
    sum_core += u.core_us;
    sum_other += u.transform_us + u.make_minimal_us + u.prune_us + u.validate_us;
    sum_insert += u.insert_us;
  }
  m.push_back({"graph.params_ms.p50", P50(params_ms), "ms"});
  // APSP computations per request: per staged request, times the share of
  // requests that missed the cache at all.
  m.push_back({"graph.params_calls",
               Ratio(params_calls, static_cast<double>(rr.staged_requests)) *
                   Ratio(static_cast<double>(rr.miss_requests), static_cast<double>(rr.requests)),
               "count"});
  m.push_back({"serve.cache.insert_us.p50", P50(insert_us), "us"});
  m.push_back({"serve.admission.queue_wait_ms.p50", P50(rr.queue_wait_ms), "ms"});
  m.push_back({"serve.admission.queue_wait_ms.p99", NearestRank(rr.queue_wait_ms, 0.99), "ms"});
  m.push_back({"solve.transform_ms.p50", P50(transform_ms), "ms"});
  m.push_back({"solve.make_minimal_us.p50", P50(minimal_us), "us"});
  for (const char* s : {"dist-det", "dist-rand", "gw-moat", "greedy-merge", "mst-prune", "local-search"}) {
    m.push_back({std::string("solve.core_ms.p50.") + s, P50(core_ms[s]), "ms"});
  }
  m.push_back({"solve.prune_us.p50", P50(prune_us), "us"});
  m.push_back({"solve.validate_us.p50", P50(validate_us), "us"});
  m.push_back({"congest.messages.mean", Ratio(dist_messages, dist_units), "count"});
  m.push_back({"congest.bits.mean", Ratio(dist_bits, dist_units), "bit"});
  m.push_back({"congest.msgs_per_sec", Ratio(dist_messages, dist_seconds), "1/s"});

  // Layer shares of in-process request time. The submit+wait span is split
  // by the staged sample: its stages, and the remainder as queue wait.
  double span_sum[kSpanCount] = {};
  double covered = 0;
  for (int s = 0; s < kSpanCount; ++s) {
    for (const double us : sp[static_cast<std::size_t>(s)]) span_sum[s] += us;
    covered += span_sum[s];
  }
  const double scale = Ratio(rr.submit_wait_us, rr.staged_submit_wait_us);
  double queue_wait_us = 0;
  for (const double ms : rr.queue_wait_ms) queue_wait_us += ms * 1000.0;
  const double total = rr.request_us;
  m.push_back({"trace.coverage", Ratio(covered, total), "ratio"});
  m.push_back({"trace.overhead", Ratio(rr.request_us, rr.untraced_request_us) - 1.0, "ratio"});
  m.push_back({"trace.share.cli", Ratio(span_sum[kJsonParse] + span_sum[kJsonWrite], total), "ratio"});
  m.push_back({"trace.share.workload",
               Ratio(span_sum[kWorkloadParse] + span_sum[kExpand] + span_sum[kBuildRequests], total),
               "ratio"});
  m.push_back({"trace.share.graph", Ratio(span_sum[kConnected] + sum_params * scale, total), "ratio"});
  m.push_back({"trace.share.serve",
               Ratio(span_sum[kRouterKey] + span_sum[kHotCache] + span_sum[kHash] +
                         span_sum[kLookup] + (queue_wait_us + sum_insert) * scale,
                     total),
               "ratio"});
  m.push_back({"trace.share.solve_core", Ratio(sum_core * scale, total), "ratio"});
  m.push_back({"trace.share.solve_other", Ratio(sum_other * scale, total), "ratio"});
  m.push_back({"trace.share.incremental", Ratio(span_sum[kPrepare], total), "ratio"});
}

int Run(const Args& args) {
  const std::optional<Workload> workload = ParseWorkloadName(args.workload);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args.workload
              << "' (cold-dist | hot-mix | churn-revise)\n";
    return 2;
  }
  const RequestStream stream(*workload, args.seed);

  // Set-up: spawn the topology kSetups times, keep the last one running.
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetups; ++i) {
    Topology t(args.dsf);
    setups.push_back(t.SetupSeconds());
    if (!t.Stop()) throw std::runtime_error("topology did not shut down cleanly");
  }
  Topology top(args.dsf);
  setups.push_back(top.SetupSeconds());

  std::vector<std::unique_ptr<dsf::ClientConnection>> conns;
  dsf::ConnectionLimits limits;
  limits.connect_timeout_ms = 2000;
  limits.send_timeout_ms = 10000;
  limits.recv_timeout_ms = 60000;
  for (int c = 0; c < kClients; ++c) {
    conns.push_back(std::make_unique<dsf::ClientConnection>("127.0.0.1", top.RouterPort(), limits));
  }
  const auto round_trip = [&](int c, const std::string& line, std::string& response) {
    try {
      conns[static_cast<std::size_t>(c)]->SendLine(line);
      if (conns[static_cast<std::size_t>(c)]->RecvLine(response)) return true;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: transport error: " << e.what() << "\n";
    }
    return false;
  };

  // Warm-up (hot-mix): every failure still counts.
  Tally warm_tally;
  std::mutex warm_mutex;
  ForEachClient([&](int c) {
    Tally t;
    std::string response;
    for (long k = 0; k < stream.WarmupPerClient(); ++k) {
      const Request req = stream.Line(c, k);
      t.Add(round_trip(c, req.line, response) ? ClassifyResponse(response, req.expect_key).outcome
                                              : Outcome::kTransport);
    }
    std::lock_guard<std::mutex> lock(warm_mutex);
    warm_tally.Merge(t);
  });

  // Measured closed loop: until --seconds elapsed and at least
  // kMinRequests completed (capped at 3x --seconds).
  const Counters before = Scrape(top);
  std::vector<ClientLog> logs(static_cast<std::size_t>(kClients));
  ReplayDetector replays;
  std::atomic<long> completed{0};
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(args.seconds);
  const auto hard_deadline = start + std::chrono::duration<double>(3 * args.seconds);
  ForEachClient([&](int c) {
    ClientLog& log = logs[static_cast<std::size_t>(c)];
    std::string response;
    for (long k = stream.WarmupPerClient();; ++k) {
      const auto now = Clock::now();
      if (now >= hard_deadline ||
          (now >= deadline && completed.load() >= static_cast<long>(kMinRequests))) {
        break;
      }
      Request req;
      try {
        req = stream.Line(c, k);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        log.tally.Add(Outcome::kError);
        break;
      }
      const auto t0 = Clock::now();
      if (!round_trip(c, req.line, response)) {
        log.tally.Add(Outcome::kTransport);
        break;
      }
      const auto t1 = Clock::now();
      Record(log, req, response, std::chrono::duration<double, std::milli>(t1 - t0).count(),
             std::chrono::duration<double>(t1 - start).count(), replays);
      if (Sampled(args.seed, c, k, SampleEvery(*workload))) log.samples.push_back({c, k, req, response});
      ++completed;
    }
  });
  const double measured_s = std::chrono::duration<double>(Clock::now() - start).count();
  const Counters after = Scrape(top);
  const double peak_rss_mb = top.PeakRssMb();
  conns.clear();
  const bool clean_stop = top.Stop();

  ClientLog all;
  for (ClientLog& log : logs) {
    all.rtt_ms.insert(all.rtt_ms.end(), log.rtt_ms.begin(), log.rtt_ms.end());
    all.done_s.insert(all.done_s.end(), log.done_s.begin(), log.done_s.end());
    all.transport_ms.insert(all.transport_ms.end(), log.transport_ms.begin(), log.transport_ms.end());
    all.backend_ms.insert(all.backend_ms.end(), log.backend_ms.begin(), log.backend_ms.end());
    all.tally.Merge(log.tally);
    all.weight_sum += log.weight_sum;
    all.weight_units += log.weight_units;
    all.rounds_sum += log.rounds_sum;
    all.dist_units += log.dist_units;
    all.bytes_sum += log.bytes_sum;
    all.revises += log.revises;
    all.warm += log.warm;
    all.replays += log.replays;
    for (Sample& s : log.samples) all.samples.push_back(std::move(s));
  }

  // Output checks on the sampled responses (ok ones only; failures are
  // already counted).
  std::uint64_t failed = all.tally.failed + warm_tally.failed + (clean_stop ? 0 : 1);
  long checked = 0;
  const auto check_deadline = Clock::now() + std::chrono::duration<double>(kCheckSeconds);
  for (const Sample& s : all.samples) {
    if (Clock::now() >= check_deadline) break;
    if (ClassifyResponse(s.response, s.request.expect_key).outcome != Outcome::kOk) continue;
    std::string why;
    ++checked;
    if (!CheckSample(stream, s, why)) {
      ++failed;
      std::cerr << "perfbench: output check failed for request c" << s.client << "-" << s.k
                << ": " << why << "\n";
    }
  }

  const std::uint64_t attempted = all.tally.attempted + warm_tally.attempted;
  const double router_requests = after.router_requests - before.router_requests;
  double forwarded_total = 0, forwarded_max = 0;
  for (std::size_t i = 0; i < after.forwarded.size(); ++i) {
    const double f = after.forwarded[i] - before.forwarded[i];
    forwarded_total += f;
    forwarded_max = std::max(forwarded_max, f);
  }
  const double hot_hits = after.hot_hits - before.hot_hits;
  std::cerr << "perfbench: " << args.workload << " seed " << args.seed << ": " << all.rtt_ms.size()
            << " ok responses in " << measured_s << " s; " << checked
            << " sampled responses re-checked; router hot hits " << hot_hits
            << " (replays detected " << all.replays << "); warm revises " << all.warm << "/"
            << all.revises << "\n";

  const Windowed windowed = WindowedMedians(all.done_s, all.rtt_ms, measured_s, kWindows);
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"latency_p50_ms", windowed.p50, "ms"},
        {"latency_p99_ms", NearestRank(all.rtt_ms, 0.99), "ms"},
        {"throughput_rps", windowed.rate, "1/s"},
        {"setup_s", NearestRank(setups, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"forest_weight_mean", Ratio(all.weight_sum, static_cast<double>(all.weight_units)), "weight"},
    };
  } else {
    metrics = {
        {"cli.json.response_bytes.mean", Ratio(all.bytes_sum, static_cast<double>(all.tally.attempted)), "B"},
        {"serve.cache.hit_ratio",
         Ratio(after.cache_hits - before.cache_hits,
               after.cache_hits - before.cache_hits + after.cache_misses - before.cache_misses),
         "ratio"},
        {"serve.cache.evictions", after.evictions - before.evictions, "count"},
        {"serve.router.hot_hit_ratio", Ratio(hot_hits, router_requests), "ratio"},
        {"serve.router.backend_share_max", Ratio(forwarded_max, forwarded_total), "ratio"},
        {"serve.router.retries", after.retries - before.retries, "count"},
        {"serve.admission.coalesced", after.coalesced - before.coalesced, "count"},
        {"serve.admission.rejected", after.rejected - before.rejected, "count"},
        {"serve.admission.batch_size.mean",
         Ratio(after.computed - before.computed, after.batches - before.batches), "count"},
        {"serve.split.transport_ms.p50", P50(all.transport_ms), "ms"},
        {"serve.split.backend_ms.p50", P50(all.backend_ms), "ms"},
        {"solve.incremental.warm_ratio",
         Ratio(static_cast<double>(all.warm), static_cast<double>(all.revises)), "ratio"},
        {"sim_rounds_mean", Ratio(all.rounds_sum, static_cast<double>(all.dist_units)), "rounds"},
    };
    const ReplayResult rr = RunReplay(stream, args.seconds / 3, args.seconds / 6);
    failed += rr.tally.failed;
    AddReplayMetrics(rr, metrics);
    std::cerr << "perfbench: traced replay " << rr.requests << " requests, "
              << rr.staged_requests << " staged; replay failures " << rr.tally.failed << "\n";
  }

  // Human-readable summary, then the result line.
  const std::size_t n = all.rtt_ms.size();
  std::cout << "workload " << args.workload << "  seed " << args.seed << "  requests " << n
            << "  (" << SamplesBeyond(n, 0.99) << " beyond p99)\n";
  std::cout << "  error_rate " << Ratio(static_cast<double>(failed), static_cast<double>(attempted))
            << " ratio  (" << all.tally.refused + warm_tally.refused << " refused)\n";
  if (args.trace == 0) {
    std::cout << "  sim_rounds_mean " << Ratio(all.rounds_sum, static_cast<double>(all.dist_units))
              << " rounds\n";
  }
  for (const Metric& m : metrics) std::cout << "  " << m.name << " " << m.value << " " << m.unit << "\n";
  std::cout << ResultLine(failed == 0, attempted, failed, metrics) << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench --dsf PATH --workload NAME --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
