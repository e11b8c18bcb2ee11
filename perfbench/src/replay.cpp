#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "cli/json.hpp"
#include "common/random.hpp"
#include "dist/transform.hpp"
#include "graph/properties.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "solve/incremental.hpp"
#include "solve/solver_spec.hpp"
#include "steiner/prune.hpp"
#include "steiner/validate.hpp"
#include "workload/spec.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// One backend with `dsf serve`'s default sizing (ServeOptions).
struct Backend {
  dsf::ResultCache cache{4096, 8};
  dsf::AdmissionQueue queue{&cache, dsf::AdmissionOptions{}};
  dsf::ServeContext ctx;
  Backend() {
    ctx.cache = &cache;
    ctx.queue = &queue;
  }
};

// The router's state with `dsf shard-router`'s defaults (RouterOptions).
struct InProcTopology {
  std::array<Backend, 2> backends;
  dsf::HotCache hot{512};
  dsf::HashRing ring{2, 64};
};

struct Recorder {
  std::array<std::vector<double>, kSpanCount> us;

  template <class F>
  decltype(auto) Time(Span s, F&& f) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      us[s].push_back(Us(t0, Clock::now()));
    } else {
      auto r = f();
      us[s].push_back(Us(t0, Clock::now()));
      return r;
    }
  }
};

// The cache-missing units of one replayed request, kept for the staged
// post-pass. Unit graphs are re-bound after re-expanding `canonical`.
struct MissRecord {
  std::string canonical;
  double submit_wait_us = 0;
  std::vector<dsf::SolveRequest> units;
  std::vector<int> case_index;
  std::vector<std::uint64_t> seeds;
  std::vector<dsf::CacheKey> keys;
  std::vector<dsf::SolveResult> served;
};

struct Plan {
  dsf::WorkloadSpec spec;
  std::vector<std::string> solvers;
  dsf::SolveOptions options;
};

// The subset of serve/protocol.cpp's request parsing the benchmark's
// request lines use: inline "spec", optional "solvers", default options.
Plan ParsePlan(const dsf::JsonValue& req, bool revise) {
  Plan plan;
  std::istringstream in(req.GetString("spec", ""));
  plan.spec = dsf::ParseWorkloadSpec(in, "<wire>");
  if (const dsf::JsonValue* s = req.Find("solvers"); s != nullptr && s->IsArray()) {
    for (const dsf::JsonValue& v : s->array) plan.solvers.push_back(v.string);
  }
  if (plan.solvers.empty()) plan.solvers = plan.spec.solvers;
  if (plan.solvers.empty() && revise) plan.solvers.emplace_back("local-search");
  for (std::string& name : plan.solvers) name = dsf::ParseSolverSpec(name).Canonical();
  plan.options = WireOptions();
  return plan;
}

// Terminal edits only: the churn-revise stream sends no pair edits.
dsf::InstanceDelta ParseDelta(const dsf::JsonValue& req) {
  dsf::InstanceDelta d;
  const dsf::JsonValue* delta = req.Find("delta");
  if (delta == nullptr) throw std::runtime_error("revise needs a 'delta' object");
  if (const dsf::JsonValue* rm = delta->Find("remove_terminals")) {
    for (const dsf::JsonValue& v : rm->array) {
      d.remove_terminals.push_back(static_cast<dsf::NodeId>(std::stoll(v.string)));
    }
  }
  if (const dsf::JsonValue* add = delta->Find("add_terminals")) {
    for (const dsf::JsonValue& p : add->array) {
      d.add_terminals.push_back({static_cast<dsf::NodeId>(std::stoll(p.array.at(0).string)),
                                 static_cast<dsf::Label>(std::stoll(p.array.at(1).string))});
    }
  }
  return d;
}

void WriteUnit(dsf::JsonWriter& json, const dsf::WorkloadCase& wc,
               const dsf::WorkloadInstance& inst, const dsf::SolveResult& r, bool cached,
               const dsf::CacheKey& key) {
  json.BeginObject();
  json.Key("solver");
  json.String(r.solver);
  json.Key("case");
  json.String(wc.name);
  json.Key("instance");
  json.String(inst.name);
  json.Key("input");
  json.String(inst.use_cr ? "cr" : "ic");
  json.Key("weight");
  json.Int(static_cast<long long>(r.weight));
  json.Key("feasible");
  json.Bool(r.feasible);
  json.Key("edges");
  json.BeginArray();
  for (const dsf::EdgeId e : r.forest) json.Int(e);
  json.EndArray();
  json.Key("rounds");
  json.Int(r.stats.rounds);
  json.Key("messages");
  json.Int(r.stats.messages);
  json.Key("wall_ms");
  json.Double(r.wall_ms);
  json.Key("cached");
  json.Bool(cached);
  json.Key("key");
  json.String(dsf::CacheKeyToHex(key));
  json.EndObject();
}

std::string Overloaded() { return R"({"ok":false,"error":"overloaded"})"; }

// Submits `units` and waits for every ticket, as HandleSolve does.
bool SubmitAndWait(Backend& be, const std::vector<dsf::SolveRequest>& units,
                   const std::vector<dsf::CacheKey>& keys,
                   const std::vector<std::uint64_t>& seeds, std::vector<dsf::SolveResult>& out) {
  auto admission = be.queue.SubmitAll(units, keys, seeds);
  if (admission.tickets.empty()) return false;
  bool ok = true;
  out.clear();
  for (auto& ticket : admission.tickets) {
    out.push_back(ticket->Wait());
    ok = ok && ticket->Error().empty();
  }
  return ok;
}

std::string TracedSolve(Backend& be, const dsf::JsonValue& req, const std::string& canonical,
                        Recorder& rec, std::optional<MissRecord>& miss) {
  const auto start = Clock::now();
  const Plan plan = rec.Time(kWorkloadParse, [&] { return ParsePlan(req, false); });
  const dsf::Workload workload = rec.Time(kExpand, [&] { return dsf::ExpandWorkload(plan.spec); });
  rec.Time(kConnected, [&] {
    for (const dsf::WorkloadCase& wc : workload.cases) {
      if (!dsf::IsConnected(wc.graph)) throw std::runtime_error("disconnected case");
    }
  });
  const dsf::RequestMatrix matrix = rec.Time(
      kBuildRequests, [&] { return dsf::BuildRequests(workload, plan.solvers, plan.options); });
  const std::size_t n = matrix.requests.size();
  std::vector<dsf::CacheKey> keys(n);
  std::vector<std::uint64_t> seeds(n);
  rec.Time(kHash, [&] {
    std::vector<dsf::CacheKey> graph_hash;
    for (const dsf::WorkloadCase& wc : workload.cases) graph_hash.push_back(dsf::HashGraph(wc.graph));
    for (std::size_t i = 0; i < n; ++i) {
      seeds[i] = dsf::DeriveSeed(plan.spec.seed, i);
      keys[i] = dsf::CanonicalHash(graph_hash[static_cast<std::size_t>(matrix.case_index[i])],
                                   matrix.requests[i], seeds[i]);
    }
  });
  std::vector<dsf::SolveResult> results(n);
  std::vector<bool> cached(n, false);
  std::vector<std::size_t> miss_index;
  rec.Time(kLookup, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (auto hit = be.cache.Lookup(keys[i])) {
        results[i] = std::move(*hit);
        cached[i] = true;
      } else {
        miss_index.push_back(i);
      }
    }
  });
  if (!miss_index.empty()) {
    MissRecord m;
    m.canonical = canonical;
    for (const std::size_t i : miss_index) {
      m.units.push_back(matrix.requests[i]);
      m.case_index.push_back(matrix.case_index[i]);
      m.seeds.push_back(seeds[i]);
      m.keys.push_back(keys[i]);
    }
    const auto t0 = Clock::now();
    const bool ok = SubmitAndWait(be, m.units, m.keys, m.seeds, m.served);
    m.submit_wait_us = Us(t0, Clock::now());
    rec.us[kSubmitWait].push_back(m.submit_wait_us);
    if (!ok) return Overloaded();
    for (std::size_t j = 0; j < miss_index.size(); ++j) results[miss_index[j]] = m.served[j];
    miss = std::move(m);
  }
  return rec.Time(kJsonWrite, [&] {
    std::ostringstream os;
    dsf::JsonWriter json(os);
    json.BeginObject();
    json.Key("ok");
    json.Bool(true);
    json.Key("seed");
    json.UInt(plan.spec.seed);
    json.Key("requests");
    json.Int(static_cast<long long>(n));
    json.Key("hits");
    json.Int(static_cast<long long>(n - miss_index.size()));
    json.Key("misses");
    json.Int(static_cast<long long>(miss_index.size()));
    json.Key("wall_ms");
    json.Double(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
    json.Key("results");
    json.BeginArray();
    for (std::size_t i = 0; i < n; ++i) {
      const dsf::WorkloadCase& wc = workload.cases[static_cast<std::size_t>(matrix.case_index[i])];
      WriteUnit(json, wc, wc.instances[static_cast<std::size_t>(matrix.instance_index[i])],
                results[i], cached[i], keys[i]);
    }
    json.EndArray();
    json.EndObject();
    return os.str();
  });
}

std::string TracedRevise(Backend& be, const dsf::JsonValue& req, const std::string& canonical,
                         Recorder& rec, std::optional<MissRecord>& miss) {
  const auto start = Clock::now();
  dsf::CacheKey base_key;
  dsf::InstanceDelta delta;
  const Plan plan = rec.Time(kWorkloadParse, [&] {
    Plan p = ParsePlan(req, true);
    if (!dsf::CacheKeyFromHex(req.GetString("base", ""), &base_key)) {
      throw std::runtime_error("revise needs 'base'");
    }
    delta = ParseDelta(req);
    return p;
  });
  const dsf::Workload workload = rec.Time(kExpand, [&] { return dsf::ExpandWorkload(plan.spec); });
  const dsf::WorkloadCase& wc = workload.cases.at(0);
  rec.Time(kConnected, [&] {
    if (!dsf::IsConnected(wc.graph)) throw std::runtime_error("disconnected case");
  });
  const dsf::RequestMatrix matrix = rec.Time(
      kBuildRequests, [&] { return dsf::BuildRequests(workload, plan.solvers, plan.options); });
  const dsf::SolveRequest& base_request = matrix.requests.at(0);
  const std::uint64_t seed = dsf::DeriveSeed(plan.spec.seed, 0);
  dsf::SolveRequest revised = rec.Time(kBuildRequests, [&] {
    dsf::SolveRequest r = base_request;
    r.ic = dsf::ApplyDelta(r.ic, delta);
    return r;
  });
  const dsf::CacheKey revised_key = rec.Time(
      kHash, [&] { return dsf::CanonicalHash(dsf::HashGraph(wc.graph), revised, seed); });
  dsf::SolveResult result;
  bool cached = false;
  bool warm = false;
  if (auto hit = rec.Time(kLookup, [&] { return be.cache.Lookup(revised_key); })) {
    result = std::move(*hit);
    cached = true;
  } else {
    if (auto base = rec.Time(kLookup, [&] { return be.cache.Lookup(base_key); })) {
      dsf::WarmStartPlan wp =
          rec.Time(kPrepare, [&] { return dsf::PrepareWarmStart(base_request, base->forest, delta); });
      if (wp.warm) {
        warm = true;
        revised = std::move(wp.revised);
      }
    }
    MissRecord m;
    m.canonical = canonical;
    m.units = {revised};
    m.case_index = {0};
    m.seeds = {seed};
    m.keys = {revised_key};
    const auto t0 = Clock::now();
    const bool ok = SubmitAndWait(be, m.units, m.keys, m.seeds, m.served);
    m.submit_wait_us = Us(t0, Clock::now());
    rec.us[kSubmitWait].push_back(m.submit_wait_us);
    if (!ok) return Overloaded();
    result = m.served.front();
    miss = std::move(m);
  }
  return rec.Time(kJsonWrite, [&] {
    std::ostringstream os;
    dsf::JsonWriter json(os);
    json.BeginObject();
    json.Key("ok");
    json.Bool(true);
    json.Key("warm");
    json.Bool(warm);
    json.Key("key");
    json.String(dsf::CacheKeyToHex(revised_key));
    json.Key("wall_ms");
    json.Double(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
    json.Key("results");
    json.BeginArray();
    WriteUnit(json, wc, wc.instances.at(0), result, cached, revised_key);
    json.EndArray();
    json.EndObject();
    return os.str();
  });
}

// The router's path (serve/router.cpp RouteRequest) around the backend's.
std::string TracedRoute(InProcTopology& top, const std::string& line, Recorder& rec,
                        std::optional<MissRecord>& miss) {
  const dsf::JsonValue request = rec.Time(kJsonParse, [&] { return dsf::ParseJson(line); });
  std::string canonical;
  dsf::CacheKey key;
  rec.Time(kRouterKey, [&] {
    canonical = dsf::CanonicalRequestText(request);
    key = dsf::RouterRequestKey(canonical);
  });
  if (auto hit = rec.Time(kHotCache, [&] { return top.hot.Lookup(key); })) return *hit;
  const int b = rec.Time(kRouterKey, [&] {
    return top.ring.PreferenceOrder(dsf::RouterRequestKey(dsf::RouteAffinityText(request)).lo)
        .front();
  });
  Backend& be = top.backends[static_cast<std::size_t>(b)];
  const dsf::JsonValue breq = rec.Time(kJsonParse, [&] { return dsf::ParseJson(canonical); });
  const std::string raw = breq.GetString("op", "") == "revise"
                              ? TracedRevise(be, breq, canonical, rec, miss)
                              : TracedSolve(be, breq, canonical, rec, miss);
  const dsf::JsonValue reply = rec.Time(kJsonParse, [&] { return dsf::ParseJson(raw); });
  if (reply.GetBool("ok", false)) rec.Time(kHotCache, [&] { top.hot.Insert(key, raw); });
  return raw;
}

std::string UntracedRoute(InProcTopology& top, const std::string& line) {
  const dsf::JsonValue request = dsf::ParseJson(line);
  const std::string canonical = dsf::CanonicalRequestText(request);
  const dsf::CacheKey key = dsf::RouterRequestKey(canonical);
  if (auto hit = top.hot.Lookup(key)) return *hit;
  const int b =
      top.ring.PreferenceOrder(dsf::RouterRequestKey(dsf::RouteAffinityText(request)).lo).front();
  std::string raw = dsf::HandleRequestLine(top.backends[static_cast<std::size_t>(b)].ctx, canonical);
  if (dsf::ParseJson(raw).GetBool("ok", false)) top.hot.Insert(key, raw);
  return raw;
}

void Warmup(InProcTopology& top, const RequestStream& stream) {
  ForEachClient([&](int c) {
    for (long k = 0; k < stream.WarmupPerClient(); ++k) UntracedRoute(top, stream.Line(c, k).line);
  });
}

}  // namespace

StagedUnit StagedSolve(const dsf::SolveRequest& request, std::uint64_t seed, bool warm_params,
                       dsf::ResultCache& scratch, const dsf::CacheKey& key) {
  StagedUnit su;
  const dsf::SolverSpec spec = dsf::ParseSolverSpec(request.solver);
  const dsf::Solver& solver = dsf::SolverRegistry::Get(spec.base);
  const dsf::Graph& g = *request.graph;
  dsf::SolveOptions options = request.options;
  if (options.net.cancel == nullptr) options.net.cancel = options.cancel;
  su.solver = spec.Canonical();
  su.distributed = solver.Distributed();
  su.cr = request.use_cr;

  auto t0 = Clock::now();
  if (warm_params && (su.distributed || request.use_cr)) {
    (void)dsf::CachedParameters(g);
    su.params_us = Us(t0, Clock::now());
    su.params_calls = 1;
  }
  dsf::IcInstance ic;
  t0 = Clock::now();
  if (request.use_cr) {
    auto transformed = dsf::RunDistributedCrToIc(g, request.cr, seed, options.net);
    ic = std::move(transformed.instance);
    su.messages += transformed.stats.messages;
    su.bits += transformed.stats.total_bits;
    su.transform_us = Us(t0, Clock::now());
  } else {
    ic = request.ic;
  }
  t0 = Clock::now();
  const dsf::IcInstance minimal = dsf::MakeMinimal(ic);
  su.make_minimal_us = Us(t0, Clock::now());
  t0 = Clock::now();
  dsf::SolverOutput core = solver.SolveMinimal(g, minimal, options, seed);
  su.core_us = Us(t0, Clock::now());
  su.messages += core.stats.messages;
  su.bits += core.stats.total_bits;
  t0 = Clock::now();
  if (options.prune && !core.forest.empty()) {
    core.forest = dsf::MinimalFeasibleSubforest(g, minimal, core.forest);
  }
  su.prune_us = Us(t0, Clock::now());
  su.forest = std::move(core.forest);
  std::sort(su.forest.begin(), su.forest.end());
  su.weight = g.WeightOf(su.forest);
  t0 = Clock::now();
  su.feasible = dsf::IsFeasible(g, ic, su.forest) &&
                (!request.use_cr || dsf::IsFeasibleCr(g, request.cr, su.forest));
  su.validate_us = Us(t0, Clock::now());
  dsf::SolveResult result;
  result.solver = su.solver;
  result.forest = su.forest;
  result.weight = su.weight;
  result.feasible = su.feasible;
  result.stats = core.stats;
  t0 = Clock::now();
  scratch.Insert(key, result);
  su.insert_us = Us(t0, Clock::now());
  return su;
}

std::vector<dsf::SolveResult> OneShotSolve(const std::string& line) {
  const Plan plan = ParsePlan(dsf::ParseJson(line), false);
  const dsf::Workload workload = dsf::ExpandWorkload(plan.spec);
  const dsf::RequestMatrix matrix = dsf::BuildRequests(workload, plan.solvers, plan.options);
  std::vector<dsf::SolveResult> out;
  for (std::size_t i = 0; i < matrix.requests.size(); ++i) {
    const dsf::SolveRequest& r = matrix.requests[i];
    out.push_back(dsf::Solve(r, dsf::DeriveSeed(plan.spec.seed, i), r.options.net.threads));
  }
  return out;
}

ReplayResult RunReplay(const RequestStream& stream, double seconds, double staged_seconds) {
  ReplayResult out;
  const long warmup = stream.WarmupPerClient();
  std::vector<long> counts(static_cast<std::size_t>(kClients), 0);
  std::vector<MissRecord> records;
  {
    InProcTopology top;
    Warmup(top, stream);
    struct PerClient {
      Recorder rec;
      std::vector<MissRecord> records;
      Tally tally;
      double request_us = 0;
    };
    std::vector<PerClient> per(static_cast<std::size_t>(kClients));
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
    ForEachClient([&](int c) {
      PerClient& me = per[static_cast<std::size_t>(c)];
      for (long k = warmup; Clock::now() < deadline; ++k) {
        const Request req = stream.Line(c, k);
        std::optional<MissRecord> miss;
        const auto t0 = Clock::now();
        std::string response;
        try {
          response = TracedRoute(top, req.line, me.rec, miss);
        } catch (const std::exception&) {
          response = R"({"ok":false,"error":"replay"})";
        }
        me.request_us += Us(t0, Clock::now());
        me.tally.Add(ClassifyResponse(response, req.expect_key).outcome);
        if (miss) me.records.push_back(std::move(*miss));
        ++counts[static_cast<std::size_t>(c)];
      }
    });
    for (PerClient& me : per) {
      for (int s = 0; s < kSpanCount; ++s) {
        auto& dst = out.spans_us[static_cast<std::size_t>(s)];
        const auto& src = me.rec.us[static_cast<std::size_t>(s)];
        dst.insert(dst.end(), src.begin(), src.end());
      }
      out.request_us += me.request_us;
      out.tally.Merge(me.tally);
      for (MissRecord& m : me.records) records.push_back(std::move(m));
    }
  }
  for (long n : counts) out.requests += n;
  out.miss_requests = static_cast<long>(records.size());
  for (const double us : out.spans_us[kSubmitWait]) out.submit_wait_us += us;

  // Staged post-pass over a seeded shuffle of the cache-missing requests.
  dsf::SplitMix64 rng(dsf::DeriveSeed(stream.Seed(), 7));
  for (std::size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.NextBelow(i)]);
  }
  dsf::ResultCache scratch(4096, 8);
  const auto staged_deadline = Clock::now() + std::chrono::duration<double>(staged_seconds);
  for (const MissRecord& m : records) {
    if (Clock::now() >= staged_deadline) break;
    const dsf::JsonValue req = dsf::ParseJson(m.canonical);
    const Plan plan = ParsePlan(req, req.GetString("op", "") == "revise");
    const dsf::Workload workload = dsf::ExpandWorkload(plan.spec);
    std::set<const dsf::Graph*> warmed;
    double staged_us = 0;
    for (std::size_t i = 0; i < m.units.size(); ++i) {
      dsf::SolveRequest unit = m.units[i];
      unit.graph = &workload.cases.at(static_cast<std::size_t>(m.case_index[i])).graph;
      const bool first = warmed.insert(unit.graph).second;
      StagedUnit su = StagedSolve(unit, m.seeds[i], first, scratch, m.keys[i]);
      if (su.weight != m.served[i].weight || su.forest != m.served[i].forest) ++out.tally.failed;
      staged_us += su.TotalUs();
      out.staged.push_back(std::move(su));
    }
    out.queue_wait_ms.push_back(std::max(0.0, m.submit_wait_us - staged_us) / 1000.0);
    out.staged_submit_wait_us += m.submit_wait_us;
    ++out.staged_requests;
  }
  records.clear();

  // The same request counts, untraced, through the real protocol handler.
  {
    InProcTopology top;
    Warmup(top, stream);
    std::vector<double> request_us(counts.size(), 0.0);
    ForEachClient([&](int c) {
      for (long k = warmup; k < warmup + counts[static_cast<std::size_t>(c)]; ++k) {
        const Request req = stream.Line(c, k);
        const auto t0 = Clock::now();
        (void)UntracedRoute(top, req.line);
        request_us[static_cast<std::size_t>(c)] += Us(t0, Clock::now());
      }
    });
    for (const double us : request_us) out.untraced_request_us += us;
  }
  return out;
}

}  // namespace perfbench
