#include "serve/protocol.hpp"

#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cli/json.hpp"
#include "common/random.hpp"
#include "common/text.hpp"
#include "graph/properties.hpp"
#include "solve/incremental.hpp"
#include "solve/solver.hpp"
#include "solve/solver_spec.hpp"
#include "workload/spec.hpp"

namespace dsf {

namespace {

// The admission bound rejected the request: nothing of it was enqueued.
std::string OverloadedReply(ServeContext& ctx, const std::string& id) {
  return ErrorReply(
      id, "overloaded",
      {{"queue_depth", static_cast<long long>(ctx.queue->Counters().depth)}});
}

// Reads an integral field: present-but-fractional or out-of-range values
// are protocol errors, not truncations. Parsed from the raw literal, not
// the double, so large values arrive exactly.
std::optional<long long> GetInteger(const JsonValue& req,
                                    std::string_view key, long long lo,
                                    long long hi) {
  const JsonValue* v = req.Find(key);
  if (v == nullptr) return std::nullopt;
  const auto fail = [&]() -> std::runtime_error {
    return std::runtime_error("field '" + std::string(key) +
                              "' must be an integer in [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              "]");
  };
  if (!v->IsNumber()) throw fail();
  const auto value = ParseNumber<long long>(v->string);
  if (!value || *value < lo || *value > hi) throw fail();
  return value;
}

// The seed is a full uint64 (like the CLI's --seed): parsed from the raw
// literal so values above 2^53 arrive exactly — the seed is part of the
// cache key and of the bit-identity contract with the one-shot CLI.
std::optional<std::uint64_t> GetSeed(const JsonValue& req) {
  const JsonValue* v = req.Find("seed");
  if (v == nullptr) return std::nullopt;
  const auto fail = [] {
    return std::runtime_error("field 'seed' must be an integer >= 1");
  };
  if (!v->IsNumber()) throw fail();
  const auto value = ParseNumber<std::uint64_t>(v->string);
  if (!value || *value == 0) throw fail();
  return value;
}

// Builds the workload text of a request: either the inline spec verbatim or
// a synthesized two-line spec from the named generator form.
std::string RequestSpecText(const JsonValue& req) {
  const JsonValue* spec = req.Find("spec");
  const JsonValue* generate = req.Find("generate");
  if ((spec != nullptr) == (generate != nullptr)) {
    throw std::runtime_error(
        "solve needs exactly one of 'spec' (inline workload text) or "
        "'generate' (named generator spec)");
  }
  if (spec != nullptr) {
    if (!spec->IsString()) throw std::runtime_error("'spec' must be a string");
    return spec->string;
  }
  if (!generate->IsString()) {
    throw std::runtime_error("'generate' must be a string");
  }
  // "grid rows=4 cols=4" -> generate directive; the instance draw defaults
  // to a small random-ic sample and is named "sampled" on the wire.
  std::string instance = req.GetString("instance", "random-ic k=2 tpc=2");
  std::istringstream fields(instance);
  std::string sampler;
  if (!(fields >> sampler)) {
    throw std::runtime_error("'instance' must name a sampler");
  }
  std::string params;
  std::getline(fields, params);
  std::ostringstream text;
  text << "generate " << generate->string << "\n"
       << "sample " << sampler << " sampled" << params << "\n";
  return text.str();
}

struct SolvePlan {
  WorkloadSpec spec;
  std::vector<std::string> solvers;
  SolveOptions options;
};

// `revise` narrows the solver default: with no request or spec solvers, a
// solve fans out to every registered solver, but a revision names one unit,
// and the only warm-startable core is local-search.
SolvePlan ParseSolve(const ServeContext& ctx, const JsonValue& req,
                     bool revise = false) {
  SolvePlan plan;
  const std::string text = RequestSpecText(req);
  std::istringstream in(text);
  plan.spec = ParseWorkloadSpec(in, "<wire>");
  // Wire specs run with an empty base_dir, but `import` would still read
  // files local to the *server*; clients must inline file contents instead
  // (`dsf client --scenario` does exactly that).
  for (const CaseSpec& cs : plan.spec.cases) {
    if (cs.kind == CaseSpec::Kind::kImportStp ||
        cs.kind == CaseSpec::Kind::kImportDimacs) {
      throw std::runtime_error(
          "'import' is not allowed over the wire; inline the file as a "
          "'graph' block or send it through dsf client --scenario");
    }
  }
  if (const auto seed = GetSeed(req)) plan.spec.seed = *seed;

  const JsonValue* solvers = req.Find("solvers");
  if (solvers != nullptr) {
    if (!solvers->IsArray()) {
      throw std::runtime_error("'solvers' must be an array of names");
    }
    for (const JsonValue& s : solvers->array) {
      if (!s.IsString()) {
        throw std::runtime_error("'solvers' must be an array of names");
      }
      plan.solvers.push_back(s.string);
    }
  }
  // Precedence mirrors the one-shot CLI: request "solvers" beats the spec's
  // `as` directive beats every registered solver.
  if (plan.solvers.empty()) plan.solvers = plan.spec.solvers;
  if (plan.solvers.empty()) {
    if (revise) {
      plan.solvers.emplace_back("local-search");
    } else {
      for (const auto name : SolverRegistry::Names()) {
        plan.solvers.emplace_back(name);
      }
    }
  }
  for (std::string& name : plan.solvers) {
    // Canonicalize before hashing: every spelling of the same portfolio
    // configuration must land on the same cache key.
    std::string why;
    if (!IsValidSolverSpec(name, &why)) throw std::runtime_error(why);
    name = ParseSolverSpec(name).Canonical();
  }

  const double epsilon = req.GetNumber("epsilon", 0.0);
  if (!(epsilon >= 0.0) || epsilon > 64.0) {
    throw std::runtime_error("'epsilon' must be in [0, 64]");
  }
  plan.options.epsilon = static_cast<Real>(epsilon);
  plan.options.repetitions = static_cast<int>(
      GetInteger(req, "repetitions", 1, 1 << 20).value_or(1));
  plan.options.prune = req.GetBool("prune", true);
  plan.options.validate = true;
  // Anytime deadline: tightest of the request's ask and the server-wide cap
  // (--deadline-ms), so the admission queue truncates long-running units
  // instead of holding a BatchEngine slot indefinitely.
  plan.options.deadline_ms = static_cast<int>(
      GetInteger(req, "deadline_ms", 0, 86'400'000).value_or(0));
  if (ctx.max_deadline_ms > 0 && (plan.options.deadline_ms == 0 ||
                                  ctx.max_deadline_ms <
                                      plan.options.deadline_ms)) {
    plan.options.deadline_ms = ctx.max_deadline_ms;
  }
  return plan;
}

void WriteUnitResult(JsonWriter& json, const WorkloadCase& wc,
                     const WorkloadInstance& inst, const SolveResult& r,
                     bool cached, const CacheKey& key) {
  json.BeginObject();
  WriteResultFields(json, wc, inst, r);
  json.Key("cached");
  json.Bool(cached);
  // The unit's canonical key: what a revise request passes as "base" to
  // warm-start from this result.
  json.Key("key");
  json.String(CacheKeyToHex(key));
  json.EndObject();
}

// Rejects a case no protocol can run on at admission: the pipeline would
// throw mid-batch and poison co-dispatched units.
void RequireConnected(const WorkloadCase& wc) {
  if (!IsConnected(wc.graph)) {
    throw std::runtime_error("case '" + wc.name +
                             "' is disconnected; no distributed protocol "
                             "can run on it");
  }
}

// Admits one request's cache-missing units as a single submission and
// waits for every ticket before reacting to errors: queued units borrow
// this handler's workload graphs, so returning early would free memory the
// dispatcher is about to read. Unit j's result lands in results[slots[j]].
// Returns the reply that replaces the response ("overloaded" when the
// admission bound refused the submission, else the first unit error), or
// std::nullopt when every unit solved.
std::optional<std::string> SolveMisses(ServeContext& ctx,
                                       const std::string& id,
                                       std::span<const SolveRequest> units,
                                       std::span<const CacheKey> keys,
                                       std::span<const std::uint64_t> seeds,
                                       std::span<const std::size_t> slots,
                                       std::span<SolveResult> results,
                                       std::uint64_t& coalesced) {
  auto admission = ctx.queue->SubmitAll(units, keys, seeds);
  if (admission.tickets.empty()) return OverloadedReply(ctx, id);
  coalesced = admission.coalesced;
  std::string error;
  for (std::size_t j = 0; j < units.size(); ++j) {
    const SolveResult& r = admission.tickets[j]->Wait();
    if (error.empty() && !admission.tickets[j]->Error().empty()) {
      error = admission.tickets[j]->Error();
    }
    results[slots[j]] = r;
  }
  if (!error.empty()) return ErrorReply(id, error);
  return std::nullopt;
}

// Opens a solve or revise reply with the members both ops start with. The
// op writes its own members next, then calls OpenResults.
void BeginUnitsReply(JsonWriter& json, const std::string& id,
                     std::uint64_t seed, std::size_t requests,
                     std::size_t misses, std::uint64_t coalesced) {
  BeginReply(json, id, true);
  json.Key("seed");
  json.UInt(seed);
  json.Key("requests");
  json.Int(static_cast<long long>(requests));
  json.Key("hits");
  json.Int(static_cast<long long>(requests - misses));
  json.Key("misses");
  json.Int(static_cast<long long>(misses));
  json.Key("coalesced");
  json.Int(static_cast<long long>(coalesced));
}

// Writes the handler's "wall_ms" (request parsed to units solved) and opens
// the "results" array.
void OpenResults(JsonWriter& json, std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point stop) {
  json.Key("wall_ms");
  json.Double(std::chrono::duration<double, std::milli>(stop - start).count());
  json.Key("results");
  json.BeginArray();
}

std::string HandleSolve(ServeContext& ctx, const JsonValue& req,
                        const std::string& id) {
  const auto start = std::chrono::steady_clock::now();
  const SolvePlan plan = ParseSolve(ctx, req);
  const Workload workload = ExpandWorkload(plan.spec);
  for (const WorkloadCase& wc : workload.cases) RequireConnected(wc);
  const RequestMatrix matrix =
      BuildRequests(workload, plan.solvers, plan.options);
  const std::size_t n = matrix.requests.size();

  // One canonical key per unit; graphs hashed once per case.
  std::vector<CacheKey> graph_hash;
  graph_hash.reserve(workload.cases.size());
  for (const WorkloadCase& wc : workload.cases) {
    graph_hash.push_back(HashGraph(wc.graph));
  }
  std::vector<CacheKey> keys(n);
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    // The unit's final seed, identical to what the one-shot CLI's batch
    // engine would derive for matrix position i.
    seeds[i] = DeriveSeed(plan.spec.seed, static_cast<std::uint64_t>(i));
    keys[i] = CanonicalHash(
        graph_hash[static_cast<std::size_t>(matrix.case_index[i])],
        matrix.requests[i], seeds[i]);
  }

  std::vector<SolveResult> results(n);
  std::vector<bool> cached(n, false);
  std::vector<std::size_t> miss_index;
  for (std::size_t i = 0; i < n; ++i) {
    if (auto hit = ctx.cache->Lookup(keys[i])) {
      results[i] = std::move(*hit);
      cached[i] = true;
    } else {
      miss_index.push_back(i);
    }
  }

  std::uint64_t coalesced = 0;
  if (!miss_index.empty()) {
    std::vector<SolveRequest> miss_units;
    std::vector<CacheKey> miss_keys;
    std::vector<std::uint64_t> miss_seeds;
    miss_units.reserve(miss_index.size());
    for (const std::size_t i : miss_index) {
      miss_units.push_back(matrix.requests[i]);
      miss_keys.push_back(keys[i]);
      miss_seeds.push_back(seeds[i]);
    }
    if (auto reply = SolveMisses(ctx, id, miss_units, miss_keys, miss_seeds,
                                 miss_index, results, coalesced)) {
      return std::move(*reply);
    }
  }

  const auto stop = std::chrono::steady_clock::now();
  std::ostringstream os;
  JsonWriter json(os);
  BeginUnitsReply(json, id, plan.spec.seed, n, miss_index.size(), coalesced);
  OpenResults(json, start, stop);
  for (std::size_t i = 0; i < n; ++i) {
    const WorkloadCase& wc =
        workload.cases[static_cast<std::size_t>(matrix.case_index[i])];
    const WorkloadInstance& inst =
        wc.instances[static_cast<std::size_t>(matrix.instance_index[i])];
    WriteUnitResult(json, wc, inst, results[i], cached[i], keys[i]);
  }
  json.EndArray();
  json.EndObject();
  return os.str();
}

// Reads one element of a delta array as an integer (node id or label);
// array shape errors name the field.
long long DeltaInt(const JsonValue& v, std::string_view field) {
  const auto value =
      v.IsNumber() ? ParseNumber<long long>(v.string) : std::nullopt;
  if (!value) {
    throw std::runtime_error("'delta." + std::string(field) +
                             "' entries must be integers");
  }
  return *value;
}

// Parses the "delta" object; node-range and semantic validation happens in
// ApplyDelta against the base instance.
InstanceDelta ParseDelta(const JsonValue& req) {
  const JsonValue* delta = req.Find("delta");
  if (delta == nullptr || !delta->IsObject()) {
    throw std::runtime_error("revise needs a 'delta' object");
  }
  InstanceDelta out;
  const auto read_pairs = [&](std::string_view field,
                              std::vector<std::pair<NodeId, NodeId>>& into) {
    const JsonValue* arr = delta->Find(field);
    if (arr == nullptr) return;
    if (!arr->IsArray()) {
      throw std::runtime_error("'delta." + std::string(field) +
                               "' must be an array of [a, b] pairs");
    }
    for (const JsonValue& e : arr->array) {
      if (!e.IsArray() || e.array.size() != 2) {
        throw std::runtime_error("'delta." + std::string(field) +
                                 "' must be an array of [a, b] pairs");
      }
      into.push_back({static_cast<NodeId>(DeltaInt(e.array[0], field)),
                      static_cast<NodeId>(DeltaInt(e.array[1], field))});
    }
  };
  read_pairs("add_pairs", out.add_pairs);
  read_pairs("remove_pairs", out.remove_pairs);
  std::vector<std::pair<NodeId, NodeId>> terminals;
  read_pairs("add_terminals", terminals);
  for (const auto& [v, l] : terminals) {
    out.add_terminals.push_back({v, static_cast<Label>(l)});
  }
  const JsonValue* removes = delta->Find("remove_terminals");
  if (removes != nullptr) {
    if (!removes->IsArray()) {
      throw std::runtime_error(
          "'delta.remove_terminals' must be an array of node ids");
    }
    for (const JsonValue& e : removes->array) {
      out.remove_terminals.push_back(
          static_cast<NodeId>(DeltaInt(e, "remove_terminals")));
    }
  }
  return out;
}

std::string HandleRevise(ServeContext& ctx, const JsonValue& req,
                         const std::string& id) {
  const auto start = std::chrono::steady_clock::now();
  const SolvePlan plan = ParseSolve(ctx, req, /*revise=*/true);
  const Workload workload = ExpandWorkload(plan.spec);
  if (workload.cases.size() != 1 || workload.cases[0].instances.size() != 1 ||
      plan.solvers.size() != 1) {
    throw std::runtime_error(
        "revise needs exactly one case x instance x solver");
  }
  const WorkloadCase& wc = workload.cases[0];
  RequireConnected(wc);
  CacheKey base_key;
  if (!CacheKeyFromHex(req.GetString("base", ""), &base_key)) {
    throw std::runtime_error(
        "revise needs 'base': the 32-hex canonical key of the cached base "
        "result (a solve result's \"key\" field)");
  }
  const InstanceDelta delta = ParseDelta(req);
  const std::string mode = req.GetString("mode", "warm");
  if (mode != "warm" && mode != "exact-match") {
    throw std::runtime_error("'mode' must be \"warm\" or \"exact-match\"");
  }

  const RequestMatrix matrix =
      BuildRequests(workload, plan.solvers, plan.options);
  const SolveRequest& base_request = matrix.requests[0];
  // Same seed position as a solve of the same one-unit framing — the unit
  // is matrix cell 0 either way, which is what makes the revised key equal
  // the cold key of the revised instance.
  const std::uint64_t seed = DeriveSeed(plan.spec.seed, 0);
  const CacheKey graph_hash = HashGraph(wc.graph);

  // The revised unit, cold by default; the warm path upgrades it below.
  SolveRequest revised = base_request;
  if (revised.use_cr) {
    revised.cr = ApplyDelta(revised.cr, delta);
  } else {
    revised.ic = ApplyDelta(revised.ic, delta);
  }
  const CacheKey revised_key = CanonicalHash(graph_hash, revised, seed);

  bool warm = false;
  bool base_hit = false;
  bool cached = false;
  std::string cold_reason;
  SolveResult result;
  std::uint64_t coalesced = 0;
  if (auto hit = ctx.cache->Lookup(revised_key)) {
    // The revised instance is already resident (an earlier revise or an
    // exact solve): serve it without touching the base at all.
    result = std::move(*hit);
    cached = true;
  } else {
    if (mode == "warm") {
      if (auto base = ctx.cache->Lookup(base_key)) {
        base_hit = true;
        WarmStartPlan warm_plan =
            PrepareWarmStart(base_request, base->forest, delta);
        if (warm_plan.warm) {
          warm = true;
          revised = std::move(warm_plan.revised);
        } else {
          cold_reason = warm_plan.cold_reason;
        }
      } else {
        cold_reason = "base key not cached";
      }
    }
    const std::size_t slot = 0;
    if (auto reply = SolveMisses(ctx, id, {&revised, 1}, {&revised_key, 1},
                                 {&seed, 1}, {&slot, 1}, {&result, 1},
                                 coalesced)) {
      return std::move(*reply);
    }
  }

  const auto stop = std::chrono::steady_clock::now();
  std::ostringstream os;
  JsonWriter json(os);
  BeginUnitsReply(json, id, plan.spec.seed, 1, cached ? 0 : 1, coalesced);
  json.Key("warm");
  json.Bool(warm);
  json.Key("base_hit");
  json.Bool(base_hit);
  if (!cold_reason.empty()) {
    json.Key("cold_reason");
    json.String(cold_reason);
  }
  json.Key("key");
  json.String(CacheKeyToHex(revised_key));
  OpenResults(json, start, stop);
  WriteUnitResult(json, wc, wc.instances[0], result, cached, revised_key);
  json.EndArray();
  json.EndObject();
  return os.str();
}

std::string HandleStats(ServeContext& ctx, const std::string& id) {
  const CacheCounters cache = ctx.cache->Counters();
  const QueueCounters queue = ctx.queue->Counters();
  const auto latencies = ctx.queue->Latencies();
  const auto now = std::chrono::steady_clock::now();

  std::ostringstream os;
  JsonWriter json(os);
  BeginReply(json, id, true);
  json.Key("uptime_ms");
  json.Double(
      std::chrono::duration<double, std::milli>(now - ctx.started).count());
  json.Key("cache");
  WriteCacheCounters(json, cache);
  json.Key("queue");
  json.BeginObject();
  json.Key("depth");
  json.UInt(queue.depth);
  json.Key("peak_depth");
  json.UInt(queue.peak_depth);
  json.Key("admitted");
  json.UInt(queue.admitted);
  json.Key("coalesced");
  json.UInt(queue.coalesced);
  json.Key("rejected");
  json.UInt(queue.rejected);
  json.Key("batches");
  json.UInt(queue.batches);
  json.Key("computed");
  json.UInt(queue.computed);
  json.EndObject();
  json.Key("solvers");
  json.BeginArray();
  for (const SolverLatency& s : latencies) {
    json.BeginObject();
    json.Key("name");
    json.String(s.solver);
    json.Key("count");
    json.UInt(s.count);
    json.Key("p50_ms");
    json.Double(s.p50_ms);
    json.Key("p95_ms");
    json.Double(s.p95_ms);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return os.str();
}

}  // namespace

void BeginReply(JsonWriter& json, const std::string& id, bool ok) {
  json.BeginObject();
  if (!id.empty()) {
    json.Key("id");
    json.String(id);
  }
  json.Key("ok");
  json.Bool(ok);
}

std::string ErrorReply(
    const std::string& id, const std::string& error,
    std::initializer_list<std::pair<std::string_view, long long>> extra) {
  std::ostringstream os;
  JsonWriter json(os);
  BeginReply(json, id, false);
  json.Key("error");
  json.String(error);
  for (const auto& [key, value] : extra) {
    json.Key(key);
    json.Int(value);
  }
  json.EndObject();
  return os.str();
}

void WriteCacheCounters(JsonWriter& json, const CacheCounters& counters) {
  json.BeginObject();
  json.Key("hits");
  json.UInt(counters.hits);
  json.Key("misses");
  json.UInt(counters.misses);
  json.Key("evictions");
  json.UInt(counters.evictions);
  json.Key("inserts");
  json.UInt(counters.inserts);
  json.Key("entries");
  json.UInt(counters.entries);
  json.Key("capacity");
  json.UInt(counters.capacity);
  json.EndObject();
}

void WriteResultFields(JsonWriter& json, const WorkloadCase& wc,
                       const WorkloadInstance& inst, const SolveResult& r) {
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
  if (r.cancelled) {
    json.Key("cancelled");
    json.Bool(true);
  }
  json.Key("edges");
  json.BeginArray();
  for (const EdgeId e : r.forest) json.Int(e);
  json.EndArray();
  // kInfWeight marks an unreachable reference (unsatisfiable instance);
  // emitting the sentinel as a number would be garbage.
  if (r.reference_weight >= 0 && r.reference_weight < kInfWeight) {
    json.Key("reference_weight");
    json.Int(static_cast<long long>(r.reference_weight));
    json.Key("approx_ratio");
    json.Double(r.approx_ratio);
  }
  if (r.dual_lower_bound > 0) {
    json.Key("dual_lower_bound");
    json.Double(FixedToReal(r.dual_lower_bound));
  }
  json.Key("rounds");
  json.Int(r.stats.rounds);
  json.Key("charged_rounds");
  json.Int(r.stats.charged_rounds);
  json.Key("messages");
  json.Int(r.stats.messages);
  json.Key("total_bits");
  json.Int(r.stats.total_bits);
  if (inst.use_cr) {
    json.Key("transform_rounds");
    json.Int(r.transform_rounds);
    json.Key("transform_messages");
    json.Int(r.transform_messages);
    json.Key("transform_bits");
    json.Int(r.transform_bits);
  }
  json.Key("wall_ms");
  json.Double(r.wall_ms);
}

std::string HandleRequestLine(ServeContext& ctx, std::string_view line) {
  std::string id;
  try {
    const JsonValue req = ParseJson(line);
    if (!req.IsObject()) {
      return ErrorReply("", "request must be a JSON object");
    }
    id = req.GetString("id", "");
    const std::string op = req.GetString("op", "");
    if (op == "ping") {
      std::ostringstream os;
      JsonWriter json(os);
      BeginReply(json, id, true);
      json.Key("pong");
      json.Bool(true);
      json.EndObject();
      return os.str();
    }
    if (op == "stats") return HandleStats(ctx, id);
    if (op == "solve") return HandleSolve(ctx, req, id);
    if (op == "revise") return HandleRevise(ctx, req, id);
    return ErrorReply(
        id, op.empty() ? "missing 'op' (solve | stats | ping | revise)"
                       : "unknown op '" + op + "'");
  } catch (const std::exception& e) {
    return ErrorReply(id, e.what());
  }
}

}  // namespace dsf
