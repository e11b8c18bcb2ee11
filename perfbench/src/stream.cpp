#include "stream.hpp"

#include <sstream>
#include <stdexcept>

#include "cli/json.hpp"
#include "common/random.hpp"
#include "workload/spec.hpp"

namespace perfbench {

namespace {

// hot-mix sizing: 15 ordered solver lists per hot instance give 15 * 96 =
// 1440 distinct request texts, so the router hot cache's 512 entries serve
// about a third of requests (LRU over uniform picks) and the median request
// is a backend hit, well clear of the router-hit mode. The 3 solvers x 3
// list positions give 9 * 96 = 864 distinct units, well inside a backend
// cache's 4096.
constexpr int kHotInstances = 96;
constexpr int kHotColdPercent = 4;
constexpr long kHotWarmupPerClient = 1500;
constexpr const char* kHotSolvers[3] = {"gw-moat", "greedy-merge", "mst-prune"};

// churn-revise sizing: 24 node-disjoint pairs on a 40x40 grid; one pair
// retires and one arrives per step (4 terminal edits, ~4% of demands).
constexpr int kChurnSide = 40;
constexpr int kChurnPairs = 24;
constexpr int kChurnSteps = 5000;

std::uint64_t StreamSeed(std::uint64_t seed, int client, long k) {
  return dsf::DeriveSeed(dsf::DeriveSeed(seed, static_cast<std::uint64_t>(client) + 1),
                         static_cast<std::uint64_t>(k));
}

std::string RequestId(int client, long k) {
  std::ostringstream os;
  os << "c" << client << "-" << k;
  return os.str();
}

std::string SolveLine(const std::string& id, const std::string& spec,
                      const std::vector<std::string>& solvers) {
  std::ostringstream os;
  dsf::JsonWriter json(os);
  json.BeginObject();
  json.Key("op");
  json.String("solve");
  json.Key("id");
  json.String(id);
  json.Key("spec");
  json.String(spec);
  json.Key("solvers");
  json.BeginArray();
  for (const std::string& s : solvers) json.String(s);
  json.EndArray();
  json.EndObject();
  return os.str();
}

// A spec seed in [1, 1e9] and a generator salt in [0, 1e9): both enter the
// canonical key, so fresh draws make a request unique.
std::uint64_t DrawSpecSeed(dsf::SplitMix64& rng) { return 1 + rng.NextBelow(1'000'000'000); }
std::uint64_t DrawSalt(dsf::SplitMix64& rng) { return rng.NextBelow(1'000'000'000); }

// Hot-mix instance number i: every fourth is ER n=512, the rest grids
// from 24x24 to 32x32 in a fixed size cycle, so every seed draws the same
// size mix and only the salts (and thus the weights) differ.
std::string HotSpec(dsf::SplitMix64& rng, long i) {
  std::ostringstream os;
  os << "seed " << DrawSpecSeed(rng) << "\n";
  if (i % 4 == 3) {
    os << "generate er n=512 p=0.01 salt=" << DrawSalt(rng) << "\n";
  } else {
    os << "generate grid rows=" << 24 + 2 * (i % 5) << " cols=" << 24 + 2 * (i / 5 % 5)
       << " salt=" << DrawSalt(rng) << "\n";
  }
  os << "sample random-ic inst k=4 tpc=3\n";
  return os.str();
}

// Spec text of one churn state: the chain's grid plus explicit terminals.
std::string ChurnStateSpec(const ChurnChain& chain, const dsf::IcInstance& state) {
  std::ostringstream os;
  os << "seed " << chain.spec_seed << "\n" << chain.graph_line << "\nic churned\n";
  for (dsf::NodeId v = 0; v < state.NumNodes(); ++v) {
    if (state.IsTerminal(v)) os << "terminal " << v << " " << state.LabelOf(v) << "\n";
  }
  return os.str();
}

}  // namespace

dsf::SolveOptions WireOptions() {
  dsf::SolveOptions o;
  o.epsilon = 0;
  o.repetitions = 1;
  o.prune = true;
  o.validate = true;
  return o;
}

std::optional<Workload> ParseWorkloadName(std::string_view name) {
  if (name == "cold-dist") return Workload::kColdDist;
  if (name == "hot-mix") return Workload::kHotMix;
  if (name == "churn-revise") return Workload::kChurnRevise;
  return std::nullopt;
}

std::string_view WorkloadName(Workload w) {
  switch (w) {
    case Workload::kColdDist:
      return "cold-dist";
    case Workload::kHotMix:
      return "hot-mix";
    case Workload::kChurnRevise:
      return "churn-revise";
  }
  return "?";
}

RequestStream::RequestStream(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  if (workload_ == Workload::kHotMix) {
    dsf::SplitMix64 rng(dsf::DeriveSeed(seed_, 0));
    for (int h = 0; h < kHotInstances; ++h) {
      hot_specs_.push_back(HotSpec(rng, h));
    }
  }
  if (workload_ == Workload::kChurnRevise) {
    const int chains = kClients * kChainsPerClient;
    cursors_.resize(static_cast<std::size_t>(chains));
    for (int j = 0; j < chains; ++j) {
      dsf::SplitMix64 rng(dsf::DeriveSeed(seed_, 100 + static_cast<std::uint64_t>(j)));
      auto chain = std::make_unique<ChurnChain>();
      chain->spec_seed = DrawSpecSeed(rng);
      chain->graph_line = "generate grid rows=" + std::to_string(kChurnSide) +
                          " cols=" + std::to_string(kChurnSide) +
                          " min_w=1 max_w=9 salt=" + std::to_string(DrawSalt(rng));
      chain->trace = dsf::SampleChurnTrace(kChurnSide * kChurnSide, 0, kChurnPairs,
                                           kChurnSteps, 1, rng.Next());
      // Expand state 0 through the server's own path once: the chain keeps
      // that graph, and the hand-built key below must agree with it.
      std::istringstream in(ChurnStateSpec(*chain, chain->trace.base));
      const dsf::WorkloadSpec spec = dsf::ParseWorkloadSpec(in, "<churn>");
      dsf::Workload w = dsf::ExpandWorkload(spec);
      const std::vector<std::string> solvers{"local-search"};
      const dsf::RequestMatrix matrix = dsf::BuildRequests(w, solvers, WireOptions());
      const dsf::CacheKey served = dsf::CanonicalHash(
          dsf::HashGraph(w.cases[0].graph), matrix.requests[0], dsf::DeriveSeed(spec.seed, 0));
      chain->graph = std::move(w.cases[0].graph);
      chain->graph_hash = dsf::HashGraph(chain->graph);
      chains_.push_back(std::move(chain));
      if (ChurnKey(*chains_.back(), chains_.back()->trace.base) != dsf::CacheKeyToHex(served)) {
        throw std::logic_error("churn key derivation disagrees with the serve path");
      }
      cursors_[static_cast<std::size_t>(j)].state = chains_.back()->trace.base;
    }
  }
}

long RequestStream::WarmupPerClient() const noexcept {
  return workload_ == Workload::kHotMix ? kHotWarmupPerClient : 0;
}

Request RequestStream::Line(int client, long k) const {
  if (client < 0 || client >= kClients || k < 0) {
    throw std::out_of_range("request stream index out of range");
  }
  switch (workload_) {
    case Workload::kColdDist:
      return {ColdDistLine(client, k), false, ""};
    case Workload::kHotMix:
      return {HotMixLine(client, k), false, ""};
    case Workload::kChurnRevise:
      return ChurnLine(client, k);
  }
  return {};
}

// Every request is unique (fresh salt and spec seed) on an n=240 graph from
// one of four families, cycled so every seed gets the same family mix.
std::string RequestStream::ColdDistLine(int client, long k) const {
  dsf::SplitMix64 rng(StreamSeed(seed_, client, k));
  std::ostringstream spec;
  spec << "seed " << DrawSpecSeed(rng) << "\n";
  const std::uint64_t salt = DrawSalt(rng);
  switch ((k * kClients + client) % 4) {
    case 0:
      spec << "generate grid rows=15 cols=16 salt=" << salt << "\n";
      break;
    case 1:
      spec << "generate er n=240 p=0.02 salt=" << salt << "\n";
      break;
    case 2:
      spec << "generate power-law n=240 m=2 salt=" << salt << "\n";
      break;
    default:
      spec << "generate expander-far-pairs pairs=4 tail=8 core=176 salt=" << salt << "\n";
      break;
  }
  if (rng.NextBelow(2) == 0) {
    spec << "sample random-ic inst k=3 tpc=2\n";
  } else {
    spec << "sample random-cr inst pairs=4\n";
  }
  // Half the requests name both distributed solvers, so one request's units
  // share the graph's memoized static knowledge.
  std::vector<std::string> solvers;
  switch (rng.NextBelow(4)) {
    case 0:
      solvers = {"dist-det"};
      break;
    case 1:
      solvers = {"dist-rand"};
      break;
    default:
      solvers = {"dist-det", "dist-rand"};
      break;
  }
  return SolveLine(RequestId(client, k), spec.str(), solvers);
}

// Repeats over the hot set with a random ordered subset of the centralized
// solvers; a minority of requests are fresh instances.
std::string RequestStream::HotMixLine(int client, long k) const {
  dsf::SplitMix64 rng(StreamSeed(seed_, client, k));
  std::string spec;
  if (static_cast<int>(rng.NextBelow(100)) < kHotColdPercent) {
    spec = HotSpec(rng, k * kClients + client);
  } else {
    spec = hot_specs_[rng.NextBelow(hot_specs_.size())];
  }
  int order[3] = {0, 1, 2};
  for (int i = 2; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(static_cast<std::uint64_t>(i) + 1)]);
  }
  const int count = 1 + static_cast<int>(rng.NextBelow(3));
  std::vector<std::string> solvers;
  for (int i = 0; i < count; ++i) solvers.emplace_back(kHotSolvers[order[i]]);
  return SolveLine(RequestId(client, k), spec, solvers);
}

RequestStream::ChurnPosition RequestStream::ChurnAt(int client, long k) const {
  return {client * kChainsPerClient + static_cast<int>(k % kChainsPerClient),
          k / kChainsPerClient};
}

const ChurnChain& RequestStream::Chain(int chain) const {
  return *chains_.at(static_cast<std::size_t>(chain));
}

dsf::IcInstance RequestStream::ChurnState(int chain_index, long k) const {
  const ChurnChain& chain = Chain(chain_index);
  if (k > static_cast<long>(chain.trace.steps.size())) {
    throw std::out_of_range("churn chain exhausted");
  }
  Cursor& cur = cursors_[static_cast<std::size_t>(chain_index)];
  if (cur.k > k) {
    cur.k = 0;
    cur.state = chain.trace.base;
  }
  for (; cur.k < k; ++cur.k) {
    cur.state = dsf::ApplyDelta(
        cur.state, dsf::ToDelta(chain.trace.steps[static_cast<std::size_t>(cur.k)]));
  }
  return cur.state;
}

std::string RequestStream::ChurnKey(const ChurnChain& chain, const dsf::IcInstance& state) const {
  dsf::SolveRequest r;
  r.solver = "local-search";
  r.graph = &chain.graph;
  r.ic = state;
  r.options = WireOptions();
  return dsf::CacheKeyToHex(
      dsf::CanonicalHash(chain.graph_hash, r, dsf::DeriveSeed(chain.spec_seed, 0)));
}

// Step 0 of a chain solves its base state with local-search; step s >= 1
// revises state s-1 by trace step s-1, basing on state s-1's canonical key
// (the key the chain's previous response returned) and leaving the solver
// to the server's revise default.
Request RequestStream::ChurnLine(int client, long k) const {
  const auto [j, s] = ChurnAt(client, k);
  const ChurnChain& chain = Chain(j);
  const std::string id = RequestId(client, k);
  if (s == 0) {
    return {SolveLine(id, ChurnStateSpec(chain, chain.trace.base), {"local-search"}), false,
            ChurnKey(chain, chain.trace.base)};
  }
  const dsf::IcInstance base = ChurnState(j, s - 1);
  const std::string base_key = ChurnKey(chain, base);
  const dsf::ChurnStep& step = chain.trace.steps[static_cast<std::size_t>(s - 1)];
  std::ostringstream os;
  dsf::JsonWriter json(os);
  json.BeginObject();
  json.Key("op");
  json.String("revise");
  json.Key("id");
  json.String(id);
  json.Key("spec");
  json.String(ChurnStateSpec(chain, base));
  json.Key("base");
  json.String(base_key);
  json.Key("delta");
  json.BeginObject();
  json.Key("remove_terminals");
  json.BeginArray();
  for (const dsf::NodeId v : step.remove_terminals) json.Int(v);
  json.EndArray();
  json.Key("add_terminals");
  json.BeginArray();
  for (const auto& [node, label] : step.add_terminals) {
    json.BeginArray();
    json.Int(node);
    json.Int(label);
    json.EndArray();
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();
  return {os.str(), true, ChurnKey(chain, ChurnState(j, s))};
}

}  // namespace perfbench
