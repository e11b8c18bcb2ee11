#include "dist/embedding.hpp"

#include <algorithm>

#include "common/random.hpp"
#include "graph/shortest_paths.hpp"

namespace dsf {

namespace {

// At most this many LE updates leave a node per edge per round.
constexpr int kLePerRound = 2;

}  // namespace

Rank RankOf(NodeId v, std::uint64_t seed) {
  SplitMix64 rng(DeriveSeed(seed ^ 0x5e11157f00dULL,
                            static_cast<std::uint64_t>(v)));
  return Rank{rng.Next(), v};
}

std::int64_t DeriveBetaScaled(std::uint64_t seed) {
  SplitMix64 rng(DeriveSeed(seed, 0xbe7aULL));
  return kBetaScale +
         static_cast<std::int64_t>(rng.NextBelow(
             static_cast<std::uint64_t>(kBetaScale)));
}

int NumLevels(Weight weighted_diameter) {
  int levels = 2;
  while ((Weight{1} << (levels - 1)) < weighted_diameter) ++levels;
  return levels;
}

// ---------------------------------------------------------------------------
// LeList
// ---------------------------------------------------------------------------

bool LeList::Insert(const LeEntry& e) {
  for (const auto& x : entries_) {
    if (x.dist <= e.dist && x.rank_key >= e.rank_key) return false;
  }
  std::erase_if(entries_, [&](const LeEntry& x) {
    return x.dist >= e.dist && x.rank_key <= e.rank_key;
  });
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), e,
      [](const LeEntry& a, const LeEntry& b) { return a.dist < b.dist; });
  entries_.insert(pos, e);
  return true;
}

const LeEntry* LeList::AncestorWithin(Weight radius) const {
  const LeEntry* best = nullptr;
  for (const auto& x : entries_) {
    if (x.dist > radius) break;
    best = &x;
  }
  return best;
}

// ---------------------------------------------------------------------------
// LeListModule
// ---------------------------------------------------------------------------

void LeListModule::Configure(NodeId id, std::uint64_t seed, int degree,
                             int max_hops) {
  id_ = id;
  seed_ = seed;
  degree_ = degree;
  max_hops_ = max_hops;
  list_ = LeList();
  queues_.Configure(degree);
  pending_.clear();
  const Rank self = RankOf(id, seed);
  list_.Insert({id, self.key, 0, -1});
  Enqueue(id, PendingValue{self.key, 0, 0}, /*except_local=*/-1);
}

void LeListModule::Enqueue(NodeId node, const PendingValue& value,
                           int except_local) {
  const int slot = queues_.Intern(node);
  if (static_cast<std::size_t>(slot) == pending_.size()) {
    pending_.push_back(value);
  } else {
    pending_[static_cast<std::size_t>(slot)] = value;
  }
  queues_.EnqueueAll(slot, except_local);
}

void LeListModule::OnReceive(NodeApi& api, const Delivery& d) {
  DSF_CHECK(d.msg.channel == kChLe);
  const auto node = static_cast<NodeId>(d.msg.fields[0]);
  const auto rank_key = static_cast<std::uint64_t>(d.msg.fields[1]);
  const Weight dist = d.msg.fields[2] + api.EdgeWeight(d.from_local);
  const std::int64_t hops = d.msg.fields[3] + 1;
  if (max_hops_ >= 0 && hops > max_hops_) return;
  if (!list_.Insert({node, rank_key, dist, d.from_local})) return;
  Enqueue(node, PendingValue{rank_key, dist, hops}, d.from_local);
}

void LeListModule::Tick(NodeApi& api) {
  if (!queues_.HasPending()) return;
  for (int e = 0; e < degree_; ++e) {
    if (queues_.Empty(e)) continue;
    queues_.PopInto(e, kLePerRound, pop_scratch_);
    for (const int slot : pop_scratch_) {
      // Always the freshest value.
      const PendingValue& value = pending_[static_cast<std::size_t>(slot)];
      api.Send(e, Message{kChLe,
                          {queues_.KeyOf(slot),
                           static_cast<std::int64_t>(value.rank_key),
                           value.dist, value.hops}});
    }
  }
}

// ---------------------------------------------------------------------------
// Centralized reference
// ---------------------------------------------------------------------------

EmbeddingReference ComputeEmbeddingReference(const Graph& g,
                                             std::uint64_t seed) {
  const int n = g.NumNodes();
  EmbeddingReference ref;
  ref.beta_scaled = DeriveBetaScaled(seed);
  Weight wd = 1;
  ref.le_lists.resize(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> rank(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    rank[static_cast<std::size_t>(v)] = RankOf(v, seed).key;
  }
  std::vector<std::vector<Weight>> all_dist;
  all_dist.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    all_dist.push_back(Dijkstra(g, v).dist);
    for (const Weight d : all_dist.back()) {
      if (d < kInfWeight) wd = std::max(wd, d);
    }
  }
  ref.levels = NumLevels(wd);

  for (NodeId v = 0; v < n; ++v) {
    // Nodes in ascending distance; within a distance group only the maximum
    // rank can be an LE member, and only if it beats every closer node.
    std::vector<std::pair<Weight, NodeId>> by_dist;
    for (NodeId w = 0; w < n; ++w) {
      const Weight d = all_dist[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)];
      if (d < kInfWeight) by_dist.push_back({d, w});
    }
    std::sort(by_dist.begin(), by_dist.end());
    auto& list = ref.le_lists[static_cast<std::size_t>(v)];
    bool have_best = false;
    std::uint64_t best_rank = 0;
    std::size_t i = 0;
    while (i < by_dist.size()) {
      std::size_t j = i;
      NodeId group_best = by_dist[i].second;
      while (j < by_dist.size() && by_dist[j].first == by_dist[i].first) {
        if (rank[static_cast<std::size_t>(by_dist[j].second)] >
            rank[static_cast<std::size_t>(group_best)]) {
          group_best = by_dist[j].second;
        }
        ++j;
      }
      const std::uint64_t r = rank[static_cast<std::size_t>(group_best)];
      if (!have_best || r > best_rank) {
        list.push_back({group_best, r, by_dist[i].first, -1});
        best_rank = r;
        have_best = true;
      }
      i = j;
    }
  }

  ref.ancestors.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    LeList list;
    for (const auto& e : ref.le_lists[static_cast<std::size_t>(v)]) {
      list.Insert(e);
    }
    auto& anc = ref.ancestors[static_cast<std::size_t>(v)];
    anc.reserve(static_cast<std::size_t>(ref.levels));
    for (int i = 0; i < ref.levels; ++i) {
      const Weight radius =
          static_cast<Weight>((ref.beta_scaled << i) / kBetaScale);
      const LeEntry* e = list.AncestorWithin(radius);
      anc.push_back(e != nullptr ? e->node : v);
    }
  }
  return ref;
}

}  // namespace dsf
