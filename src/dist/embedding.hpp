// LE-list / virtual-tree embedding substrate (Khan et al., used by the
// randomized algorithm of Section 5).
//
// Every node draws a random rank; the LE (least-elements) list of v holds
// exactly the nodes w that have the maximum rank within the ball
// B(v, wd(v, w)). Sorted by distance, ranks strictly ascend, the expected
// list length is O(log n), and the level-i virtual-tree ancestor of v is the
// maximum-rank node within radius β·2^i — which is always an LE-list member,
// so `AncestorWithin` reads it off directly.
//
// `LeListModule` computes the lists distributively: a node's kept entries
// are flooded to its neighbors (one message per edge per round, bounded
// queues), and insertion keeps the Pareto set under (distance up, rank up).
// The fixed point equals the centralized `ComputeEmbeddingReference` because
// an LE member of v is an LE member of every node on a least-weight path to
// it. An optional hop budget truncates propagation (the min{s, √n} device of
// Theorem 5.2).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "congest/protocols.hpp"
#include "graph/graph.hpp"

namespace dsf {

// CONGEST channel used by LE-list propagation.
inline constexpr std::int32_t kChLe = kChApp + 1;

// β is drawn from [1, 2) at kBetaScale fixed-point resolution; level i of
// the virtual tree has radius β·2^i (= (beta_scaled << i) / kBetaScale).
inline constexpr std::int64_t kBetaScale = 1 << 16;

// Random node rank; distinct keys w.h.p., ties broken by node id.
struct Rank {
  std::uint64_t key = 0;
  NodeId node = kNoNode;

  friend bool operator==(const Rank&, const Rank&) = default;
  friend bool operator<(const Rank& a, const Rank& b) {
    return a.key < b.key || (a.key == b.key && a.node < b.node);
  }
};

// Deterministic rank of node v under a master seed.
Rank RankOf(NodeId v, std::uint64_t seed);

// Scaled β in [kBetaScale, 2 * kBetaScale), deterministic in the seed.
std::int64_t DeriveBetaScaled(std::uint64_t seed);

// Number of virtual-tree levels needed to cover a weighted diameter:
// smallest L >= 2 with 2^(L-1) >= wd, so the top radius β·2^(L-1) reaches
// every node.
int NumLevels(Weight weighted_diameter);

struct LeEntry {
  NodeId node = kNoNode;
  std::uint64_t rank_key = 0;
  Weight dist = 0;
  int via_local = -1;  // local edge the entry arrived on; -1 for self
};

// Pareto list of (distance, rank) pairs: ascending distance, strictly
// ascending rank.
class LeList {
 public:
  // Inserts unless dominated (an existing entry at distance <= e.dist with
  // rank >= e.rank_key); removes entries the new one dominates. Returns
  // whether the entry was kept.
  bool Insert(const LeEntry& e);

  [[nodiscard]] const std::vector<LeEntry>& Entries() const noexcept {
    return entries_;
  }

  // The maximum-rank entry within `radius` (the farthest kept entry with
  // dist <= radius), or nullptr if none.
  [[nodiscard]] const LeEntry* AncestorWithin(Weight radius) const;

 private:
  std::vector<LeEntry> entries_;  // ascending dist
};

// Distributed LE-list computation, embedded into a host TreeProgramBase:
// the host feeds kChLe deliveries to OnReceive and calls Tick every round.
class LeListModule {
 public:
  // `max_hops` < 0 disables truncation.
  void Configure(NodeId id, std::uint64_t seed, int degree, int max_hops = -1);

  void OnReceive(NodeApi& api, const Delivery& d);
  void Tick(NodeApi& api);

  // True while Tick still has queued updates to flood (active-set hook).
  [[nodiscard]] bool HasPending() const noexcept {
    return queues_.HasPending();
  }

  [[nodiscard]] const LeList& List() const noexcept { return list_; }

 private:
  struct PendingValue {
    std::uint64_t rank_key = 0;
    Weight dist = 0;
    std::int64_t hops = 0;
  };
  void Enqueue(NodeId node, const PendingValue& value, int except_local);

  NodeId id_ = kNoNode;
  int degree_ = 0;
  int max_hops_ = -1;
  std::uint64_t seed_ = 0;
  LeList list_;
  // Rate-limited flooding: the shared per-edge key queues plus the freshest
  // (rank, dist, hops) per node, indexed by the queues' slot of the node —
  // re-improvements update the value in place, and a value must survive
  // even if the entry is later pruned from the list, so it cannot be read
  // back from list_ at send time.
  KeyedEdgeQueues queues_;
  std::vector<PendingValue> pending_;
  std::vector<int> pop_scratch_;  // reused by Tick
};

// Centralized reference embedding (exact mirror of the module's fixed
// point), used for validation and the stretch benchmarks.
struct EmbeddingReference {
  int levels = 0;
  std::int64_t beta_scaled = 0;
  std::vector<std::vector<LeEntry>> le_lists;  // per node, ascending dist
  std::vector<std::vector<NodeId>> ancestors;  // per node, per level
};

EmbeddingReference ComputeEmbeddingReference(const Graph& g,
                                             std::uint64_t seed);

}  // namespace dsf
