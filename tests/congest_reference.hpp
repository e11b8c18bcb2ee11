// Differential reference for congest/protocols.cpp: the per-edge key queues
// as one std::deque and one std::unordered_set per incident edge, keyed by
// node id. test_protocols drives it and the library's slot-keyed queues with
// the same operations and asserts they pop the same keys in the same order.
// Test code only: nothing in src/ needs it.
#pragma once

#include <cstddef>
#include <deque>
#include <unordered_set>
#include <vector>

#include "common/hash.hpp"
#include "common/ids.hpp"

namespace dsf::reference {

// Per-edge FIFO of keys with membership dedup, shared by the flooding
// protocols (Bellman-Ford labels, LE-list entries) to rate-limit per-round
// sends. The queue stores only keys; the owner supplies the payload at send
// time, so a key that is re-improved while queued is sent with its freshest
// value exactly once.
class KeyedEdgeQueues {
 public:
  void Configure(int degree) {
    queue_.assign(static_cast<std::size_t>(degree), {});
    queued_.assign(static_cast<std::size_t>(degree), {});
    pending_ = 0;
  }

  // Enqueues `key` on every edge except `except_local` (pass -1 for none);
  // a key already queued on an edge is not duplicated.
  void EnqueueAll(NodeId key, int except_local) {
    for (std::size_t e = 0; e < queue_.size(); ++e) {
      if (static_cast<int>(e) == except_local) continue;
      if (queued_[e].insert(key).second) {
        queue_[e].push_back(key);
        ++pending_;
      }
    }
  }

  // Pops up to `budget` distinct keys from edge `local`'s queue into `out`
  // (cleared first). Allocation-free: callers keep a scratch buffer.
  void PopInto(int local, int budget, std::vector<NodeId>& out) {
    out.clear();
    auto& q = queue_[static_cast<std::size_t>(local)];
    auto& members = queued_[static_cast<std::size_t>(local)];
    while (budget-- > 0 && !q.empty()) {
      out.push_back(q.front());
      members.erase(q.front());
      q.pop_front();
      --pending_;
    }
  }

  // True while any edge queue holds a key (the owner still has sends to
  // emit). O(1): maintained as a counter across EnqueueAll/Pop.
  [[nodiscard]] bool HasPending() const noexcept { return pending_ > 0; }

 private:
  std::vector<std::deque<NodeId>> queue_;
  // Membership dedup per edge; only insert/erase/lookup, so the container's
  // iteration order is irrelevant to the run. Keys are scrambled through the
  // shared Mix64 avalanche (common/hash.hpp): node ids arrive in runs of
  // near-consecutive values, which the identity std::hash<int> would map to
  // runs of adjacent buckets.
  std::vector<std::unordered_set<NodeId, IdHash>> queued_;
  std::size_t pending_ = 0;  // total keys across all edge queues
};

}  // namespace dsf::reference
