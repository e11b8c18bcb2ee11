#include "graph/shortest_paths.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <queue>

#include "graph/union_find.hpp"

namespace dsf {

namespace {

// Monotone radix queue over distances: an entry sits in the bucket named by
// the highest bit where its key differs from the last popped key (bucket 0:
// equal to it). Keys pushed are never below the last pop, which Dijkstra
// guarantees, so an emptied bucket 0 refills from the lowest non-empty
// bucket, whose minimum becomes the new last key and whose entries all move
// to strictly lower buckets, so each entry moves at most 64 times.
class RadixQueue {
 public:
  struct Entry {
    Weight key;
    NodeId node;
  };

  // Empties the queue for a run that pushes at most `max_entries` entries.
  // A bucket keeps its capacity for the next run unless an earlier, larger
  // run grew it past twice that; such a bucket is released, so a long-lived
  // thread does not hold one big graph's memory after it.
  void Reset(std::size_t max_entries) {
    for (auto& bucket : buckets_) {
      if (bucket.capacity() > 2 * max_entries) {
        std::vector<Entry>().swap(bucket);
      } else {
        bucket.clear();
      }
    }
    last_ = 0;
    size_ = 0;
  }
  [[nodiscard]] bool Empty() const noexcept { return size_ == 0; }

  void Push(Weight key, NodeId node) {
    buckets_[BucketOf(key)].push_back({key, node});
    ++size_;
  }

  Entry Pop() {
    if (buckets_[0].empty()) {
      std::size_t i = 1;
      while (buckets_[i].empty()) ++i;
      auto& from = buckets_[i];
      last_ = std::min_element(from.begin(), from.end(),
                               [](const Entry& a, const Entry& b) {
                                 return a.key < b.key;
                               })->key;
      for (const Entry& e : from) buckets_[BucketOf(e.key)].push_back(e);
      from.clear();
    }
    const Entry e = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return e;
  }

 private:
  [[nodiscard]] std::size_t BucketOf(Weight key) const noexcept {
    return static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(key ^ last_)));
  }

  std::array<std::vector<Entry>, 65> buckets_;
  Weight last_ = 0;
  std::size_t size_ = 0;
};

}  // namespace

std::vector<EdgeId> ShortestPathTree::PathTo(NodeId v) const {
  DSF_CHECK(Reachable(v));
  std::vector<EdgeId> path;
  while (v != source) {
    const EdgeId pe = parent_edge[static_cast<std::size_t>(v)];
    DSF_CHECK(pe != kNoEdge);
    path.push_back(pe);
    v = parent[static_cast<std::size_t>(v)];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ShortestPathTree Dijkstra(const Graph& g, NodeId source,
                          const CancelToken* cancel) {
  const auto n = static_cast<std::size_t>(g.NumNodes());
  ShortestPathTree t;
  t.source = source;
  t.dist.assign(n, kInfWeight);
  t.parent.assign(n, kNoNode);
  t.parent_edge.assign(n, kNoEdge);
  t.hops.assign(n, -1);

  // Per-thread bucket storage, reused across calls; a cancelled run may
  // leave entries behind, hence the reset on entry. Every push is the
  // source's or follows a strict improvement along one arc, so a run pushes
  // at most 2m + 1 entries.
  thread_local RadixQueue queue;
  queue.Reset(2 * static_cast<std::size_t>(g.NumEdges()) + 1);
  t.dist[static_cast<std::size_t>(source)] = 0;
  t.hops[static_cast<std::size_t>(source)] = 0;
  queue.Push(0, source);
  std::size_t pops = 0;
  while (!queue.Empty()) {
    // Cancellation checkpoint every 4096 pops (same cadence as KruskalMst):
    // the tree stays internally consistent, just incomplete.
    if (cancel != nullptr && (++pops & 0xFFFu) == 0 && cancel->Expired()) {
      break;
    }
    const auto [d, u] = queue.Pop();
    if (d != t.dist[static_cast<std::size_t>(u)]) continue;  // superseded
    // Weights are >= 1, so every predecessor of u on a least-weight path
    // popped strictly earlier and u's labels are final here: the canonical
    // (dist, hops, predecessor id) minimum that dist/det_moat.cpp replays.
    const int nh = t.hops[static_cast<std::size_t>(u)] + 1;
    for (const auto& inc : g.Neighbors(u)) {
      const Weight nd = d + g.GetEdge(inc.edge).w;
      const auto vi = static_cast<std::size_t>(inc.neighbor);
      if (nd < t.dist[vi]) {
        t.dist[vi] = nd;
        t.hops[vi] = nh;
        t.parent[vi] = u;
        t.parent_edge[vi] = inc.edge;
        queue.Push(nd, inc.neighbor);
      } else if (nd == t.dist[vi] &&
                 (nh < t.hops[vi] || (nh == t.hops[vi] && u < t.parent[vi]))) {
        // Same distance: v is already queued under it; only relabel.
        t.hops[vi] = nh;
        t.parent[vi] = u;
        t.parent_edge[vi] = inc.edge;
      }
    }
  }
  return t;
}

BfsTreeResult Bfs(const Graph& g, NodeId source) {
  const auto n = static_cast<std::size_t>(g.NumNodes());
  BfsTreeResult t;
  t.source = source;
  t.depth.assign(n, -1);
  t.parent.assign(n, kNoNode);
  t.parent_edge.assign(n, kNoEdge);
  std::queue<NodeId> q;
  t.depth[static_cast<std::size_t>(source)] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const auto& inc : g.Neighbors(u)) {
      const auto ni = static_cast<std::size_t>(inc.neighbor);
      if (t.depth[ni] == -1) {
        t.depth[ni] = t.depth[static_cast<std::size_t>(u)] + 1;
        t.parent[ni] = u;
        t.parent_edge[ni] = inc.edge;
        q.push(inc.neighbor);
      }
    }
  }
  return t;
}

Components ConnectedComponents(const Graph& g) {
  Components c;
  c.comp.assign(static_cast<std::size_t>(g.NumNodes()), -1);
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    if (c.comp[static_cast<std::size_t>(s)] != -1) continue;
    const int idx = c.count++;
    std::queue<NodeId> q;
    c.comp[static_cast<std::size_t>(s)] = idx;
    q.push(s);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (const auto& inc : g.Neighbors(u)) {
        if (c.comp[static_cast<std::size_t>(inc.neighbor)] == -1) {
          c.comp[static_cast<std::size_t>(inc.neighbor)] = idx;
          q.push(inc.neighbor);
        }
      }
    }
  }
  return c;
}

Components SubgraphComponents(const Graph& g, std::span<const EdgeId> subset) {
  UnionFind uf(g.NumNodes());
  for (const EdgeId id : subset) {
    const auto& e = g.GetEdge(id);
    uf.Union(e.u, e.v);
  }
  Components c;
  c.comp.assign(static_cast<std::size_t>(g.NumNodes()), -1);
  std::vector<int> remap(static_cast<std::size_t>(g.NumNodes()), -1);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const int root = uf.Find(v);
    if (remap[static_cast<std::size_t>(root)] == -1) {
      remap[static_cast<std::size_t>(root)] = c.count++;
    }
    c.comp[static_cast<std::size_t>(v)] = remap[static_cast<std::size_t>(root)];
  }
  return c;
}

}  // namespace dsf
