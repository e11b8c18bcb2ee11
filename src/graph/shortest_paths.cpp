#include "graph/shortest_paths.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <queue>

namespace dsf {

namespace {

// Monotone radix queue over distances, for runs that never push a key below
// the last popped one (w >= 1 guarantees it). Keys in the last-popped key's
// 64-aligned block sit in an exact-key front: slot key & 63 holds the nodes
// queued under that key, and one occupancy bit per slot lets countr_zero
// find the least. Every other key sits in the radix bucket named by the
// highest bit where its block (key >> 6) differs from the current one. An
// emptied front refills from the lowest non-empty bucket: its least block
// becomes the current one, and each of its entries moves to the front or to
// a strictly lower bucket, so an entry moves at most 58 times.
class RadixQueue {
 public:
  struct Entry {
    Weight key;
    NodeId node;
  };

  // Empties the queue for a run that pushes at most `max_entries` entries.
  // A slot or bucket keeps its capacity for the next run unless an earlier,
  // larger run grew it past twice that; it is then released, so a
  // long-lived thread does not hold one big graph's memory after it.
  void Reset(std::size_t max_entries) {
    for (auto& slot : front_) ClearTrimmed(slot, max_entries);
    for (auto& bucket : buckets_) ClearTrimmed(bucket, max_entries);
    occupied_ = 0;
    size_ = 0;
    Rewind();
  }
  // Lets a queue that one run drained serve the next run from key 0.
  void Rewind() noexcept { block_ = 0; }
  [[nodiscard]] bool Empty() const noexcept { return size_ == 0; }

  void Push(Weight key, NodeId node) {
    Place(key, node);
    ++size_;
  }

  Entry Pop() {
    if (occupied_ == 0) Refill();
    const int slot = std::countr_zero(occupied_);
    auto& nodes = front_[static_cast<std::size_t>(slot)];
    const NodeId node = nodes.back();
    nodes.pop_back();
    if (nodes.empty()) occupied_ &= occupied_ - 1;  // clears bit `slot`
    --size_;
    return {static_cast<Weight>(block_ << 6 | static_cast<unsigned>(slot)),
            node};
  }

 private:
  template <typename T>
  static void ClearTrimmed(std::vector<T>& v, std::size_t max_entries) {
    if (v.capacity() > 2 * max_entries) {
      std::vector<T>().swap(v);
    } else {
      v.clear();
    }
  }

  void Place(Weight key, NodeId node) {
    const std::uint64_t block = static_cast<std::uint64_t>(key) >> 6;
    if (block == block_) {
      const auto slot = static_cast<unsigned>(key & 63);
      front_[slot].push_back(node);
      occupied_ |= std::uint64_t{1} << slot;
    } else {
      buckets_[static_cast<std::size_t>(std::bit_width(block ^ block_))]
          .push_back({key, node});
    }
  }

  void Refill() {
    std::size_t i = 1;
    while (buckets_[i].empty()) ++i;
    auto& from = buckets_[i];
    const Weight least =
        std::min_element(from.begin(), from.end(),
                         [](const Entry& a, const Entry& b) {
                           return a.key < b.key;
                         })->key;
    block_ = static_cast<std::uint64_t>(least) >> 6;
    for (const Entry& e : from) Place(e.key, e.node);
    from.clear();
  }

  std::array<std::vector<NodeId>, 64> front_;
  // Blocks are below 2^57, so a differing block lands in buckets 1..57;
  // bucket 0 (the current block) stays empty, its keys live in front_.
  std::array<std::vector<Entry>, 58> buckets_;
  std::uint64_t occupied_ = 0;  // bit i set: front_[i] is non-empty
  std::uint64_t block_ = 0;     // key >> 6 of the last pop
  std::size_t size_ = 0;
};

// Per-thread queue storage shared by Dijkstra and the diameter pass, reused
// across calls; a cancelled run may leave entries behind, hence the reset.
// Every push is the source's or follows a strict improvement along one arc,
// so a run from one source pushes at most 2m + 1 entries.
RadixQueue& ThreadQueue(const Graph& g) {
  thread_local RadixQueue queue;
  queue.Reset(2 * static_cast<std::size_t>(g.NumEdges()) + 1);
  return queue;
}

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

  RadixQueue& queue = ThreadQueue(g);
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
    // The minimum does not depend on the pop order among equal keys.
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

PathDiameters AllPairsPathDiameters(const Graph& g) {
  struct Arc {
    NodeId to;
    Weight w;
  };
  struct DistHops {
    Weight dist;
    int hops;
  };
  const auto n = static_cast<std::size_t>(g.NumNodes());
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<Arc> arcs;
  arcs.reserve(2 * static_cast<std::size_t>(g.NumEdges()));
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const auto& inc : g.Neighbors(u)) {
      arcs.push_back({inc.neighbor, g.GetEdge(inc.edge).w});
    }
    first[static_cast<std::size_t>(u) + 1] = arcs.size();
  }

  std::vector<DistHops> label(n);
  RadixQueue& queue = ThreadQueue(g);
  PathDiameters out;
  for (NodeId source = 0; source < g.NumNodes(); ++source) {
    std::fill(label.begin(), label.end(), DistHops{kInfWeight, -1});
    label[static_cast<std::size_t>(source)] = {0, 0};
    queue.Rewind();
    queue.Push(0, source);
    while (!queue.Empty()) {
      const auto [d, u] = queue.Pop();
      const auto ui = static_cast<std::size_t>(u);
      if (d != label[ui].dist) continue;  // superseded
      // As in Dijkstra, every predecessor on a least-weight path settled
      // strictly earlier, so u's hop count is final here.
      out.weighted = std::max(out.weighted, d);
      out.hops = std::max(out.hops, label[ui].hops);
      const int nh = label[ui].hops + 1;
      for (std::size_t a = first[ui]; a < first[ui + 1]; ++a) {
        const Weight nd = d + arcs[a].w;
        DistHops& v = label[static_cast<std::size_t>(arcs[a].to)];
        if (nd < v.dist) {
          v = {nd, nh};
          queue.Push(nd, arcs[a].to);
        } else if (nd == v.dist && nh < v.hops) {
          v.hops = nh;
        }
      }
    }
  }
  return out;
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

}  // namespace dsf
