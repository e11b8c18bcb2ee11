// Reusable CONGEST protocol building blocks.
//
// Every nontrivial algorithm in the paper is structured around a rooted BFS
// tree used for coordination: pipelined convergecasts (Lemma 2.3/2.4, the
// candidate filtering of Lemma 4.14), pipelined broadcasts, and termination /
// phase-boundary detection. `TreeProgramBase` packages these:
//
//   * rounds [0, D+2): distributed BFS-tree construction from the node with
//     the largest identifier (as in the proof of Lemma 2.3),
//   * a continuous quiescence detector: every node aggregates, over the BFS
//     tree, the latest round in which any node in its subtree sent or
//     received application traffic; the root therefore learns global
//     quiescence within D + O(1) rounds of it occurring,
//   * an ordered control broadcast: the root queues messages that are
//     pipelined down the tree (one per round per tree edge) and delivered to
//     every node in FIFO order via OnCtrl(),
//   * a pipelined collection helper (`CollectPipeline`) with subtree-done
//     markers, used to gather items at the root in O(D + #items) rounds.
//
// Derived programs implement OnTreeReady / OnAppRound / OnCtrl.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "congest/network.hpp"

namespace dsf {

// Control message opcodes (first field of a kChCtrl message).
enum CtrlOp : std::int64_t {
  kCtrlFinish = -1,  // global termination; forwarded, then node completes
};

// FIFO over one vector and a head index. Constructing it allocates nothing
// (libstdc++ allocates a deque's block map when it is constructed, which
// every tree node paid once per queue and run), and a drained queue reuses
// its storage. The consumed prefix is dropped once it is at least half the
// vector, so memory stays within twice the live items.
template <class T>
class VectorFifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return items_.size() - head_;
  }
  [[nodiscard]] T& front() { return items_[head_]; }
  void push_back(T item) { items_.push_back(std::move(item)); }
  void pop_front() {
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= kCompactMin && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  static constexpr std::size_t kCompactMin = 32;
  std::vector<T> items_;
  std::size_t head_ = 0;
};

class TreeProgramBase : public NodeProgram {
 public:
  explicit TreeProgramBase(NodeId id) : id_(id) {}

  void OnRound(NodeApi& api) final;
  [[nodiscard]] bool Done() const final { return done_; }

  // Active-set scheduling (NetworkOptions::active_set): a tree program can
  // be skipped on empty-inbox rounds once it is genuinely quiescent — the
  // tree is built, no control messages are queued, the detector has nothing
  // unreported, and the derived program reports AppWantsTick() false. Until
  // the tree is ready every node ticks (the D+2 flip round is time-driven),
  // and the root always ticks (coordinators run round-count-driven stage
  // machines).
  [[nodiscard]] bool WantsTick() const final {
    if (done_) return false;
    if (!tree_ready_ || is_root_) return true;
    if (!ctrl_queue_.empty()) return true;
    if (parent_local_ >= 0 &&
        subtree_last_activity_ != reported_last_activity_) {
      return true;
    }
    return AppWantsTick();
  }

  // --- tree accessors (valid once TreeReady) ---
  [[nodiscard]] bool IsRoot() const noexcept { return is_root_; }
  [[nodiscard]] bool TreeReady() const noexcept { return tree_ready_; }
  [[nodiscard]] int ParentLocal() const noexcept { return parent_local_; }
  [[nodiscard]] int TreeDepth() const noexcept { return depth_; }
  [[nodiscard]] const std::vector<int>& ChildLocals() const noexcept {
    return child_locals_;
  }
  [[nodiscard]] NodeId Id() const noexcept { return id_; }

 protected:
  // Called exactly once, the round the BFS tree is known everywhere.
  virtual void OnTreeReady(NodeApi& api) { (void)api; }
  // Called every round after the tree is ready (before control/detector
  // bookkeeping for this round is flushed).
  virtual void OnAppRound(NodeApi& api) { (void)api; }
  // Ordered delivery of control messages (root's broadcasts), incl. at root.
  virtual void OnCtrl(NodeApi& api, const Message& msg) {
    (void)api;
    (void)msg;
  }

  // Active-set contract for the derived program: return false when, with an
  // empty inbox, OnAppRound would neither send nor change outcome-relevant
  // state (no pending pipeline payloads, no queued flood updates). Default
  // true — derived programs opt in explicitly.
  [[nodiscard]] virtual bool AppWantsTick() const { return true; }

  // Root only: queue a control message for pipelined broadcast to all nodes
  // (delivered locally too, in order).
  void BroadcastCtrl(Message msg);

  // Root only: initiate global termination.
  void Finish();

  // Root only: the latest application-activity round reported from anywhere
  // in the network (lags reality by at most the tree depth).
  [[nodiscard]] long GlobalLastActivity() const noexcept {
    return subtree_last_activity_;
  }

  // Root helper: true when, as far as the root can tell, no application
  // traffic has happened after `since` and enough slack has passed for any
  // such traffic to have been reported (D + 2 rounds).
  [[nodiscard]] bool GloballyQuietSince(const NodeApi& api, long since) const {
    return subtree_last_activity_ <= since &&
           api.Round() > since + api.Known().diameter_bound + 2;
  }

  // Root helper: true once enough slack has passed for any traffic after the
  // latest known activity to have been reported. For stages whose traffic is
  // gap-free once started (floods, pipelined collections, token walks) this
  // certifies global completion — see DESIGN.md §2 for the start-time guard
  // the caller must add.
  [[nodiscard]] bool GloballyQuiet(const NodeApi& api) const {
    return api.Round() >
           subtree_last_activity_ + api.Known().diameter_bound + 3;
  }

  void SendParent(NodeApi& api, Message msg) {
    DSF_CHECK(parent_local_ >= 0);
    api.Send(parent_local_, std::move(msg));
  }

  // Number of control messages queued locally but not yet forwarded. The
  // root uses this to bound when a broadcast has reached every node:
  // enqueue_round + backlog + tree_depth + slack.
  [[nodiscard]] std::size_t CtrlBacklog() const noexcept {
    return ctrl_queue_.size();
  }

 private:
  // One pass over the inbox for the scaffolding channels: BFS announcements
  // and child claims, detector reports, and control messages.
  void HandleScaffolding(NodeApi& api);

  NodeId id_;
  bool is_root_ = false;
  bool tree_ready_ = false;
  bool announced_ = false;
  bool done_ = false;
  bool finish_seen_ = false;
  int parent_local_ = -1;
  int depth_ = -1;
  std::vector<int> child_locals_;

  // Quiescence detector state. A child's reports only grow, so the maximum
  // over every report received stands in for the per-child latest values.
  long subtree_last_activity_ = -1;  // max over own + folded child reports
  long child_report_max_ = -1;       // folded in after OnAppRound
  long reported_last_activity_ = -2;  // last value sent to parent

  // Control broadcast state: FIFO of messages to forward to children.
  VectorFifo<Message> ctrl_queue_;
};

// Pipelined convergecast of items toward the BFS root with subtree-completion
// markers. Each payload is forwarded verbatim; a DONE marker (empty payload,
// first field = sentinel) is sent once the node's own items are flushed and
// every child reported DONE. The owner decides what the payloads mean.
class CollectPipeline {
 public:
  // `channel`: the CONGEST channel used; payload first field must not equal
  // the sentinel kDoneSentinel.
  static constexpr std::int64_t kDoneSentinel = -(1LL << 62);

  void Configure(int channel, int num_children) {
    channel_ = channel;
    children_pending_ = num_children;
  }

  // Adds an item originating at this node.
  void Seed(FieldList payload) { queue_.push_back(payload); }
  // Declares that this node will seed no further items.
  void MarkOwnDone() { own_done_ = true; }

  // Feeds a received message (must be on this pipeline's channel). Payloads
  // are appended to `received` when collect_at_this_node is set (at the root)
  // and otherwise queued for forwarding.
  void OnReceive(const Message& msg, bool collect_at_this_node,
                 std::vector<std::vector<std::int64_t>>* received);

  // Sends at most one payload (or the DONE marker) to the parent this round.
  // At the root (parent_local < 0) drains local seeds into `root_collect`.
  void Tick(NodeApi& api, int parent_local,
            std::vector<std::vector<std::int64_t>>* root_collect = nullptr);

  [[nodiscard]] bool Complete() const noexcept {
    return own_done_ && children_pending_ == 0 && queue_.empty();
  }
  [[nodiscard]] bool DoneSent() const noexcept { return done_sent_; }

  // True while the next Tick could send something: a queued payload, or the
  // pending DONE marker. Feeds the owner's AppWantsTick.
  [[nodiscard]] bool WantsTick() const noexcept {
    return !queue_.empty() ||
           (own_done_ && children_pending_ == 0 && !done_sent_);
  }

 private:
  int channel_ = kChApp;
  VectorFifo<FieldList> queue_;  // inline payloads: one vector per pipeline
  bool own_done_ = false;
  bool done_sent_ = false;
  int children_pending_ = 0;
};

// Per-edge FIFO of keys with membership dedup, shared by the flooding
// protocols (Bellman-Ford labels, LE-list entries) to rate-limit per-round
// sends. Each key is interned once per node into a dense slot (0, 1, ... in
// first-intern order) and the queues hold slots: the owner keeps its values
// in a vector indexed by slot and supplies the payload at send time, so a
// key re-improved while queued is sent with its freshest value exactly once.
// Membership is one bit per (slot, edge), in 64-edge words, so one flat
// bit row per slot covers any degree.
class KeyedEdgeQueues {
 public:
  // Empties every queue and forgets every slot, for a node of `degree`
  // incident edges.
  void Configure(int degree);

  // The slot of `key`, interning it on first sight.
  int Intern(NodeId key);
  // The slot of `key`, or -1 if it was never interned.
  [[nodiscard]] int Find(NodeId key) const noexcept;
  [[nodiscard]] NodeId KeyOf(int slot) const {
    return keys_[static_cast<std::size_t>(slot)];
  }

  // Enqueues `slot` on every edge except `except_local` (pass -1 for none);
  // a slot already queued on an edge is not duplicated.
  void EnqueueAll(int slot, int except_local);

  // True when edge `local` has nothing queued: owners skip it.
  [[nodiscard]] bool Empty(int local) const noexcept {
    return fifos_[static_cast<std::size_t>(local)].empty();
  }

  // Pops up to `budget` distinct slots from edge `local`'s queue into `out`
  // (cleared first). Allocation-free: callers keep a scratch buffer.
  void PopInto(int local, int budget, std::vector<int>& out);

  // True while any edge queue holds a slot (the owner still has sends to
  // emit). O(1): maintained as a counter across EnqueueAll/Pop.
  [[nodiscard]] bool HasPending() const noexcept { return pending_ > 0; }

 private:
  // The table cell holding `key`, or the empty cell where it would go.
  [[nodiscard]] std::size_t CellOf(NodeId key) const noexcept;
  [[nodiscard]] std::uint64_t* BitsOf(int slot) noexcept {
    return bits_.data() + static_cast<std::size_t>(slot) * words_;
  }

  std::vector<VectorFifo<int>> fifos_;  // per edge
  std::size_t words_ = 0;               // 64-edge words per slot
  std::vector<std::uint64_t> bits_;     // slot-major membership bits
  std::vector<NodeId> keys_;            // slot -> key
  // Open addressing over Mix64(key): slot + 1, or 0 for an empty cell;
  // a power-of-two size at most half full.
  std::vector<std::uint32_t> table_;
  std::size_t pending_ = 0;  // total slots across all edge queues
};

// Distributed BFS-tree sanity program used by tests: builds the tree, then
// reports depth/parent through its public state.
class BfsProbeProgram : public TreeProgramBase {
 public:
  explicit BfsProbeProgram(NodeId id) : TreeProgramBase(id) {}

  int observed_depth = -1;
  NodeId observed_parent = kNoNode;

 protected:
  void OnTreeReady(NodeApi& api) override;
};

}  // namespace dsf
