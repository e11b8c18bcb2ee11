// Synchronous CONGEST network simulator.
//
// Faithful to Section 2 of the paper: computation proceeds in synchronous
// rounds; per round every node (i) performs arbitrary local computation,
// (ii) sends at most one bounded-size message per incident edge and channel,
// and (iii) receives what its neighbors sent this round (delivered at the
// start of the next round). The simulator meters bits per edge per round so
// experiments can verify the O(log n) bandwidth discipline, and can meter a
// registered edge cut (used by the Set-Disjointness lower-bound harness).
//
// The per-round path is engineered to be memory-bandwidth-bound without
// changing a single delivered bit (see DESIGN.md §2 "Simulator scheduling"):
//   * all outgoing traffic of a round lands in per-executor SoA send arenas
//     (20-byte header: sender/receiver/incidence-slot/channel/bits; fields
//     densely packed in a separate int64 pool), so header passes never touch
//     payload bytes and a k-field send writes exactly 20 + 8k bytes,
//   * receiver offsets are computed by a counting-sort-style prefix sum and
//     every node's inbox becomes a zero-copy span into one contiguous
//     per-round delivery arena — there are no per-node inbox vectors,
//   * per-message topology lookups key off the sender's global incidence
//     slot (Graph::SlotDirs / SlotMirrors, precomputed in Finalize()) —
//     the Edge array is never read during delivery,
//   * the active set is a word-scanned uint64 bitset: nodes with a pending
//     delivery OR'd with cached NodeProgram::WantsTick() bits (refreshed
//     only when a node is ticked — program state only changes in OnRound),
//   * phase (i) runs across a reusable thread pool in 64-node word chunks;
//     large rounds scatter payloads in parallel, partitioned by contiguous
//     receiver ranges of the delivery arena, so workers write disjoint
//     cache lines with no per-node locks. Output-side effects (MarkEdge/
//     UnmarkEdge, NotePhases) are deferred into per-node queues and applied
//     serially in node order, so runs stay bit-identical to the sequential
//     schedule (§8 reproducibility).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/check.hpp"
#include "common/random.hpp"
#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace dsf {

class Network;

// Globally known quantities every node may use: n, and a D bound, which
// footnote 2 of the paper justifies (computable in O(D) rounds, below all
// our algorithms' budgets). Node programs read D for quiescence and
// coordination timeouts. s and WD are not here: no node program reads
// them; the randomized wrappers read them off the graph (dist/runtime.hpp).
struct StaticKnowledge {
  int n = 0;
  int diameter_bound = 0;           // D
  std::int64_t bandwidth_bits = 0;  // per edge per round, O(log n)
};

// Scheduler configuration. Every setting produces bit-identical runs (same
// RunStats, same marked edges, same RNG streams); they differ only in wall
// clock. The golden-stats regression test pins this contract.
struct NetworkOptions {
  // Honor NodeProgram::WantsTick(): a program reporting false is not ticked
  // in rounds where its inbox is empty.
  bool active_set = true;
  // Worker threads for phase (i). 0 = auto (hardware concurrency, capped);
  // 1 = sequential fallback (no pool). Values <= 1 run inline.
  int threads = 0;
  // Cooperative cancellation: Run() polls this between rounds and returns
  // early (stats.cancelled set) once it expires. Borrowed; may be nullptr.
  const CancelToken* cancel = nullptr;
};

// Per-node view handed to programs each round. Local: the node knows its id,
// its incident edges (neighbor ids + weights), and nothing else about G.
// The incidence span is cached at construction, so the per-edge accessors
// are branch-checked array reads.
class NodeApi {
 public:
  NodeApi(Network& net, NodeId id, int executor = 0);

  [[nodiscard]] NodeId Id() const noexcept { return id_; }
  [[nodiscard]] int Degree() const noexcept {
    return static_cast<int>(nb_.size());
  }
  [[nodiscard]] NodeId NeighborId(int local) const {
    DSF_CHECK(local >= 0 && local < Degree());
    return nb_[static_cast<std::size_t>(local)].neighbor;
  }
  [[nodiscard]] Weight EdgeWeight(int local) const;
  [[nodiscard]] EdgeId GlobalEdgeId(int local) const {
    DSF_CHECK(local >= 0 && local < Degree());
    return nb_[static_cast<std::size_t>(local)].edge;
  }
  [[nodiscard]] const StaticKnowledge& Known() const noexcept;
  [[nodiscard]] long Round() const noexcept;
  [[nodiscard]] SplitMix64& Rng() noexcept;

  // Messages received this round (sent by neighbors last round): a zero-copy
  // span into the round's delivery arena, grouped by sender in ascending
  // node order, send order preserved within a sender.
  [[nodiscard]] std::span<const Delivery> Inbox() const noexcept;

  // Queues a message on the incident edge `local` for delivery next round.
  void Send(int local, Message msg);

  // Declares the incident edge part of the algorithm's output F. Idempotent.
  // Applied in node order after phase (i) completes, so the effect is
  // identical under every scheduler configuration.
  void MarkEdge(int local);
  void UnmarkEdge(int local);

  // Round index of this node's most recent send or receive on channels other
  // than kChQuiesce/kChBfs (used by the quiescence detector), or -1.
  [[nodiscard]] long LastAppActivity() const noexcept;

  // Phase accounting: the coordinator of a phased protocol (moat growing)
  // reports completed algorithm phases so RunStats can expose them
  // alongside rounds/bits.
  void NotePhases(long phases);

 private:
  friend class Network;
  Network& net_;
  NodeId id_;
  int executor_;                   // which send arena this tick appends to
  std::uint32_t slot_base_;        // graph_.IncidenceBase(id_)
  std::span<const Incidence> nb_;  // cached Neighbors(id_)
};

// Per-node behavior: a state machine invoked once per round.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  // Called every round, including round 0 (empty inbox).
  virtual void OnRound(NodeApi& api) = 0;
  // When every program reports done and no messages are in flight, the run ends.
  [[nodiscard]] virtual bool Done() const = 0;
  // Active-set scheduling hook: a program may return false to signal that,
  // with an empty inbox, its OnRound would neither send a message nor change
  // any state the run's outcome depends on; the simulator then skips the
  // tick. Rounds where the inbox is non-empty are always ticked. Default:
  // always tick (safe for arbitrary programs).
  //
  // Contract note the bitset scheduler relies on: the value may only change
  // as a consequence of the program's own OnRound (program state is mutated
  // nowhere else), so the simulator caches it per node and re-queries only
  // after ticking that node.
  [[nodiscard]] virtual bool WantsTick() const { return true; }
};

struct RunStats {
  long rounds = 0;
  long messages = 0;
  long total_bits = 0;
  long max_bits_per_edge_round = 0;
  long cut_bits = 0;        // bits across the registered cut
  long cut_messages = 0;
  long charged_rounds = 0;  // extra rounds charged for substituted subroutines
  long phases = 0;          // algorithm phases reported via NodeApi::NotePhases
  bool hit_round_limit = false;
  bool cancelled = false;   // run stopped early by NetworkOptions::cancel
};

namespace detail {

// Minimal reusable thread pool for phase (i): executors pull contiguous
// index chunks off a shared cursor. Each task invocation also receives the
// executor index (0 = the calling thread) so callers can maintain
// per-executor state — e.g. the simulator's send arenas — without locks.
// Determinism does not depend on the chunking — all cross-node effects are
// deferred and applied in node order.
class RoundPool {
 public:
  // Below this node count an auto-configured Network (threads == 0) skips
  // the pool entirely: the per-round wakeup cost cannot be amortized.
  static constexpr int kAutoMinNodes = 256;

  explicit RoundPool(int threads);
  ~RoundPool();

  [[nodiscard]] int Executors() const noexcept { return executors_; }

  // Runs task(v, executor) for v in [0, n); blocks until every index
  // completed. Rethrows the first exception thrown by any task.
  void ParallelFor(int n, const std::function<void(int, int)>& task);

 private:
  void WorkerLoop(int executor);
  void RunChunks(int executor);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int, int)>* task_ = nullptr;
  int executors_ = 1;  // workers + the calling thread
  int total_ = 0;
  int chunk_ = 1;    // per-claim range size for the current ParallelFor
  int next_ = 0;     // next unclaimed index (under mu_)
  int pending_ = 0;  // indices not yet completed (under mu_)
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

// One executor's share of a round's outgoing traffic, structure-of-arrays:
// the 20-byte headers carry everything the accounting and prefix-sum passes
// need (receiver, global incidence slot, channel, encoded bits, app-activity
// flag, field count); message fields ride in a densely packed int64 pool —
// there is no Message staging at all, so the send path writes 20 + 8*k bytes
// for a k-field message and the scatter reads exactly those back. Because
// senders are consumed in node order and an executor's runs are appended in
// ascending order, each arena's field pool is drained front-to-back by a
// plain cursor.
struct SendHeader {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint32_t slot = 0;    // sender-side global incidence slot
  std::int32_t channel = 0;  // Message::channel
  std::uint16_t bits = 0;    // Message::BitSize(), computed at send time
  std::uint8_t app = 0;      // counts as application activity?
  std::uint8_t fsize = 0;    // field count (run length in `fields`)
};

struct SendArena {
  std::vector<SendHeader> hdr;
  std::vector<std::int64_t> fields;  // packed payload runs, hdr order
};

}  // namespace detail

class Network {
 public:
  using ProgramFactory = std::function<std::unique_ptr<NodeProgram>(NodeId)>;

  Network(const Graph& g, StaticKnowledge known, std::uint64_t seed,
          NetworkOptions options = {});
  ~Network();

  // Instantiates one program per node.
  void Start(const ProgramFactory& factory);

  // Registers edges whose traffic is metered separately (lower-bound harness).
  void RegisterCut(std::span<const EdgeId> cut_edges);

  // Runs until all programs are Done() and no messages are in flight, or the
  // round limit is hit (then stats.hit_round_limit is set).
  RunStats Run(long max_rounds);

  // Executes exactly one round; returns false when the run has finished.
  bool Step();

  // Adds rounds "charged" (not simulated) for substituted subroutines.
  void ChargeRounds(long rounds) { stats_.charged_rounds += rounds; }

  [[nodiscard]] const Graph& GraphRef() const noexcept { return graph_; }
  [[nodiscard]] const StaticKnowledge& Known() const noexcept { return known_; }
  [[nodiscard]] const NetworkOptions& Options() const noexcept {
    return options_;
  }
  [[nodiscard]] const RunStats& Stats() const noexcept { return stats_; }
  [[nodiscard]] long Round() const noexcept { return round_; }

  // The distributed output: union of all marked incident edges.
  [[nodiscard]] std::vector<EdgeId> MarkedEdges() const;

  // Test hook: access a node's program (for inspecting final local state).
  [[nodiscard]] NodeProgram& ProgramAt(NodeId v) {
    return *programs_[static_cast<std::size_t>(v)];
  }

 private:
  friend class NodeApi;

  // Cross-node effects deferred out of the (possibly parallel) tick phase;
  // the hot per-node per-round data lives in flat parallel arrays instead.
  struct NodeState {
    // Deferred MarkEdge/UnmarkEdge ops, applied in node order after phase
    // (i) so parallel execution matches the sequential schedule exactly.
    std::vector<std::pair<EdgeId, bool>> mark_ops;
    long phase_delta = 0;    // deferred NotePhases contributions
    bool effects_pending = false;  // on one executor's dirty list this round
    std::unique_ptr<SplitMix64> rng;
  };

  // A node's sends this round: a contiguous run in one executor's arena.
  struct OutRef {
    std::uint32_t arena = 0;
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  struct SenderRange {
    NodeId v = kNoNode;
    std::uint32_t arena = 0;
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  // Rounds with at least this many messages scatter payloads across the
  // pool, partitioned by contiguous delivery-arena (receiver) ranges.
  static constexpr std::size_t kParallelScatterMin = 4096;
  static constexpr std::size_t kScatterBlock = 1024;
  // Headers of look-ahead for prefetching counting-sort scatter targets.
  static constexpr std::uint32_t kScatterPrefetch = 8;

  // The per-receiver counting cells double as an "any application message
  // this round" flag in their top bit, so the receiver-side activity stamp
  // costs no extra random store per message: the prefix-sum loop strips the
  // bit and stamps last_app_ once per receiver.
  static constexpr std::uint32_t kAppBit = std::uint32_t{1} << 31;
  static constexpr std::uint32_t kCountMask = kAppBit - 1;

  void TickWord(int word, int executor);

  // First deferred effect of a node's round: put it on its executor's
  // dirty list so ApplyDeferredEffects visits only nodes that deferred.
  void NoteEffects(NodeState& st, NodeId v, int executor) {
    if (!st.effects_pending) {
      st.effects_pending = true;
      effect_nodes_[static_cast<std::size_t>(executor)].push_back(v);
    }
  }
  void ApplyDeferredEffects();
  void DeliverRound();

  const Graph& graph_;
  StaticKnowledge known_;
  std::uint64_t seed_;
  NetworkOptions options_;
  long round_ = 0;
  RunStats stats_;
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<NodeState> nodes_;
  std::vector<bool> in_cut_;
  std::vector<bool> marked_;
  long in_flight_ = 0;

  // --- per-round message arena (all persistent; zero steady-state alloc) ---
  std::vector<detail::SendArena> send_arenas_;  // one per executor
  std::vector<OutRef> out_ref_;                 // per node: sends this round
  std::vector<SenderRange> senders_;            // nodes that sent, node order
  std::vector<Delivery> arena_;              // delivery arena (only grows)
  std::vector<std::uint64_t> scatter_src_;   // arena slot -> (send arena, idx)
  std::vector<std::uint32_t> scatter_foff_;  // arena slot -> field-pool offset
  std::vector<std::uint32_t> fields_cur_;    // per send arena: field cursor
  std::vector<std::uint32_t> in_off_;        // per node: inbox offset in arena
  std::vector<std::uint32_t> in_len_;        // per node: inbox length
  std::vector<std::uint32_t> in_cur_;        // per node: scatter cursor
  std::vector<long> last_app_;               // per node: last app activity
  std::vector<NodeId> receivers_;            // nodes with non-empty inbox
  // Nodes with deferred cross-node effects this round, one dirty list per
  // executor (racelessly appendable) merged and applied in node order —
  // ApplyDeferredEffects is O(nodes that deferred), not O(n).
  std::vector<std::vector<NodeId>> effect_nodes_;
  std::vector<NodeId> effect_merge_;

  // Sequential fast path (no pool): ticks ascend in node order, so Send()
  // itself can run the counting pass — per-receiver message counts for the
  // *next* round accumulate here while in_off_/in_len_ still serve the
  // current one, and DeliverRound() skips the O(n) header re-scan.
  bool fused_ = false;                       // true iff pool_ == nullptr
  bool has_cut_ = false;                     // any cut edges registered?
  std::vector<std::uint32_t> in_cnt_;        // per node: next-round count
  std::vector<NodeId> next_receivers_;       // next-round receiver dirty list

  // --- active-set bitsets (word-scanned, one bit per node) ----------------
  std::vector<std::uint64_t> recv_bits_;   // inbox non-empty this round
  std::vector<std::uint64_t> wants_bits_;  // cached WantsTick() per node
  std::vector<std::uint64_t> tick_bits_;   // recv | wants (all-ones when
                                           // active_set is off)

  // --- per-edge bandwidth accounting ---------------------------------------
  // Indexed by sender-side incidence slot (bijective with (edge, direction)
  // via Graph::SlotDirs), so the node-ordered accounting pass sweeps it in
  // ascending order instead of hopping through an edge-id permutation; each
  // sender's touched slots lie in its own incidence range, so the max-fold
  // and reset happen right after that sender's run (kept all-zero between).
  std::vector<long> edge_bits_;             // slot-indexed; kept all-zero
  std::unique_ptr<detail::RoundPool> pool_;  // nullptr => sequential phase (i)
};

// --- inline hot-path implementations ----------------------------------------
// Send() and Inbox() are defined in the header so protocol tick loops inline
// them: a Message built at the call site keeps its fields in registers all
// the way into the arena append (constant field counts unroll BitSize and
// the field-pool copy). The accessors node programs call every round or
// every message (Known, Round, LastAppActivity, EdgeWeight) sit here too.

inline Weight NodeApi::EdgeWeight(int local) const {
  DSF_CHECK(local >= 0 && local < Degree());
  return net_.graph_.GetEdge(nb_[static_cast<std::size_t>(local)].edge).w;
}

inline const StaticKnowledge& NodeApi::Known() const noexcept {
  return net_.known_;
}

inline long NodeApi::Round() const noexcept { return net_.round_; }

inline long NodeApi::LastAppActivity() const noexcept {
  return net_.last_app_[static_cast<std::size_t>(id_)];
}

inline std::span<const Delivery> NodeApi::Inbox() const noexcept {
  const auto v = static_cast<std::size_t>(id_);
  return {net_.arena_.data() + net_.in_off_[v], net_.in_len_[v]};
}

inline void NodeApi::Send(int local, Message msg) {
  DSF_CHECK(local >= 0 && local < Degree());
  // BFS-tree setup, the detector itself, and control broadcasts are
  // coordination scaffolding; "application activity" (what quiescence
  // detection watches) is everything else.
  const bool app = msg.channel != kChQuiesce && msg.channel != kChBfs &&
                   msg.channel != kChCtrl;
  if (app) net_.last_app_[static_cast<std::size_t>(id_)] = net_.round_;
  const NodeId to = nb_[static_cast<std::size_t>(local)].neighbor;
  auto& arena = net_.send_arenas_[static_cast<std::size_t>(executor_)];
  auto& ref = net_.out_ref_[static_cast<std::size_t>(id_)];
  if (ref.count == 0) {
    // First send this tick: claim a contiguous run in this executor's
    // arena. The run stays contiguous because an executor ticks one node
    // at a time.
    ref.arena = static_cast<std::uint32_t>(executor_);
    ref.begin = static_cast<std::uint32_t>(arena.hdr.size());
    if (net_.fused_) {
      // Sequential ticks ascend in node order, so recording senders here
      // yields exactly the node-ordered list the counting pass would build.
      net_.senders_.push_back(
          Network::SenderRange{id_, ref.arena, ref.begin, 0});
    }
  }
  ++ref.count;
  if (net_.fused_) {
    // Fused counting pass: accumulate next-round inbox sizes (and the
    // receiver's app-activity flag) at send time.
    auto& cnt = net_.in_cnt_[static_cast<std::size_t>(to)];
    if ((cnt & Network::kCountMask) == 0) net_.next_receivers_.push_back(to);
    cnt = (cnt + 1) | (app ? Network::kAppBit : 0);
  }
  arena.hdr.push_back(detail::SendHeader{
      id_, to, slot_base_ + static_cast<std::uint32_t>(local), msg.channel,
      static_cast<std::uint16_t>(msg.BitSize()), static_cast<std::uint8_t>(app),
      static_cast<std::uint8_t>(msg.fields.size())});
  arena.fields.insert(arena.fields.end(), msg.fields.begin(),
                      msg.fields.end());
}

}  // namespace dsf
