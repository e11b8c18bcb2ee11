#include "congest/network.hpp"

#include <algorithm>
#include <bit>

namespace dsf {

namespace detail {

RoundPool::RoundPool(int threads) : executors_(threads) {
  // The calling thread participates in ParallelFor, so `threads` total
  // executors means threads - 1 workers. Executor 0 is the calling thread;
  // workers are 1..threads-1.
  DSF_CHECK(threads >= 2);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

RoundPool::~RoundPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void RoundPool::WorkerLoop(int executor) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
    }
    RunChunks(executor);
  }
}

void RoundPool::RunChunks(int executor) {
  for (;;) {
    int lo = 0;
    int hi = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (next_ >= total_) return;
      lo = next_;
      hi = std::min(total_, lo + chunk_);
      next_ = hi;
    }
    for (int i = lo; i < hi; ++i) {
      try {
        (*task_)(i, executor);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    bool all_done = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_ -= hi - lo;
      all_done = pending_ == 0 && next_ >= total_;
    }
    if (all_done) done_cv_.notify_all();
  }
}

void RoundPool::ParallelFor(int n, const std::function<void(int, int)>& task) {
  if (n <= 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &task;
    total_ = n;
    // ~4 claims per executor balances cursor contention against tail
    // imbalance; small n still splits so every executor can participate.
    chunk_ = std::max(1, n / (executors_ * 4));
    next_ = 0;
    pending_ = n;
    first_error_ = nullptr;
    ++epoch_;
  }
  start_cv_.notify_all();
  RunChunks(0);  // the calling thread participates as executor 0
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    task_ = nullptr;
    if (first_error_) {
      auto err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
}

}  // namespace detail

namespace {

inline void SetBit(std::vector<std::uint64_t>& bits, NodeId v) {
  bits[static_cast<std::size_t>(v) >> 6] |= std::uint64_t{1} << (v & 63);
}

}  // namespace

NodeApi::NodeApi(Network& net, NodeId id, int executor)
    : net_(net),
      id_(id),
      executor_(executor),
      slot_base_(static_cast<std::uint32_t>(net.graph_.IncidenceBase(id))),
      nb_(net.graph_.Neighbors(id)) {}

SplitMix64& NodeApi::Rng() noexcept {
  return *net_.nodes_[static_cast<std::size_t>(id_)].rng;
}

void NodeApi::MarkEdge(int local) {
  const EdgeId e = GlobalEdgeId(local);
  auto& st = net_.nodes_[static_cast<std::size_t>(id_)];
  net_.NoteEffects(st, id_, executor_);
  st.mark_ops.emplace_back(e, true);
}

void NodeApi::UnmarkEdge(int local) {
  const EdgeId e = GlobalEdgeId(local);
  auto& st = net_.nodes_[static_cast<std::size_t>(id_)];
  net_.NoteEffects(st, id_, executor_);
  st.mark_ops.emplace_back(e, false);
}

void NodeApi::NotePhases(long phases) {
  auto& st = net_.nodes_[static_cast<std::size_t>(id_)];
  net_.NoteEffects(st, id_, executor_);
  st.phase_delta += phases;
}

Network::Network(const Graph& g, StaticKnowledge known, std::uint64_t seed,
                 NetworkOptions options)
    : graph_(g), known_(known), seed_(seed), options_(options) {
  DSF_CHECK(g.Finalized());
  if (known_.n == 0) known_.n = g.NumNodes();
  if (known_.bandwidth_bits == 0) {
    // Default bandwidth: c * ceil(log2 n) with a small constant, min 64 bits,
    // matching CONGEST(log n) up to the constant hidden in O(log n). The
    // shift runs in 64-bit so huge n cannot overflow a plain int.
    std::int64_t log_n = 1;
    while ((std::int64_t{1} << log_n) < static_cast<std::int64_t>(known_.n)) {
      ++log_n;
    }
    known_.bandwidth_bits = std::max<std::int64_t>(64, 8 * log_n);
  }
  const auto n = static_cast<std::size_t>(g.NumNodes());
  nodes_.resize(n);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    nodes_[static_cast<std::size_t>(v)].rng = std::make_unique<SplitMix64>(
        DeriveSeed(seed_, static_cast<std::uint64_t>(v)));
  }
  in_cut_.assign(static_cast<std::size_t>(g.NumEdges()), false);
  marked_.assign(static_cast<std::size_t>(g.NumEdges()), false);
  edge_bits_.assign(static_cast<std::size_t>(g.NumEdges()) * 2, 0);
  out_ref_.assign(n, OutRef{});
  senders_.reserve(n);
  in_off_.assign(n, 0);
  in_len_.assign(n, 0);
  in_cur_.assign(n, 0);
  last_app_.assign(n, -1);
  receivers_.reserve(n);
  in_cnt_.assign(n, 0);
  next_receivers_.reserve(n);
  const std::size_t words = (n + 63) / 64;
  recv_bits_.assign(words, 0);
  wants_bits_.assign(words, 0);
  tick_bits_.assign(words, 0);
  if (!options_.active_set) {
    // Without active-set scheduling every node ticks every round: the tick
    // bitset is constant all-ones (masked to n) and never recomposed.
    for (std::size_t w = 0; w < words; ++w) tick_bits_[w] = ~std::uint64_t{0};
    if (n % 64 != 0 && words > 0) {
      tick_bits_[words - 1] = (std::uint64_t{1} << (n % 64)) - 1;
    }
  }

  int threads = options_.threads;
  if (threads == 0) {
    // Auto: a pool only pays off when a round has enough nodes to amortize
    // the per-round wakeup; small graphs run inline. An explicit
    // threads >= 2 is always honored (the golden tests force the pool on).
    if (g.NumNodes() >= detail::RoundPool::kAutoMinNodes) {
      const unsigned hw = std::thread::hardware_concurrency();
      threads = static_cast<int>(std::min(hw, 8u));
    } else {
      threads = 1;
    }
  }
  // A pool below two executors cannot beat the inline loop.
  if (threads >= 2 && g.NumNodes() >= 2) {
    pool_ = std::make_unique<detail::RoundPool>(threads);
  }
  fused_ = pool_ == nullptr;
  send_arenas_.resize(pool_ ? static_cast<std::size_t>(pool_->Executors()) : 1);
  fields_cur_.assign(send_arenas_.size(), 0);
  effect_nodes_.resize(send_arenas_.size());
}

Network::~Network() = default;

void Network::Start(const ProgramFactory& factory) {
  programs_.clear();
  programs_.reserve(static_cast<std::size_t>(graph_.NumNodes()));
  for (NodeId v = 0; v < graph_.NumNodes(); ++v) {
    programs_.push_back(factory(v));
    DSF_CHECK(programs_.back() != nullptr);
  }
  if (options_.active_set) {
    // Seed the cached WantsTick bits. Program state only changes inside
    // OnRound, so each bit stays valid until its node is next ticked.
    std::fill(wants_bits_.begin(), wants_bits_.end(), 0);
    for (NodeId v = 0; v < graph_.NumNodes(); ++v) {
      if (programs_[static_cast<std::size_t>(v)]->WantsTick()) {
        SetBit(wants_bits_, v);
      }
    }
  }
}

void Network::RegisterCut(std::span<const EdgeId> cut_edges) {
  for (const EdgeId e : cut_edges) {
    DSF_CHECK(e >= 0 && e < graph_.NumEdges());
    in_cut_[static_cast<std::size_t>(e)] = true;
    has_cut_ = true;
  }
}

void Network::TickWord(int word, int executor) {
  std::uint64_t bits = tick_bits_[static_cast<std::size_t>(word)];
  if (bits == 0) return;
  const bool track = options_.active_set;
  std::uint64_t wants = track ? wants_bits_[static_cast<std::size_t>(word)] : 0;
  const NodeId base = static_cast<NodeId>(word) * 64;
  while (bits != 0) {
    const int b = std::countr_zero(bits);
    bits &= bits - 1;
    const NodeId v = base + b;
    NodeApi api(*this, v, executor);
    programs_[static_cast<std::size_t>(v)]->OnRound(api);
    if (track) {
      // Refresh the cached bit: state can only have changed in this tick.
      const std::uint64_t mask = std::uint64_t{1} << b;
      if (programs_[static_cast<std::size_t>(v)]->WantsTick()) {
        wants |= mask;
      } else {
        wants &= ~mask;
      }
    }
  }
  // Words are never split across executors, so this store has one writer.
  if (track) wants_bits_[static_cast<std::size_t>(word)] = wants;
}

void Network::ApplyDeferredEffects() {
  // Marked-edge and phase effects are applied in node order regardless of
  // which thread ran the node, reproducing the sequential schedule bit for
  // bit (the §8 determinism contract). Only nodes that actually deferred an
  // effect are visited: each executor kept its own dirty list (raceless),
  // and sorting the merged list restores node order — rounds that defer
  // nothing (the common case) cost a handful of empty-list checks, not an
  // O(n) sweep over node state.
  effect_merge_.clear();
  for (auto& lst : effect_nodes_) {
    effect_merge_.insert(effect_merge_.end(), lst.begin(), lst.end());
    lst.clear();
  }
  if (effect_merge_.empty()) return;
  std::sort(effect_merge_.begin(), effect_merge_.end());
  for (const NodeId v : effect_merge_) {
    auto& st = nodes_[static_cast<std::size_t>(v)];
    st.effects_pending = false;
    if (!st.mark_ops.empty()) {
      for (const auto& [e, on] : st.mark_ops) {
        marked_[static_cast<std::size_t>(e)] = on;
      }
      st.mark_ops.clear();
    }
    if (st.phase_delta != 0) {
      stats_.phases += st.phase_delta;
      st.phase_delta = 0;
    }
  }
}

void Network::DeliverRound() {
  // Retire last round's inboxes: their spans were consumed by phase (i).
  // The receiver bitset is bulk-cleared word-wise; lengths are reset
  // through the receiver dirty list.
  for (const NodeId r : receivers_) {
    in_len_[static_cast<std::size_t>(r)] = 0;
  }
  receivers_.clear();
  std::fill(recv_bits_.begin(), recv_bits_.end(), 0);

  std::uint32_t acc = 0;
  if (fused_) {
    // Sequential fast path: Send() already ran the counting pass into the
    // next-round buffers (in_cnt_ / next_receivers_ / senders_), so
    // delivery is O(active) — prefix-sum the dirty receivers and fill in
    // the sender run lengths; no header re-scan, no O(n) out_ref_ sweep.
    for (const NodeId r : next_receivers_) {
      const auto ri = static_cast<std::size_t>(r);
      const std::uint32_t raw = in_cnt_[ri];
      const std::uint32_t cnt = raw & kCountMask;
      // Receiving application traffic counts as activity in the round the
      // message is processed (the next one).
      if (raw & kAppBit) last_app_[ri] = round_ + 1;
      in_off_[ri] = acc;
      in_cur_[ri] = acc;
      in_len_[ri] = cnt;
      acc += cnt;
      in_cnt_[ri] = 0;
      SetBit(recv_bits_, r);
    }
    receivers_.swap(next_receivers_);
    for (auto& s : senders_) {
      auto& ref = out_ref_[static_cast<std::size_t>(s.v)];
      s.count = ref.count;
      ref.count = 0;
    }
  } else {
    // Counting pass (headers only): walk senders in node order — the
    // determinism anchor — accumulating per-receiver counts. A receiver's
    // first message puts it on the dirty list and in the bitset.
    const int n = graph_.NumNodes();
    for (NodeId v = 0; v < n; ++v) {
      auto& ref = out_ref_[static_cast<std::size_t>(v)];
      if (ref.count == 0) continue;
      senders_.push_back(SenderRange{v, ref.arena, ref.begin, ref.count});
      const auto* h = send_arenas_[ref.arena].hdr.data() + ref.begin;
      for (std::uint32_t i = 0; i < ref.count; ++i) {
        const auto to = static_cast<std::size_t>(h[i].to);
        auto& cnt = in_len_[to];
        if ((cnt & kCountMask) == 0) {
          receivers_.push_back(h[i].to);
          SetBit(recv_bits_, h[i].to);
        }
        cnt = (cnt + 1) | (h[i].app != 0 ? kAppBit : 0);
      }
      ref.count = 0;
    }

    // Prefix sum: assign every receiver a contiguous span of the delivery
    // arena (discovery order; the spans are what Inbox() hands out, their
    // relative placement is irrelevant). The arena only grows, so the
    // steady state allocates nothing.
    for (const NodeId r : receivers_) {
      const auto ri = static_cast<std::size_t>(r);
      const std::uint32_t raw = in_len_[ri];
      const std::uint32_t cnt = raw & kCountMask;
      if (raw & kAppBit) last_app_[ri] = round_ + 1;
      in_len_[ri] = cnt;
      in_off_[ri] = acc;
      in_cur_[ri] = acc;
      acc += cnt;
    }
  }
  const std::size_t total = acc;
  if (arena_.size() < acc) arena_.resize(acc);
  const bool parallel_scatter = pool_ != nullptr && total >= kParallelScatterMin;
  if (parallel_scatter && scatter_src_.size() < total) {
    scatter_src_.resize(total);
    scatter_foff_.resize(total);
  }

  // Accounting + placement pass (headers only, serial, node order): per-slot
  // bandwidth via the persistent dirty-list buffer, cut metering, receiver
  // app-activity stamps, and each send's delivery-arena slot via the
  // counting-sort cursors. Walking senders in node order makes every
  // slot-indexed access (edge_bits_, mirrors) an ascending sweep, and drains
  // each arena's packed field pool front-to-back with a plain cursor.
  const auto slot_dirs = graph_.SlotDirs();
  const auto mirrors = graph_.SlotMirrors();
  for (auto& c : fields_cur_) c = 0;
  long total_bits = 0;
  long max_bits = stats_.max_bits_per_edge_round;
  for (const auto& s : senders_) {
    auto& arena = send_arenas_[s.arena];
    std::uint32_t foff = fields_cur_[s.arena];
    const std::uint32_t end = s.begin + s.count;
    for (std::uint32_t i = s.begin; i < end; ++i) {
      const detail::SendHeader& h = arena.hdr[i];
      // The delivery slot of header i+K is (approximately) its receiver's
      // current cursor; fetching that line ahead of time hides the L2 miss
      // the random counting-sort write would otherwise stall on.
      if (i + kScatterPrefetch < end) {
        const detail::SendHeader& hp = arena.hdr[i + kScatterPrefetch];
        __builtin_prefetch(
            arena_.data() + in_cur_[static_cast<std::size_t>(hp.to)], 1, 1);
      }
      // Bandwidth accumulates per sender-side incidence slot — a bijection
      // with (edge, direction), so the reported stats are unchanged.
      edge_bits_[h.slot] += h.bits;
      total_bits += h.bits;
      if (has_cut_ && in_cut_[slot_dirs[h.slot] >> 1]) {
        stats_.cut_bits += h.bits;
        ++stats_.cut_messages;
      }
      const std::uint32_t p = in_cur_[static_cast<std::size_t>(h.to)]++;
      if (parallel_scatter) {
        scatter_src_[p] = (static_cast<std::uint64_t>(s.arena) << 32) | i;
        scatter_foff_[p] = foff;
      } else {
        Delivery& d = arena_[p];
        d.from_local = mirrors[h.slot];
        d.from_node = h.from;
        d.msg.channel = h.channel;
        d.msg.fields.assign(arena.fields.data() + foff, h.fsize);
      }
      foff += h.fsize;
    }
    fields_cur_[s.arena] = foff;
    // Every slot this sender touched lies in its own incidence range, so
    // the per-edge-round maximum folds and the counters reset with one
    // contiguous sweep that stays in L1 — no global dirty list.
    const auto base = static_cast<std::size_t>(graph_.IncidenceBase(s.v));
    const std::size_t deg = graph_.Neighbors(s.v).size();
    for (std::size_t slot = base; slot < base + deg; ++slot) {
      if (edge_bits_[slot] != 0) {
        max_bits = std::max(max_bits, edge_bits_[slot]);
        edge_bits_[slot] = 0;
      }
    }
  }
  stats_.total_bits += total_bits;
  stats_.max_bits_per_edge_round = max_bits;
  stats_.messages += static_cast<long>(total);

  if (parallel_scatter) {
    // Payload scatter across the pool, partitioned by contiguous ranges of
    // the delivery arena — i.e. by receiver ranges, since each receiver's
    // span is contiguous — so executors write disjoint cache lines. The
    // placement is a fixed permutation, so the result is identical to the
    // serial scatter.
    const int blocks =
        static_cast<int>((total + kScatterBlock - 1) / kScatterBlock);
    pool_->ParallelFor(blocks, [&](int blk, int) {
      const std::size_t lo = static_cast<std::size_t>(blk) * kScatterBlock;
      const std::size_t hi = std::min(total, lo + kScatterBlock);
      for (std::size_t p = lo; p < hi; ++p) {
        const std::uint64_t src = scatter_src_[p];
        auto& arena = send_arenas_[src >> 32];
        const auto i = static_cast<std::uint32_t>(src);
        const detail::SendHeader& h = arena.hdr[i];
        Delivery& d = arena_[p];
        d.from_local = mirrors[h.slot];
        d.from_node = h.from;
        d.msg.channel = h.channel;
        d.msg.fields.assign(arena.fields.data() + scatter_foff_[p], h.fsize);
      }
    });
  }

  senders_.clear();
  for (auto& arena : send_arenas_) {
    arena.hdr.clear();
    arena.fields.clear();
  }
  in_flight_ = static_cast<long>(total);
}

bool Network::Step() {
  DSF_CHECK_MSG(!programs_.empty(), "Start() must be called before Step()");

  // (i) + (ii): local computation and sends, driven by the tick bitset.
  // OnRound touches only the node's own state (inbox span read, send-arena
  // append, RNG); cross-node effects are deferred, so words are safe to run
  // concurrently — an executor owns every node of a word, which also makes
  // it the sole writer of that word's cached WantsTick bits.
  const auto words = static_cast<int>(tick_bits_.size());
  if (options_.active_set) {
    for (int w = 0; w < words; ++w) {
      tick_bits_[static_cast<std::size_t>(w)] =
          recv_bits_[static_cast<std::size_t>(w)] |
          wants_bits_[static_cast<std::size_t>(w)];
    }
  }
  if (pool_ != nullptr) {
    pool_->ParallelFor(words,
                       [this](int w, int executor) { TickWord(w, executor); });
  } else {
    for (int w = 0; w < words; ++w) TickWord(w, 0);
  }
  ApplyDeferredEffects();

  // (iii): flatten this round's traffic into the delivery arena.
  DeliverRound();
  ++round_;
  stats_.rounds = round_;

  // Finished?
  if (in_flight_ > 0) return true;
  for (const auto& p : programs_) {
    if (!p->Done()) return true;
  }
  return false;
}

RunStats Network::Run(long max_rounds) {
  while (round_ < max_rounds) {
    // The round boundary is the simulator's cancellation checkpoint: a
    // cancelled run keeps every bit delivered so far (stats stay truthful)
    // but stops paying for rounds a portfolio loser no longer needs.
    if (options_.cancel != nullptr && options_.cancel->Expired()) {
      stats_.cancelled = true;
      return stats_;
    }
    if (!Step()) return stats_;
  }
  stats_.hit_round_limit = true;
  return stats_;
}

std::vector<EdgeId> Network::MarkedEdges() const {
  std::vector<EdgeId> out;
  for (EdgeId e = 0; e < graph_.NumEdges(); ++e) {
    if (marked_[static_cast<std::size_t>(e)]) out.push_back(e);
  }
  return out;
}

}  // namespace dsf
