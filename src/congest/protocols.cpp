#include "congest/protocols.hpp"

#include <algorithm>
#include <bit>

#include "common/hash.hpp"

namespace dsf {

namespace {

// BFS channel opcodes.
constexpr std::int64_t kBfsAnnounce = 1;
constexpr std::int64_t kBfsChildClaim = 2;

}  // namespace

void TreeProgramBase::OnRound(NodeApi& api) {
  if (done_) return;
  const long r = api.Round();
  const int n = api.Known().n;

  if (r == 0) {
    if (id_ == n - 1) {
      // The node with the largest identifier roots the BFS tree (Lemma 2.3).
      is_root_ = true;
      depth_ = 0;
      announced_ = true;
      for (int i = 0; i < api.Degree(); ++i) {
        api.Send(i, Message{kChBfs, {kBfsAnnounce, 0}});
      }
    }
    if (n == 1) {
      is_root_ = true;
      depth_ = 0;
    }
  }

  HandleScaffolding(api);

  if (!tree_ready_ && r >= api.Known().diameter_bound + 2) {
    DSF_CHECK_MSG(depth_ >= 0, "node " << id_ << " not reached by BFS tree; "
                                       << "graph disconnected or D bound wrong");
    tree_ready_ = true;
    OnTreeReady(api);
  }

  if (tree_ready_) {
    // Deliver at most one queued control message per round (pipelining).
    if (!ctrl_queue_.empty()) {
      Message msg = std::move(ctrl_queue_.front());
      ctrl_queue_.pop_front();
      for (const int c : child_locals_) api.Send(c, msg);
      if (!msg.fields.empty() && msg.fields[0] == kCtrlFinish) {
        finish_seen_ = true;
      }
      OnCtrl(api, msg);
    }
    OnAppRound(api);
    // Detector tick: this round's child reports are folded in only now, so
    // the root's GloballyQuiet() inside OnAppRound reads last round's value;
    // report the subtree's latest activity when it changed.
    subtree_last_activity_ =
        std::max({subtree_last_activity_, api.LastAppActivity(),
                  child_report_max_});
    if (!is_root_ && subtree_last_activity_ != reported_last_activity_ &&
        parent_local_ >= 0) {
      reported_last_activity_ = subtree_last_activity_;
      api.Send(parent_local_, Message{kChQuiesce, {subtree_last_activity_}});
    }
  }

  if (finish_seen_ && ctrl_queue_.empty()) done_ = true;
}

void TreeProgramBase::HandleScaffolding(NodeApi& api) {
  // Adopt a parent on the first round any announcement arrives; among
  // same-round announcements choose the smallest sender id (deterministic).
  int best_local = -1;
  NodeId best_id = kNoNode;
  std::int64_t best_depth = 0;
  for (const auto& d : api.Inbox()) {
    switch (d.msg.channel) {
      case kChBfs:
        if (d.msg.fields[0] == kBfsAnnounce) {
          if (depth_ < 0 && (best_local < 0 || d.from_node < best_id)) {
            best_local = d.from_local;
            best_id = d.from_node;
            best_depth = d.msg.fields[1];
          }
        } else if (d.msg.fields[0] == kBfsChildClaim) {
          child_locals_.push_back(d.from_local);
        }
        break;
      case kChQuiesce:
        child_report_max_ = std::max(child_report_max_, d.msg.fields[0]);
        break;
      case kChCtrl:
        ctrl_queue_.push_back(d.msg);
        break;
      default:
        break;
    }
  }
  if (best_local >= 0 && depth_ < 0) {
    parent_local_ = best_local;
    depth_ = static_cast<int>(best_depth) + 1;
    api.Send(parent_local_, Message{kChBfs, {kBfsChildClaim}});
    if (!announced_) {
      announced_ = true;
      for (int i = 0; i < api.Degree(); ++i) {
        if (i == parent_local_) continue;
        api.Send(i, Message{kChBfs, {kBfsAnnounce, best_depth + 1}});
      }
    }
  }
}

void TreeProgramBase::BroadcastCtrl(Message msg) {
  DSF_CHECK_MSG(is_root_, "only the root issues control broadcasts");
  msg.channel = kChCtrl;
  ctrl_queue_.push_back(std::move(msg));
}

void TreeProgramBase::Finish() {
  BroadcastCtrl(Message{kChCtrl, {kCtrlFinish}});
}

void CollectPipeline::OnReceive(const Message& msg, bool collect_at_this_node,
                                std::vector<std::vector<std::int64_t>>* received) {
  DSF_CHECK(msg.channel == channel_);
  if (!msg.fields.empty() && msg.fields[0] == kDoneSentinel) {
    DSF_CHECK(children_pending_ > 0);
    --children_pending_;
    return;
  }
  if (collect_at_this_node) {
    DSF_CHECK(received != nullptr);
    received->push_back(msg.fields);
  } else {
    queue_.push_back(msg.fields);
  }
}

void CollectPipeline::Tick(NodeApi& api, int parent_local,
                           std::vector<std::vector<std::int64_t>>* root_collect) {
  if (parent_local < 0) {
    // Root: drain local seeds straight into the collection.
    while (!queue_.empty()) {
      if (root_collect != nullptr) root_collect->push_back(queue_.front());
      queue_.pop_front();
    }
    return;
  }
  if (!queue_.empty()) {
    Message m;
    m.channel = channel_;
    m.fields = queue_.front();
    queue_.pop_front();
    api.Send(parent_local, std::move(m));
  } else if (own_done_ && children_pending_ == 0 && !done_sent_) {
    done_sent_ = true;
    api.Send(parent_local, Message{channel_, {kDoneSentinel}});
  }
}

void KeyedEdgeQueues::Configure(int degree) {
  fifos_.assign(static_cast<std::size_t>(degree), {});
  words_ = (static_cast<std::size_t>(degree) + 63) / 64;
  bits_.clear();
  keys_.clear();
  table_.clear();
  pending_ = 0;
}

std::size_t KeyedEdgeQueues::CellOf(NodeId key) const noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = Mix64(static_cast<std::uint64_t>(key)) & mask;
  while (table_[i] != 0 && keys_[table_[i] - 1] != key) i = (i + 1) & mask;
  return i;
}

int KeyedEdgeQueues::Find(NodeId key) const noexcept {
  if (table_.empty()) return -1;
  return static_cast<int>(table_[CellOf(key)]) - 1;
}

int KeyedEdgeQueues::Intern(NodeId key) {
  if (2 * (keys_.size() + 1) > table_.size()) {
    // Grow to keep the table at most half full, then re-place every key.
    table_.assign(std::max<std::size_t>(16, 2 * table_.size()), 0);
    for (std::size_t s = 0; s < keys_.size(); ++s) {
      table_[CellOf(keys_[s])] = static_cast<std::uint32_t>(s + 1);
    }
  }
  const std::size_t cell = CellOf(key);
  if (table_[cell] == 0) {
    keys_.push_back(key);
    table_[cell] = static_cast<std::uint32_t>(keys_.size());
    bits_.resize(bits_.size() + words_, 0);
  }
  return static_cast<int>(table_[cell]) - 1;
}

void KeyedEdgeQueues::EnqueueAll(int slot, int except_local) {
  std::uint64_t* bits = BitsOf(slot);
  for (std::size_t w = 0; w < words_; ++w) {
    // This word's edges that do not hold the slot yet, less the excluded one.
    const std::size_t first = 64 * w;
    const std::size_t count = std::min<std::size_t>(64, fifos_.size() - first);
    std::uint64_t fresh = ~std::uint64_t{0} >> (64 - count);
    if (except_local >= 0 && static_cast<std::size_t>(except_local) / 64 == w) {
      fresh &= ~(std::uint64_t{1} << (except_local % 64));
    }
    fresh &= ~bits[w];
    bits[w] |= fresh;
    for (; fresh != 0; fresh &= fresh - 1) {
      fifos_[first + static_cast<std::size_t>(std::countr_zero(fresh))]
          .push_back(slot);
      ++pending_;
    }
  }
}

void KeyedEdgeQueues::PopInto(int local, int budget, std::vector<int>& out) {
  out.clear();
  auto& q = fifos_[static_cast<std::size_t>(local)];
  const std::size_t word = static_cast<std::size_t>(local) / 64;
  const std::uint64_t bit = std::uint64_t{1} << (local % 64);
  while (budget-- > 0 && !q.empty()) {
    const int slot = q.front();
    q.pop_front();
    BitsOf(slot)[word] &= ~bit;
    out.push_back(slot);
    --pending_;
  }
}

void BfsProbeProgram::OnTreeReady(NodeApi& api) {
  observed_depth = TreeDepth();
  observed_parent = IsRoot() ? Id() : api.NeighborId(ParentLocal());
  if (IsRoot()) Finish();
}

}  // namespace dsf
