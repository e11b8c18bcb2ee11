#include "serve/cache.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/hash.hpp"

namespace dsf {

namespace {

// Second-stream offset basis: any constant != Fnv1a::kOffset yields an
// independent digest over the same byte stream.
constexpr std::uint64_t kSecondOffset = 0x6c62272e07bb0142ULL;

// Field tags keep the byte stream prefix-free across variants: a CR request
// and an IC request over coincidentally equal integer sequences must not
// collide.
enum FieldTag : std::uint8_t {
  kTagGraph = 0x01,
  kTagEdge = 0x02,
  kTagIc = 0x03,
  kTagCr = 0x04,
  kTagSolver = 0x05,
  kTagOptions = 0x06,
  kTagSeed = 0x07,
};

void HashGraphInto(Fnv1a& h, const Graph& g) {
  h.Byte(kTagGraph);
  h.I64(g.NumNodes());
  h.I64(g.NumEdges());
  for (const Edge& e : g.Edges()) {
    h.Byte(kTagEdge);
    h.I64(e.u);
    h.I64(e.v);
    h.I64(e.w);
  }
}

void HashUnitInto(Fnv1a& h, const SolveRequest& request, std::uint64_t seed) {
  if (request.use_cr) {
    h.Byte(kTagCr);
    h.I64(request.cr.NumNodes());
    for (NodeId v = 0; v < request.cr.NumNodes(); ++v) {
      const auto& reqs = request.cr.requests[static_cast<std::size_t>(v)];
      h.I64(static_cast<std::int64_t>(reqs.size()));
      for (const NodeId w : reqs) h.I64(w);
    }
  } else {
    h.Byte(kTagIc);
    h.I64(request.ic.NumNodes());
    for (const Label l : request.ic.labels) h.I64(l);
  }
  h.Byte(kTagSolver);
  h.Bytes(request.solver);
  h.Byte(kTagOptions);
  // Hash epsilon at double precision: the CLI and the wire protocol both
  // take it as a double, so canonically-equal requests agree at this width.
  const double eps = static_cast<double>(request.options.epsilon);
  h.U64(std::bit_cast<std::uint64_t>(eps));
  h.I64(request.options.repetitions);
  h.Byte(request.options.prune ? 1 : 0);
  // Deadline-truncated units must never share entries with unbounded runs
  // of the same spec (the roster/mode knobs are already covered by the
  // canonical solver string above).
  h.I64(request.options.deadline_ms);
  h.Byte(kTagSeed);
  h.U64(seed);
}

}  // namespace

CacheKey HashGraph(const Graph& g) {
  Fnv1a a;
  Fnv1a b(kSecondOffset);
  HashGraphInto(a, g);
  HashGraphInto(b, g);
  return {a.MixedDigest(), b.Digest()};
}

CacheKey CanonicalHash(const CacheKey& graph, const SolveRequest& request,
                       std::uint64_t seed) {
  Fnv1a a(graph.lo);
  Fnv1a b(graph.hi);
  HashUnitInto(a, request, seed);
  HashUnitInto(b, request, seed);
  return {a.MixedDigest(), b.Digest()};
}

std::string CacheKeyToHex(const CacheKey& key) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] =
        kDigits[(key.hi >> (60 - 4 * i)) & 0xf];
    out[static_cast<std::size_t>(16 + i)] =
        kDigits[(key.lo >> (60 - 4 * i)) & 0xf];
  }
  return out;
}

bool CacheKeyFromHex(std::string_view text, CacheKey* key) {
  if (text.size() != 32) return false;
  std::uint64_t words[2] = {0, 0};
  for (std::size_t i = 0; i < 32; ++i) {
    const char c = text[i];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nibble = static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
    words[i / 16] = (words[i / 16] << 4) | nibble;
  }
  key->hi = words[0];
  key->lo = words[1];
  return true;
}

template <class V>
LruCache<V>::LruCache(std::size_t capacity, int shards) {
  const int clamped = std::clamp(shards, 1, 64);
  auto count = std::bit_ceil(static_cast<unsigned>(clamped));
  // Fewer entries than shards: shrink the shard table instead of rounding
  // per-shard capacity up — `capacity` is a bound the operator sized
  // memory by, and resident entries must never exceed it.
  if (capacity > 0 && capacity < count) {
    count = std::bit_floor(static_cast<unsigned>(capacity));
  }
  // Capacity 0 still builds shards (lookups must count misses); per-shard
  // capacity 0 makes every insert a no-op.
  shards_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  capacity_ = capacity;
  per_shard_capacity_ = capacity / count;
}

template <class V>
typename LruCache<V>::Shard& LruCache<V>::ShardFor(
    const CacheKey& key) noexcept {
  // hi is a raw FNV digest, whose low bits are its weakest (hash.hpp):
  // mix before masking into the power-of-two shard table. Buckets inside a
  // shard use lo (already mixed, see CacheKeyHash) — two independent words,
  // so shard skew and bucket skew cannot correlate.
  return *shards_[static_cast<std::size_t>(Mix64(key.hi)) &
                  (shards_.size() - 1)];
}

template <class V>
std::optional<V> LruCache<V>::Lookup(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

template <class V>
void LruCache<V>::Insert(const CacheKey& key, V value) {
  if (per_shard_capacity_ == 0) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.index.emplace(key, shard.lru.begin());
  inserts_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

template <class V>
CacheCounters LruCache<V>::Counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.inserts = inserts_.load(std::memory_order_relaxed);
  c.entries = entries_.load(std::memory_order_relaxed);
  c.capacity = capacity_;
  return c;
}

template class LruCache<SolveResult>;
template class LruCache<std::string>;

}  // namespace dsf
