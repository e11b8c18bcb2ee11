#include "serve/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace dsf {

namespace {

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

void HashGraphInto(FnvLanes<2>& h, const Graph& g) {
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

void HashUnitInto(FnvLanes<2>& h, const SolveRequest& request,
                  std::uint64_t seed) {
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
  FnvLanes<2> h(Fnv1a::kOffset, kFnvSecondOffset);
  HashGraphInto(h, g);
  return {h.MixedDigest(0), h.Digest(1)};
}

CacheKey CanonicalHash(const CacheKey& graph, const SolveRequest& request,
                       std::uint64_t seed) {
  FnvLanes<2> h(graph.lo, graph.hi);
  HashUnitInto(h, request, seed);
  return {h.MixedDigest(0), h.Digest(1)};
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

LruCache::LruCache(std::size_t capacity, int shards) {
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

LruCache::Shard& LruCache::ShardFor(const CacheKey& key) noexcept {
  // hi is a raw FNV digest, whose low bits are its weakest (hash.hpp):
  // mix before masking into the power-of-two shard table. Buckets inside a
  // shard use lo (already mixed, see CacheKeyHash) — two independent words,
  // so shard skew and bucket skew cannot correlate.
  return *shards_[static_cast<std::size_t>(Mix64(key.hi)) &
                  (shards_.size() - 1)];
}

std::optional<std::string> LruCache::Lookup(const CacheKey& key) {
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

void LruCache::Insert(const CacheKey& key, std::string value) {
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

CacheCounters LruCache::Counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.inserts = inserts_.load(std::memory_order_relaxed);
  c.entries = entries_.load(std::memory_order_relaxed);
  c.capacity = capacity_;
  return c;
}

namespace {

// ResultCache's entry format. Every integer is a little-endian base-128
// varint, signed ones zigzag-mapped first (reference_weight = -1 is one
// byte); the forest is its length, then each id as the 32-bit wrapping gap
// from the previous one (from 0), so a sorted forest costs about a byte per
// edge and any other order still round-trips. The two doubles are their
// 8-byte bit patterns, so they come back bit-exact.
void PutVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void PutSigned(std::string& out, std::int64_t v) {
  PutVarint(out, (static_cast<std::uint64_t>(v) << 1) ^
                     static_cast<std::uint64_t>(v >> 63));
}

void PutDouble(std::string& out, double d) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &d, sizeof bytes);
  out.append(bytes, sizeof bytes);
}

enum Flag : std::uint8_t {
  kValidated = 1,
  kFeasible = 2,
  kCancelled = 4,
  kHitRoundLimit = 8,
  kStatsCancelled = 16,
};

std::string Encode(const SolveResult& r) {
  // Built in a per-thread buffer that keeps its capacity (inserts come
  // from the admission dispatcher), then copied once at its exact size.
  thread_local std::string out;
  out.clear();
  PutVarint(out, r.solver.size());
  out.append(r.solver);
  PutVarint(out, r.forest.size());
  std::uint32_t prev = 0;
  for (const EdgeId id : r.forest) {
    PutVarint(out, static_cast<std::uint32_t>(id) - prev);
    prev = static_cast<std::uint32_t>(id);
  }
  for (const std::int64_t v :
       {std::int64_t{r.weight}, std::int64_t{r.reference_weight},
        std::int64_t{r.dual_lower_bound}, std::int64_t{r.phases},
        std::int64_t{r.stats.rounds}, std::int64_t{r.stats.messages},
        std::int64_t{r.stats.total_bits},
        std::int64_t{r.stats.max_bits_per_edge_round},
        std::int64_t{r.stats.cut_bits}, std::int64_t{r.stats.cut_messages},
        std::int64_t{r.stats.charged_rounds}, std::int64_t{r.stats.phases},
        std::int64_t{r.transform_rounds}, std::int64_t{r.transform_messages},
        std::int64_t{r.transform_bits}}) {
    PutSigned(out, v);
  }
  out.push_back(static_cast<char>(
      (r.validated ? kValidated : 0) | (r.feasible ? kFeasible : 0) |
      (r.cancelled ? kCancelled : 0) |
      (r.stats.hit_round_limit ? kHitRoundLimit : 0) |
      (r.stats.cancelled ? kStatsCancelled : 0)));
  PutDouble(out, r.approx_ratio);
  PutDouble(out, r.wall_ms);
  return out;  // a copy: its capacity is exactly its size
}

// Reads Encode's output; the bytes never leave the process, so a short or
// malformed entry is a bug, not input.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint64_t Varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      DSF_CHECK_MSG(pos_ < bytes_.size() && shift < 64,
                    "malformed result cache entry");
      const auto byte = static_cast<std::uint8_t>(bytes_[pos_++]);
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (byte < 0x80) return v;
    }
  }
  std::int64_t Signed() {
    const std::uint64_t z = Varint();
    return static_cast<std::int64_t>(z >> 1) ^
           -static_cast<std::int64_t>(z & 1);
  }
  double Double() {
    double d = 0;
    std::memcpy(&d, Take(sizeof d).data(), sizeof d);
    return d;
  }
  std::string_view Take(std::size_t n) {
    DSF_CHECK_MSG(n <= bytes_.size() - pos_, "truncated result cache entry");
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  [[nodiscard]] bool Done() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

SolveResult Decode(std::string_view bytes) {
  Reader in(bytes);
  SolveResult r;
  r.solver = std::string(in.Take(in.Varint()));
  r.forest.resize(in.Varint());
  std::uint32_t prev = 0;
  for (EdgeId& id : r.forest) {
    prev += static_cast<std::uint32_t>(in.Varint());
    id = static_cast<EdgeId>(prev);
  }
  r.weight = in.Signed();
  r.reference_weight = in.Signed();
  r.dual_lower_bound = in.Signed();
  r.phases = static_cast<int>(in.Signed());
  for (long* field :
       {&r.stats.rounds, &r.stats.messages, &r.stats.total_bits,
        &r.stats.max_bits_per_edge_round, &r.stats.cut_bits,
        &r.stats.cut_messages, &r.stats.charged_rounds, &r.stats.phases,
        &r.transform_rounds, &r.transform_messages, &r.transform_bits}) {
    *field = in.Signed();
  }
  const auto flags = static_cast<std::uint8_t>(in.Take(1)[0]);
  r.validated = (flags & kValidated) != 0;
  r.feasible = (flags & kFeasible) != 0;
  r.cancelled = (flags & kCancelled) != 0;
  r.stats.hit_round_limit = (flags & kHitRoundLimit) != 0;
  r.stats.cancelled = (flags & kStatsCancelled) != 0;
  r.approx_ratio = in.Double();
  r.wall_ms = in.Double();
  DSF_CHECK_MSG(in.Done(), "trailing bytes in result cache entry");
  return r;
}

}  // namespace

std::optional<SolveResult> ResultCache::Lookup(const CacheKey& key) {
  const std::optional<std::string> bytes = entries_.Lookup(key);
  if (!bytes) return std::nullopt;
  return Decode(*bytes);
}

void ResultCache::Insert(const CacheKey& key, const SolveResult& value) {
  entries_.Insert(key, Encode(value));
}

}  // namespace dsf
