// Canonical instance hashing and the sharded LRU result cache of the
// service layer (DESIGN.md §5).
//
// Real traffic repeats instances: re-solving a perturbed-but-identical
// request is pure waste once the service is resident. `CanonicalHash` turns
// one unit of solver work — (topology, instance, solver, options, seed) —
// into a 128-bit content key that is independent of request framing: two
// requests that would run the exact same deterministic computation collide
// by construction, and nothing else does (two independent FNV-1a streams
// over the canonical field order; a collision needs both 64-bit digests to
// agree).
//
// `LruCache` is the one LRU of both tiers, from keys to byte strings:
// `ResultCache` keeps finished `SolveResult`s in `dsf serve` encoded as
// bytes, and the shard router's `HotCache` (router.hpp) maps request keys
// to response lines. It is sharded by key so concurrent connection handlers
// do not serialize on one mutex; each shard keeps a std::list in recency
// order plus a std::unordered_map from key to list node. Hit / miss /
// eviction / insert counters are process-wide atomics surfaced through the
// `/stats` request.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "solve/solver.hpp"

namespace dsf {

// 128-bit content key: two independent FNV-1a digests of the same fields.
struct CacheKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& k) const noexcept {
    // lo is already a mixed digest; hi guards against lo-collisions at the
    // equality check, not at bucketing.
    return static_cast<std::size_t>(k.lo);
  }
};

// Digest of a finalized topology (n, m, every edge as (u, v, w) in id
// order). One graph serves many units; hash it once per case and pass the
// digest to CanonicalHash.
[[nodiscard]] CacheKey HashGraph(const Graph& g);

// Wire form of a key: 32 lowercase hex digits (hi then lo). The revise op
// references cached base results by this string, and every solve result
// reports its key so clients can chain revisions.
[[nodiscard]] std::string CacheKeyToHex(const CacheKey& key);
// Strict inverse: exactly 32 hex digits, case-insensitive. False (and *key
// untouched) on anything else.
[[nodiscard]] bool CacheKeyFromHex(std::string_view text, CacheKey* key);

// The canonical key of one unit of solver work. `seed` is the *final*
// per-unit seed (after any master-seed derivation) — the value the solver
// core actually consumes — so batch position and request framing cannot
// split identical computations into distinct keys. Options fold in every
// knob that changes the output (epsilon, repetitions, prune); validate and
// reference accounting do not alter the forest and are excluded.
[[nodiscard]] CacheKey CanonicalHash(const CacheKey& graph, const SolveRequest& request,
                                     std::uint64_t seed);

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserts = 0;
  std::uint64_t entries = 0;   // current resident entries across shards
  std::uint64_t capacity = 0;  // configured total capacity
};

class LruCache {
 public:
  // At most `capacity` resident entries total, spread over `shards`
  // (rounded up to a power of two, clamped to [1, 64], and shrunk when
  // capacity < shards — the capacity bound always wins). One shard keeps
  // recency global. capacity == 0 disables caching (every lookup is a
  // miss, inserts are dropped).
  explicit LruCache(std::size_t capacity, int shards = 1);

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // Copies the cached value out under the shard lock (callers own their
  // copy; no reference escapes the shard). Counts a hit or a miss.
  [[nodiscard]] std::optional<std::string> Lookup(const CacheKey& key);

  // Inserts `value` under `key`, evicting the shard's LRU tail when full.
  // Re-inserting an existing key refreshes recency only. The cache's
  // contract is "any feasible result for this key is a valid answer":
  // most entries are deterministic functions of their key, but
  // mode=first portfolio results and warm-started revise results are
  // admitted too — they differ from a cold solve only within the
  // approximation guarantee, never in feasibility (DESIGN.md §5).
  void Insert(const CacheKey& key, std::string value);

  [[nodiscard]] CacheCounters Counters() const;

 private:
  struct Shard {
    std::mutex mutex;
    // Most-recently-used at the front; the list owns keys + values, the map
    // indexes into it.
    std::list<std::pair<CacheKey, std::string>> lru;
    std::unordered_map<CacheKey,
                       std::list<std::pair<CacheKey, std::string>>::iterator,
                       CacheKeyHash>
        index;
  };

  Shard& ShardFor(const CacheKey& key) noexcept;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_ = 0;
  std::size_t capacity_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> entries_{0};
};

// `dsf serve`'s result cache (ServeOptions::cache_shards sets its shards):
// an LruCache whose entries are SolveResults encoded as one exact-size byte
// string each (varint fields, the sorted forest as varint gaps; cache.cpp).
// A 450-edge churn result costs about a third of its in-memory form
// (DESIGN.md §5). Lookup decodes its copy outside the shard lock;
// counters, capacity and recency behave exactly as LruCache's.
class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity, int shards = 1)
      : entries_(capacity, shards) {}

  [[nodiscard]] std::optional<SolveResult> Lookup(const CacheKey& key);
  void Insert(const CacheKey& key, const SolveResult& value);
  [[nodiscard]] CacheCounters Counters() const { return entries_.Counters(); }

 private:
  LruCache entries_;
};

}  // namespace dsf
