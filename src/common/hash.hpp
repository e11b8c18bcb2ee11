// Shared non-cryptographic hashing.
//
// Every place the library turns structured data into a 64-bit digest — seed
// derivation (common/random.*), the service layer's canonical instance
// hashing (serve/cache.*), and hash-container key scrambling
// (congest/protocols.hpp) — goes through these two primitives instead of
// ad-hoc mixing:
//
//   * `Mix64`: the SplitMix64 finalizer, a full-avalanche bijection on
//     64-bit words. Cheap enough for per-element container hashing, strong
//     enough that sequential ids do not collide into the same buckets.
//   * `Fnv1a`: streaming FNV-1a over bytes/words for variable-length
//     structures (graphs, instances, option blocks). Callers that need a
//     wider key run two lanes with different offset bases over one stream
//     (`FnvLanes<2>`, see serve/cache.*).
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dsf {

// SplitMix64's golden-gamma increment; exposed so seed-sequence code
// (common/random.*) and hashing agree on one constant.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

// SplitMix64 finalizer (Stafford's Mix13 variant): bijective, full
// avalanche — flipping any input bit flips each output bit with
// probability ~1/2.
[[nodiscard]] constexpr std::uint64_t Mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Folds `v` into an accumulated digest (boost::hash_combine shape with the
// stronger Mix64 scramble).
[[nodiscard]] constexpr std::uint64_t HashCombine(std::uint64_t seed,
                                                  std::uint64_t v) noexcept {
  return Mix64(seed ^ (Mix64(v) + kGoldenGamma + (seed << 6) + (seed >> 2)));
}

namespace fnv_detail {

inline constexpr std::uint64_t kPrime = 0x100000001b3ULL;

// kPow[k] = kPrime^k: k zero bytes advance a state s to s * kPrime^k,
// since (s ^ 0) * kPrime = s * kPrime.
inline constexpr std::array<std::uint64_t, 9> kPow = [] {
  std::array<std::uint64_t, 9> pow{1};
  for (std::size_t k = 1; k < pow.size(); ++k) pow[k] = pow[k - 1] * kPrime;
  return pow;
}();

// Eight 0xff bytes advance s to s * kPrime^8 + kAllOnes[s & 0xff]: each
// step adds a term that depends only on the state's low byte, and the low
// byte of a product depends only on the factors' low bytes.
inline constexpr std::array<std::uint64_t, 256> kAllOnes = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t low = 0; low < table.size(); ++low) {
    std::uint64_t s = low;
    for (int i = 0; i < 8; ++i) s = (s ^ 0xffU) * kPrime;
    table[low] = s - low * kPow[8];
  }
  return table;
}();

}  // namespace fnv_detail

// Streaming 64-bit FNV-1a over N lanes: N independent states (one per
// offset basis) fed one byte stream in one pass, so their multiply chains
// overlap. Word updates hash the value's 8 little-endian bytes, so digests
// are independent of host byte order semantics (we only ever hash values,
// not memory images).
template <std::size_t N>
class FnvLanes {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = fnv_detail::kPrime;

  // Every lane starts at the standard offset basis.
  constexpr FnvLanes() noexcept { lanes_.fill(kOffset); }
  template <std::convertible_to<std::uint64_t>... Offsets>
    requires(sizeof...(Offsets) == N)
  constexpr explicit FnvLanes(Offsets... offsets) noexcept
      : lanes_{static_cast<std::uint64_t>(offsets)...} {}

  constexpr FnvLanes& Byte(std::uint8_t b) noexcept {
    for (std::uint64_t& s : lanes_) s = (s ^ b) * kPrime;
    return *this;
  }

  // Equal to Byte over v's 8 bytes, low first, with the bytes above v's
  // highest set one folded into one multiply and the all-ones word (a
  // hashed kNoLabel) into one multiply and a table lookup.
  constexpr FnvLanes& U64(std::uint64_t v) noexcept {
    if (v == ~std::uint64_t{0}) {
      for (std::uint64_t& s : lanes_) {
        s = s * fnv_detail::kPow[8] + fnv_detail::kAllOnes[s & 0xffU];
      }
      return *this;
    }
    const int bytes = (std::bit_width(v) + 7) / 8;
    for (int i = 0; i < bytes; ++i) {
      Byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    for (std::uint64_t& s : lanes_) {
      s *= fnv_detail::kPow[static_cast<std::size_t>(8 - bytes)];
    }
    return *this;
  }

  constexpr FnvLanes& I64(std::int64_t v) noexcept {
    return U64(static_cast<std::uint64_t>(v));
  }

  constexpr FnvLanes& Bytes(std::string_view s) noexcept {
    for (const char c : s) Byte(static_cast<std::uint8_t>(c));
    return *this;
  }

  // Raw FNV state of one lane. Pass through Mix64 when the digest keys a
  // power-of-two bucket table (FNV's low bits are its weakest).
  [[nodiscard]] constexpr std::uint64_t Digest(std::size_t lane = 0) const
      noexcept {
    return lanes_[lane];
  }
  [[nodiscard]] constexpr std::uint64_t MixedDigest(std::size_t lane = 0) const
      noexcept {
    return Mix64(lanes_[lane]);
  }

 private:
  std::array<std::uint64_t, N> lanes_{};
};

using Fnv1a = FnvLanes<1>;

// Offset basis of the second lane of a 128-bit key: any constant other
// than Fnv1a::kOffset gives an independent digest over the same stream.
inline constexpr std::uint64_t kFnvSecondOffset = 0x6c62272e07bb0142ULL;

// Hash functor for unordered containers keyed by integral ids. libstdc++'s
// std::hash<int> is the identity, which makes bucket occupancy mirror the
// key distribution; routing through Mix64 decorrelates them.
struct IdHash {
  [[nodiscard]] std::size_t operator()(std::uint64_t v) const noexcept {
    return static_cast<std::size_t>(Mix64(v));
  }
  [[nodiscard]] std::size_t operator()(std::int64_t v) const noexcept {
    return static_cast<std::size_t>(Mix64(static_cast<std::uint64_t>(v)));
  }
  [[nodiscard]] std::size_t operator()(std::int32_t v) const noexcept {
    return static_cast<std::size_t>(Mix64(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(v))));
  }
};

}  // namespace dsf
