// CIOS (Coarsely Integrated Operand Scanning) Montgomery kernel — the one
// Montgomery multiply every MontgomeryContext runs.
//
// Operands are arrays of W 64-bit words with unsigned __int128 products; the
// multiply and the reduction are fused into one W-iteration loop (Koç, Acar,
// Kaliski, "Analyzing and Comparing Montgomery Multiplication Algorithms"),
// and all temporaries live in caller-provided scratch.
//
// Width contract: a Cios<W> instance serves any odd modulus that fits in W
// words (top words may be zero — narrower moduli pad up to the next
// instantiated W).  The Montgomery radix is R = 2^(64*W), so Montgomery-form
// values depend on W; ordinary-form results do not.  Compile-time W lets the
// compiler fully unroll the loops at the protocol's widths; W ==
// kRuntimeWords is the same loop with the width read at run time, for
// moduli wider than the largest compile-time instantiation.
//
// This header is intentionally BigInt-free: it sees only raw little-endian
// word arrays, keeping the kernels layer below bigint in the include DAG
// (lint rule PC010).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace pcl::kern {

/// Cios<kRuntimeWords> takes its width from the constructor.
inline constexpr std::size_t kRuntimeWords = 0;

template <std::size_t W>
class Cios {
 public:
  /// `modulus` is `words` little-endian 64-bit words (`words` must equal W
  /// unless W == kRuntimeWords); the value must be odd.  Precomputes
  /// n' = -n^{-1} mod 2^64, R mod n and R^2 mod n by shift-and-reduce (no
  /// division needed at this layer).
  Cios(const std::uint64_t* modulus, std::size_t words) : words_(words) {
    if constexpr (W == kRuntimeWords) {
      n_.resize(words);
      r1_.resize(words);
      r2_.resize(words);
    }
    const std::size_t w = this->words();
    for (std::size_t i = 0; i < w; ++i) n_[i] = modulus[i];
    // Newton iteration on the low word: each step doubles the number of
    // correct low bits of n^{-1} mod 2^64.
    std::uint64_t inv = 1;
    for (int i = 0; i < 6; ++i) inv *= 2u - n_[0] * inv;
    n0inv_ = ~inv + 1u;  // -inv mod 2^64

    // r1 = R mod n via 64*W doublings of 1 mod n; r2 = R^2 mod n via
    // another 64*W doublings of r1.  One-time cost, amortized by the
    // shared-context cache.
    Words acc = r1_;
    for (std::size_t i = 0; i < w; ++i) acc[i] = 0;
    acc[0] = 1;
    reduce_once(acc.data());
    for (std::size_t i = 0; i < 64 * w; ++i) double_mod(acc.data());
    r1_ = acc;
    for (std::size_t i = 0; i < 64 * w; ++i) double_mod(acc.data());
    r2_ = acc;
  }

  /// Width in 64-bit words (a constant for compile-time W).
  [[nodiscard]] std::size_t words() const {
    if constexpr (W == kRuntimeWords) {
      return words_;
    } else {
      return W;
    }
  }
  /// R mod n (Montgomery form of 1) and R^2 mod n (to_mont multiplier).
  [[nodiscard]] const std::uint64_t* r1() const { return r1_.data(); }
  [[nodiscard]] const std::uint64_t* r2() const { return r2_.data(); }

  /// out = a * b * R^{-1} mod n (fused CIOS multiply + reduce).
  /// a, b < n; out may alias a or b; t is words() + 2 words of scratch.
  void mont_mul(std::uint64_t* out, const std::uint64_t* a,
                const std::uint64_t* b, std::uint64_t* t) const {
    // Below 1024 bits the loop is inlined into its callers, where a call
    // is a visible share of one multiply.  From 1024 bits up it stays out
    // of line: inlined at each of pow's call sites it ran pow 5-15% slower,
    // by an amount that moved with the surrounding code's layout.
    if constexpr (W != kRuntimeWords && W < 16) {
      mont_mul_body(out, a, b, t);
    } else {
      mont_mul_outlined(out, a, b, t);
    }
  }

 private:
  [[gnu::noinline]] void mont_mul_outlined(std::uint64_t* out,
                                           const std::uint64_t* a,
                                           const std::uint64_t* b,
                                           std::uint64_t* t) const {
    mont_mul_body(out, a, b, t);
  }

  void mont_mul_body(std::uint64_t* out, const std::uint64_t* a,
                     const std::uint64_t* b, std::uint64_t* t) const {
    using u128 = unsigned __int128;
    const std::size_t w = words();
    const std::uint64_t* n = n_.data();
    for (std::size_t i = 0; i <= w; ++i) t[i] = 0;
    for (std::size_t i = 0; i < w; ++i) {
      // One fused pass: t = (t + a*b[i] + m*n) / 2^64, with m chosen from
      // the would-be low word so the division is exact.  The a*b[i] and
      // m*n chains keep separate carries (each bounded by 2^64 - 1, so the
      // per-word sums never overflow the 128-bit accumulators); fusing
      // them halves the loads/stores of t versus two passes.
      const std::uint64_t bi = b[i];
      u128 s1 = static_cast<u128>(a[0]) * bi + t[0];
      const std::uint64_t m = static_cast<std::uint64_t>(s1) * n0inv_;
      u128 s2 = static_cast<u128>(m) * n[0] + static_cast<std::uint64_t>(s1);
      u128 c1 = s1 >> 64;
      u128 c2 = s2 >> 64;
      for (std::size_t j = 1; j < w; ++j) {
        s1 = static_cast<u128>(a[j]) * bi + t[j] +
             static_cast<std::uint64_t>(c1);
        c1 = s1 >> 64;
        s2 = static_cast<u128>(m) * n[j] + static_cast<std::uint64_t>(s1) +
             static_cast<std::uint64_t>(c2);
        c2 = s2 >> 64;
        t[j - 1] = static_cast<std::uint64_t>(s2);
      }
      // Words W and W+1 of the sum: the invariant t < 2n keeps the new
      // top word in {0, 1}.
      const u128 top = static_cast<u128>(t[w]) +
                       static_cast<std::uint64_t>(c1) +
                       static_cast<std::uint64_t>(c2);
      t[w - 1] = static_cast<std::uint64_t>(top);
      t[w] = static_cast<std::uint64_t>(top >> 64);
    }
    // Final subtraction: t in [0, 2n), one conditional subtract folds it
    // into [0, n).  (Data-dependent, like every bignum path in the repo.)
    if (t[w] != 0 || !less_than(t, n)) {
      sub(out, t, n);
    } else {
      for (std::size_t i = 0; i < w; ++i) out[i] = t[i];
    }
  }

  using Words = std::conditional_t<W == kRuntimeWords,
                                   std::vector<std::uint64_t>,
                                   std::array<std::uint64_t, W>>;

  /// a < b over words() words?
  [[nodiscard]] bool less_than(const std::uint64_t* a,
                               const std::uint64_t* b) const {
    for (std::size_t i = words(); i-- > 0;) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
  }

  /// out = (a - b) mod 2^(64 * words()); out may alias a.
  void sub(std::uint64_t* out, const std::uint64_t* a,
           const std::uint64_t* b) const {
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < words(); ++i) {
      const std::uint64_t ai = a[i];
      const std::uint64_t d = ai - b[i] - borrow;
      borrow = (ai < b[i] || (borrow != 0 && ai == b[i])) ? 1 : 0;
      out[i] = d;
    }
  }

  void reduce_once(std::uint64_t* a) const {
    if (!less_than(a, n_.data())) sub(a, a, n_.data());
  }

  /// a = 2*a mod n (a < n).
  void double_mod(std::uint64_t* a) const {
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < words(); ++i) {
      const std::uint64_t v = a[i];
      a[i] = (v << 1) | carry;
      carry = v >> 63;
    }
    if (carry != 0 || !less_than(a, n_.data())) sub(a, a, n_.data());
  }

  std::size_t words_;
  Words n_{};
  std::uint64_t n0inv_ = 0;  // -n^{-1} mod 2^64
  Words r1_{};               // R mod n (Montgomery form of 1)
  Words r2_{};               // R^2 mod n (to_mont multiplier)
};

}  // namespace pcl::kern
