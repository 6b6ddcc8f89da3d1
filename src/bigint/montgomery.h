// Montgomery modular arithmetic over the CIOS kernel.
//
// Modular exponentiation dominates the protocol's CPU cost (every DGK bit
// encryption, zero-test and Paillier operation is a pow_mod).  A
// MontgomeryContext precomputes the Montgomery constants for an odd modulus
// and performs multiplication with cheap word-wise reductions instead of a
// full Knuth division per product.
//
// One kernel tier serves every odd modulus (DESIGN.md §12): a 64-bit-word
// CIOS kernel (src/bigint/kernels/) of W words, W the smallest compiled
// width holding the modulus (1…8, 16, 32, 64 words; a run-time W beyond
// 4096 bits).  The Montgomery radix is R = 2^(64·W), so Montgomery-form
// values (to_mont, mul operands) depend on W; ordinary-form results
// (mul_mod, pow, from_mont) do not.
//
// Exponentiation uses fixed-window (2^w) evaluation, and
// `MontgomeryContext::shared` memoizes contexts in a process-wide LRU
// cache keyed by modulus: the protocol hits the same four moduli (n, n²,
// DGK n, p) millions of times, so the per-modulus setup is paid once.
// BigInt::pow_mod routes every odd-modulus call through this
// automatically; bench_micro_crypto times it at the protocol widths.
//
// Every Montgomery multiply counts obs::Op::kBigIntModMul and every
// exponentiation kBigIntModExp.  The kBigIntModMulFixed/kBigIntModExpFixed
// variants are counted alongside on every op: they date from a two-tier
// design, and the benchmark's fixed_kernel_share still reads them.
#pragma once

#include <cstdint>
#include <memory>

#include "bigint/bigint.h"
#include "bigint/kernels/fixed_mont.h"

namespace pcl {

class MontgomeryContext {
 public:
  /// Requires an odd modulus > 1; throws std::invalid_argument otherwise.
  explicit MontgomeryContext(BigInt modulus);

  /// Process-wide memoized context for `modulus` (mutex-guarded; safe to
  /// call from concurrent lane workers).  Returns the same context for
  /// repeated lookups of the same modulus, so the Montgomery constants are
  /// computed once per modulus per process.  The cache is a true LRU
  /// bounded at kSharedCacheCapacity entries: key-generation churn (one
  /// fresh candidate modulus per Miller–Rabin trial) evicts only the
  /// least-recently-used contexts, so long-lived daemons neither
  /// accumulate dead moduli nor lose their steady-state protocol entries.
  /// Live shared_ptr holders keep their contexts valid across eviction.
  [[nodiscard]] static std::shared_ptr<const MontgomeryContext> shared(
      const BigInt& modulus);

  /// Bound on the shared-context LRU cache (exposed for tests).
  static constexpr std::size_t kSharedCacheCapacity = 64;

  [[nodiscard]] const BigInt& modulus() const { return modulus_; }

  /// Kernel width W in 64-bit words; R = 2^(64·W).
  [[nodiscard]] std::size_t kernel_words() const { return kernel_->words(); }

  /// Montgomery form: x * R mod m.
  [[nodiscard]] BigInt to_mont(const BigInt& x) const;
  [[nodiscard]] BigInt from_mont(const BigInt& x_mont) const;

  /// Montgomery product: REDC(a_mont * b_mont).
  [[nodiscard]] BigInt mul(const BigInt& a_mont, const BigInt& b_mont) const;

  /// Full modular product a * b mod m for ordinary-form operands: one
  /// to_mont plus one Montgomery multiply, replacing the double-width
  /// product + Knuth division of `(a * b).mod(m)` on ciphertext hot paths
  /// (Paillier add/encrypt, DGK add/encrypt/rerandomize).  Negative or
  /// unreduced operands are reduced first.
  [[nodiscard]] BigInt mul_mod(const BigInt& a, const BigInt& b) const;

  /// (base^exp) mod m for non-negative exp; base is in ordinary form.
  /// Fixed-window evaluation: the window width grows with the exponent
  /// length, trading 2^(w-1) precomputed odd powers for bits/w fewer
  /// multiplications.  Counts obs::Op::kBigIntModExp (one per call) so
  /// callers holding a context directly are metered identically to
  /// BigInt::pow_mod.
  [[nodiscard]] BigInt pow(const BigInt& base, const BigInt& exp) const;

 private:
  /// Reference to `v` reduced into [0, m), materializing a copy in
  /// `storage` only when reduction is needed.
  [[nodiscard]] const BigInt& reduced(const BigInt& v, BigInt& storage) const;

  BigInt modulus_;
  std::unique_ptr<const kern::FixedMontKernel> kernel_;
};

}  // namespace pcl
