// Type-erased front door of the CIOS Montgomery kernels.
//
// MontgomeryContext holds one FixedMontKernel, built at construction by
// make_fixed_mont_kernel for any odd modulus.  The factory needs
// W0 = ceil(limbs / 2) 64-bit words for the modulus and instantiates
// Cios<W> for the smallest compiled width W >= W0: every W in 1..8 (up to
// 512 bits, covering the small protocol profiles' 64/128/160/256-bit
// moduli), then 16, 32 and 64 (1024/2048/4096 bits); widths in between pad
// up with zero top words.  Moduli wider than 4096 bits run the same loop
// with W = W0 read at run time (Cios<kRuntimeWords>).
//
// Interface contract:
//  - values cross the boundary as little-endian 32-bit limb vectors (the
//    BigInt magnitude format), already reduced below the modulus; outputs
//    come back trimmed.  The kernels layer never sees a BigInt (PC010).
//  - Montgomery radix is R = 2^(64 * words()).  Montgomery-form values
//    (to_mont, mul operands) therefore depend on the chosen W; ordinary-
//    form results (mul_mod, pow, from_mont) are the unique residues and
//    do not.
//  - each operation adds the number of Montgomery multiplies it performed
//    to *mont_muls; the caller turns that into obs counters.  pow's
//    schedule (window table build, squarings, final conversion) is fixed
//    by `window_bits`, so counts depend only on the exponent.
//  - scratch lives on the calling thread's stack, sized from W per call
//    (one heap block per call for the run-time width); the only heap
//    allocation on the compile-time paths is the returned result vector.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace pcl::kern {

class FixedMontKernel {
 public:
  virtual ~FixedMontKernel() = default;

  /// Width W in 64-bit words; the Montgomery radix is R = 2^(64 * W).
  [[nodiscard]] virtual std::size_t words() const = 0;

  /// REDC(a * b) for Montgomery-form a, b < modulus.
  [[nodiscard]] virtual std::vector<std::uint32_t> mont_mul(
      std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
      std::uint64_t* mont_muls) const = 0;
  /// x * R mod m for x < modulus.
  [[nodiscard]] virtual std::vector<std::uint32_t> to_mont(
      std::span<const std::uint32_t> x, std::uint64_t* mont_muls) const = 0;
  /// x * R^{-1} mod m for Montgomery-form x < modulus.
  [[nodiscard]] virtual std::vector<std::uint32_t> from_mont(
      std::span<const std::uint32_t> x, std::uint64_t* mont_muls) const = 0;
  /// Full modular product a * b mod m (both ordinary form, < modulus):
  /// one to_mont plus one mont_mul, no double-width intermediate.
  [[nodiscard]] virtual std::vector<std::uint32_t> mul_mod(
      std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
      std::uint64_t* mont_muls) const = 0;
  /// base^exp mod m by fixed-window evaluation (base ordinary form,
  /// < modulus; exp read bit-wise from its limbs) with 2^window_bits
  /// table entries, window_bits in [1, 6].
  [[nodiscard]] virtual std::vector<std::uint32_t> pow(
      std::span<const std::uint32_t> base, std::span<const std::uint32_t> exp,
      std::size_t exp_bits, std::size_t window_bits,
      std::uint64_t* mont_muls) const = 0;
};

/// Kernel for `modulus_limbs` (little-endian 32-bit, trimmed).  Throws
/// std::invalid_argument when the value is empty or even.
[[nodiscard]] std::unique_ptr<const FixedMontKernel> make_fixed_mont_kernel(
    std::span<const std::uint32_t> modulus_limbs);

}  // namespace pcl::kern
