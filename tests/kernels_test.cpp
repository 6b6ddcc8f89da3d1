// CIOS Montgomery kernel (src/bigint/kernels/): width dispatch and padding,
// every instantiated width against the naive BigInt reference, the REDC
// final-subtraction carries at the edge of each width, and the op-count
// contract that DESIGN.md §12 documents.
#include "bigint/kernels/fixed_mont.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "bigint/montgomery.h"
#include "bigint/rng.h"
#include "obs/trace.h"

namespace pcl {
namespace {

using kern::make_fixed_mont_kernel;

// Moduli of exactly 64·W bits for every compile-time W (1…8, 16, 32, 64),
// the padded widths (96 and 160 bits fill part of their top word, 1056
// bits pads 17 words up to 32), and one width past 4096 bits (the
// run-time-W instantiation).
constexpr std::size_t kPaddedBits[] = {96, 160, 1056};
constexpr std::size_t kTestedBits[] = {64,  128,  192,  256, 320, 384,
                                       448, 512,  1024, 2048, 4096, 96,
                                       160, 1056, 4160};

BigInt odd_modulus_exact(std::size_t bits, Rng& rng) {
  BigInt m = rng.random_bits_exact(bits);
  if (m.is_even()) m += BigInt(1);
  return m;
}

/// base^exp mod m by plain square-and-multiply on BigInt (no Montgomery).
BigInt ladder_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt acc(1);
  BigInt b = base.mod(m);
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) acc = (acc * b).mod(m);
    b = (b * b).mod(m);
  }
  return acc.mod(m);
}

TEST(FixedMontKernel, ContextDispatchAndPolicy) {
  // Kernel width = ceil(limbs / 2) words, padded up to the next compiled
  // width (1…8, 16, 32, 64); wider moduli keep their exact word count.
  DeterministicRng rng(12);
  const std::pair<std::size_t, std::size_t> kBitsToWords[] = {
      {2, 1},     {64, 1},    {65, 2},    {96, 2},    {128, 2},
      {160, 3},   {192, 3},   {256, 4},   {512, 8},   {513, 16},
      {1024, 16}, {1056, 32}, {2048, 32}, {2049, 64}, {4096, 64},
      {4097, 65}, {4160, 65}};
  for (const auto& [bits, words] : kBitsToWords) {
    const BigInt m = bits == 2 ? BigInt(3) : odd_modulus_exact(bits, rng);
    EXPECT_EQ(MontgomeryContext(m).kernel_words(), words) << bits;
    EXPECT_EQ(make_fixed_mont_kernel(m.limb_span())->words(), words) << bits;
  }
  // Montgomery needs gcd(m, R) = 1: even and empty moduli are refused.
  const BigInt even_1024 = odd_modulus_exact(1024, rng) + BigInt(1);
  EXPECT_THROW((void)make_fixed_mont_kernel(even_1024.limb_span()),
               std::invalid_argument);
  EXPECT_THROW((void)make_fixed_mont_kernel(std::vector<std::uint32_t>{}),
               std::invalid_argument);
}

TEST(FixedMontKernel, EveryWidthMatchesNaiveReference) {
  // Every instantiated width, padded widths and the run-time width against
  // plain BigInt arithmetic: (a*b) mod m, a square-and-multiply ladder, and
  // the radix rule to_mont(x) = x·2^(64·W) mod m.  Exponents run from 1 to
  // 470 bits (window widths 1 to 5), and one 800-bit exponent per width
  // takes the 6-bit window.
  DeterministicRng rng(13);
  for (const std::size_t bits : kTestedBits) {
    const BigInt m = odd_modulus_exact(bits, rng);
    const MontgomeryContext ctx(m);
    const BigInt r = (BigInt(1) << (64 * ctx.kernel_words())).mod(m);
    const BigInt base = rng.uniform_below(m);
    const BigInt wide_exp = rng.random_bits_exact(800);
    EXPECT_EQ(ctx.pow(base, wide_exp), ladder_pow(base, wide_exp, m)) << bits;
    for (int trial = 0; trial < 8; ++trial) {
      const BigInt a = rng.uniform_below(m);
      const BigInt b = rng.uniform_below(m);
      const BigInt e = rng.random_bits(1 + (trial * 67) % 512);
      EXPECT_EQ(ctx.mul_mod(a, b), (a * b).mod(m)) << bits;
      EXPECT_EQ(ctx.pow(a, e), ladder_pow(a, e, m)) << bits;
      const BigInt a_mont = ctx.to_mont(a);
      EXPECT_EQ(a_mont, (a * r).mod(m)) << bits;
      EXPECT_EQ(ctx.from_mont(a_mont), a) << bits;
      EXPECT_EQ(ctx.from_mont(ctx.mul(a_mont, ctx.to_mont(b))),
                (a * b).mod(m))
          << bits;
    }
  }
}

TEST(FixedMontKernel, RedcFinalSubtractionAtLimbBoundary) {
  // Moduli chosen to force the REDC final conditional subtraction and the
  // t[W] overflow word: all-ones (2^bits - 1, the largest odd value at the
  // width) and 2^bits - 3 keep intermediate sums at the carry edge.  At
  // padded widths the same moduli sit below zero top words.
  DeterministicRng rng(14);
  std::vector<std::size_t> widths = {64, 192, 256, 512, 1024, 2048, 4096};
  widths.insert(widths.end(), std::begin(kPaddedBits), std::end(kPaddedBits));
  for (const std::size_t bits : widths) {
    for (const int delta : {1, 3}) {
      const BigInt m = (BigInt(1) << bits) - BigInt(delta);
      ASSERT_TRUE(m.is_odd());
      ASSERT_EQ(m.bit_length(), bits);
      const MontgomeryContext ctx(m);
      // Operands at the top of the range maximize the unreduced product.
      const BigInt top = m - BigInt(1);
      EXPECT_EQ(ctx.mul_mod(top, top), (top * top).mod(m)) << bits;
      const BigInt e = rng.random_bits(96);
      EXPECT_EQ(ctx.pow(top, e), ladder_pow(top, e, m)) << bits;
      for (int trial = 0; trial < 4; ++trial) {
        const BigInt a = rng.uniform_below(m);
        EXPECT_EQ(ctx.mul_mod(a, top), (a * top).mod(m)) << bits;
        EXPECT_EQ(ctx.from_mont(ctx.to_mont(a)), a) << bits;
      }
    }
  }
}

TEST(FixedMontKernel, UnreducedAndNegativeOperandsReduceFirst) {
  DeterministicRng rng(15);
  const BigInt m = odd_modulus_exact(256, rng);
  const MontgomeryContext ctx(m);
  const BigInt big = m * BigInt(7) + rng.uniform_below(m);  // base >= modulus
  const BigInt b = rng.uniform_below(m);
  EXPECT_EQ(ctx.mul_mod(big, b), (big * b).mod(m));
  EXPECT_EQ(ctx.pow(big, BigInt(5)), BigInt::pow_mod(big.mod(m), BigInt(5), m));
  EXPECT_EQ(ctx.mul_mod(BigInt(-3), b), ((m - BigInt(3)) * b).mod(m));
  EXPECT_EQ(ctx.pow(BigInt(-2), BigInt(2)), BigInt(4));
}

TEST(FixedMontKernel, PowExponentEdgeCases) {
  DeterministicRng rng(16);
  const BigInt m = odd_modulus_exact(512, rng);
  const MontgomeryContext ctx(m);
  const BigInt a = rng.uniform_below(m);
  EXPECT_EQ(ctx.pow(a, BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx.pow(a, BigInt(1)), a);
  EXPECT_EQ(ctx.pow(BigInt(0), BigInt(9)), BigInt(0));
  EXPECT_EQ(ctx.pow(BigInt(1), BigInt(1) << 200), BigInt(1));
  // Exponent with every window pattern: all-ones exponent exercises every
  // table entry at the widest window.
  const BigInt ones = (BigInt(1) << 300) - BigInt(1);
  EXPECT_EQ(ctx.pow(a, ones), BigInt::pow_mod(a, ones, m));
  EXPECT_THROW((void)ctx.pow(a, BigInt(-1)), std::invalid_argument);
}

TEST(FixedMontKernel, OpCountsAreTierInvariant) {
  // The multiply schedule is a function of the exponent alone, pinned here
  // in closed form for a padded (160-bit), an exact (1024-bit) and the
  // run-time (4160-bit) width: one to_mont, 2^w - 2 table products, w
  // squarings per window after the first, one product per nonzero window,
  // one from_mont.  Every op also counts in the _fixed variants.
  DeterministicRng rng(17);
  for (const std::size_t bits : {160u, 1024u, 4160u}) {
    const BigInt m = odd_modulus_exact(bits, rng);
    const BigInt base = rng.uniform_below(m);
    const BigInt exp = rng.random_bits_exact(300);  // window width 5
    const std::size_t w = 5;
    const std::size_t windows = (300 + w - 1) / w;
    std::uint64_t nonzero = 0;
    for (std::size_t wi = 0; wi + 1 < windows; ++wi) {
      std::size_t v = 0;
      for (std::size_t j = 0; j < w; ++j) v |= exp.bit(wi * w + j) ? 1u : 0u;
      nonzero += v != 0 ? 1 : 0;
    }
    const std::uint64_t pow_muls =
        1 + ((1u << w) - 2) + (windows - 1) * w + nonzero + 1;

    const MontgomeryContext ctx(m);
    obs::MetricsRegistry reg;
    {
      const obs::ObserverScope scope(nullptr, &reg, "t");
      (void)ctx.pow(base, exp);
      (void)ctx.mul_mod(base, base);
    }
    EXPECT_EQ(reg.total(obs::Op::kBigIntModMul), pow_muls + 2) << bits;
    EXPECT_EQ(reg.total(obs::Op::kBigIntModExp), 1u) << bits;
    EXPECT_EQ(reg.total(obs::Op::kBigIntModMulFixed), pow_muls + 2) << bits;
    EXPECT_EQ(reg.total(obs::Op::kBigIntModExpFixed), 1u) << bits;
  }
}

TEST(SharedCacheLru, EvictsLeastRecentlyUsedOnly) {
  // Fill the cache to capacity, keep the oldest entry warm by touching it,
  // then overflow: the warm entry must survive (same pointer), while an
  // untouched early entry is rebuilt on re-lookup (different pointer).
  DeterministicRng rng(19);
  const auto fresh_modulus = [&] {
    BigInt m = rng.random_bits_exact(96);
    if (m.is_even()) m += BigInt(1);
    return m;
  };
  const BigInt warm = fresh_modulus();
  const BigInt cold = fresh_modulus();
  const auto warm_ctx = MontgomeryContext::shared(warm);
  const auto cold_ctx = MontgomeryContext::shared(cold);
  // Fill to one below capacity, then touch `warm` so `cold` is the LRU.
  for (std::size_t i = 0; i + 2 < MontgomeryContext::kSharedCacheCapacity;
       ++i) {
    (void)MontgomeryContext::shared(fresh_modulus());
  }
  (void)MontgomeryContext::shared(warm);
  // Two more insertions evict exactly the two least-recent entries; `warm`
  // was just touched and must still be cached.
  (void)MontgomeryContext::shared(fresh_modulus());
  (void)MontgomeryContext::shared(fresh_modulus());
  EXPECT_EQ(MontgomeryContext::shared(warm).get(), warm_ctx.get());
  EXPECT_NE(MontgomeryContext::shared(cold).get(), cold_ctx.get());
  // The evicted context stays usable through its shared_ptr.
  const BigInt x = rng.uniform_below(cold);
  EXPECT_EQ(cold_ctx->pow(x, BigInt(3)), BigInt::pow_mod(x, BigInt(3), cold));
}

}  // namespace
}  // namespace pcl
