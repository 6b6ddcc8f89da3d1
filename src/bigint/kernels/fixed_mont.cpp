#include "bigint/kernels/fixed_mont.h"

#include <array>
#include <stdexcept>
#include <type_traits>

#include "bigint/kernels/cios.h"

namespace pcl::kern {
namespace {

// Largest window the pow table is sized for (MontgomeryContext's
// window_bits_for tops out at 6).
constexpr std::size_t kMaxWindowBits = 6;

/// Per-call scratch: `Slots` operand buffers of the kernel width, plus two
/// words so the last slot can hold the CIOS accumulator (words + 2).
/// Compile-time widths live on the stack, left uninitialized because every
/// word is written before it is read; the run-time width takes one heap
/// block per call.
template <std::size_t W, std::size_t Slots>
class Scratch {
 public:
  explicit Scratch(std::size_t words) : words_(words) {
    if constexpr (W == kRuntimeWords) buf_.resize(Slots * words + 2);
  }
  [[nodiscard]] std::uint64_t* slot(std::size_t i) {
    return buf_.data() + i * words_;
  }

 private:
  std::size_t words_;
  std::conditional_t<W == kRuntimeWords, std::vector<std::uint64_t>,
                     std::array<std::uint64_t, Slots * W + 2>>
      buf_;
};

void load_words(std::span<const std::uint32_t> limbs, std::uint64_t* out,
                std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t lo = 2 * i < limbs.size() ? limbs[2 * i] : 0;
    const std::uint64_t hi = 2 * i + 1 < limbs.size() ? limbs[2 * i + 1] : 0;
    out[i] = lo | (hi << 32);
  }
}

std::vector<std::uint32_t> store_limbs(const std::uint64_t* in,
                                       std::size_t words) {
  std::vector<std::uint32_t> out(2 * words);
  for (std::size_t i = 0; i < words; ++i) {
    out[2 * i] = static_cast<std::uint32_t>(in[i]);
    out[2 * i + 1] = static_cast<std::uint32_t>(in[i] >> 32);
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

void copy_words(const std::uint64_t* from, std::uint64_t* to,
                std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) to[i] = from[i];
}

/// The plain integer 1 (not its Montgomery form): multiplying by it is
/// REDC, i.e. from_mont.
void set_one(std::uint64_t* out, std::size_t words) {
  out[0] = 1;
  for (std::size_t i = 1; i < words; ++i) out[i] = 0;
}

bool exp_bit(std::span<const std::uint32_t> exp, std::size_t bit) {
  const std::size_t limb = bit / 32;
  if (limb >= exp.size()) return false;
  return (exp[limb] >> (bit % 32)) & 1u;
}

template <std::size_t W>
class CiosKernel final : public FixedMontKernel {
 public:
  CiosKernel(const std::uint64_t* modulus, std::size_t words)
      : cios_(modulus, words) {}

  [[nodiscard]] std::size_t words() const override { return cios_.words(); }

  [[nodiscard]] std::vector<std::uint32_t> mont_mul(
      std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
      std::uint64_t* mont_muls) const override {
    const std::size_t w = cios_.words();
    Scratch<W, 3> s(w);
    load_words(a, s.slot(0), w);
    load_words(b, s.slot(1), w);
    cios_.mont_mul(s.slot(0), s.slot(0), s.slot(1), s.slot(2));
    *mont_muls += 1;
    return store_limbs(s.slot(0), w);
  }

  [[nodiscard]] std::vector<std::uint32_t> to_mont(
      std::span<const std::uint32_t> x,
      std::uint64_t* mont_muls) const override {
    const std::size_t w = cios_.words();
    Scratch<W, 2> s(w);
    load_words(x, s.slot(0), w);
    cios_.mont_mul(s.slot(0), s.slot(0), cios_.r2(), s.slot(1));
    *mont_muls += 1;
    return store_limbs(s.slot(0), w);
  }

  [[nodiscard]] std::vector<std::uint32_t> from_mont(
      std::span<const std::uint32_t> x,
      std::uint64_t* mont_muls) const override {
    const std::size_t w = cios_.words();
    Scratch<W, 3> s(w);
    load_words(x, s.slot(0), w);
    set_one(s.slot(1), w);
    cios_.mont_mul(s.slot(0), s.slot(0), s.slot(1), s.slot(2));
    *mont_muls += 1;
    return store_limbs(s.slot(0), w);
  }

  [[nodiscard]] std::vector<std::uint32_t> mul_mod(
      std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
      std::uint64_t* mont_muls) const override {
    const std::size_t w = cios_.words();
    Scratch<W, 3> s(w);
    load_words(a, s.slot(0), w);
    load_words(b, s.slot(1), w);
    // aR = a * R, then aR * b * R^{-1} = a * b mod m.
    cios_.mont_mul(s.slot(0), s.slot(0), cios_.r2(), s.slot(2));
    cios_.mont_mul(s.slot(0), s.slot(0), s.slot(1), s.slot(2));
    *mont_muls += 2;
    return store_limbs(s.slot(0), w);
  }

  [[nodiscard]] std::vector<std::uint32_t> pow(
      std::span<const std::uint32_t> base, std::span<const std::uint32_t> exp,
      std::size_t exp_bits, std::size_t window_bits,
      std::uint64_t* mont_muls) const override {
    if (window_bits == 0 || window_bits > kMaxWindowBits) {
      throw std::invalid_argument("CIOS kernel: window width out of range");
    }
    const std::size_t w = cios_.words();
    // Slots: the 2^6-entry window table, then acc, one, CIOS accumulator.
    constexpr std::size_t kTable = std::size_t{1} << kMaxWindowBits;
    Scratch<W, kTable + 3> s(w);
    std::uint64_t* acc = s.slot(kTable);
    std::uint64_t* one = s.slot(kTable + 1);
    std::uint64_t* t = s.slot(kTable + 2);
    set_one(one, w);
    if (exp_bits == 0) {
      // base^0 = 1: from_mont(R mod m), one REDC.
      cios_.mont_mul(acc, cios_.r1(), one, t);
      *mont_muls += 1;
      return store_limbs(acc, w);
    }

    const std::size_t table_size = std::size_t{1} << window_bits;
    // table[v] = base^v in Montgomery form.
    const auto entry = [&](std::size_t v) { return s.slot(v); };
    std::uint64_t muls = 0;
    copy_words(cios_.r1(), entry(0), w);  // base^0 = mont(1)
    load_words(base, entry(1), w);
    cios_.mont_mul(entry(1), entry(1), cios_.r2(), t);  // to_mont(base)
    ++muls;
    for (std::size_t v = 2; v < table_size; ++v) {
      cios_.mont_mul(entry(v), entry(v - 1), entry(1), t);
      ++muls;
    }

    const auto window_value = [&](std::size_t wi) {
      std::size_t v = 0;
      for (std::size_t j = window_bits; j-- > 0;) {
        const std::size_t bit = wi * window_bits + j;
        v = (v << 1) | (bit < exp_bits && exp_bit(exp, bit) ? 1u : 0u);
      }
      return v;
    };

    const std::size_t windows = (exp_bits + window_bits - 1) / window_bits;
    copy_words(entry(window_value(windows - 1)), acc, w);
    for (std::size_t wi = windows - 1; wi-- > 0;) {
      for (std::size_t j = 0; j < window_bits; ++j) {
        cios_.mont_mul(acc, acc, acc, t);
        ++muls;
      }
      const std::size_t v = window_value(wi);
      if (v != 0) {
        cios_.mont_mul(acc, acc, entry(v), t);
        ++muls;
      }
    }
    cios_.mont_mul(acc, acc, one, t);  // from_mont
    ++muls;
    *mont_muls += muls;
    return store_limbs(acc, w);
  }

 private:
  Cios<W> cios_;
};

template <std::size_t W>
std::unique_ptr<const FixedMontKernel> make_kernel(
    std::span<const std::uint32_t> limbs, std::size_t words) {
  std::vector<std::uint64_t> modulus(words);
  load_words(limbs, modulus.data(), words);
  return std::make_unique<const CiosKernel<W>>(modulus.data(), words);
}

}  // namespace

std::unique_ptr<const FixedMontKernel> make_fixed_mont_kernel(
    std::span<const std::uint32_t> modulus_limbs) {
  if (modulus_limbs.empty() || (modulus_limbs[0] & 1u) == 0) {
    throw std::invalid_argument("CIOS kernel: modulus must be odd");
  }
  const std::size_t words = (modulus_limbs.size() + 1) / 2;
  switch (words) {
    case 1: return make_kernel<1>(modulus_limbs, 1);
    case 2: return make_kernel<2>(modulus_limbs, 2);
    case 3: return make_kernel<3>(modulus_limbs, 3);
    case 4: return make_kernel<4>(modulus_limbs, 4);
    case 5: return make_kernel<5>(modulus_limbs, 5);
    case 6: return make_kernel<6>(modulus_limbs, 6);
    case 7: return make_kernel<7>(modulus_limbs, 7);
    case 8: return make_kernel<8>(modulus_limbs, 8);
    default: break;
  }
  if (words <= 16) return make_kernel<16>(modulus_limbs, 16);
  if (words <= 32) return make_kernel<32>(modulus_limbs, 32);
  if (words <= 64) return make_kernel<64>(modulus_limbs, 64);
  return make_kernel<kRuntimeWords>(modulus_limbs, words);
}

}  // namespace pcl::kern
