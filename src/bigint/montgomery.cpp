#include "bigint/montgomery.h"

#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace pcl {
namespace {

// Window width for fixed-window exponentiation: balances the 2^(w-1) table
// build against bits/w window multiplications (standard break-even points).
std::size_t window_bits_for(std::size_t exp_bits) {
  if (exp_bits <= 6) return 1;
  if (exp_bits <= 24) return 2;
  if (exp_bits <= 80) return 3;
  if (exp_bits <= 240) return 4;
  if (exp_bits <= 768) return 5;
  return 6;
}

/// Counts `muls` Montgomery multiplies, then wraps the kernel's limbs.
BigInt counted(std::vector<std::uint32_t> limbs, std::uint64_t muls) {
  obs::count(obs::Op::kBigIntModMul, muls);
  obs::count(obs::Op::kBigIntModMulFixed, muls);
  return BigInt::from_limbs(std::move(limbs));
}

}  // namespace

MontgomeryContext::MontgomeryContext(BigInt modulus)
    : modulus_(std::move(modulus)) {
  if (modulus_ <= BigInt(1) || modulus_.is_even()) {
    throw std::invalid_argument(
        "MontgomeryContext requires an odd modulus > 1");
  }
  kernel_ = kern::make_fixed_mont_kernel(modulus_.limb_span());
}

std::shared_ptr<const MontgomeryContext> MontgomeryContext::shared(
    const BigInt& modulus) {
  struct CacheEntry {
    std::shared_ptr<const MontgomeryContext> context;
    std::list<BigInt>::iterator recency;  // position in the LRU list
  };
  using Cache = std::map<BigInt, CacheEntry>;
  // Leaked singletons: lane workers may still resolve contexts while other
  // threads unwind at process exit, so never run these destructors.
  static std::mutex* mutex = new std::mutex;
  static Cache* cache = new Cache;
  static std::list<BigInt>* lru = new std::list<BigInt>;  // front = newest
  std::lock_guard<std::mutex> lock(*mutex);
  const auto it = cache->find(modulus);
  if (it != cache->end()) {
    lru->splice(lru->begin(), *lru, it->second.recency);
    return it->second.context;
  }
  auto context = std::make_shared<const MontgomeryContext>(modulus);
  if (cache->size() >= kSharedCacheCapacity) {
    cache->erase(lru->back());
    lru->pop_back();
  }
  lru->push_front(modulus);
  cache->emplace(modulus, CacheEntry{context, lru->begin()});
  return context;
}

const BigInt& MontgomeryContext::reduced(const BigInt& v,
                                         BigInt& storage) const {
  if (v.is_negative() || v >= modulus_) {
    storage = v.mod(modulus_);
    return storage;
  }
  return v;
}

BigInt MontgomeryContext::to_mont(const BigInt& x) const {
  std::uint64_t muls = 0;
  BigInt scratch;
  auto out = kernel_->to_mont(reduced(x, scratch).limb_span(), &muls);
  return counted(std::move(out), muls);
}

BigInt MontgomeryContext::from_mont(const BigInt& x_mont) const {
  std::uint64_t muls = 0;
  BigInt scratch;
  auto out = kernel_->from_mont(reduced(x_mont, scratch).limb_span(), &muls);
  return counted(std::move(out), muls);
}

BigInt MontgomeryContext::mul(const BigInt& a_mont,
                              const BigInt& b_mont) const {
  std::uint64_t muls = 0;
  BigInt a_scratch, b_scratch;
  auto out = kernel_->mont_mul(reduced(a_mont, a_scratch).limb_span(),
                               reduced(b_mont, b_scratch).limb_span(), &muls);
  return counted(std::move(out), muls);
}

BigInt MontgomeryContext::mul_mod(const BigInt& a, const BigInt& b) const {
  std::uint64_t muls = 0;
  BigInt a_scratch, b_scratch;
  auto out = kernel_->mul_mod(reduced(a, a_scratch).limb_span(),
                              reduced(b, b_scratch).limb_span(), &muls);
  return counted(std::move(out), muls);
}

BigInt MontgomeryContext::pow(const BigInt& base, const BigInt& exp) const {
  if (exp.is_negative()) {
    throw std::invalid_argument("MontgomeryContext::pow: negative exponent");
  }
  obs::count(obs::Op::kBigIntModExp);
  obs::count(obs::Op::kBigIntModExpFixed);
  const std::size_t bits = exp.bit_length();
  std::uint64_t muls = 0;
  BigInt scratch;
  auto out = kernel_->pow(reduced(base, scratch).limb_span(), exp.limb_span(),
                          bits, bits == 0 ? 1 : window_bits_for(bits), &muls);
  return counted(std::move(out), muls);
}

}  // namespace pcl
