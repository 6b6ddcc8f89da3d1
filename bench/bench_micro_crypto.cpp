// Micro-benchmarks (google-benchmark) for the crypto substrate, with key-
// size ablations.  These are not a paper table; they quantify the design
// choices DESIGN.md calls out: Paillier cost vs key size, DGK encryption /
// zero-test cost, the per-comparison cost that dominates Table I, and the
// bignum primitives underneath.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "bigint/montgomery.h"
#include "bigint/primes.h"
#include "crypto/dgk.h"
#include "crypto/paillier.h"
#include "mpc/dgk_compare.h"
#include "net/transport.h"

namespace {

using namespace pcl;

void BM_BigIntMul(benchmark::State& state) {
  DeterministicRng rng(1);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt a = rng.random_bits_exact(bits);
  const BigInt b = rng.random_bits_exact(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BigIntDivMod(benchmark::State& state) {
  DeterministicRng rng(2);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt a = rng.random_bits_exact(2 * bits);
  const BigInt b = rng.random_bits_exact(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::div_mod(a, b));
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(64)->Arg(256)->Arg(1024);

void BM_BigIntPowMod(benchmark::State& state) {
  DeterministicRng rng(3);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const BigInt m = rng.random_bits_exact(bits);
  const BigInt base = rng.uniform_below(m);
  const BigInt exp = rng.random_bits_exact(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::pow_mod(base, exp, m));
  }
}
BENCHMARK(BM_BigIntPowMod)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// The pow_mod ablation triple, at the moduli the protocol actually runs
// (DGK n at 1024, Paillier n^2 at 2048 bits): the division-based
// square-and-multiply BigInt::pow_mod used before the Montgomery routing,
// the fixed-window Montgomery kernel with a context built per call, and
// the steady-state path through the process-wide context cache.  The bulk
// of the win is the kernel (no trial division per step + 4-bit windows);
// the cache then makes the remaining per-call setup (R^2 mod m, inverse
// limb, window table base) a one-time cost per modulus, which is what the
// lane-batched pipeline leans on when thousands of exponentiations share
// one key.  The cached leg also runs at the small perfbench widths (64 to
// 256 bits), where it is the per-width pow figure next to BM_MontMulMod.

void BM_PowModNaiveReference(benchmark::State& state) {
  DeterministicRng rng(12);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = rng.random_bits_exact(bits);
  if (m.is_even()) m += BigInt(1);
  const BigInt base = rng.uniform_below(m);
  const BigInt exp = rng.random_bits_exact(bits);
  for (auto _ : state) {
    BigInt acc(1);
    BigInt b = base;
    for (std::size_t i = 0; i < exp.bit_length(); ++i) {
      if (exp.bit(i)) acc = (acc * b).mod(m);
      b = (b * b).mod(m);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PowModNaiveReference)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_PowModFreshContext(benchmark::State& state) {
  DeterministicRng rng(12);  // same seed: identical operands across the triple
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = rng.random_bits_exact(bits);
  if (m.is_even()) m += BigInt(1);
  const BigInt base = rng.uniform_below(m);
  const BigInt exp = rng.random_bits_exact(bits);
  for (auto _ : state) {
    const MontgomeryContext ctx(m);
    benchmark::DoNotOptimize(ctx.pow(base, exp));
  }
}
BENCHMARK(BM_PowModFreshContext)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_PowModCachedContext(benchmark::State& state) {
  DeterministicRng rng(12);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = rng.random_bits_exact(bits);
  if (m.is_even()) m += BigInt(1);
  const BigInt base = rng.uniform_below(m);
  const BigInt exp = rng.random_bits_exact(bits);
  const auto ctx = MontgomeryContext::shared(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->pow(base, exp));
  }
}
BENCHMARK(BM_PowModCachedContext)->Arg(64)->Arg(128)->Arg(160)->Arg(256)
    ->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

// Montgomery cost at the modulus widths the perfbench workloads run, on a
// cached context (the production path): 64/128 bits (Paillier n and n² of
// the 64-bit-key profiles), 160 bits (serving's DGK n), 256 bits
// (paper-batch's DGK n), 1024/2048 bits (wide-keys' DGK n and Paillier
// n²).  Every width runs the one CIOS kernel (DESIGN.md §12); 160 bits
// pads to three 64-bit words.  BM_PowModCachedContext above covers pow
// at the same widths.

void BM_MontMulMod(benchmark::State& state) {
  DeterministicRng rng(13);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BigInt m = rng.random_bits_exact(bits);
  if (m.is_even()) m += BigInt(1);
  const BigInt a = rng.uniform_below(m);
  const BigInt b = rng.uniform_below(m);
  const auto ctx = MontgomeryContext::shared(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->mul_mod(a, b));
  }
}
BENCHMARK(BM_MontMulMod)->Arg(64)->Arg(128)->Arg(160)->Arg(256)->Arg(1024)
    ->Arg(2048);

void BM_PrimeGeneration(benchmark::State& state) {
  DeterministicRng rng(4);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_prime(bits, rng));
  }
}
BENCHMARK(BM_PrimeGeneration)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_PaillierEncrypt(benchmark::State& state) {
  DeterministicRng rng(5);
  const auto key = generate_paillier_key(
      static_cast<std::size_t>(state.range(0)), rng);
  const BigInt m(123456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.pk.encrypt(m, rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  DeterministicRng rng(6);
  const auto key = generate_paillier_key(
      static_cast<std::size_t>(state.range(0)), rng);
  const PaillierCiphertext c = key.pk.encrypt(BigInt(-987654), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sk.decrypt(c));
  }
}
BENCHMARK(BM_PaillierDecrypt)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierHomomorphicAdd(benchmark::State& state) {
  DeterministicRng rng(7);
  const auto key = generate_paillier_key(64, rng);
  const PaillierCiphertext c1 = key.pk.encrypt(BigInt(17), rng);
  const PaillierCiphertext c2 = key.pk.encrypt(BigInt(25), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.pk.add(c1, c2));
  }
}
BENCHMARK(BM_PaillierHomomorphicAdd);

void BM_DgkEncrypt(benchmark::State& state) {
  DeterministicRng rng(8);
  DgkParams params;
  params.n_bits = static_cast<std::size_t>(state.range(0));
  params.v_bits = 40;
  params.plaintext_bound = 256;
  const auto key = generate_dgk_key(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.pk.encrypt(std::uint64_t{1}, rng));
  }
}
BENCHMARK(BM_DgkEncrypt)->Arg(160)->Arg(192)->Arg(256)->Arg(384)
    ->Unit(benchmark::kMicrosecond);

void BM_DgkZeroTest(benchmark::State& state) {
  DeterministicRng rng(9);
  DgkParams params;
  params.n_bits = static_cast<std::size_t>(state.range(0));
  params.v_bits = 40;
  params.plaintext_bound = 256;
  const auto key = generate_dgk_key(params, rng);
  const DgkCiphertext c = key.pk.encrypt(std::uint64_t{0}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sk.is_zero(c));
  }
}
BENCHMARK(BM_DgkZeroTest)->Arg(160)->Arg(192)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_DgkCompare(benchmark::State& state) {
  // The unit cost behind Table I's dominant steps, as a function of the
  // comparison bit-width ell.
  DeterministicRng rng(10);
  DgkParams params;
  params.n_bits = 192;
  params.v_bits = 40;
  params.plaintext_bound = 256;
  const auto key = generate_dgk_key(params, rng);
  const std::size_t ell = static_cast<std::size_t>(state.range(0));
  const DgkCompareContext ctx(key.pk, key.sk, ell);
  std::int64_t x = 12345, y = -9876;
  for (auto _ : state) {
    Network net;
    benchmark::DoNotOptimize(dgk_compare_geq(net, ctx, x, y, rng, rng));
    std::swap(x, y);
  }
}
BENCHMARK(BM_DgkCompare)->Arg(16)->Arg(32)->Arg(52)
    ->Unit(benchmark::kMillisecond);

void BM_DgkCompareShared(benchmark::State& state) {
  // The secret-shared-output variant (one extra bit width, one fewer
  // message round).
  DeterministicRng rng(11);
  DgkParams params;
  params.n_bits = 192;
  params.v_bits = 40;
  params.plaintext_bound = 256;
  const auto key = generate_dgk_key(params, rng);
  const std::size_t ell = static_cast<std::size_t>(state.range(0));
  const DgkCompareContext ctx(key.pk, key.sk, ell);
  std::int64_t x = 4321, y = -1234;
  for (auto _ : state) {
    Network net;
    benchmark::DoNotOptimize(dgk_compare_geq_shared(net, ctx, x, y, rng, rng));
    std::swap(x, y);
  }
}
BENCHMARK(BM_DgkCompareShared)->Arg(16)->Arg(32)->Arg(52)
    ->Unit(benchmark::kMillisecond);

/// Console reporter that also keeps every repetition's wall time per
/// iteration, so the pc-bench-v1 record carries median, quartiles and
/// spread rather than one shot.
class RepetitionCollector : public benchmark::ConsoleReporter {
 public:
  /// Colors only on a terminal, like google-benchmark's default reporter.
  RepetitionCollector()
      : ConsoleReporter(isatty(STDOUT_FILENO) != 0 ? OO_Defaults
                                                   : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations == 0) {
        continue;
      }
      samples_[run.run_name.function_name + "/" + run.run_name.args]
          .push_back(run.real_accumulated_time * 1e9 /
                     static_cast<double>(run.iterations));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  /// "<bench>/<arg>.{median,q1,q3}_ns" and ".spread" ((q3 - q1) / median)
  /// per benchmark, plus the largest repetition count seen.
  void record(pclbench::BenchRecorder& recorder) const {
    std::size_t repetitions = 0;
    for (const auto& [name, raw] : samples_) {
      std::vector<double> ns = raw;
      std::sort(ns.begin(), ns.end());
      const auto quantile = [&](double p) {
        const double pos = p * static_cast<double>(ns.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, ns.size() - 1);
        return ns[lo] + (ns[hi] - ns[lo]) * (pos - static_cast<double>(lo));
      };
      const double median = quantile(0.5);
      recorder.set_param(name + ".median_ns", median);
      recorder.set_param(name + ".q1_ns", quantile(0.25));
      recorder.set_param(name + ".q3_ns", quantile(0.75));
      recorder.set_param(name + ".spread",
                         (quantile(0.75) - quantile(0.25)) / median);
      repetitions = std::max(repetitions, ns.size());
    }
    recorder.set_param("repetitions", static_cast<double>(repetitions));
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the uniform bench flags (--json) are
// stripped before google-benchmark sees the command line.
int main(int argc, char** argv) {
  pclbench::BenchCli cli = pclbench::parse_bench_cli(argc, argv);
  pclbench::BenchRecorder recorder("bench_micro_crypto");
  const pcl::obs::ObserverScope obs_scope(&recorder.trace(),
                                          &recorder.metrics(), "bench");
  int bench_argc = static_cast<int>(cli.passthrough_argv.size());
  benchmark::Initialize(&bench_argc, cli.passthrough_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             cli.passthrough_argv.data())) {
    return 1;
  }
  RepetitionCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  reporter.record(recorder);
  if (!cli.json_path.empty()) recorder.write_json(cli.json_path);
  return 0;
}
