#include "layers.h"

#include <fstream>
#include <stdexcept>

#include "bigint/montgomery.h"
#include "crypto/packing.h"
#include "crypto/precompute_service.h"
#include "mpc/blind_permute.h"
#include "mpc/dgk_compare.h"
#include "mpc/he_util.h"
#include "mpc/secure_sum.h"
#include "net/tcp_transport.h"

namespace perfbench {

namespace {

using pcl::BigInt;
using pcl::obs::Op;
using pcl::obs::Span;

/// Keeps probe results observable so the calls cannot be optimised away.
volatile std::size_t g_sink = 0;

/// Seconds per call of `fn`: calls it at least `min_calls` times and until
/// `budget_s` has passed.
template <class F>
double seconds_per_call(double budget_s, std::size_t min_calls, F&& fn) {
  std::size_t calls = 0;
  const double t0 = now_s();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = now_s() - t0;
  } while (calls < min_calls || elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

constexpr double kBudgetS = 0.15;
/// Inner repetitions for the sub-microsecond probes, so the clock read is
/// not what gets measured.
constexpr std::size_t kInner = 64;

std::vector<std::int64_t> random_values(pcl::Rng& rng, std::size_t n,
                                        std::int64_t bound) {
  std::vector<std::int64_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int64_t>(rng.next_u64() %
                                  static_cast<std::uint64_t>(2 * bound)) -
        bound;
  }
  return v;
}

}  // namespace

const std::vector<StepName>& protocol_steps() {
  static const std::vector<StepName> steps = {
      {"Secure Sum (2)", "secure_sum_2"},
      {"Blind-and-Permute (3)", "bnp_3"},
      {"Secure Comparison (4)", "compare_4"},
      {"Threshold Checking (5)", "threshold_5"},
      {"Secure Sum (6)", "secure_sum_6"},
      {"Blind-and-Permute (7)", "bnp_7"},
      {"Secure Comparison (8)", "compare_8"},
      {"Restoration (9)", "restoration_9"},
  };
  return steps;
}

UnitCosts measure_unit_costs(const pcl::ConsensusConfig& config, bool pooled,
                             std::size_t frame_payload_bytes) {
  UnitCosts c;
  // The same derivation ConsensusProtocol's constructor performs, so these
  // are the workload's moduli.
  pcl::DeterministicRng keygen(kKeygenSeed);
  const pcl::ServerPaillierKeys keys =
      pcl::generate_server_paillier_keys(config.paillier_bits, keygen);
  const pcl::DgkKeyPair dgk = pcl::generate_dgk_key(config.dgk_params, keygen);
  const pcl::PaillierPublicKey& pk = keys.s1.pk;
  pcl::DeterministicRng rng(0x6c61796572ULL);

  // ---- bigint: Montgomery multiply and exponentiation -------------------
  {
    Span span("bigint.mul_mod.paillier_n2");
    const pcl::MontgomeryContext& n2 = *pk.mont_n_squared();
    const BigInt a = rng.uniform_below(pk.n_squared());
    const BigInt b = rng.uniform_below(pk.n_squared());
    c.mul_mod_ns_paillier_n2 =
        1e9 / kInner * seconds_per_call(kBudgetS, 1, [&] {
          for (std::size_t i = 0; i < kInner; ++i) {
            g_sink = g_sink + n2.mul_mod(a, b).bit_length();
          }
        });
  }
  {
    Span span("bigint.mul_mod.dgk_n");
    const pcl::MontgomeryContext& dn = *dgk.pk.mont_n();
    const BigInt a = rng.uniform_below(dgk.pk.n());
    const BigInt b = rng.uniform_below(dgk.pk.n());
    c.mul_mod_ns_dgk_n = 1e9 / kInner * seconds_per_call(kBudgetS, 1, [&] {
                           for (std::size_t i = 0; i < kInner; ++i) {
                             g_sink = g_sink + dn.mul_mod(a, b).bit_length();
                           }
                         });
  }
  {
    // Paillier encryption raises r to the n-bit exponent n.
    Span span("bigint.pow.paillier_n2");
    const pcl::MontgomeryContext& n2 = *pk.mont_n_squared();
    const BigInt base = rng.uniform_below(pk.n_squared());
    c.pow_us_paillier_n2 = 1e6 * seconds_per_call(kBudgetS, 3, [&] {
                             g_sink = g_sink + n2.pow(base, pk.n()).bit_length();
                           });
  }
  {
    // DGK blinding raises h to a (2 v + 32)-bit randomizer.
    Span span("bigint.pow.dgk_n");
    const pcl::MontgomeryContext& dn = *dgk.pk.mont_n();
    const BigInt base = rng.uniform_below(dgk.pk.n());
    const BigInt exp = rng.random_bits_exact(2 * dgk.pk.v_bits() + 32);
    c.pow_us_dgk_n = 1e6 * seconds_per_call(kBudgetS, 3, [&] {
                       g_sink = g_sink + dn.pow(base, exp).bit_length();
                     });
  }

  // ---- crypto: public-key and precompute-stream calls ---------------------
  {
    Span span("crypto.precompute_item");
    constexpr std::size_t kItems = 24;
    pcl::PaillierPowerStream stream(pk, 0x706f6f6cULL);
    c.precompute_item_us =
        1e6 / kItems * seconds_per_call(0.0, 1, [&] { stream.generate(kItems); });
  }
  {
    Span span("crypto.paillier_encrypt");
    if (pooled) {
      constexpr std::size_t kItems = 24;
      pcl::PaillierPowerStream stream(pk, 0x656e63ULL);
      stream.generate(kItems);
      c.paillier_encrypt_us = 1e6 / kItems * seconds_per_call(0.0, 1, [&] {
                                for (std::size_t i = 0; i < kItems; ++i) {
                                  g_sink = g_sink + stream.encrypt(BigInt(i))
                                                        .value.bit_length();
                                }
                              });
    } else {
      c.paillier_encrypt_us = 1e6 * seconds_per_call(kBudgetS, 3, [&] {
                                g_sink = g_sink + pk.encrypt(BigInt(42), rng)
                                                      .value.bit_length();
                              });
    }
  }
  const pcl::PaillierCiphertext c1 = pk.encrypt(BigInt(3), rng);
  const pcl::PaillierCiphertext c2 = pk.encrypt(BigInt(5), rng);
  {
    Span span("crypto.paillier_decrypt");
    c.paillier_decrypt_us = 1e6 * seconds_per_call(kBudgetS, 3, [&] {
                              g_sink = g_sink + keys.s1.sk.decrypt(c1).bit_length();
                            });
  }
  {
    Span span("crypto.paillier_add");
    c.paillier_add_ns = 1e9 / kInner * seconds_per_call(kBudgetS, 1, [&] {
                          for (std::size_t i = 0; i < kInner; ++i) {
                            g_sink = g_sink + pk.add(c1, c2).value.bit_length();
                          }
                        });
  }
  {
    Span span("crypto.dgk_encrypt");
    if (pooled) {
      constexpr std::size_t kItems = 256;
      pcl::DgkPowerStream stream(dgk.pk, 0x64676bULL);
      stream.generate(kItems);
      c.dgk_encrypt_us = 1e6 / kItems * seconds_per_call(0.0, 1, [&] {
                           for (std::size_t i = 0; i < kItems; ++i) {
                             g_sink = g_sink + stream.encrypt(std::uint64_t{1})
                                                   .value.bit_length();
                           }
                         });
    } else {
      c.dgk_encrypt_us = 1e6 * seconds_per_call(kBudgetS, 3, [&] {
                           g_sink = g_sink + dgk.pk.encrypt(std::uint64_t{1}, rng)
                                                 .value.bit_length();
                         });
    }
  }
  {
    Span span("crypto.dgk_zero_test");
    const pcl::DgkCiphertext zero = dgk.pk.encrypt(std::uint64_t{0}, rng);
    c.dgk_zero_test_us = 1e6 * seconds_per_call(kBudgetS, 3, [&] {
                           g_sink = g_sink + (dgk.sk.is_zero(zero) ? 1 : 0);
                         });
  }

  // ---- mpc: one step at a time over an in-process Network ---------------
  const std::size_t k = config.num_classes;
  const std::size_t users = config.num_users;
  {
    Span span("mpc.dgk_compare");
    const pcl::DgkCompareContext ctx(dgk.pk, dgk.sk, config.compare_bits);
    const std::int64_t bound = std::int64_t{1} << (config.compare_bits - 3);
    pcl::DeterministicRng r1(11), r2(12);
    c.dgk_compare_ms = 1e3 * seconds_per_call(kBudgetS, 2, [&] {
                         pcl::Network net;
                         const auto xy = random_values(rng, 2, bound);
                         g_sink = g_sink + (pcl::dgk_compare_geq(net, ctx, xy[0],
                                                                 xy[1], r1, r2)
                                                ? 1
                                                : 0);
                       });
  }
  {
    Span span("mpc.secure_sum");
    std::vector<std::vector<std::int64_t>> to_s1, to_s2;
    for (std::size_t u = 0; u < users; ++u) {
      to_s1.push_back(random_values(rng, k, std::int64_t{1} << 17));
      to_s2.push_back(random_values(rng, k, std::int64_t{1} << 17));
    }
    pcl::DeterministicRng users_rng(13);
    if (config.pack_secure_sum) {
      const pcl::PackingLayout layout = pcl::make_packing_layout(
          k, config.share_bits + 3, users + 1, config.paillier_bits - 2);
      c.secure_sum_ms = 1e3 * seconds_per_call(kBudgetS, 1, [&] {
                          pcl::Network net;
                          g_sink = g_sink + pcl::secure_sum_packed(net, keys, layout,
                                                                   to_s1, to_s2,
                                                                   users_rng)
                                                .s1_aggregate.size();
                        });
    } else {
      c.secure_sum_ms = 1e3 * seconds_per_call(kBudgetS, 1, [&] {
                          pcl::Network net;
                          g_sink = g_sink + pcl::secure_sum(net, keys, to_s1, to_s2,
                                                            users_rng)
                                                .s1_aggregate.size();
                        });
    }
  }
  {
    Span span("mpc.blind_permute");
    const auto a = random_values(rng, k, std::int64_t{1} << 17);
    const auto b = random_values(rng, k, std::int64_t{1} << 17);
    const auto held_by_s1 = pcl::encrypt_vector(keys.s2.pk, a, rng);
    const auto held_by_s2 = pcl::encrypt_vector(keys.s1.pk, b, rng);
    pcl::DeterministicRng r1(14), r2(15);
    c.blind_permute_ms = 1e3 * seconds_per_call(kBudgetS, 1, [&] {
                           pcl::Network net;
                           pcl::BlindPermuteSession session(
                               net, keys, k, config.share_bits, r1, r2);
                           const auto out = session.run(
                               held_by_s1, held_by_s2,
                               pcl::BlindPermuteSession::MaskMode::kOppositeSign);
                           g_sink = g_sink + out.s1_seq.size() + session.restore(0);
                         });
  }

  // ---- net: one session-tagged frame through the public codec -----------
  {
    Span span("net.frame_codec");
    pcl::Frame frame;
    frame.kind = pcl::FrameKind::kMessage;
    frame.session = 7;
    frame.step = "Secure Comparison (4)";
    frame.payload.assign(frame_payload_bytes, 0x5a);
    c.frame_codec_ns = 1e9 / kInner * seconds_per_call(kBudgetS, 1, [&] {
                         for (std::size_t i = 0; i < kInner; ++i) {
                           const pcl::Frame back =
                               pcl::decode_frame(pcl::encode_frame(frame));
                           g_sink = g_sink + back.payload.size();
                         }
                       });
  }
  return c;
}

void add_op_totals(const pcl::obs::MetricsRegistry& metrics,
                   TracedPhase& phase) {
  phase.modmul += static_cast<double>(metrics.total(Op::kBigIntModMul));
  phase.modmul_fixed +=
      static_cast<double>(metrics.total(Op::kBigIntModMulFixed));
  phase.modexp += static_cast<double>(metrics.total(Op::kBigIntModExp));
  phase.paillier_encrypt +=
      static_cast<double>(metrics.total(Op::kPaillierEncrypt));
  phase.paillier_decrypt +=
      static_cast<double>(metrics.total(Op::kPaillierDecrypt));
  phase.paillier_add += static_cast<double>(metrics.total(Op::kPaillierAdd));
  phase.dgk_encrypt += static_cast<double>(metrics.total(Op::kDgkEncrypt));
  phase.dgk_zero_test += static_cast<double>(metrics.total(Op::kDgkZeroTest));
  phase.pool_miss += static_cast<double>(metrics.total(Op::kPoolMiss));
}

void add_traffic(const pcl::TrafficStats& stats, TracedPhase& phase) {
  const auto& steps = protocol_steps();
  phase.step_ms.resize(steps.size(), 0.0);
  phase.step_bytes.resize(steps.size(), 0.0);
  phase.step_messages.resize(steps.size(), 0.0);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    phase.step_ms[i] += 1e3 * stats.seconds_for(steps[i].tag);
    phase.step_bytes[i] += static_cast<double>(stats.bytes_for(steps[i].tag));
    phase.step_messages[i] +=
        static_cast<double>(stats.messages_for(steps[i].tag));
  }
}

pcl::obs::TrafficByStep traffic_by_step(const TracedPhase& phase) {
  pcl::obs::TrafficByStep out;
  const auto& steps = protocol_steps();
  for (std::size_t i = 0; i < phase.step_bytes.size(); ++i) {
    out[steps[i].tag] = {static_cast<std::uint64_t>(phase.step_bytes[i]),
                         static_cast<std::uint64_t>(phase.step_messages[i])};
  }
  return out;
}

void normalise(TracedPhase& phase) {
  if (phase.answered <= 0.0) {
    throw std::runtime_error("traced phase answered no query");
  }
  const double q = phase.answered;
  for (double* v : {&phase.modmul, &phase.modmul_fixed, &phase.modexp,
                    &phase.paillier_encrypt, &phase.paillier_decrypt,
                    &phase.paillier_add, &phase.dgk_encrypt,
                    &phase.dgk_zero_test, &phase.pool_miss}) {
    *v /= q;
  }
  for (auto* vec : {&phase.step_ms, &phase.step_bytes, &phase.step_messages}) {
    for (double& v : *vec) v /= q;
  }
}

void add_layer_metrics(Report& report, const TracedPhase& t,
                       const UnitCosts& c, const SessionTimes& sessions,
                       const RoundSamples& untraced_rounds,
                       const RoundSamples& traced_rounds) {
  const double untraced_cpu_ms_per_label = untraced_rounds.cpu_ms_per_label();
  report.add("bigint.mul_mod_ns.paillier_n2", "ns", c.mul_mod_ns_paillier_n2);
  report.add("bigint.mul_mod_ns.dgk_n", "ns", c.mul_mod_ns_dgk_n);
  report.add("bigint.pow_us.paillier_n2", "us", c.pow_us_paillier_n2);
  report.add("bigint.pow_us.dgk_n", "us", c.pow_us_dgk_n);
  report.add("bigint.modmul_per_label", "count", t.modmul);
  report.add("bigint.modexp_per_label", "count", t.modexp);
  report.add("bigint.fixed_kernel_share", "ratio",
             t.modmul > 0.0 ? t.modmul_fixed / t.modmul : 0.0);

  report.add("crypto.paillier_encrypt_us", "us", c.paillier_encrypt_us);
  report.add("crypto.paillier_decrypt_us", "us", c.paillier_decrypt_us);
  report.add("crypto.paillier_add_ns", "ns", c.paillier_add_ns);
  report.add("crypto.dgk_encrypt_us", "us", c.dgk_encrypt_us);
  report.add("crypto.dgk_zero_test_us", "us", c.dgk_zero_test_us);
  report.add("crypto.precompute_item_us", "us", c.precompute_item_us);
  report.add("crypto.paillier_encrypt_per_label", "count", t.paillier_encrypt);
  report.add("crypto.dgk_encrypt_per_label", "count", t.dgk_encrypt);
  report.add("crypto.dgk_zero_test_per_label", "count", t.dgk_zero_test);
  report.add("crypto.pool_miss_per_label", "count", t.pool_miss);
  const double explained_ms =
      (t.paillier_encrypt * c.paillier_encrypt_us +
       t.paillier_decrypt * c.paillier_decrypt_us +
       t.paillier_add * c.paillier_add_ns / 1e3 +
       t.dgk_encrypt * c.dgk_encrypt_us +
       t.dgk_zero_test * c.dgk_zero_test_us) /
      1e3;
  report.add("crypto.explained_share", "ratio",
             untraced_cpu_ms_per_label > 0.0
                 ? explained_ms / untraced_cpu_ms_per_label
                 : 0.0);

  const auto& steps = protocol_steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    report.add(std::string("mpc.step_ms.") + steps[i].suffix, "ms",
               i < t.step_ms.size() ? t.step_ms[i] : 0.0);
  }
  report.add("mpc.dgk_compare_ms", "ms", c.dgk_compare_ms);
  report.add("mpc.secure_sum_ms", "ms", c.secure_sum_ms);
  report.add("mpc.blind_permute_ms", "ms", c.blind_permute_ms);
  report.add("mpc.cpu_utilization", "ratio", untraced_rounds.cpu_utilization());

  for (std::size_t i = 0; i < steps.size(); ++i) {
    report.add(std::string("net.bytes_per_label.") + steps[i].suffix, "bytes",
               i < t.step_bytes.size() ? t.step_bytes[i] : 0.0);
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    report.add(std::string("net.messages_per_label.") + steps[i].suffix,
               "count", i < t.step_messages.size() ? t.step_messages[i] : 0.0);
  }
  std::vector<double> wait_ms;
  for (std::size_t i = 0; i < sessions.latency_ms.size(); ++i) {
    wait_ms.push_back(sessions.latency_ms[i] - sessions.program_ms[i]);
  }
  report.add("net.session_latency_ms_p50", "ms",
             percentile(sessions.latency_ms, 50));
  report.add("net.session_latency_ms_p90", "ms",
             percentile(sessions.latency_ms, 90));
  report.add("net.server_program_ms_p50", "ms",
             percentile(sessions.program_ms, 50));
  report.add("net.session_wait_ms_p50", "ms", percentile(wait_ms, 50));
  report.add("net.frame_codec_ns", "ns", c.frame_codec_ns);

  const double untraced_rate = untraced_rounds.labels_per_s();
  report.add("obs.trace_overhead_share", "ratio",
             (untraced_rate - traced_rounds.labels_per_s()) / untraced_rate);
}

void write_trace(const std::string& path, const pcl::obs::TraceSink& sink,
                 const pcl::obs::TrafficByStep& traffic,
                 const pcl::obs::MetricsRegistry* metrics) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << pcl::obs::build_trace_json(sink, traffic, metrics).dump(0) << '\n';
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
