// The two lane-batched workloads, paper-batch and wide-keys: queries go
// through ConsensusProtocol::run_batch_seeded as a sequence of lane batches
// on the in-process transport.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "common.h"
#include "layers.h"
#include "mpc/lane_pool.h"
#include "net/party_runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

using pcl::ConsensusProtocol;

/// Queries per lane batch.  Fixed rather than derived from the host, so
/// every machine does the same work per batch.
constexpr std::size_t kLanes = 8;

struct PlannedBatch {
  Batch votes;
  std::uint64_t base_seed = 0;
};

/// Batch `b` of a run depends only on (seed, b), never on how many batches
/// ran before it.
PlannedBatch plan_batch(const Args& args, const pcl::ConsensusConfig& cfg,
                        std::size_t b) {
  PlannedBatch plan;
  pcl::DeterministicRng rng(pcl::derive_party_seed(args.seed, 2 * b));
  for (std::size_t q = 0; q < kLanes; ++q) {
    plan.votes.push_back(
        make_votes(rng, b * kLanes + q, cfg.num_users, cfg.num_classes));
  }
  plan.base_seed = pcl::derive_party_seed(args.seed, 2 * b + 1);
  return plan;
}

/// What a sequence of timed batches produced.
struct TimedRun {
  std::vector<PlannedBatch> batches;
  std::vector<Label> labels;  ///< every query, in batch then lane order
  std::vector<double> batch_wall_ms;
  std::vector<double> batch_program_ms;
  RoundSamples rounds;
  double bytes = 0.0;
  double messages = 0.0;
  TracedPhase steps;  ///< per-step sums (not yet divided)

  [[nodiscard]] double answered() const {
    return static_cast<double>(labels.size());
  }
  [[nodiscard]] Batch all_votes() const {
    Batch all;
    for (const auto& b : batches) {
      all.insert(all.end(), b.votes.begin(), b.votes.end());
    }
    return all;
  }
};

/// Runs batches first, first+1, ... until `max_batches` ran or `budget_s`
/// has passed (checked between batches, so every batch is whole).
TimedRun run_timed(ConsensusProtocol& protocol, const Args& args,
                   const std::vector<PlannedBatch>* planned, std::size_t first,
                   std::size_t max_batches, double budget_s) {
  TimedRun run;
  protocol.stats().clear();
  const double t0 = now_s();
  for (std::size_t b = first; b < first + max_batches; ++b) {
    if (now_s() - t0 >= budget_s) break;
    PlannedBatch plan = planned != nullptr
                            ? (*planned)[b]
                            : plan_batch(args, protocol.config(), b);
    const double program0 = protocol.stats().total_seconds();
    const double cpu0 = process_cpu_s();
    const double start = now_s();
    const auto results = [&] {
      pcl::obs::Span span("bench.lane_batch");
      return protocol.run_batch_seeded(plan.votes, plan.base_seed);
    }();
    const double wall = now_s() - start;
    run.rounds.add(static_cast<double>(results.size()), wall,
                   process_cpu_s() - cpu0);
    run.batch_wall_ms.push_back(1e3 * wall);
    run.batch_program_ms.push_back(
        1e3 * (protocol.stats().total_seconds() - program0));
    for (const auto& r : results) run.labels.push_back(r.label);
    run.batches.push_back(std::move(plan));
  }
  for (const auto& e : protocol.stats().traffic_entries()) {
    run.bytes += static_cast<double>(e.bytes);
    run.messages += static_cast<double>(e.messages);
  }
  add_traffic(protocol.stats(), run.steps);
  run.steps.answered = run.answered();
  return run;
}

void add_end_to_end(Report& report, const TimedRun& run, double setup_s) {
  const double q = run.answered();
  report.add("labels_per_s", "1/s", run.rounds.labels_per_s());
  report.add("latency_ms_p50", "ms", median(run.batch_wall_ms));
  report.add("cpu_ms_per_label", "ms", run.rounds.cpu_ms_per_label());
  report.add("bytes_per_label", "bytes", run.bytes / q);
  report.add("messages_per_label", "count", run.messages / q);
  report.add("setup_s", "s", setup_s);
  report.add("peak_rss_mb", "MB", peak_rss_mb());
}

/// Concatenates an untraced and a traced run for the correctness checks.
TimedRun concat(TimedRun a, const TimedRun& b) {
  a.batches.insert(a.batches.end(), b.batches.begin(), b.batches.end());
  a.labels.insert(a.labels.end(), b.labels.begin(), b.labels.end());
  return a;
}

/// Check "lane_replay": sampled lanes equal sequential run_query_seeded
/// replays of their lane seeds.
void check_lane_replay(ConsensusProtocol& protocol, const TimedRun& run,
                       std::size_t samples, std::uint64_t seed,
                       Checks& checks) {
  pcl::DeterministicRng rng(pcl::derive_party_seed(seed, 0x6c616e65ULL));
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t b = rng.index_below(run.batches.size());
    const std::size_t q = rng.index_below(kLanes);
    Label expected = run.labels[b * kLanes + q];
    if (checks.broken("lane_replay")) expected = expected ? std::nullopt : Label(0);
    const Label replay =
        protocol
            .run_query_seeded(run.batches[b].votes[q],
                              pcl::derive_party_seed(run.batches[b].base_seed, q))
            .label;
    std::ostringstream detail;
    detail << "batch " << b << " lane " << q << ": lane " << (expected ? *expected : -1)
           << ", sequential replay " << (replay ? *replay : -1);
    checks.expect("lane_replay", replay == expected, detail.str());
  }
}

struct BatchWorkload {
  pcl::ConsensusConfig cfg;
  /// Number of batches in the timed phase; 0 = as many as fit the run.
  std::size_t fixed_batches = 0;
  bool pooled = false;
};

/// Shared timed phase: set-up is done by the caller (protocol constructed,
/// streams warmed); this runs the timed phase(s), the checks and fills the
/// report.  `extra_checks` runs workload-specific checks on the combined
/// run.
template <class ExtraChecks>
Report drive(ConsensusProtocol& protocol, const BatchWorkload& w,
             const Args& args, const std::vector<PlannedBatch>* planned,
             ExtraChecks&& extra_checks) {
  const double setup_s = since_start_s();
  Report report;
  Checks checks(args.break_check);
  const std::size_t all = w.fixed_batches == 0
                              ? std::numeric_limits<std::size_t>::max() / 2
                              : w.fixed_batches;
  const double inf = std::numeric_limits<double>::infinity();
  TimedRun combined;
  if (!args.trace) {
    const TimedRun run = run_timed(protocol, args, planned, 0, all,
                                   w.fixed_batches == 0 ? args.seconds : inf);
    add_end_to_end(report, run, setup_s);
    combined = run;
  } else {
    // Untraced half, then the same workload traced: the difference in
    // labels/s is the tracing overhead.
    const std::size_t half = w.fixed_batches == 0 ? all : (all + 1) / 2;
    const double budget = w.fixed_batches == 0 ? args.seconds / 2 : inf;
    const TimedRun untraced =
        run_timed(protocol, args, planned, 0, half, budget);
    pcl::obs::TraceSink sink;
    pcl::obs::MetricsRegistry metrics;
    pcl::obs::ObserverScope bench_scope(&sink, nullptr, "bench");
    protocol.set_observer(&sink, &metrics);
    TimedRun traced =
        run_timed(protocol, args, planned, untraced.batches.size(),
                  w.fixed_batches == 0 ? all : all - half, budget);
    protocol.set_observer(nullptr, nullptr);
    add_op_totals(metrics, traced.steps);
    const pcl::obs::TrafficByStep traffic = traffic_by_step(traced.steps);
    normalise(traced.steps);

    const double frame_bytes =
        traced.messages > 0 ? traced.bytes / traced.messages : 0.0;
    const UnitCosts costs = measure_unit_costs(
        protocol.config(), w.pooled, static_cast<std::size_t>(frame_bytes));
    SessionTimes sessions{untraced.batch_wall_ms, untraced.batch_program_ms};
    add_layer_metrics(report, traced.steps, costs, sessions, untraced.rounds,
                      traced.rounds);
    if (!args.trace_out.empty()) {
      write_trace(args.trace_out, sink, traffic, &metrics);
    }
    combined = concat(untraced, traced);
  }
  report.attempted = combined.labels.size();
  report.failed = 0;  // a failing query throws, which fails the whole run

  // Workload checks first: they may read state (pool counters) that the
  // extra queries of the noise oracle would move.
  extra_checks(combined, checks);
  const Batch votes = combined.all_votes();
  check_noise_oracle(protocol, votes, 2, args.seed, checks);
  check_release_rate(protocol.config(), votes, combined.labels, checks);
  checks.finish();
  report.correct = checks.all_passed();
  return report;
}

std::vector<std::string> party_names(std::size_t users) {
  std::vector<std::string> names = {"S1", "S2"};
  for (std::size_t u = 0; u < users; ++u) {
    names.push_back("user:" + std::to_string(u));
  }
  return names;
}

}  // namespace

Report run_paper_batch(const Args& args) {
  // ConsensusConfig defaults are the paper's prototype (64-bit Paillier,
  // 256-bit DGK, ell = 52, sigma1 = 10, sigma2 = 4, T = 0.6 |U|, all-pairs
  // argmax); only the population is set here.
  BatchWorkload w;
  w.cfg.num_classes = 10;
  w.cfg.num_users = 20;
  pcl::DeterministicRng keygen(kKeygenSeed);
  ConsensusProtocol protocol(w.cfg, keygen);
  Args warm = args;
  warm.seed = kWarmupSeed;
  (void)protocol.run_batch_seeded(plan_batch(warm, w.cfg, 0).votes,
                                  kWarmupSeed);
  return drive(protocol, w, args, nullptr,
               [&](const TimedRun& run, Checks& checks) {
                 check_lane_replay(protocol, run, 2, args.seed, checks);
               });
}

Report run_wide_keys(const Args& args) {
  BatchWorkload w;
  w.cfg.num_classes = 10;
  w.cfg.num_users = 5;
  w.cfg.sigma1 = 1.0;
  w.cfg.sigma2 = 0.5;
  w.cfg.paillier_bits = 1024;
  w.cfg.dgk_params.n_bits = 1024;
  w.cfg.argmax_strategy = pcl::ArgmaxStrategy::kTournament;
  w.cfg.pack_secure_sum = true;
  w.pooled = true;
  // One online second costs about ten offline CPU seconds here, so the
  // timed phase is a fixed number of warmed batches, one per second of
  // --seconds (about 0.7 s each on a 4-core host), not a time budget.
  w.fixed_batches = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(args.seconds)));
  pcl::PrecomputeService service;
  w.cfg.precompute = &service;
  pcl::DeterministicRng keygen(kKeygenSeed);
  ConsensusProtocol protocol(w.cfg, keygen);

  std::vector<PlannedBatch> planned;
  for (std::size_t b = 0; b < w.fixed_batches; ++b) {
    planned.push_back(plan_batch(args, w.cfg, b));
  }

  // Offline phase.  A cold run of two unanimous template lanes measures
  // each party's per-lane stream demand (pool misses); every timed lane is
  // then warmed with the larger of the two, which covers a released lane
  // and over-provisions a lane that ends in ⊥.
  const std::vector<std::string> parties = party_names(w.cfg.num_users);
  constexpr std::uint64_t kTemplateSeed = 0x74656d706cULL;
  Batch template_votes;
  for (std::size_t q = 0; q < 2; ++q) {
    template_votes.emplace_back(
        w.cfg.num_users, std::vector<double>(w.cfg.num_classes, 0.0));
    for (auto& v : template_votes.back()) v[q] = 1.0;
  }
  const auto template_labels =
      protocol.run_batch_seeded(template_votes, kTemplateSeed);
  if (!template_labels[0].label && !template_labels[1].label) {
    throw std::runtime_error("template lanes released nothing");
  }
  struct Demand {
    std::uint64_t pk1 = 0, pk2 = 0, dgk = 0;
  };
  std::map<std::string, Demand> demand;
  for (std::size_t q = 0; q < template_votes.size(); ++q) {
    const std::uint64_t lane_seed = pcl::derive_party_seed(kTemplateSeed, q);
    for (const std::string& party : parties) {
      const pcl::PartyPrecompute pre = protocol.party_precompute(party, lane_seed);
      Demand& d = demand[party];
      d.pk1 = std::max(d.pk1, pre.powers_pk1->stats().misses);
      d.pk2 = std::max(d.pk2, pre.powers_pk2->stats().misses);
      if (pre.dgk_powers != nullptr) {
        d.dgk = std::max(d.dgk, pre.dgk_powers->stats().misses);
      }
    }
  }
  struct Job {
    pcl::PaillierPowerStream* paillier = nullptr;
    pcl::DgkPowerStream* dgk = nullptr;
    std::uint64_t count = 0;
  };
  std::vector<Job> jobs;
  for (const PlannedBatch& plan : planned) {
    for (std::size_t q = 0; q < kLanes; ++q) {
      const std::uint64_t lane_seed = pcl::derive_party_seed(plan.base_seed, q);
      for (const std::string& party : parties) {
        const pcl::PartyPrecompute pre =
            protocol.party_precompute(party, lane_seed);
        const Demand& d = demand[party];
        jobs.push_back({pre.powers_pk1, nullptr, d.pk1});
        jobs.push_back({pre.powers_pk2, nullptr, d.pk2});
        if (pre.dgk_powers != nullptr) jobs.push_back({nullptr, pre.dgk_powers, d.dgk});
      }
    }
  }
  pcl::LanePool::shared().run(jobs.size(), [&jobs](std::size_t i) {
    const Job& job = jobs[i];
    if (job.paillier != nullptr) job.paillier->generate(job.count);
    if (job.dgk != nullptr) job.dgk->generate(job.count);
  });
  const std::uint64_t misses_before_online = service.totals().misses;

  return drive(protocol, w, args, &planned, [&](const TimedRun& run,
                                                Checks& checks) {
    // "pool_warm": the offline phase covered the online demand, so the
    // timed phase generated nothing inline.
    std::uint64_t online_misses =
        service.totals().misses - misses_before_online;
    if (checks.broken("pool_warm")) online_misses += 1;
    checks.expect("pool_warm", online_misses == 0,
                  std::to_string(online_misses) +
                      " precompute draws missed the warmed pools");

    // "small_keys": labels depend only on votes and seeded noise, so a
    // 64-bit Paillier / 256-bit DGK protocol without packing or precompute
    // must release the same label for every query.
    pcl::ConsensusConfig small = w.cfg;
    small.paillier_bits = 64;
    small.dgk_params = pcl::DgkParams{};
    small.pack_secure_sum = false;
    small.precompute = nullptr;
    pcl::DeterministicRng small_keygen(kKeygenSeed);
    ConsensusProtocol reference(small, small_keygen);
    for (std::size_t b = 0; b < run.batches.size(); ++b) {
      const auto ref = reference.run_batch_seeded(run.batches[b].votes,
                                                  run.batches[b].base_seed);
      for (std::size_t q = 0; q < kLanes; ++q) {
        Label expected = ref[q].label;
        if (checks.broken("small_keys") && b == 0 && q == 0) {
          expected = expected ? std::nullopt : Label(0);
        }
        const Label got = run.labels[b * kLanes + q];
        std::ostringstream detail;
        detail << "batch " << b << " lane " << q << ": 1024-bit "
               << (got ? *got : -1) << ", small-key " << (expected ? *expected : -1);
        checks.expect("small_keys", got == expected, detail.str());
      }
    }
  });
}

}  // namespace perfbench
