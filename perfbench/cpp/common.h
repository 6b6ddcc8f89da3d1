// Shared pieces of the perfbench workloads: command line, the result
// record printed as the run's last line, process-level clocks (wall, CPU,
// peak RSS), vote generation, the plaintext Alg. 4 oracle and the
// correctness checks every workload runs after its timed phase.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mpc/consensus.h"

namespace perfbench {

using Votes = std::vector<std::vector<double>>;  ///< [user][class]
using Batch = std::vector<Votes>;                ///< [query][user][class]
using Label = std::optional<int>;                ///< nullopt = ⊥

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// File the traced mode writes its pc-trace-v1 document to.
  std::string trace_out;
  /// Name of one correctness check to break on purpose (its reference
  /// value is perturbed), to show that the check fails the run.
  std::string break_check;
};

/// Keys are part of the deployment, not of the inputs: every workload
/// generates them from this fixed seed, so set-up cost does not wander
/// with the prime search of a per-run seed.
inline constexpr std::uint64_t kKeygenSeed = 7;

/// Seeds the untimed warm-up work done at the end of set-up.  The first
/// protocol run of a process is intermittently far slower than the same run
/// repeated (a lane batch of paper-batch: 1.5-1.7 s against 0.8-0.9 s), so
/// timing starts after one.
inline constexpr std::uint64_t kWarmupSeed = 0x7761726dULL;

/// Seconds since this process started (static initialisation).
[[nodiscard]] double since_start_s();
[[nodiscard]] double now_s();
/// User + system CPU seconds of the whole process (every thread).
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] std::size_t nproc();

[[nodiscard]] double median(std::vector<double> v);
/// Percentile by the nearest-rank method (p in [0, 100]).
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The vote mix of bench/bench_batch_pipeline: a clear majority per query,
/// and every fourth query (by `query_index`) contested — odd users vote
/// for a random class — so both ⊥ and lane drop-out occur.
[[nodiscard]] Votes make_votes(pcl::Rng& rng, std::size_t query_index,
                               std::size_t users, std::size_t classes);

/// Per-class vote counts.
[[nodiscard]] std::vector<double> vote_counts(const Votes& votes);

/// Plaintext Alg. 4, written out here rather than taken from src/dp:
/// release iff max(counts) + z1 >= T, then argmax(counts + z2) (lowest
/// index on ties).
[[nodiscard]] Label plaintext_alg4(const std::vector<double>& counts,
                                   double threshold, double z1,
                                   const std::vector<double>& z2);

/// Collected check results; a failed check makes the run incorrect.
class Checks {
 public:
  explicit Checks(std::string broken) : broken_(std::move(broken)) {}
  /// True when `name` is the check the run was asked to break.
  [[nodiscard]] bool broken(const std::string& name) const {
    return broken_ == name;
  }
  void expect(const std::string& name, bool ok, const std::string& detail);
  [[nodiscard]] bool all_passed() const { return failures_.empty(); }
  /// Fails the run when the requested check name was never exercised, so
  /// a typo cannot pass for a working check.
  void finish();

 private:
  std::string broken_;
  std::vector<std::string> seen_;
  std::vector<std::string> failures_;
};

/// Check "noise_oracle": re-runs `count` of the run's vote vectors through
/// run_query_with_noise_seeded with noise drawn here, and compares each
/// label with plaintext_alg4 under that same noise.
void check_noise_oracle(pcl::ConsensusProtocol& protocol, const Batch& votes,
                        std::size_t count, std::uint64_t seed, Checks& checks);

/// Check "release_rate": the number of released labels must lie within
/// kReleaseSigmas standard deviations of sum_q Phi((top_q - T) / sigma1),
/// the release count Thm. 5's threshold noise N(0, sigma1^2) implies.
inline constexpr double kReleaseSigmas = 4.0;
void check_release_rate(const pcl::ConsensusConfig& config,
                        const Batch& votes, const std::vector<Label>& labels,
                        Checks& checks);

/// Per-round samples of a timed phase; a round is one lane batch, or one
/// closed-loop round of sessions.  Rates are medians over rounds, so a
/// transient stall on a shared host moves them less than a run total would.
struct RoundSamples {
  std::vector<double> answered, wall_s, cpu_s;
  void add(double n, double wall, double cpu) {
    answered.push_back(n);
    wall_s.push_back(wall);
    cpu_s.push_back(cpu);
  }
  [[nodiscard]] double labels_per_s() const;
  [[nodiscard]] double cpu_ms_per_label() const;
  /// CPU seconds / (wall seconds x nproc) over the whole phase.
  [[nodiscard]] double cpu_utilization() const;
};

/// One metric of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
};

/// Prints the result as one JSON object on the last line of stdout.
void print_report(const Report& report);

}  // namespace perfbench
