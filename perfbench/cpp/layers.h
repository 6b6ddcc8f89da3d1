// Per-layer unit costs, measured by calling each module's public functions
// at a workload's own widths (keys regenerated from the workload's config
// and keygen seed, so the moduli are the ones the timed phase used).
#pragma once

#include <cstddef>

#include "common.h"
#include "net/transport.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

struct UnitCosts {
  double mul_mod_ns_paillier_n2 = 0.0;
  double mul_mod_ns_dgk_n = 0.0;
  double pow_us_paillier_n2 = 0.0;
  double pow_us_dgk_n = 0.0;
  double paillier_encrypt_us = 0.0;
  double paillier_decrypt_us = 0.0;
  double paillier_add_ns = 0.0;
  double dgk_encrypt_us = 0.0;
  double dgk_zero_test_us = 0.0;
  double precompute_item_us = 0.0;
  double dgk_compare_ms = 0.0;
  double secure_sum_ms = 0.0;
  double blind_permute_ms = 0.0;
  double frame_codec_ns = 0.0;
};

/// Runs every probe on the calling thread, each inside a benchmark span
/// named after its layer.  `pooled` times Paillier/DGK encryption as the
/// workload performs it: a draw from a warm precompute stream instead of a
/// fresh exponentiation.  `frame_payload_bytes` sizes the codec probe's
/// frame (the workload's mean message).
[[nodiscard]] UnitCosts measure_unit_costs(const pcl::ConsensusConfig& config,
                                           bool pooled,
                                           std::size_t frame_payload_bytes);

/// What one traced phase observed, already divided by queries answered.
struct TracedPhase {
  double answered = 0.0;
  /// Per step (the eight paper step tags): ms of step wall, bytes and
  /// messages, each per answered query.
  std::vector<double> step_ms, step_bytes, step_messages;
  /// Op totals from the program's registries, per answered query.
  double modmul = 0.0, modmul_fixed = 0.0, modexp = 0.0;
  double paillier_encrypt = 0.0, paillier_decrypt = 0.0, paillier_add = 0.0;
  double dgk_encrypt = 0.0, dgk_zero_test = 0.0, pool_miss = 0.0;
};

/// The paper's eight timed steps, as (channel step tag, metric suffix).
struct StepName {
  const char* tag;
  const char* suffix;
};
[[nodiscard]] const std::vector<StepName>& protocol_steps();

/// Adds one registry's op totals (not yet divided) into `phase`.
void add_op_totals(const pcl::obs::MetricsRegistry& metrics,
                   TracedPhase& phase);
/// Adds one TrafficStats' per-step wall, bytes and messages into `phase`.
void add_traffic(const pcl::TrafficStats& stats, TracedPhase& phase);
/// The per-step byte and message sums in the shape pc-trace-v1 carries;
/// call before normalise().
[[nodiscard]] pcl::obs::TrafficByStep traffic_by_step(
    const TracedPhase& phase);
/// Divides the op totals and per-step sums by `phase.answered`.
void normalise(TracedPhase& phase);

/// Session-level timings shared by every workload's net metrics: on
/// `serving` a session is one served query; on the batch workloads it is
/// one protocol execution (a lane batch), whose program time is the sum of
/// its timed step walls.
struct SessionTimes {
  std::vector<double> latency_ms;
  std::vector<double> program_ms;
};

/// Appends every per-layer metric to `report`.  The untraced rounds of the
/// same process give the CPU figures; the two sets of rounds together give
/// the trace overhead.
void add_layer_metrics(Report& report, const TracedPhase& traced,
                       const UnitCosts& costs, const SessionTimes& sessions,
                       const RoundSamples& untraced_rounds,
                       const RoundSamples& traced_rounds);

/// Writes the traced phase's spans (program and benchmark) as pc-trace-v1.
void write_trace(const std::string& path, const pcl::obs::TraceSink& sink,
                 const pcl::obs::TrafficByStep& traffic,
                 const pcl::obs::MetricsRegistry* metrics);

}  // namespace perfbench
