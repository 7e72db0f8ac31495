#include "exp/bench_json.hpp"

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/app_instance.hpp"

namespace dssoc::exp {

SweepArtifactMeta SweepArtifactMeta::detect() {
  SweepArtifactMeta meta;
  meta.pool_enabled = !core::AppInstancePool{}.disabled();
  meta.spin_fast_forward = core::EmulationOptions{}.spin_fast_forward;
  return meta;
}

json::Value sweep_to_json(const std::string& bench_name, int threads,
                          double total_wall_ms,
                          const std::vector<SweepResult>& results,
                          const SweepArtifactMeta& meta) {
  std::size_t failed = 0;
  std::size_t saturated = 0;
  for (const SweepResult& result : results) {
    failed += result.status == PointStatus::kFailed ? 1u : 0u;
    saturated += result.status == PointStatus::kSaturated ? 1u : 0u;
  }
  json::Object doc;
  doc.set("schema_version", static_cast<std::int64_t>(5));
  doc.set("bench", bench_name);
  doc.set("threads", threads);
  doc.set("total_wall_ms", total_wall_ms);
  doc.set("sweep_mode", meta.sweep_mode);
  doc.set("warmup_wall_ms", meta.warmup_wall_ms);
  doc.set("pool_enabled", meta.pool_enabled);
  doc.set("spin_fast_forward", meta.spin_fast_forward);
  doc.set("fabric", meta.fabric);
  doc.set("worker_respawns", static_cast<std::int64_t>(meta.worker_respawns));
  doc.set("resumed", meta.resumed);
  doc.set("journal_points_reused",
          static_cast<std::int64_t>(meta.journal_points_reused));
  doc.set("interrupted", static_cast<std::int64_t>(meta.interrupted_signal));
  doc.set("point_count", static_cast<std::int64_t>(results.size()));
  doc.set("failed_count", static_cast<std::int64_t>(failed));
  doc.set("saturated_count", static_cast<std::int64_t>(saturated));
  json::Array points;
  points.reserve(results.size());
  for (const SweepResult& result : results) {
    json::Object point;
    point.set("label", result.label);
    point.set("status", std::string(to_string(result.status)));
    point.set("source", std::string(to_string(result.source)));
    point.set("retries", static_cast<std::int64_t>(result.retries));
    if (result.config_hash != 0) {
      point.set("config_hash", format_hex64(result.config_hash));
    }
    if (result.status == PointStatus::kFailed) {
      // No measurement keys: a failed point has no meaningful stats, and
      // their absence is what bench_compare.py keys its refusal logic on.
      point.set("error", result.error);
      points.emplace_back(std::move(point));
      continue;
    }
    point.set("wall_ms", result.wall_ms);
    point.set("makespan_ms", result.stats.makespan_ms());
    point.set("sched_overhead_ms",
              sim_to_ms(result.stats.scheduling_overhead_total));
    point.set("sched_events",
              static_cast<std::int64_t>(result.stats.scheduling_events));
    point.set("avg_sched_overhead_us",
              result.stats.avg_scheduling_overhead_us());
    point.set("tasks", static_cast<std::int64_t>(result.stats.tasks.size()));
    point.set("apps", static_cast<std::int64_t>(result.stats.apps.size()));
    point.set("config", result.stats.config_label);
    point.set("scheduler", result.stats.scheduler_name);
    {
      const core::LatencyStats slo = result.stats.latency_stats();
      point.set("latency_mean_ms", slo.mean_ms);
      point.set("latency_p50_ms", slo.p50_ms);
      point.set("latency_p95_ms", slo.p95_ms);
      point.set("latency_p99_ms", slo.p99_ms);
      point.set("latency_max_ms", slo.max_ms);
      point.set("jitter_ms", slo.jitter_ms);
      point.set("deadline_count",
                static_cast<std::int64_t>(slo.deadline_count));
      point.set("deadline_misses",
                static_cast<std::int64_t>(slo.deadline_misses));
      point.set("deadline_miss_rate", slo.deadline_miss_rate());
    }
    if (result.status == PointStatus::kSaturated) {
      point.set("saturation_ms", sim_to_ms(result.stats.saturation_time));
      point.set("saturation_arrivals",
                static_cast<std::int64_t>(result.stats.saturation_arrivals));
      point.set("saturation_rate_jobs_per_ms",
                result.stats.saturation_rate_jobs_per_ms());
    }
    // The bit-identity proof: resumed and uninterrupted runs of the same
    // sweep must produce equal digests point by point.
    point.set("digest", format_hex64(result.stats.digest()));
    points.emplace_back(std::move(point));
  }
  doc.set("points", std::move(points));
  return json::Value(std::move(doc));
}

void write_json_file(const std::string& path, const json::Value& doc) {
  write_file_atomic(path, doc.dump_pretty() + '\n');
}

}  // namespace dssoc::exp
