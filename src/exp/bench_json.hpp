// BENCH_sweep.json: the perf-trajectory artifact sweep-based experiment
// drivers emit (wall time, makespan and scheduling overhead per point, plus
// pool metadata), consumed by CI's perf-smoke job and by longitudinal
// performance tracking. Schema documented in EXPERIMENTS.md.
#pragma once

#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "json/json.hpp"

namespace dssoc::exp {

/// Engine build/run flags stamped into the artifact so longitudinal
/// comparisons know *what* produced the numbers, not just how fast it was.
struct SweepArtifactMeta {
  /// "cold" (every point emulated from time zero), "fork" (points restored
  /// from a shared warmed snapshot), or a driver-specific variant.
  std::string sweep_mode = "cold";
  /// Wall time spent producing the fork-mode warm-up snapshot(s); 0 in
  /// cold mode. This is the cost fork mode pays once instead of per point.
  double warmup_wall_ms = 0.0;
  bool pool_enabled = true;        ///< !DSSOC_POOL_DISABLE
  bool spin_fast_forward = true;   ///< EmulationOptions default
  /// Which execution fabric ran the sweep: "inproc" (SweepRunner threads)
  /// or "proc" (the fault-isolated process pool, exp/proc_pool.hpp).
  std::string fabric = "inproc";
  /// Workers respawned by the process fabric after crashes, timeouts or
  /// garbled frames; always 0 in-process.
  std::size_t worker_respawns = 0;
  /// DSSOC_SWEEP_RESUME=1 found a pre-existing journal (schema 4).
  bool resumed = false;
  /// Points replayed from the sweep journal instead of executed (schema 4).
  std::size_t journal_points_reused = 0;
  /// Signal that gracefully stopped the sweep; 0 = ran to completion. A
  /// nonzero value marks the artifact as *partial* (schema 4).
  int interrupted_signal = 0;

  /// Defaults for this process: the pool flag as core::AppInstancePool sees
  /// it (DSSOC_POOL_DISABLE) and the fast-forward option's default.
  static SweepArtifactMeta detect();
};

/// Builds the artifact document (schema_version 5):
/// {
///   "schema_version": 5,
///   "bench": <driver name>, "threads": N, "total_wall_ms": ...,
///   "sweep_mode": "cold"|"fork"|..., "warmup_wall_ms": ...,
///   "pool_enabled": bool, "spin_fast_forward": bool,
///   "fabric": "inproc"|"proc", "worker_respawns": R,
///   "resumed": bool, "journal_points_reused": J, "interrupted": S,
///   "point_count": P, "failed_count": F, "saturated_count": C,
///   "points": [{"label", "status": "ok"|"failed"|"saturated",
///               "source": "run"|"journal",
///               "retries", "wall_ms", "makespan_ms",
///               "sched_overhead_ms", "sched_events",
///               "avg_sched_overhead_us", "tasks", "apps",
///               "config", "scheduler",
///               "latency_mean_ms", "latency_p50_ms", "latency_p95_ms",
///               "latency_p99_ms", "latency_max_ms", "jitter_ms",
///               "deadline_count", "deadline_misses", "deadline_miss_rate",
///               "saturation_ms"?, "saturation_arrivals"?,
///               "saturation_rate_jobs_per_ms"?,
///               "digest", "config_hash"?}, ...]
/// }
/// A failed point carries {"label", "status": "failed", "source", "retries",
/// "error"} and *no* measurement keys — its stats are meaningless. A
/// *saturated* point carries the full measurement keys (its stats are valid
/// up to the overload cut; makespan_ms is the cut time's last completion)
/// plus the three saturation_* keys. Schema 5 additions over 4: top-level
/// saturated_count, the "saturated" status string, per-point latency
/// percentiles / jitter / deadline-miss keys and the saturation_* keys.
/// Schema 4 additions over 3: top-level resumed / journal_points_reused /
/// interrupted (the stopping signal, 0 = completed), per-point source,
/// per-point digest (16-hex EmulationStats::digest(), the bit-identity
/// proof resume comparisons key on) and — when a journal was attached —
/// config_hash (16-hex canonical point key). tools/bench_compare.py
/// tolerates unknown keys in either document but refuses to diff runs whose
/// non-ok point sets differ, and refuses --update from a resumed run.
json::Value sweep_to_json(const std::string& bench_name, int threads,
                          double total_wall_ms,
                          const std::vector<SweepResult>& results,
                          const SweepArtifactMeta& meta);

/// Writes `doc` pretty-printed to `path` — atomically (temp + fsync +
/// rename, common/atomic_file.hpp), so a driver dying mid-write can never
/// leave a torn artifact where a good one stood. Throws DssocError on I/O
/// failure.
void write_json_file(const std::string& path, const json::Value& doc);

}  // namespace dssoc::exp
