// The sweep entry point: one SweepEnv describes how a sweep runs, and
// run_sweep() honors every field of it — overrides, fabric, width, journal,
// resume, retry policy and fault injection — then hands back the results
// with the bookkeeping every experiment driver used to hand-roll (wall
// timing, artifact meta, resume/failure summaries, BENCH_sweep.json
// emission and the interrupted-sweep exit protocol). Drivers declare their
// points and their tables; everything else lives here.
//
// SweepEnv::from_env() is the only reader of the sweep's environment
// variables (the DSSOC_SWEEP_* family, DSSOC_FAULT_INJECT, DSSOC_SCHED,
// DSSOC_ARRIVALS and DSSOC_BENCH_JSON). It parses strictly: a malformed
// value, or a DSSOC_SWEEP_* name it does not know, throws ConfigError
// naming the variable. Code that builds a SweepEnv by hand gets exactly the
// fields it sets, whatever the environment says.
//
//   std::vector<exp::SweepPoint> points = ...;
//   exp::SweepRun run = exp::run_sweep(points, exp::SweepEnv::from_env());
//   ... render tables from run.execution.results ...
//   return run.finish("bench_fig9");
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/bench_json.hpp"
#include "exp/proc_pool.hpp"
#include "exp/sweep.hpp"

namespace dssoc::exp {

/// How a sweep runs. Each field names the environment variable from_env()
/// reads it from; an unset or empty variable keeps the default.
struct SweepEnv {
  /// DSSOC_SWEEP_FABRIC: "inproc" (SweepRunner threads; the variable also
  /// accepts "off") or "proc" (the fault-isolated ProcessPool, falling back
  /// to in-process when it cannot start).
  std::string fabric = "inproc";
  /// DSSOC_SWEEP_MODE verbatim ("", "cold", "fork", ...); meaning is
  /// driver-specific (bench_fig10's warm-prefix modes), validated there.
  std::string mode;
  /// DSSOC_SWEEP_THREADS: threads (inproc) or worker processes (proc);
  /// 0 sizes either fabric to the host.
  int threads = 0;
  /// DSSOC_SWEEP_JOURNAL: append every terminal result to this durable
  /// journal (exp/journal.hpp), whichever fabric runs. Empty = no journal.
  std::string journal_path;
  /// DSSOC_SWEEP_RESUME=1 (requires journal_path): replay journaled ok
  /// results whose config hash matches instead of executing those points.
  bool resume = false;
  /// DSSOC_SWEEP_RETRIES / DSSOC_SWEEP_TIMEOUT_MS / DSSOC_SWEEP_BACKOFF_MS
  /// and DSSOC_FAULT_INJECT (exp/proc_pool.hpp). The fault plan's
  /// killsup@K applies on both fabrics; its worker faults need "proc".
  ProcessPoolOptions pool;
  /// DSSOC_BENCH_JSON: where finish() writes the BENCH_sweep.json artifact.
  /// Empty = no artifact.
  std::string bench_json_path;
  /// DSSOC_SCHED: when set, overrides every point's scheduling policy —
  /// any registry name or "policy:..." spec (policy/register.hpp), e.g.
  /// DSSOC_SCHED=policy:table:weights.json. Empty = keep driver defaults.
  std::string scheduler_override;
  /// DSSOC_ARRIVALS: when set, overrides every point's arrival trace — an
  /// "arrivals:..." spec (core/arrivals.hpp) regenerated per point over the
  /// point's declared time_frame with the point's own seed, e.g.
  /// DSSOC_ARRIVALS=arrivals:poisson:app=TX,rate_per_ms=2. Composes with
  /// DSSOC_SCHED (traffic and policy override independently). Points that
  /// declare no injection window (time_frame == 0) reject the override with
  /// a ConfigError naming the point. Empty = keep driver workloads.
  std::string arrivals_override;

  /// Reads every field above from the environment (see file comment).
  static SweepEnv from_env();
};

/// One sweep execution's results plus which fabric actually ran it — the
/// metadata BENCH_sweep.json schema 4 stamps into the artifact.
struct SweepExecution {
  std::vector<SweepResult> results;
  std::string fabric = "inproc";  ///< "inproc" or "proc"
  int width = 0;                  ///< threads (inproc) or workers (proc)
  std::size_t worker_respawns = 0;
  std::size_t points_failed = 0;
  /// True when a resume found a pre-existing journal to resume from (even
  /// one that ended up contributing zero reusable records).
  bool resumed = false;
  /// Points replayed from the journal instead of executed.
  std::size_t journal_points_reused = 0;
  /// Signal that gracefully stopped the run (0 = ran to completion);
  /// unresolved points are kFailed with an "interrupted" error.
  int interrupted_signal = 0;

  /// Labels + reasons of failed points, for driver-side reporting.
  std::vector<const SweepResult*> failed() const;
};

/// Driver-side failure report: one line per failed point (label, reason,
/// attempts), or the empty string when every point completed. Drivers print
/// this after their tables so a contained failure is visible without
/// digging into the JSON artifact.
std::string failure_summary(const std::vector<SweepResult>& results);

/// Driver-side resume report: one line naming how many points were replayed
/// from the journal vs. re-executed, or the empty string when no journal
/// reuse happened.
std::string resume_summary(const SweepExecution& execution);

/// One executed sweep plus the bookkeeping finish() needs.
struct SweepRun {
  SweepExecution execution;
  double total_wall_ms = 0.0;
  SweepArtifactMeta meta;
  /// SweepEnv::bench_json_path of the run (empty = no artifact).
  std::string bench_json_path;

  /// "N worker process(es)" / "N host thread(s)" — the header phrase every
  /// driver prints.
  std::string width_phrase() const;

  /// The shared driver epilogue: prints the resume and failure summaries,
  /// writes the BENCH_sweep.json artifact when requested, reports an
  /// interrupted sweep, and returns the process exit code (0, or
  /// 128 + signal after a graceful interruption).
  int finish(const std::string& bench_name);
};

/// Runs `points` as `env` describes: registers the policy-bridge specs,
/// rewrites each point's scheduler / workload for the overrides, executes
/// on the selected fabric with the journal and resume applied, and captures
/// wall time + artifact meta. Throws ConfigError for a field it cannot
/// honor (an unknown fabric, a worker fault in-process, resume without a
/// journal).
///
/// Durability: with a journal, every terminal result is appended as it
/// lands. With resume, points whose canonical config hash matches a
/// journaled ok record are replayed from the journal — bit-identical,
/// source == kJournal — and only the rest execute; the merged result vector
/// is indistinguishable (per-point digests and table values) from an
/// uninterrupted run's. Changed or failed points always re-execute.
///
/// In-process failures rethrow (SweepRunner semantics); process-fabric
/// failures are contained as kFailed results.
SweepRun run_sweep(std::vector<SweepPoint>& points, const SweepEnv& env);

}  // namespace dssoc::exp
