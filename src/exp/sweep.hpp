// Parallel sweep execution (the experiment layer).
//
// Every headline result of the paper — Fig. 9-11, Tables I-II, the
// design-space-exploration case study — is a *sweep*: dozens of independent
// emulations across configurations x schedulers x injection rates. A
// SweepPoint is one such emulation; SweepRunner fans the points across a
// host thread pool. Points are completely independent (each engine owns its
// runtimes, instances and RNG; the shared Platform / ApplicationLibrary /
// SharedObjectRegistry are only read), so results are bit-identical to a
// serial run and are returned in input order regardless of which thread
// finished first.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/emulation.hpp"

namespace dssoc::exp {

/// One independent emulation of a sweep: a full engine configuration plus
/// the arrival trace to drive through it.
struct SweepPoint {
  std::string label;  ///< e.g. "3C+2F/EFT/6.92"
  core::EmulationSetup setup;
  core::Workload workload;
  /// Injection window the workload was generated over (0 = not
  /// arrival-driven, e.g. validation mode). Declaring it lets the
  /// DSSOC_ARRIVALS whole-sweep override (exp/sweep_env.hpp) regenerate the
  /// point's trace from a different arrival process over the same window.
  SimTime time_frame = 0;
};

/// Terminal state of one sweep point. In-process runs either succeed or
/// rethrow (kOk/kSaturated everywhere); the fault-isolated process fabric
/// (exp/proc_pool.hpp) contains failures instead, marking the casualty
/// kFailed and completing the rest of the sweep. kSaturated is a *clean*
/// termination: the engine's overload detector cut the point and its stats
/// (up to the cut) are valid — but the point did not complete its workload,
/// so tables must not mix it into completed-run reductions
/// (exp/aggregate.hpp skips it) and bench_compare.py refuses to diff runs
/// whose non-ok point sets differ.
enum class PointStatus { kOk, kFailed, kSaturated };

/// "ok" / "failed" / "saturated" — the BENCH_sweep.json status strings.
const char* to_string(PointStatus status);

/// kSaturated when the engine's overload cut terminated the run, else kOk.
/// The fabrics derive every successful result's status through this, so
/// saturation classification is identical in-process and cross-process.
PointStatus status_from_stats(const core::EmulationStats& stats);

/// Where a result's bytes came from: freshly executed this run, or replayed
/// from a durable sweep journal (exp/journal.hpp) whose config hash matched.
enum class ResultSource { kRun, kJournal };

/// "run" / "journal" — the BENCH_sweep.json schema-4 source strings.
const char* to_string(ResultSource source);

/// The outcome of one point, plus the host wall time it took (the
/// perf-trajectory datum BENCH_sweep.json records).
struct SweepResult {
  std::string label;
  core::EmulationStats stats;
  double wall_ms = 0.0;
  PointStatus status = PointStatus::kOk;
  /// Failure reason (point index, config label, cause) when kFailed.
  std::string error;
  /// Extra attempts consumed before the terminal state (0 on a clean run).
  int retries = 0;
  /// Fresh execution vs. journal replay (always kRun outside resume mode).
  ResultSource source = ResultSource::kRun;
  /// Canonical config hash of the point that produced this result (0 when
  /// no journal is in play — hashing is skipped entirely off the journal
  /// path so the hot path stays untouched).
  std::uint64_t config_hash = 0;
};

/// Invoked by a sweep fabric as each point reaches its *terminal* state —
/// the durable-journal hook. `index` is the point's input index within the
/// vector handed to the fabric. SweepRunner invokes it from worker threads
/// (serialized internally) on success only (failures rethrow); ProcessPool
/// invokes it from the single supervisor thread on both ok and failed
/// terminal results, but never for points voided by a signal interruption.
using ResultCallback =
    std::function<void(std::size_t index, const SweepResult& result)>;

/// Rethrows a captured per-point exception with the point index and config
/// label prepended to the message, preserving the dynamic type for the
/// framework's exception hierarchy (StateError stays StateError, ConfigError
/// stays ConfigError, ...). A mid-sweep throw thus always names which point
/// died instead of surfacing a bare engine message.
[[noreturn]] void rethrow_point_error(const std::exception_ptr& error,
                                      std::size_t point_index,
                                      const std::string& label);

/// Fans independent emulation points across a std::thread pool.
class SweepRunner {
 public:
  /// threads <= 0 sizes the pool to std::thread::hardware_concurrency.
  /// Drivers pass SweepEnv::threads (exp/sweep_env.hpp).
  explicit SweepRunner(int threads = 0);

  int threads() const noexcept { return threads_; }

  /// Runs every point. Work is handed out through an atomic cursor; results
  /// land at their point's input index, so ordering is deterministic. The
  /// first failing point's exception (by input order) is rethrown after the
  /// pool drains. `on_result` (optional) fires for each successful point as
  /// it lands — even when a later point's rethrow abandons the sweep, every
  /// completed point was reported (what makes mid-sweep crashes resumable).
  std::vector<SweepResult> run(const std::vector<SweepPoint>& points,
                               const ResultCallback& on_result = {}) const;

  /// The pool size `requested` resolves to (hardware fallback when <= 0),
  /// before capping by point count.
  static int resolve_threads(int requested);

  // --- fork mode -----------------------------------------------------------

  /// A warmed engine snapshot plus the wall time spent producing it.
  struct Warmup {
    core::EngineSnapshot snapshot;
    double wall_ms = 0.0;
  };

  /// Runs `warmup` through an engine configured by `base` until the first
  /// quiescent cycle boundary at or after `fork_time`, and captures the
  /// snapshot every forked point restores from. Serial (it is one
  /// emulation); the returned wall time is the warm-up cost every forked
  /// point skips.
  static Warmup warm_up(const core::EmulationSetup& base,
                        const core::Workload& warmup, SimTime fork_time);

  /// Runs every point by restoring `snapshot` and finishing, instead of
  /// emulating from time zero. Each point's workload must extend the
  /// snapshot's consumed arrival prefix (checkpoint.hpp's fork rules;
  /// violations throw StateError through the usual first-by-input-order
  /// rethrow). Results are bit-identical to run() over the same composite
  /// workloads — fork mode only skips re-emulating the shared warm-up.
  std::vector<SweepResult> run_forked(
      const std::vector<SweepPoint>& points,
      const core::EngineSnapshot& snapshot,
      const ResultCallback& on_result = {}) const;

 private:
  std::vector<SweepResult> run_impl(const std::vector<SweepPoint>& points,
                                    const core::EngineSnapshot* snapshot,
                                    const ResultCallback& on_result) const;

  int threads_;
};

/// Opt-in helper for drivers that want distinct per-point RNG streams
/// derived from one sweep-level seed: deterministic, well-mixed seeds per
/// point index (splitmix64 of seed + f(index)). The runner itself never
/// reseeds a point — each emulation uses whatever
/// `setup.options.seed` its driver put in the SweepPoint.
std::uint64_t point_seed(std::uint64_t sweep_seed, std::size_t point_index);

}  // namespace dssoc::exp
