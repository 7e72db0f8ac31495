// Fault-isolated process-pool sweep fabric.
//
// exp::SweepRunner fans points across threads of one process — fast, but a
// single bad point (OOM, stuck spin loop, latent engine bug) takes down the
// whole sweep and every result with it. ProcessPool is the containment
// variant the ROADMAP's distributed-sweep-fabric item asks for: a
// fork-server supervisor pre-forks N worker processes (each inherits the
// fully-built point vector by fork, so only point *indices* and results
// cross the pipes — see exp/wire.hpp), dispatches points, and collects
// results in input order exactly like SweepRunner. Every failure mode is
// contained:
//
//  * worker crash (nonzero exit or signal): the worker is respawned and the
//    point retried with exponential backoff, up to a bounded attempt count;
//    exhausted attempts mark the point PointStatus::kFailed and the sweep
//    continues.
//  * per-point wall-clock timeout: the worker is SIGKILLed and the point
//    requeued through the same retry path.
//  * malformed, truncated or garbled result frames (detected by the frame
//    header check and the state_io CRC-32 trailer): treated as a crash —
//    the worker is discarded, the point retried.
//
// A clean run is bit-identical to SweepRunner over the same points (each
// worker process runs core::run_virtual with a per-process instance pool,
// exactly like a SweepRunner worker thread; tests pin the digests equal).
//
// Fabric selection lives one layer up: exp::run_sweep (exp/sweep_env.hpp)
// runs this pool when SweepEnv::fabric is "proc", falling back to the
// in-process SweepRunner when the pool throws FabricUnavailable.
//
// Deterministic fault injection (tests, CI): a FaultPlan of
// crash@K | hang@K | garble@K [+ ":N"] makes the worker holding point K
// crash / hang / corrupt its result frame on the first N attempts (every
// attempt when ":N" is omitted), exercising each containment path on
// demand. killsup@K targets the *supervisor* instead: run_sweep _exit(43)s
// the driver process after K results have been collected (and journaled,
// when a journal is attached) — the deterministic mid-sweep crash behind
// the resume tests and the CI sweep-resume job.
//
// Graceful shutdown: run() installs SIGINT/SIGTERM handlers (self-pipe into
// the poll loop) for its duration. On a signal the supervisor stops
// dispatching, reaps every worker, marks unresolved points failed
// ("interrupted by signal N") and returns the partial result vector —
// journaled results are already on disk, so a resumed run re-executes only
// what the interruption voided.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.hpp"

namespace dssoc::exp {

/// Parsed fault-injection plan (DSSOC_FAULT_INJECT), checked inside the
/// worker loop before a point runs (crash/hang) or before its result frame
/// is written (garble). kKillSup is supervisor-side: run_sweep() _exit(43)s
/// the driver process after K collected results (see file comment).
struct FaultPlan {
  enum class Kind { kNone, kCrash, kHang, kGarble, kKillSup };

  Kind kind = Kind::kNone;
  /// Sweep point index the fault targets — or, for kKillSup, the collected
  /// result count that triggers the supervisor exit.
  std::size_t point = 0;
  int attempts = -1;  ///< fire on the first N attempts; -1 = every one

  /// True when the fault fires for this (point, 1-based attempt). Always
  /// false for kKillSup — it is not a per-point worker fault.
  bool fires(std::size_t point_index, int attempt) const;

  /// Parses "crash@K", "hang@K", "garble@K", optionally ":N"-suffixed
  /// ("crash@3:1" = crash the first attempt of point 3 only), and
  /// "killsup@K" (K >= 1, no ":N"). An empty spec is kNone; anything
  /// malformed throws DssocError.
  static FaultPlan parse(const std::string& spec);
};

/// Supervisor tunables. Drivers get them from SweepEnv::from_env()
/// (exp/sweep_env.hpp), which names the environment variable of each.
struct ProcessPoolOptions {
  /// Retries per point after the first attempt (DSSOC_SWEEP_RETRIES).
  int max_retries = 2;
  /// Per-point wall-clock budget in ms; 0 disables the watchdog
  /// (DSSOC_SWEEP_TIMEOUT_MS). Keep disabled for full-scale sweeps whose
  /// legitimate points run long.
  double timeout_ms = 0.0;
  /// Delay before the first retry of a point, doubling per further retry
  /// (DSSOC_SWEEP_BACKOFF_MS).
  double backoff_ms = 25.0;
  /// Worker-side faults to inject (DSSOC_FAULT_INJECT). The pool ignores
  /// kKillSup, which run_sweep() handles for both fabrics.
  FaultPlan fault;
};

/// Raised when the fabric cannot start at all (fork or pipe creation failed
/// for the initial worker set); run_sweep() degrades to the in-process
/// runner on this error. Failures after startup are contained per point,
/// never thrown.
class FabricUnavailable : public DssocError {
 public:
  using DssocError::DssocError;
};

/// The fork-server supervisor. Not thread-safe; run() is serial from the
/// caller's perspective and leaves no children or inherited pipe fds behind
/// (normal return and exception paths both reap every worker).
class ProcessPool {
 public:
  /// Per-run failure accounting, exposed for the artifact writer.
  struct Accounting {
    std::size_t worker_respawns = 0;  ///< crashes + timeouts + garbles
    std::size_t points_failed = 0;    ///< exhausted retries + interrupted
    std::size_t points_retried = 0;   ///< retry dispatches performed
    /// Signal that gracefully stopped the run (0 = ran to completion).
    int interrupted_signal = 0;
  };

  /// `workers` <= 0 sizes the pool to the host (SweepRunner::resolve_threads).
  explicit ProcessPool(int workers, ProcessPoolOptions options = {});

  int workers() const noexcept { return workers_; }
  const Accounting& accounting() const noexcept { return accounting_; }

  /// Runs every point across the worker processes. Results land at their
  /// point's input index; contained failures surface as
  /// PointStatus::kFailed entries (never exceptions). Throws
  /// FabricUnavailable only when no worker could be forked at startup.
  /// `on_result` (optional) fires from the supervisor thread for each
  /// terminal ok or failed result as it lands — never for points voided by
  /// a signal interruption (those must re-run on resume).
  std::vector<SweepResult> run(const std::vector<SweepPoint>& points,
                               const ResultCallback& on_result = {});

 private:
  ProcessPoolOptions options_;
  int workers_;
  Accounting accounting_;
};

}  // namespace dssoc::exp
