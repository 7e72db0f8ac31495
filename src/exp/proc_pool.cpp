#include "exp/proc_pool.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "exp/wire.hpp"

namespace dssoc::exp {

namespace {

using Clock = std::chrono::steady_clock;

double ms_until(Clock::time_point when, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(when - now).count();
}

Clock::time_point after_ms(Clock::time_point from, double ms) {
  // Saturates: the options are caller input, and a delay past the clock's
  // range (~292 years in ns) would overflow its integer representation.
  if (!(ms < 1e12)) {
    return Clock::time_point::max();
  }
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return cat("exit code ", WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return cat("signal ", WTERMSIG(status));
  }
  return cat("wait status ", status);
}

/// Restores the previous SIGPIPE disposition on scope exit. The supervisor
/// writes job frames into pipes whose worker may just have died; with the
/// default disposition that one EPIPE would kill the whole sweep.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &old_);
  }
  ~SigpipeGuard() { ::sigaction(SIGPIPE, &old_, nullptr); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  struct sigaction old_ {};
};

// Self-pipe signal delivery: the handler only sets a flag and writes one
// byte (both async-signal-safe); the poll loop owns everything else. File
// scope because signal handlers cannot capture state.
volatile sig_atomic_t g_signal_seen = 0;
int g_signal_pipe_wr = -1;

void on_stop_signal(int sig) {
  g_signal_seen = sig;
  if (g_signal_pipe_wr >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe_wr, &byte, 1);
  }
}

/// Installs SIGINT/SIGTERM handlers feeding a self-pipe for the supervisor
/// loop's lifetime; restores the previous dispositions on scope exit. If
/// pipe creation fails the guard degrades to "no graceful shutdown" (fds
/// stay -1, handlers untouched) rather than failing the sweep.
class SignalGuard {
 public:
  SignalGuard() {
    if (::pipe(fds_) != 0) {
      fds_[0] = fds_[1] = -1;
      return;
    }
    ::fcntl(fds_[0], F_SETFL, O_NONBLOCK);
    ::fcntl(fds_[1], F_SETFL, O_NONBLOCK);
    g_signal_seen = 0;
    g_signal_pipe_wr = fds_[1];
    struct sigaction action {};
    action.sa_handler = on_stop_signal;
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
    installed_ = true;
  }
  ~SignalGuard() {
    if (installed_) {
      ::sigaction(SIGINT, &old_int_, nullptr);
      ::sigaction(SIGTERM, &old_term_, nullptr);
      g_signal_pipe_wr = -1;
    }
    close_fd(fds_[0]);
    close_fd(fds_[1]);
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

  int read_fd() const noexcept { return fds_[0]; }
  int write_fd() const noexcept { return fds_[1]; }
  int seen() const noexcept { return static_cast<int>(g_signal_seen); }

  /// Forked workers must not act as supervisors: default dispositions back,
  /// inherited pipe ends closed (a worker holding the write end would keep
  /// the self-pipe readable forever).
  void reset_in_child() const {
    if (installed_) {
      struct sigaction dfl {};
      dfl.sa_handler = SIG_DFL;
      ::sigaction(SIGINT, &dfl, nullptr);
      ::sigaction(SIGTERM, &dfl, nullptr);
      g_signal_pipe_wr = -1;
    }
    if (fds_[0] >= 0) {
      ::close(fds_[0]);
    }
    if (fds_[1] >= 0) {
      ::close(fds_[1]);
    }
  }

 private:
  static void close_fd(int& fd) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  int fds_[2] = {-1, -1};
  bool installed_ = false;
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

/// The worker process body: read jobs, run points, answer results. Never
/// returns; never touches stdio (the parent owns those buffers — flushed
/// before fork, but a worker must not add to them).
[[noreturn]] void worker_main(const std::vector<SweepPoint>& points,
                              int job_rd, int result_wr,
                              const FaultPlan& fault) {
  // One instance pool per worker *process*, alive across its points — the
  // same recycling discipline as a SweepRunner worker thread, which is what
  // keeps the fabrics bit-identical.
  core::AppInstancePool pool;
  std::vector<std::uint8_t> payload;
  for (;;) {
    bool got = false;
    try {
      got = read_frame(job_rd, payload);
    } catch (...) {
      _exit(3);  // desynced job stream: nothing sane left to do
    }
    if (!got) {
      _exit(0);  // clean EOF: supervisor closed the job pipe, shut down
    }
    WireJob job;
    try {
      job = decode_job(payload);
    } catch (...) {
      _exit(3);
    }
    if (job.point_index >= points.size()) {
      _exit(3);
    }
    const SweepPoint& point = points[job.point_index];
    const bool inject =
        fault.fires(job.point_index, static_cast<int>(job.attempt));
    if (inject && fault.kind == FaultPlan::Kind::kCrash) {
      _exit(42);  // the injected "latent engine bug" path
    }
    if (inject && fault.kind == FaultPlan::Kind::kHang) {
      for (;;) {  // the injected "stuck spin loop": only SIGKILL ends it
        std::this_thread::sleep_for(std::chrono::seconds(3600));
      }
    }

    WireResult result;
    result.point_index = job.point_index;
    result.attempt = job.attempt;
    Stopwatch watch;
    try {
      result.stats = core::run_virtual(point.setup, point.workload, &pool);
      result.ok = true;
    } catch (const std::exception& e) {
      result.ok = false;
      result.error = e.what();
    }
    result.wall_ms = sim_to_ms(watch.elapsed());

    std::vector<std::uint8_t> bytes = encode_result(result);
    if (inject && fault.kind == FaultPlan::Kind::kGarble &&
        bytes.size() > 24) {
      // Flip one payload byte *after* the CRC was computed: the frame
      // delimits fine, the state_io trailer check must catch the damage.
      bytes[bytes.size() / 2] ^= 0xFF;
    }
    try {
      write_frame(result_wr, bytes.data(), bytes.size());
    } catch (...) {
      _exit(4);  // supervisor is gone; don't linger as an orphan
    }
  }
}

struct Worker {
  pid_t pid = -1;
  int job_wr = -1;     ///< parent-side job pipe end
  int result_rd = -1;  ///< parent-side result pipe end (non-blocking)
  FrameBuffer rx;
  bool busy = false;
  std::size_t point = 0;
  int attempt = 0;
  Clock::time_point deadline = Clock::time_point::max();
};

struct PendingPoint {
  std::size_t index = 0;
  int attempt = 1;
  Clock::time_point ready = Clock::time_point::min();
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

// --- FaultPlan --------------------------------------------------------------

bool FaultPlan::fires(std::size_t point_index, int attempt) const {
  if (kind == Kind::kNone || kind == Kind::kKillSup || point_index != point) {
    return false;
  }
  return attempts < 0 || attempt <= attempts;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) {
    return plan;
  }
  const auto bad = [&spec]() -> DssocError {
    return DssocError(
        cat("malformed fault spec \"", spec,
            "\" — expected crash@K, hang@K or garble@K (optional :N "
            "attempt count, e.g. crash@3:1), or killsup@K (K >= 1 "
            "collected results, no :N)"));
  };
  const std::size_t at = spec.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= spec.size()) {
    throw bad();
  }
  const std::string kind = spec.substr(0, at);
  std::string index = spec.substr(at + 1);
  std::string count;
  bool has_count = false;
  if (const std::size_t colon = index.find(':');
      colon != std::string::npos) {
    count = index.substr(colon + 1);
    index = index.substr(0, colon);
    has_count = true;
  }
  if (kind == "crash") {
    plan.kind = Kind::kCrash;
  } else if (kind == "hang") {
    plan.kind = Kind::kHang;
  } else if (kind == "garble") {
    plan.kind = Kind::kGarble;
  } else if (kind == "killsup") {
    plan.kind = Kind::kKillSup;
  } else {
    throw bad();
  }
  const auto all_digits = [](const std::string& text) {
    if (text.empty()) {
      return false;
    }
    for (const char c : text) {
      if (c < '0' || c > '9') {
        return false;
      }
    }
    return true;
  };
  if (!all_digits(index)) {
    throw bad();
  }
  plan.point = static_cast<std::size_t>(std::stoull(index));
  if (plan.kind == Kind::kKillSup && (has_count || plan.point < 1)) {
    throw bad();  // ":N" is meaningless and K=0 would fire before any result
  }
  if (has_count) {
    if (!all_digits(count) || count.size() > 9) {
      throw bad();
    }
    plan.attempts = std::stoi(count);
    if (plan.attempts < 1) {
      throw bad();
    }
  }
  return plan;
}

// --- ProcessPool ------------------------------------------------------------

ProcessPool::ProcessPool(int workers, ProcessPoolOptions options)
    : options_(options),
      workers_(SweepRunner::resolve_threads(workers)) {}

std::vector<SweepResult> ProcessPool::run(
    const std::vector<SweepPoint>& points, const ResultCallback& on_result) {
  accounting_ = Accounting{};
  std::vector<SweepResult> results(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    results[i].label = points[i].label;
  }
  if (points.empty()) {
    return results;
  }
  const FaultPlan& fault = options_.fault;

  const int worker_count =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(workers_), points.size()));
  std::vector<Worker> workers(static_cast<std::size_t>(worker_count));

  SigpipeGuard sigpipe_guard;
  SignalGuard signal_guard;

  // Spawns (or respawns) the worker in `slot`. Throws FabricUnavailable on
  // pipe/fork failure; the caller decides whether that is fatal.
  const auto spawn = [&](Worker& w) {
    int job_fds[2];
    int result_fds[2];
    if (::pipe(job_fds) != 0) {
      throw FabricUnavailable(
          cat("pipe() failed: ", std::strerror(errno)));
    }
    if (::pipe(result_fds) != 0) {
      const int saved = errno;
      ::close(job_fds[0]);
      ::close(job_fds[1]);
      throw FabricUnavailable(cat("pipe() failed: ", std::strerror(saved)));
    }
    // The child inherits the parent's stdio buffers; flush so nothing
    // pending gets emitted twice.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int saved = errno;
      ::close(job_fds[0]);
      ::close(job_fds[1]);
      ::close(result_fds[0]);
      ::close(result_fds[1]);
      throw FabricUnavailable(cat("fork() failed: ", std::strerror(saved)));
    }
    if (pid == 0) {
      // Worker: keep only this worker's child-side ends. Closing every
      // other worker's parent-side ends matters — a child holding a
      // sibling's job-pipe write end would keep that sibling alive past
      // the supervisor's shutdown EOF.
      ::close(job_fds[1]);
      ::close(result_fds[0]);
      for (const Worker& other : workers) {
        if (other.job_wr >= 0) {
          ::close(other.job_wr);
        }
        if (other.result_rd >= 0) {
          ::close(other.result_rd);
        }
      }
      signal_guard.reset_in_child();
      worker_main(points, job_fds[0], result_fds[1], fault);
    }
    ::close(job_fds[0]);
    ::close(result_fds[1]);
    w.pid = pid;
    w.job_wr = job_fds[1];
    w.result_rd = result_fds[0];
    ::fcntl(w.result_rd, F_SETFL, O_NONBLOCK);
    w.rx = FrameBuffer{};
    w.busy = false;
  };

  // Reaps every worker and closes every fd; `force` SIGKILLs instead of
  // waiting for the EOF-triggered clean exit.
  const auto shutdown = [&](bool force) {
    for (Worker& w : workers) {
      close_fd(w.job_wr);  // EOF: a idle worker _exit(0)s promptly
    }
    for (Worker& w : workers) {
      if (w.pid <= 0) {
        continue;
      }
      if (force) {
        ::kill(w.pid, SIGKILL);
      }
      int status = 0;
      bool reaped = false;
      // Grace period for the EOF path; a worker that ignores it (stuck in
      // an injected hang with the watchdog off) is killed outright.
      for (int spin = 0; spin < 2000 && !reaped; ++spin) {
        const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
        if (r == w.pid || (r < 0 && errno == ECHILD)) {
          reaped = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!reaped) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, &status, 0);
      }
      w.pid = -1;
      close_fd(w.result_rd);
    }
  };

  std::deque<PendingPoint> pending;
  for (std::size_t i = 0; i < points.size(); ++i) {
    pending.push_back(PendingPoint{i, 1, Clock::time_point::min()});
  }
  std::size_t unresolved = points.size();

  // Terminal-failure / requeue decision for the attempt that just died.
  const auto retry_or_fail = [&](std::size_t index, int attempt,
                                 const std::string& reason) {
    if (attempt >= options_.max_retries + 1) {
      results[index].status = PointStatus::kFailed;
      results[index].error =
          cat("sweep point ", index, " (", points[index].label, "): ",
              reason, " — failed after ", attempt, " attempt(s)");
      results[index].retries = attempt - 1;
      ++accounting_.points_failed;
      --unresolved;
      if (on_result) {
        on_result(index, results[index]);
      }
      return;
    }
    ++accounting_.points_retried;
    // ldexp, not 1 << (attempt - 1): max_retries is caller input, and an
    // int shift by 32 or more is undefined.
    const double delay = std::ldexp(options_.backoff_ms, attempt - 1);
    pending.push_back(
        PendingPoint{index, attempt + 1, after_ms(Clock::now(), delay)});
  };

  // Reap + respawn a dead worker; requeues its assignment if it held one.
  // Returns false when the slot could not be respawned (marked dead).
  const auto worker_died = [&](Worker& w, const std::string& reason) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = -1;
    ++accounting_.worker_respawns;
    const bool had_assignment = w.busy;
    const std::size_t index = w.point;
    const int attempt = w.attempt;
    w.busy = false;
    close_fd(w.job_wr);
    close_fd(w.result_rd);
    if (had_assignment) {
      retry_or_fail(index, attempt,
                    cat(reason, " (", describe_exit(status), ")"));
    }
    try {
      spawn(w);
    } catch (const FabricUnavailable&) {
      return false;  // slot stays dead; run() checks live capacity
    }
    return true;
  };

  const auto kill_and_respawn = [&](Worker& w, const std::string& reason) {
    ::kill(w.pid, SIGKILL);
    return worker_died(w, reason);
  };

  // Handles one decoded result frame for the worker that sent it.
  const auto handle_result = [&](Worker& w, WireResult result) {
    if (!w.busy || result.point_index != w.point ||
        static_cast<int>(result.attempt) != w.attempt) {
      // Answer for a point this worker does not hold: the stream is not
      // trustworthy any more — same treatment as a garbled frame.
      kill_and_respawn(w, "out-of-order result frame");
      return;
    }
    const std::size_t index = w.point;
    const int attempt = w.attempt;
    w.busy = false;
    if (result.ok) {
      results[index].stats = std::move(result.stats);
      results[index].wall_ms = result.wall_ms;
      // Saturation travels inside the stats encoding, so the supervisor
      // classifies worker results exactly like the in-process runner.
      results[index].status = status_from_stats(results[index].stats);
      results[index].retries = attempt - 1;
      --unresolved;
      if (on_result) {
        on_result(index, results[index]);
      }
      return;
    }
    // Worker-reported engine error (caught exception): deterministic or
    // not, it gets the same bounded retry treatment as a crash.
    retry_or_fail(index, attempt, result.error);
  };

  // Drains a worker's result pipe and processes complete frames.
  const auto drain_worker = [&](Worker& w) {
    for (;;) {
      std::uint8_t buf[65536];
      const ssize_t got = ::read(w.result_rd, buf, sizeof(buf));
      if (got > 0) {
        w.rx.feed(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got == 0) {
        worker_died(w, w.busy ? "worker crashed" : "idle worker exited");
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      worker_died(w, cat("result pipe read failed: ",
                         std::strerror(errno)));
      return;
    }
    try {
      std::vector<std::uint8_t> payload;
      while (w.rx.take_frame(payload)) {
        handle_result(w, decode_result(payload));
        if (w.pid <= 0) {
          return;  // handle_result discarded the worker
        }
      }
    } catch (const DssocError& e) {
      // Bad frame magic (WireError) or CRC/layout corruption inside the
      // frame (StateError): the worker's stream is garbage from here on.
      kill_and_respawn(w, cat("malformed result frame: ", e.what()));
    }
  };

  // Assigns one pending-and-ready point to `w`. Returns true if dispatched.
  const auto dispatch_to = [&](Worker& w) {
    const Clock::time_point now = Clock::now();
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (it->ready > now) {
        continue;
      }
      const PendingPoint item = *it;
      pending.erase(it);
      const std::vector<std::uint8_t> bytes = encode_job(
          WireJob{static_cast<std::uint64_t>(item.index),
                  static_cast<std::uint32_t>(item.attempt)});
      try {
        write_frame(w.job_wr, bytes.data(), bytes.size());
      } catch (const WireError&) {
        // Worker died while idle; charge the attempt (bounds pathological
        // respawn loops) and let the fresh worker pick the retry up.
        w.busy = true;
        w.point = item.index;
        w.attempt = item.attempt;
        worker_died(w, "job dispatch failed");
        return false;
      }
      w.busy = true;
      w.point = item.index;
      w.attempt = item.attempt;
      w.deadline = options_.timeout_ms > 0.0
                       ? after_ms(now, options_.timeout_ms)
                       : Clock::time_point::max();
      return true;
    }
    return false;
  };

  try {
    for (Worker& w : workers) {
      spawn(w);  // FabricUnavailable propagates: nothing started yet
    }

    while (unresolved > 0) {
      // Keep every idle live worker fed with whatever is ready.
      for (Worker& w : workers) {
        if (w.pid > 0 && !w.busy) {
          dispatch_to(w);
        }
      }
      std::size_t live = 0;
      for (const Worker& w : workers) {
        live += w.pid > 0 ? 1u : 0u;
      }
      if (live == 0) {
        throw DssocError(
            "process-pool fabric lost every worker and could not respawn "
            "any — aborting the sweep");
      }

      // Sleep until the next result, deadline or backoff release.
      const Clock::time_point now = Clock::now();
      double wait_ms = -1.0;
      for (const Worker& w : workers) {
        if (w.pid > 0 && w.busy &&
            w.deadline != Clock::time_point::max()) {
          const double d = ms_until(w.deadline, now);
          wait_ms = wait_ms < 0.0 ? d : std::min(wait_ms, d);
        }
      }
      for (const PendingPoint& item : pending) {
        if (item.ready != Clock::time_point::min()) {
          const double d = ms_until(item.ready, now);
          wait_ms = wait_ms < 0.0 ? d : std::min(wait_ms, d);
        }
      }
      std::vector<pollfd> fds;
      std::vector<Worker*> fd_owner;
      for (Worker& w : workers) {
        if (w.pid > 0) {
          fds.push_back(pollfd{w.result_rd, POLLIN, 0});
          fd_owner.push_back(&w);
        }
      }
      if (signal_guard.read_fd() >= 0) {
        // The self-pipe wakes the poll even when the signal lands outside
        // it; no owner — the flag, not the byte, carries the information.
        fds.push_back(pollfd{signal_guard.read_fd(), POLLIN, 0});
        fd_owner.push_back(nullptr);
      }
      int poll_timeout = -1;
      if (wait_ms >= 0.0) {
        poll_timeout = static_cast<int>(
            std::min(std::max(wait_ms, 0.0), 60'000.0)) + 1;
      }
      const int ready = ::poll(fds.data(),
                               static_cast<nfds_t>(fds.size()),
                               poll_timeout);
      if (ready < 0 && errno != EINTR) {
        throw DssocError(cat("poll() failed: ", std::strerror(errno)));
      }
      if (ready > 0) {
        for (std::size_t i = 0; i < fds.size(); ++i) {
          if (fd_owner[i] != nullptr &&
              (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
            drain_worker(*fd_owner[i]);
          }
        }
      }

      // Graceful shutdown: a SIGINT/SIGTERM stops dispatch after the drain
      // above (results already in the pipes were collected — and journaled
      // by on_result — before anything is voided). Unresolved points are
      // marked failed so the partial artifact stays well-formed; they
      // re-execute on resume because only ok records are ever replayed.
      if (const int sig = signal_guard.seen(); sig != 0) {
        accounting_.interrupted_signal = sig;
        const auto interrupt_point = [&](std::size_t index) {
          results[index].status = PointStatus::kFailed;
          results[index].error =
              cat("sweep point ", index, " (", points[index].label,
                  "): interrupted by signal ", sig);
          ++accounting_.points_failed;
          --unresolved;
        };
        for (const Worker& w : workers) {
          if (w.pid > 0 && w.busy) {
            interrupt_point(w.point);
          }
        }
        for (const PendingPoint& item : pending) {
          interrupt_point(item.index);
        }
        pending.clear();
        // Force: an interrupted run must not linger for a worker that is
        // mid-point (or stuck) — SIGKILL + reap, then hand back the
        // partial results.
        shutdown(/*force=*/true);
        return results;
      }

      // Watchdog: kill + requeue anything past its wall-clock budget.
      const Clock::time_point checked = Clock::now();
      for (Worker& w : workers) {
        if (w.pid > 0 && w.busy && checked >= w.deadline) {
          kill_and_respawn(
              w, cat("point timed out after ",
                     format_double(options_.timeout_ms, 0), " ms"));
        }
      }
    }
  } catch (...) {
    shutdown(/*force=*/true);
    throw;
  }
  shutdown(/*force=*/false);
  return results;
}

}  // namespace dssoc::exp
