#include "exp/sweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/state_io.hpp"
#include "common/strings.hpp"

namespace dssoc::exp {

const char* to_string(PointStatus status) {
  switch (status) {
    case PointStatus::kOk:
      return "ok";
    case PointStatus::kSaturated:
      return "saturated";
    case PointStatus::kFailed:
      break;
  }
  return "failed";
}

PointStatus status_from_stats(const core::EmulationStats& stats) {
  return stats.saturated ? PointStatus::kSaturated : PointStatus::kOk;
}

const char* to_string(ResultSource source) {
  return source == ResultSource::kRun ? "run" : "journal";
}

namespace {

// Rebuilds the exception with an augmented message, keeping the type so
// callers' catch clauses (and tests pinning exception types) still match.
template <typename Error>
[[noreturn]] void throw_with_point(const Error& error, std::size_t index,
                                   const std::string& label) {
  throw Error(
      cat("sweep point ", index, " (", label, "): ", error.what()));
}

}  // namespace

void rethrow_point_error(const std::exception_ptr& error,
                         std::size_t point_index, const std::string& label) {
  try {
    std::rethrow_exception(error);
  } catch (const StateError& e) {
    throw_with_point(e, point_index, label);
  } catch (const ConfigError& e) {
    throw_with_point(e, point_index, label);
  } catch (const SymbolError& e) {
    throw_with_point(e, point_index, label);
  } catch (const ParseError& e) {
    throw_with_point(e, point_index, label);
  } catch (const DssocError& e) {
    throw_with_point(e, point_index, label);
  } catch (const std::exception& e) {
    throw DssocError(
        cat("sweep point ", point_index, " (", label, "): ", e.what()));
  }
}

SweepRunner::SweepRunner(int threads) : threads_(resolve_threads(threads)) {}

int SweepRunner::resolve_threads(int requested) {
  if (requested > 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<SweepResult> SweepRunner::run(
    const std::vector<SweepPoint>& points,
    const ResultCallback& on_result) const {
  return run_impl(points, nullptr, on_result);
}

std::vector<SweepResult> SweepRunner::run_forked(
    const std::vector<SweepPoint>& points,
    const core::EngineSnapshot& snapshot,
    const ResultCallback& on_result) const {
  return run_impl(points, &snapshot, on_result);
}

SweepRunner::Warmup SweepRunner::warm_up(const core::EmulationSetup& base,
                                         const core::Workload& warmup,
                                         SimTime fork_time) {
  Stopwatch watch;
  core::Emulation emulation(base, warmup);
  emulation.run_until_idle(fork_time);
  Warmup result;
  result.snapshot = emulation.snapshot();
  result.wall_ms = sim_to_ms(watch.elapsed());
  return result;
}

std::vector<SweepResult> SweepRunner::run_impl(
    const std::vector<SweepPoint>& points,
    const core::EngineSnapshot* snapshot,
    const ResultCallback& on_result) const {
  std::vector<SweepResult> results(points.size());
  if (points.empty()) {
    return results;
  }
  std::vector<std::exception_ptr> errors(points.size());
  std::atomic<std::size_t> cursor{0};
  // Serializes on_result across worker threads: the journal hook behind it
  // appends + fsyncs, and callers should not need their own locking.
  std::mutex callback_mutex;

  const auto worker = [&]() {
    // One instance pool per worker thread, alive for the whole sweep: points
    // of the same sweep share application archetypes, so instance arenas
    // recycle *across* points instead of being rebuilt per emulation. Points
    // stay bit-identical to a serial pool-less run (the pool only recycles
    // storage; every acquire resets to the freshly-constructed state).
    core::AppInstancePool pool;
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) {
        return;
      }
      SweepResult& result = results[i];
      result.label = points[i].label;
      Stopwatch watch;
      try {
        if (snapshot != nullptr) {
          // Fork mode: every point resumes from the shared warmed state
          // instead of re-emulating the warm-up prefix from time zero.
          core::Emulation emulation(points[i].setup, points[i].workload,
                                    &pool);
          emulation.restore(*snapshot);
          result.stats = emulation.finish();
        } else {
          result.stats =
              core::run_virtual(points[i].setup, points[i].workload, &pool);
        }
        result.status = status_from_stats(result.stats);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      result.wall_ms = sim_to_ms(watch.elapsed());
      if (on_result && !errors[i]) {
        const std::lock_guard<std::mutex> lock(callback_mutex);
        on_result(i, result);
      }
    }
  };

  const std::size_t pool = std::min<std::size_t>(
      static_cast<std::size_t>(threads_), points.size());
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i) {
      threads.emplace_back(worker);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (errors[i]) {
      rethrow_point_error(errors[i], i, points[i].label);
    }
  }
  return results;
}

std::uint64_t point_seed(std::uint64_t sweep_seed, std::size_t point_index) {
  // splitmix64 finalizer over the combined words: consecutive indices map to
  // statistically independent seeds, and index 0 does not collapse onto the
  // sweep seed itself.
  std::uint64_t z = sweep_seed + 0x9E3779B97F4A7C15ULL *
                                     (static_cast<std::uint64_t>(point_index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace dssoc::exp
