#include "exp/sweep_env.hpp"

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <type_traits>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/arrivals.hpp"
#include "exp/journal.hpp"
#include "policy/register.hpp"

namespace dssoc::exp {
namespace {

/// Every DSSOC_SWEEP_* name from_env() reads; any other one is a typo or a
/// removed knob, and is rejected rather than silently ignored.
constexpr const char* kSweepVariables[] = {
    "DSSOC_SWEEP_FABRIC",     "DSSOC_SWEEP_MODE",   "DSSOC_SWEEP_THREADS",
    "DSSOC_SWEEP_JOURNAL",    "DSSOC_SWEEP_RESUME", "DSSOC_SWEEP_RETRIES",
    "DSSOC_SWEEP_TIMEOUT_MS", "DSSOC_SWEEP_BACKOFF_MS",
};

void reject_unknown_sweep_variables() {
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view text = *entry;
    if (!starts_with(text, "DSSOC_SWEEP_")) {
      continue;
    }
    const std::string_view name = text.substr(0, text.find('='));
    bool known = false;
    std::string names;
    for (const char* candidate : kSweepVariables) {
      known = known || name == candidate;
      names += cat(names.empty() ? "" : ", ", candidate);
    }
    if (!known) {
      throw ConfigError(cat("unknown sweep variable ", name,
                            " — the known DSSOC_SWEEP_* names are ", names));
    }
  }
}

/// The variable's value; empty when unset (an empty value means "default").
std::string env_or_empty(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : "";
}

[[noreturn]] void bad_value(const char* name, const std::string& value,
                            const char* expected) {
  throw ConfigError(
      cat(name, " must be ", expected, ", got \"", value, "\""));
}

/// A finite, non-negative decimal number (an integer for integral `T`), or
/// `fallback` when unset.
template <typename T>
T env_number(const char* name, T fallback) {
  const std::string value = env_or_empty(name);
  if (value.empty()) {
    return fallback;
  }
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end || !(parsed >= 0) ||
      !std::isfinite(static_cast<double>(parsed))) {
    bad_value(name, value,
              std::is_integral_v<T> ? "a non-negative integer"
                                    : "a finite, non-negative number");
  }
  return parsed;
}

/// Everything of a sweep that does not depend on the overrides: journal
/// open and config hashing, the resume partition, the killsup hook, fabric
/// selection (with the in-process fallback) and the replay/fresh merge.
SweepExecution execute(const std::vector<SweepPoint>& points,
                       const SweepEnv& env) {
  SweepExecution execution;

  // Journal setup. Hashes are computed once, up front, outside any per-point
  // wall-time measurement; without a journal the hot path never hashes.
  std::optional<SweepJournal> journal;
  std::vector<std::uint64_t> hashes;
  if (!env.journal_path.empty()) {
    journal.emplace(env.journal_path);
    hashes.reserve(points.size());
    for (const SweepPoint& point : points) {
      hashes.push_back(point_config_hash(point));
    }
  }

  // Resume partition: replay journaled ok records whose config hash still
  // matches, execute everything else. Failed records never replay.
  std::vector<SweepResult> replayed(points.size());
  std::vector<bool> from_journal(points.size(), false);
  std::vector<std::size_t> todo_map;  // fabric index -> input index
  std::size_t reused = 0;
  if (env.resume) {
    execution.resumed = journal->recovery().existed;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (const SweepResult* hit = journal->find_ok(hashes[i])) {
        replayed[i] = *hit;
        from_journal[i] = true;
        ++reused;
      } else {
        todo_map.push_back(i);
      }
    }
  }
  execution.journal_points_reused = reused;

  const std::vector<SweepPoint>* run_points = &points;
  std::vector<SweepPoint> todo_points;
  if (reused > 0) {
    todo_points.reserve(todo_map.size());
    for (const std::size_t index : todo_map) {
      todo_points.push_back(points[index]);
    }
    run_points = &todo_points;
  }

  // The terminal-result hook: journal the result under its *input*-index
  // config hash, then (fault injection) kill the supervisor after K
  // collected results — after the journal append + fsync, so exactly K
  // results survive the crash.
  const FaultPlan& fault = env.pool.fault;
  std::size_t collected = 0;  // fabric callbacks are serialized
  ResultCallback on_result;
  if (journal.has_value() || fault.kind == FaultPlan::Kind::kKillSup) {
    on_result = [&](std::size_t fabric_index, const SweepResult& result) {
      const std::size_t input_index =
          reused > 0 ? todo_map[fabric_index] : fabric_index;
      if (journal.has_value()) {
        SweepResult keyed = result;
        keyed.config_hash = hashes[input_index];
        journal->append(hashes[input_index], keyed);
      }
      ++collected;
      if (fault.kind == FaultPlan::Kind::kKillSup &&
          collected >= fault.point) {
        // The deterministic mid-sweep supervisor death (killsup@K): flush
        // whatever stdio buffered, then die without unwinding — exactly
        // what an OOM-kill or CI timeout would do, minus the flush.
        std::fflush(nullptr);
        _exit(43);
      }
    };
  }

  // Run the remaining points on the selected fabric.
  std::vector<SweepResult> fresh;
  // Everything replayed: no fabric runs, but the artifact still names the
  // selected one so resumed artifacts stay comparable to their originals.
  execution.fabric = env.fabric;
  if (!run_points->empty()) {
    bool ran = false;
    if (env.fabric == "proc") {
      ProcessPool pool(env.threads, env.pool);
      try {
        fresh = pool.run(*run_points, on_result);
        execution.width = pool.workers();
        execution.worker_respawns = pool.accounting().worker_respawns;
        execution.points_failed = pool.accounting().points_failed;
        execution.interrupted_signal = pool.accounting().interrupted_signal;
        ran = true;
      } catch (const FabricUnavailable& e) {
        std::cerr << "[sweep] process fabric unavailable (" << e.what()
                  << "); falling back to the in-process runner\n";
      }
    }
    if (!ran) {
      const SweepRunner runner(env.threads);
      fresh = runner.run(*run_points, on_result);
      execution.fabric = "inproc";
      execution.width = runner.threads();
    }
  }

  // Merge: journal replays at their input index, fresh results at theirs.
  if (reused == 0) {
    execution.results = std::move(fresh);
  } else {
    execution.results.resize(points.size());
    std::size_t fabric_index = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      execution.results[i] = from_journal[i]
                                 ? std::move(replayed[i])
                                 : std::move(fresh[fabric_index++]);
    }
  }
  if (journal.has_value()) {
    for (std::size_t i = 0; i < execution.results.size(); ++i) {
      execution.results[i].config_hash = hashes[i];
    }
  }
  return execution;
}

}  // namespace

SweepEnv SweepEnv::from_env() {
  reject_unknown_sweep_variables();
  SweepEnv env;
  const std::string fabric = env_or_empty("DSSOC_SWEEP_FABRIC");
  if (fabric == "proc") {
    env.fabric = "proc";
  } else if (!fabric.empty() && fabric != "off" && fabric != "inproc") {
    bad_value("DSSOC_SWEEP_FABRIC", fabric,
              "unset, \"off\", \"inproc\" or \"proc\"");
  }
  env.mode = env_or_empty("DSSOC_SWEEP_MODE");
  env.threads = env_number("DSSOC_SWEEP_THREADS", env.threads);
  env.journal_path = env_or_empty("DSSOC_SWEEP_JOURNAL");
  const std::string resume = env_or_empty("DSSOC_SWEEP_RESUME");
  if (resume != "" && resume != "0" && resume != "1") {
    bad_value("DSSOC_SWEEP_RESUME", resume, "unset, \"0\" or \"1\"");
  }
  env.resume = resume == "1";
  env.pool.max_retries =
      env_number("DSSOC_SWEEP_RETRIES", env.pool.max_retries);
  env.pool.timeout_ms =
      env_number("DSSOC_SWEEP_TIMEOUT_MS", env.pool.timeout_ms);
  env.pool.backoff_ms =
      env_number("DSSOC_SWEEP_BACKOFF_MS", env.pool.backoff_ms);
  try {
    env.pool.fault = FaultPlan::parse(env_or_empty("DSSOC_FAULT_INJECT"));
  } catch (const DssocError& e) {
    throw ConfigError(cat("DSSOC_FAULT_INJECT: ", e.what()));
  }
  env.bench_json_path = env_or_empty("DSSOC_BENCH_JSON");
  env.scheduler_override = env_or_empty("DSSOC_SCHED");
  env.arrivals_override = env_or_empty("DSSOC_ARRIVALS");
  return env;
}

std::vector<const SweepResult*> SweepExecution::failed() const {
  std::vector<const SweepResult*> out;
  for (const SweepResult& result : results) {
    if (result.status == PointStatus::kFailed) {
      out.push_back(&result);
    }
  }
  return out;
}

std::string failure_summary(const std::vector<SweepResult>& results) {
  std::size_t failed = 0;
  for (const SweepResult& result : results) {
    failed += result.status == PointStatus::kFailed ? 1u : 0u;
  }
  if (failed == 0) {
    return std::string();
  }
  std::string out =
      cat("[sweep] ", failed, " of ", results.size(),
          " point(s) failed and are excluded from the tables:\n");
  for (const SweepResult& result : results) {
    if (result.status == PointStatus::kFailed) {
      out += cat("  - ", result.error, "\n");
    }
  }
  return out;
}

std::string resume_summary(const SweepExecution& execution) {
  if (!execution.resumed && execution.journal_points_reused == 0) {
    return std::string();
  }
  return cat("[sweep] journal resume: ", execution.journal_points_reused,
             " of ", execution.results.size(),
             " point(s) replayed from the journal, ",
             execution.results.size() - execution.journal_points_reused,
             " executed\n");
}

std::string SweepRun::width_phrase() const {
  return cat(execution.width, execution.fabric == "proc"
                                  ? " worker process(es)"
                                  : " host thread(s)");
}

int SweepRun::finish(const std::string& bench_name) {
  std::cout << resume_summary(execution) << failure_summary(execution.results);
  if (!bench_json_path.empty()) {
    write_json_file(bench_json_path,
                    sweep_to_json(bench_name, execution.width, total_wall_ms,
                                  execution.results, meta));
    std::cout << "[sweep] wrote " << bench_json_path << " ("
              << execution.results.size() << " points, " << execution.width
              << " threads, " << meta.sweep_mode << " mode)\n";
  }
  if (execution.interrupted_signal != 0) {
    std::cout << "[sweep] interrupted by signal "
              << execution.interrupted_signal
              << "; partial artifact written, resume with "
                 "DSSOC_SWEEP_RESUME=1\n";
    return 128 + execution.interrupted_signal;
  }
  return 0;
}

SweepRun run_sweep(std::vector<SweepPoint>& points, const SweepEnv& env) {
  if (env.fabric != "inproc" && env.fabric != "proc") {
    throw ConfigError(cat("SweepEnv::fabric must be \"inproc\" or \"proc\", "
                          "got \"",
                          env.fabric, "\""));
  }
  if (env.fabric != "proc" && env.pool.fault.kind != FaultPlan::Kind::kNone &&
      env.pool.fault.kind != FaultPlan::Kind::kKillSup) {
    throw ConfigError(
        "worker fault injection (crash@K, hang@K, garble@K) needs the process "
        "fabric (DSSOC_SWEEP_FABRIC=proc); only killsup@K runs in-process");
  }
  if (env.resume && env.journal_path.empty()) {
    throw ConfigError(
        "resume needs a journal (DSSOC_SWEEP_RESUME=1 needs "
        "DSSOC_SWEEP_JOURNAL=path) — there is no journal to resume from");
  }
  // Makes "policy:..." specs resolvable before any worker creates a
  // scheduler — static libraries drop self-registering TUs, so the sweep
  // entry point is the registration site.
  policy::register_policies();
  if (!env.scheduler_override.empty()) {
    for (SweepPoint& point : points) {
      point.setup.options.scheduler = env.scheduler_override;
    }
  }
  if (!env.arrivals_override.empty()) {
    // Parse/validate the spec once (a typo must fail before any point runs),
    // then regenerate every point's trace over its declared window with its
    // own seed — points keep distinct, reproducible streams.
    const std::unique_ptr<core::ArrivalProcess> process =
        core::ArrivalRegistry::instance().create(env.arrivals_override);
    for (SweepPoint& point : points) {
      if (point.time_frame <= 0) {
        throw ConfigError(
            cat("DSSOC_ARRIVALS cannot apply to sweep point \"", point.label,
                "\": the point declares no injection window (it is not "
                "arrival-driven)"));
      }
      Rng rng(point.setup.options.seed);
      point.workload = process->generate(point.time_frame, rng);
    }
  }
  SweepRun run;
  Stopwatch watch;
  run.execution = execute(points, env);
  run.total_wall_ms = sim_to_ms(watch.elapsed());
  run.meta = SweepArtifactMeta::detect();
  run.meta.fabric = run.execution.fabric;
  run.meta.worker_respawns = run.execution.worker_respawns;
  run.meta.resumed = run.execution.resumed;
  run.meta.journal_points_reused = run.execution.journal_points_reused;
  run.meta.interrupted_signal = run.execution.interrupted_signal;
  run.bench_json_path = env.bench_json_path;
  return run;
}

}  // namespace dssoc::exp
