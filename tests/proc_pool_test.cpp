// Tests for the fault-isolated process-pool sweep fabric (exp/proc_pool.hpp)
// and its wire protocol (exp/wire.hpp): clean-run bit-identity against the
// in-process SweepRunner, containment of injected crashes / hangs / garbled
// frames, retry-then-fail accounting, worker-reported engine errors, fabric
// selection through SweepEnv, SweepEnv::from_env()'s strict parsing, and
// supervisor hygiene (no zombie children, no leaked fds).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "common/strings.hpp"
#include "core/emulation.hpp"
#include "exp/journal.hpp"
#include "exp/proc_pool.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_env.hpp"
#include "exp/wire.hpp"
#include "platform/platform.hpp"

namespace dssoc::exp {
namespace {

/// Sets an environment variable for the test's scope, restoring (unsetting)
/// on destruction. Only the SweepEnv::from_env() parse tests use it; every
/// other test configures the sweep through SweepEnv fields.
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    EXPECT_EQ(setenv(name, value.c_str(), 1), 0);
  }
  ~EnvGuard() { unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

/// Unsets every DSSOC_* variable, so a test proves what SweepEnv fields do
/// on their own.
void clear_dssoc_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text = *entry;
    if (starts_with(text, "DSSOC_")) {
      names.push_back(text.substr(0, text.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
}

struct Fixture {
  Fixture() {
    platform = platform::zcu102();
    apps::register_all_kernels(registry);
    library = apps::default_application_library();
  }

  SweepPoint point(const std::string& config, const std::string& scheduler,
                   const core::Workload& workload) const {
    SweepPoint p;
    p.label = config + "/" + scheduler;
    p.setup.platform = &platform;
    p.setup.soc = platform::parse_config_label(config);
    p.setup.apps = &library;
    p.setup.registry = &registry;
    p.setup.cost_model = platform::default_cost_model();
    p.setup.options.scheduler = scheduler;
    p.workload = workload;
    return p;
  }

  std::vector<SweepPoint> small_sweep(int count) const {
    const core::Workload workload = core::make_validation_workload(
        {{"wifi_tx", 1}, {"range_detection", 1}});
    const char* schedulers[] = {"FRFS", "MET", "EFT"};
    std::vector<SweepPoint> points;
    for (int i = 0; i < count; ++i) {
      SweepPoint p = point("2C+1F", schedulers[i % 3], workload);
      p.label += "/pt" + std::to_string(i);
      points.push_back(std::move(p));
    }
    return points;
  }

  platform::Platform platform;
  core::SharedObjectRegistry registry;
  core::ApplicationLibrary library;
};

ProcessPoolOptions fast_options(int retries, const std::string& fault = "") {
  ProcessPoolOptions options;
  options.max_retries = retries;
  options.backoff_ms = 1.0;  // keep retry tests fast
  options.fault = FaultPlan::parse(fault);
  return options;
}

std::size_t open_fd_count() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

// --- FaultPlan --------------------------------------------------------------

TEST(FaultPlan, ParsesKindsIndicesAndAttemptCounts) {
  EXPECT_EQ(FaultPlan::parse("").kind, FaultPlan::Kind::kNone);

  const FaultPlan crash = FaultPlan::parse("crash@7");
  EXPECT_EQ(crash.kind, FaultPlan::Kind::kCrash);
  EXPECT_EQ(crash.point, 7u);
  EXPECT_EQ(crash.attempts, -1);
  EXPECT_TRUE(crash.fires(7, 1));
  EXPECT_TRUE(crash.fires(7, 99));  // every attempt without :N
  EXPECT_FALSE(crash.fires(6, 1));

  const FaultPlan once = FaultPlan::parse("hang@3:1");
  EXPECT_EQ(once.kind, FaultPlan::Kind::kHang);
  EXPECT_EQ(once.attempts, 1);
  EXPECT_TRUE(once.fires(3, 1));
  EXPECT_FALSE(once.fires(3, 2));  // retry succeeds

  EXPECT_EQ(FaultPlan::parse("garble@0").kind, FaultPlan::Kind::kGarble);

  // killsup@K is supervisor-side: K is a collected-result count (>= 1),
  // never an attempt-limited per-point worker fault.
  const FaultPlan killsup = FaultPlan::parse("killsup@7");
  EXPECT_EQ(killsup.kind, FaultPlan::Kind::kKillSup);
  EXPECT_EQ(killsup.point, 7u);
  EXPECT_FALSE(killsup.fires(7, 1));
  EXPECT_FALSE(killsup.fires(0, 1));

  for (const char* bad : {"crash", "crash@", "@3", "fizzle@3", "crash@x",
                          "crash@3:", "crash@3:0", "crash@3:x", "killsup@0",
                          "killsup@3:1", "killsup@"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(FaultPlan::parse(bad), DssocError);
  }
}

// --- wire protocol ----------------------------------------------------------

TEST(Wire, JobAndResultRoundTrip) {
  const WireJob job{42, 3};
  const WireJob back = decode_job(encode_job(job));
  EXPECT_EQ(back.point_index, 42u);
  EXPECT_EQ(back.attempt, 3u);

  WireResult result;
  result.point_index = 7;
  result.attempt = 2;
  result.ok = false;
  result.error = "engine said no";
  result.wall_ms = 1.5;
  const WireResult echoed = decode_result(encode_result(result));
  EXPECT_EQ(echoed.point_index, 7u);
  EXPECT_EQ(echoed.attempt, 2u);
  EXPECT_FALSE(echoed.ok);
  EXPECT_EQ(echoed.error, "engine said no");
  EXPECT_EQ(echoed.wall_ms, 1.5);
}

TEST(Wire, GarbledPayloadIsRejectedByCrc) {
  std::vector<std::uint8_t> payload = encode_job(WireJob{1, 1});
  payload[payload.size() / 2] ^= 0xFF;
  EXPECT_THROW(decode_job(payload), StateError);
}

TEST(Wire, FrameBufferReassemblesSplitFrames) {
  const std::vector<std::uint8_t> payload = encode_job(WireJob{9, 1});
  std::vector<std::uint8_t> stream;
  stream.push_back('D');
  stream.push_back('S');
  stream.push_back('S');
  stream.push_back('F');
  for (int i = 0; i < 8; ++i) {
    stream.push_back(
        static_cast<std::uint8_t>((payload.size() >> (8 * i)) & 0xFF));
  }
  stream.insert(stream.end(), payload.begin(), payload.end());

  FrameBuffer buffer;
  std::vector<std::uint8_t> out;
  // Feed byte by byte: no frame until the very last byte arrives.
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    buffer.feed(&stream[i], 1);
    EXPECT_FALSE(buffer.take_frame(out));
  }
  EXPECT_TRUE(buffer.mid_frame());
  buffer.feed(&stream.back(), 1);
  ASSERT_TRUE(buffer.take_frame(out));
  EXPECT_EQ(out, payload);
  EXPECT_FALSE(buffer.mid_frame());

  // Two frames in one feed drain in order.
  buffer.feed(stream.data(), stream.size());
  buffer.feed(stream.data(), stream.size());
  EXPECT_TRUE(buffer.take_frame(out));
  EXPECT_TRUE(buffer.take_frame(out));
  EXPECT_FALSE(buffer.take_frame(out));
}

TEST(Wire, FrameBufferRejectsBadMagic) {
  FrameBuffer buffer;
  const std::uint8_t junk[16] = {'n', 'o', 'p', 'e', 0, 0, 0, 0,
                                 0,   0,   0,   0,   0, 0, 0, 0};
  buffer.feed(junk, sizeof(junk));
  std::vector<std::uint8_t> out;
  EXPECT_THROW(buffer.take_frame(out), WireError);
}

// --- clean runs -------------------------------------------------------------

TEST(ProcessPool, CleanRunIsBitIdenticalToInProcessRunner) {
  Fixture fx;
  const std::vector<SweepPoint> points = fx.small_sweep(6);
  const std::vector<SweepResult> inproc = SweepRunner(2).run(points);

  ProcessPool pool(3, fast_options(2));
  const std::vector<SweepResult> proc = pool.run(points);

  ASSERT_EQ(proc.size(), points.size());
  EXPECT_EQ(pool.accounting().worker_respawns, 0u);
  EXPECT_EQ(pool.accounting().points_failed, 0u);
  EXPECT_EQ(pool.accounting().points_retried, 0u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(points[i].label);
    EXPECT_EQ(proc[i].label, points[i].label);
    EXPECT_EQ(proc[i].status, PointStatus::kOk);
    EXPECT_EQ(proc[i].retries, 0);
    // Full checkpoint-encoding digest: the fabrics are interchangeable.
    EXPECT_EQ(proc[i].stats.digest(), inproc[i].stats.digest());
  }
}

TEST(ProcessPool, EmptySweepCompletes) {
  ProcessPool pool(2, fast_options(0));
  EXPECT_TRUE(pool.run({}).empty());
}

// --- containment ------------------------------------------------------------

TEST(ProcessPool, CrashedPointIsContainedAndOthersComplete) {
  Fixture fx;
  const std::vector<SweepPoint> points = fx.small_sweep(6);
  const std::vector<SweepResult> clean = SweepRunner(2).run(points);

  ProcessPool pool(2, fast_options(2, "crash@2"));
  const std::vector<SweepResult> results = pool.run(points);

  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(points[i].label);
    if (i == 2) {
      EXPECT_EQ(results[i].status, PointStatus::kFailed);
      EXPECT_EQ(results[i].retries, 2);  // exhausted max_retries
      EXPECT_NE(results[i].error.find("sweep point 2"), std::string::npos)
          << results[i].error;
      EXPECT_NE(results[i].error.find(points[2].label), std::string::npos)
          << results[i].error;
      EXPECT_NE(results[i].error.find("exit code 42"), std::string::npos)
          << results[i].error;
    } else {
      EXPECT_EQ(results[i].status, PointStatus::kOk);
      EXPECT_EQ(results[i].stats.digest(), clean[i].stats.digest());
    }
  }
  EXPECT_EQ(pool.accounting().points_failed, 1u);
  EXPECT_EQ(pool.accounting().points_retried, 2u);
  EXPECT_EQ(pool.accounting().worker_respawns, 3u);  // one per attempt
}

TEST(ProcessPool, CrashOnFirstAttemptOnlyRetriesThenSucceeds) {
  Fixture fx;
  const std::vector<SweepPoint> points = fx.small_sweep(4);
  const std::vector<SweepResult> clean = SweepRunner(2).run(points);

  ProcessPool pool(2, fast_options(2, "crash@1:1"));
  const std::vector<SweepResult> results = pool.run(points);

  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(points[i].label);
    EXPECT_EQ(results[i].status, PointStatus::kOk);
    EXPECT_EQ(results[i].stats.digest(), clean[i].stats.digest());
  }
  EXPECT_EQ(results[1].retries, 1);  // one crash, one successful retry
  EXPECT_EQ(pool.accounting().points_failed, 0u);
  EXPECT_EQ(pool.accounting().points_retried, 1u);
  EXPECT_EQ(pool.accounting().worker_respawns, 1u);
}

TEST(ProcessPool, ManyRetriesKeepTheBackoffDefined) {
  // 40 retries double the backoff 40 times; the delay must stay defined
  // arithmetic (no int shift past 31 bits) and the point still fail cleanly.
  Fixture fx;
  const std::vector<SweepPoint> points = fx.small_sweep(1);
  ProcessPoolOptions options = fast_options(40, "crash@0");
  options.backoff_ms = 0.0;
  ProcessPool pool(1, options);
  const std::vector<SweepResult> results = pool.run(points);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, PointStatus::kFailed);
  EXPECT_EQ(results[0].retries, 40);
  EXPECT_EQ(pool.accounting().worker_respawns, 41u);
}

TEST(ProcessPool, GarbledResultFrameIsTreatedAsCrash) {
  Fixture fx;
  const std::vector<SweepPoint> points = fx.small_sweep(4);
  const std::vector<SweepResult> clean = SweepRunner(2).run(points);

  ProcessPool pool(2, fast_options(1, "garble@0"));
  const std::vector<SweepResult> results = pool.run(points);

  ASSERT_EQ(results.size(), points.size());
  EXPECT_EQ(results[0].status, PointStatus::kFailed);
  EXPECT_EQ(results[0].retries, 1);
  EXPECT_NE(results[0].error.find("malformed result frame"),
            std::string::npos)
      << results[0].error;
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE(points[i].label);
    EXPECT_EQ(results[i].status, PointStatus::kOk);
    EXPECT_EQ(results[i].stats.digest(), clean[i].stats.digest());
  }
  EXPECT_GE(pool.accounting().worker_respawns, 2u);
}

TEST(ProcessPool, HungWorkerIsKilledByTheWatchdog) {
  Fixture fx;
  const std::vector<SweepPoint> points = fx.small_sweep(4);
  const std::vector<SweepResult> clean = SweepRunner(2).run(points);

  ProcessPoolOptions options = fast_options(1, "hang@1");
  options.timeout_ms = 300.0;
  ProcessPool pool(2, options);
  const std::vector<SweepResult> results = pool.run(points);

  ASSERT_EQ(results.size(), points.size());
  EXPECT_EQ(results[1].status, PointStatus::kFailed);
  EXPECT_NE(results[1].error.find("timed out"), std::string::npos)
      << results[1].error;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 1) {
      continue;
    }
    SCOPED_TRACE(points[i].label);
    EXPECT_EQ(results[i].status, PointStatus::kOk);
    EXPECT_EQ(results[i].stats.digest(), clean[i].stats.digest());
  }
}

TEST(ProcessPool, WorkerReportedEngineErrorIsContainedWithContext) {
  Fixture fx;
  std::vector<SweepPoint> points = fx.small_sweep(4);
  points[2].setup.options.scheduler = "BOGUS";  // deterministic ConfigError

  ProcessPool pool(2, fast_options(1));
  const std::vector<SweepResult> results = pool.run(points);

  ASSERT_EQ(results.size(), points.size());
  EXPECT_EQ(results[2].status, PointStatus::kFailed);
  EXPECT_EQ(results[2].retries, 1);  // deterministic errors retry too
  EXPECT_NE(results[2].error.find("sweep point 2"), std::string::npos)
      << results[2].error;
  EXPECT_NE(results[2].error.find(points[2].label), std::string::npos)
      << results[2].error;
  EXPECT_NE(results[2].error.find("BOGUS"), std::string::npos)
      << results[2].error;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i != 2) {
      EXPECT_EQ(results[i].status, PointStatus::kOk);
    }
  }
  // A caught exception is answered over the pipe; the worker never dies.
  EXPECT_EQ(pool.accounting().worker_respawns, 0u);
}

// --- graceful shutdown ------------------------------------------------------

TEST(ProcessPool, SigtermStopsDispatchReapsWorkersAndMarksUnresolved) {
  Fixture fx;
  const std::vector<SweepPoint> points = fx.small_sweep(8);
  ProcessPool pool(2, fast_options(0));
  // Raise SIGTERM from the supervisor's own result callback: the self-pipe
  // wakes the poll loop deterministically after the first collected result.
  std::size_t collected = 0;
  const std::vector<SweepResult> results =
      pool.run(points, [&](std::size_t, const SweepResult&) {
        if (++collected == 1) {
          raise(SIGTERM);
        }
      });

  EXPECT_EQ(pool.accounting().interrupted_signal, SIGTERM);
  ASSERT_EQ(results.size(), points.size());
  std::size_t ok = 0;
  std::size_t interrupted = 0;
  for (const SweepResult& result : results) {
    if (result.status == PointStatus::kOk) {
      ++ok;
    } else {
      EXPECT_NE(result.error.find("interrupted by signal"),
                std::string::npos)
          << result.error;
      ++interrupted;
    }
  }
  EXPECT_GE(ok, 1u);          // the result that triggered the signal landed
  EXPECT_GE(interrupted, 1u); // undispatched points were voided, not run
  EXPECT_EQ(ok + interrupted, points.size());
  // Graceful: every worker reaped, none left running or zombied.
  int status = 0;
  EXPECT_EQ(waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// --- supervisor hygiene -----------------------------------------------------

TEST(ProcessPool, LeavesNoZombiesOrLeakedFds) {
  Fixture fx;
  const std::vector<SweepPoint> points = fx.small_sweep(5);
  const std::size_t fds_before = open_fd_count();
  {
    // A run with crashes exercises the respawn path's fd hygiene too.
    ProcessPool pool(3, fast_options(2, "crash@1:1"));
    const std::vector<SweepResult> results = pool.run(points);
    ASSERT_EQ(results.size(), points.size());
  }
  EXPECT_EQ(open_fd_count(), fds_before);
  // Every worker was reaped: no children remain, zombie or live.
  int status = 0;
  EXPECT_EQ(waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// --- fabric selection -------------------------------------------------------

TEST(RunSweep, FabricEnvSelectsProcAndStaysBitIdentical) {
  Fixture fx;
  std::vector<SweepPoint> points = fx.small_sweep(4);
  SweepEnv env;
  env.threads = 2;

  const SweepExecution inproc = run_sweep(points, env).execution;
  EXPECT_EQ(inproc.fabric, "inproc");
  EXPECT_EQ(inproc.width, 2);

  env.fabric = "proc";
  const SweepExecution proc = run_sweep(points, env).execution;
  EXPECT_EQ(proc.fabric, "proc");
  EXPECT_EQ(proc.width, 2);
  EXPECT_EQ(proc.worker_respawns, 0u);
  EXPECT_EQ(proc.points_failed, 0u);
  EXPECT_TRUE(proc.failed().empty());
  ASSERT_EQ(proc.results.size(), inproc.results.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(points[i].label);
    EXPECT_EQ(proc.results[i].stats.digest(),
              inproc.results[i].stats.digest());
  }
}

// The fields alone select the fabric and the journal: nothing is read from
// the environment behind the caller's back.
TEST(RunSweep, SweepEnvFieldsAreHonouredWithoutEnvironment) {
  clear_dssoc_environment();
  Fixture fx;
  std::vector<SweepPoint> points = fx.small_sweep(4);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dssoc_proc_pool_test_" + std::to_string(::getpid()) + ".journal"))
          .string();
  std::filesystem::remove(path);

  SweepEnv env;
  env.fabric = "proc";
  env.threads = 2;
  env.journal_path = path;
  const SweepExecution first = run_sweep(points, env).execution;
  EXPECT_EQ(first.fabric, "proc");
  EXPECT_EQ(first.width, 2);
  ASSERT_EQ(first.results.size(), points.size());
  {
    SweepJournal journal(path);
    EXPECT_EQ(journal.recovery().records, points.size());
  }

  env.resume = true;
  const SweepExecution second = run_sweep(points, env).execution;
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.journal_points_reused, points.size());
  ASSERT_EQ(second.results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(points[i].label);
    EXPECT_EQ(second.results[i].source, ResultSource::kJournal);
    EXPECT_EQ(second.results[i].stats.digest(),
              first.results[i].stats.digest());
  }
  std::filesystem::remove(path);
}

TEST(RunSweep, FabricOffMeansInProcess) {
  const EnvGuard fabric("DSSOC_SWEEP_FABRIC", "off");
  EXPECT_EQ(SweepEnv::from_env().fabric, "inproc");
}

TEST(RunSweep, UnknownFabricValueThrows) {
  {
    const EnvGuard fabric("DSSOC_SWEEP_FABRIC", "cluster");
    EXPECT_THROW(SweepEnv::from_env(), ConfigError);
  }
  Fixture fx;
  std::vector<SweepPoint> points = fx.small_sweep(1);
  SweepEnv env;
  env.fabric = "cluster";
  EXPECT_THROW(run_sweep(points, env), ConfigError);
}

TEST(RunSweep, WorkerFaultNeedsTheProcessFabric) {
  Fixture fx;
  std::vector<SweepPoint> points = fx.small_sweep(2);
  SweepEnv env;
  env.pool.fault = FaultPlan::parse("crash@0");
  EXPECT_THROW(run_sweep(points, env), ConfigError);
}

TEST(RunSweep, FailureSummaryNamesTheCasualties) {
  std::vector<SweepResult> results(3);
  results[0].label = "a";
  results[2].label = "c";
  results[2].status = PointStatus::kFailed;
  results[2].error = "sweep point 2 (c): worker crashed (exit code 42)";
  const std::string summary = failure_summary(results);
  EXPECT_NE(summary.find("1 of 3"), std::string::npos) << summary;
  EXPECT_NE(summary.find("sweep point 2 (c)"), std::string::npos) << summary;
  EXPECT_TRUE(failure_summary({}).empty());
  results[2].status = PointStatus::kOk;
  EXPECT_TRUE(failure_summary(results).empty());
}

// --- SweepEnv::from_env() ---------------------------------------------------

TEST(SweepEnvParse, ReadsEveryKnob) {
  clear_dssoc_environment();
  const SweepEnv defaults = SweepEnv::from_env();
  EXPECT_EQ(defaults.fabric, "inproc");
  EXPECT_EQ(defaults.threads, 0);
  EXPECT_FALSE(defaults.resume);
  EXPECT_EQ(defaults.pool.max_retries, 2);
  EXPECT_EQ(defaults.pool.timeout_ms, 0.0);
  EXPECT_EQ(defaults.pool.backoff_ms, 25.0);
  EXPECT_EQ(defaults.pool.fault.kind, FaultPlan::Kind::kNone);
  EXPECT_TRUE(defaults.bench_json_path.empty());

  const EnvGuard fabric("DSSOC_SWEEP_FABRIC", "proc");
  const EnvGuard threads("DSSOC_SWEEP_THREADS", "3");
  const EnvGuard journal("DSSOC_SWEEP_JOURNAL", "x.journal");
  const EnvGuard resume("DSSOC_SWEEP_RESUME", "1");
  const EnvGuard retries("DSSOC_SWEEP_RETRIES", "0");
  const EnvGuard timeout("DSSOC_SWEEP_TIMEOUT_MS", "250.5");
  const EnvGuard backoff("DSSOC_SWEEP_BACKOFF_MS", "0");
  const EnvGuard fault("DSSOC_FAULT_INJECT", "crash@7");
  const EnvGuard bench("DSSOC_BENCH_JSON", "out.json");
  const SweepEnv env = SweepEnv::from_env();
  EXPECT_EQ(env.fabric, "proc");
  EXPECT_EQ(env.threads, 3);
  EXPECT_EQ(env.journal_path, "x.journal");
  EXPECT_TRUE(env.resume);
  EXPECT_EQ(env.pool.max_retries, 0);
  EXPECT_EQ(env.pool.timeout_ms, 250.5);
  EXPECT_EQ(env.pool.backoff_ms, 0.0);
  EXPECT_EQ(env.pool.fault.kind, FaultPlan::Kind::kCrash);
  EXPECT_EQ(env.pool.fault.point, 7u);
  EXPECT_EQ(env.bench_json_path, "out.json");
}

TEST(SweepEnvParse, MalformedValuesThrowNamingTheVariable) {
  clear_dssoc_environment();
  const std::pair<const char*, const char*> cases[] = {
      {"DSSOC_SWEEP_RESUME", "yes"},      {"DSSOC_SWEEP_THREADS", "abc"},
      {"DSSOC_SWEEP_THREADS", "4x"},      {"DSSOC_SWEEP_THREADS", "-2"},
      {"DSSOC_SWEEP_RETRIES", "abc"},     {"DSSOC_SWEEP_TIMEOUT_MS", "abc"},
      {"DSSOC_SWEEP_BACKOFF_MS", "-1"},   {"DSSOC_SWEEP_TIMEOUT_MS", "nan"},
      {"DSSOC_SWEEP_TIMEOUT_MS", "inf"},
      {"DSSOC_SWEEP_FABRIC", "cluster"},  {"DSSOC_FAULT_INJECT", "boom@x"},
  };
  for (const auto& [name, value] : cases) {
    SCOPED_TRACE(cat(name, "=", value));
    const EnvGuard guard(name, value);
    try {
      SweepEnv::from_env();
      ADD_FAILURE() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepEnvParse, UnknownSweepNamesThrowListingTheKnownOnes) {
  clear_dssoc_environment();
  for (const char* name : {"DSSOC_SWEEP_PROCS", "DSSOC_SWEEP_THREAD"}) {
    SCOPED_TRACE(name);
    const EnvGuard guard(name, "2");
    try {
      SweepEnv::from_env();
      ADD_FAILURE() << "expected ConfigError";
    } catch (const ConfigError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(name), std::string::npos) << message;
      EXPECT_NE(message.find("DSSOC_SWEEP_THREADS"), std::string::npos)
          << message;
      EXPECT_NE(message.find("DSSOC_SWEEP_BACKOFF_MS"), std::string::npos)
          << message;
    }
  }
}

}  // namespace
}  // namespace dssoc::exp
