// Tests for the SLO-grade traffic layer: the arrival-process registry and
// its built-in processes (core/arrivals.hpp), trace record/replay, the
// latency/deadline/saturation statistics (emu_stats.hpp), the engine's
// saturation detector, and the DSSOC_ARRIVALS whole-sweep override.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/arrivals.hpp"
#include "core/emulation.hpp"
#include "exp/journal.hpp"
#include "exp/sweep_env.hpp"
#include "platform/platform.hpp"

namespace dssoc::core {
namespace {

// --- registry -------------------------------------------------------------

TEST(ArrivalRegistry, ListsBuiltInProcesses) {
  const std::vector<std::string> names =
      ArrivalRegistry::instance().process_names();
  for (const char* expected :
       {"mmpp", "periodic", "poisson", "ramp", "trace", "validation"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_TRUE(ArrivalRegistry::instance().has_process(
      "arrivals:poisson:app=a,rate_per_ms=1"));
  EXPECT_FALSE(ArrivalRegistry::instance().has_process("arrivals:nope:x"));
  EXPECT_FALSE(ArrivalRegistry::instance().has_process("poisson"));
}

TEST(ArrivalRegistry, UnknownSpecListsKnownNames) {
  try {
    ArrivalRegistry::instance().create("arrivals:nope:x");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown arrival process"), std::string::npos);
    EXPECT_NE(message.find("periodic"), std::string::npos);
    EXPECT_NE(message.find("poisson"), std::string::npos);
  }
  EXPECT_THROW(ArrivalRegistry::instance().create("garbage"), ConfigError);
}

// --- periodic: bit-identity with the legacy generator ---------------------

/// Verbatim copy of the pre-registry make_performance_workload loop.
Workload legacy_generate(const std::vector<InjectionSpec>& specs,
                         SimTime time_frame, Rng& rng) {
  Workload workload;
  for (const InjectionSpec& spec : specs) {
    for (SimTime t = 0; t < time_frame; t += spec.period) {
      if (spec.probability >= 1.0 || rng.bernoulli(spec.probability)) {
        workload.entries.push_back({spec.app_name, t});
      }
    }
  }
  std::stable_sort(workload.entries.begin(), workload.entries.end(),
                   [](const WorkloadEntry& a, const WorkloadEntry& b) {
                     return a.arrival < b.arrival;
                   });
  return workload;
}

void expect_same_trace(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].app_name, b.entries[i].app_name) << i;
    EXPECT_EQ(a.entries[i].arrival, b.entries[i].arrival) << i;
    EXPECT_EQ(a.entries[i].deadline, b.entries[i].deadline) << i;
  }
}

TEST(PeriodicProcess, BitIdenticalToLegacyGenerator) {
  // Non-trivial probabilities (1/3 has no short decimal form) prove the
  // spec string round-trips probabilities bit-exactly: one lost ulp would
  // desynchronize the bernoulli stream and shift every later arrival.
  const std::vector<InjectionSpec> specs = {
      {"pd", sim_from_ms(0.7), 1.0},
      {"rd", sim_from_ms(0.11), 1.0 / 3.0},
      {"tx", sim_from_ms(0.31), 0.85}};
  const SimTime frame = sim_from_ms(25.0);

  Rng legacy_rng(42);
  const Workload legacy = legacy_generate(specs, frame, legacy_rng);

  Rng wrapper_rng(42);
  const Workload wrapper = make_performance_workload(specs, frame,
                                                     wrapper_rng);
  expect_same_trace(legacy, wrapper);
  EXPECT_EQ(wrapper.source_spec, periodic_arrival_spec(specs));

  Rng registry_rng(42);
  const Workload regenerated =
      ArrivalRegistry::instance()
          .create(periodic_arrival_spec(specs))
          ->generate(frame, registry_rng);
  expect_same_trace(legacy, regenerated);
}

TEST(ValidationProcess, MatchesLegacyWrapper) {
  const Workload wrapper =
      make_validation_workload({{"wifi_tx", 2}, {"wifi_rx", 1}});
  ASSERT_EQ(wrapper.size(), 3u);
  for (const WorkloadEntry& entry : wrapper.entries) {
    EXPECT_EQ(entry.arrival, 0);
    EXPECT_EQ(entry.deadline, 0);
  }
  EXPECT_EQ(wrapper.instance_counts().at("wifi_tx"), 2u);
  EXPECT_EQ(wrapper.source_spec,
            validation_arrival_spec({{"wifi_tx", 2}, {"wifi_rx", 1}}));
}

// --- stochastic processes: determinism and shape --------------------------

TEST(PoissonProcess, DeterministicPerSeedAndNearNominalRate) {
  const auto process = ArrivalRegistry::instance().create(
      "arrivals:poisson:app=a,rate_per_ms=5");
  const SimTime frame = sim_from_ms(20.0);
  Rng rng_a(3), rng_b(3), rng_c(4);
  const Workload first = process->generate(frame, rng_a);
  const Workload second = process->generate(frame, rng_b);
  const Workload third = process->generate(frame, rng_c);
  expect_same_trace(first, second);
  EXPECT_NE(first.entries.size(), 0u);
  // ~100 expected; a 5-sigma band is [50, 150].
  EXPECT_GT(first.size(), 50u);
  EXPECT_LT(first.size(), 150u);
  EXPECT_NE(third.size(), first.size());
  for (std::size_t i = 1; i < first.entries.size(); ++i) {
    EXPECT_LE(first.entries[i - 1].arrival, first.entries[i].arrival);
  }
  for (const WorkloadEntry& entry : first.entries) {
    EXPECT_GE(entry.arrival, 0);
    EXPECT_LT(entry.arrival, frame);
  }
}

TEST(MmppProcess, SilentStateHalvesTheRate) {
  // 0/10 jobs/ms alternating with 1 ms mean dwell: long-run rate 5/ms.
  const auto process = ArrivalRegistry::instance().create(
      "arrivals:mmpp:app=a,rates_per_ms=0/10,mean_dwell_ms=1");
  Rng rng(9);
  const Workload workload = process->generate(sim_from_ms(40.0), rng);
  EXPECT_GT(workload.size(), 80u);   // ~200 expected
  EXPECT_LT(workload.size(), 340u);
}

TEST(RampProcess, LoadGrowsAcrossTheFrame) {
  const auto process = ArrivalRegistry::instance().create(
      "arrivals:ramp:app=a,start_rate_per_ms=0,end_rate_per_ms=10");
  const SimTime frame = sim_from_ms(20.0);
  Rng rng(5);
  const Workload workload = process->generate(frame, rng);
  EXPECT_GT(workload.size(), 40u);  // ~100 expected
  std::size_t early = 0, late = 0;
  for (const WorkloadEntry& entry : workload.entries) {
    (entry.arrival < frame / 2 ? early : late) += 1;
  }
  EXPECT_GT(late, early);
}

TEST(ArrivalSpecs, StampDeadlines) {
  const auto process = ArrivalRegistry::instance().create(
      "arrivals:poisson:app=a,rate_per_ms=2,deadline_ns=750");
  Rng rng(1);
  const Workload workload = process->generate(sim_from_ms(10.0), rng);
  ASSERT_GT(workload.size(), 0u);
  for (const WorkloadEntry& entry : workload.entries) {
    EXPECT_EQ(entry.deadline, 750);
  }
}

// --- spec validation ------------------------------------------------------

TEST(ArrivalSpecs, RejectInvalidParameters) {
  ArrivalRegistry& registry = ArrivalRegistry::instance();
  // periodic
  EXPECT_THROW(registry.create("arrivals:periodic:app=a,period_ns=0"),
               ConfigError);
  EXPECT_THROW(
      registry.create("arrivals:periodic:app=a,period_ns=10,prob=1.5"),
      ConfigError);
  // poisson
  EXPECT_THROW(registry.create("arrivals:poisson:app=a,rate_per_ms=0"),
               ConfigError);
  EXPECT_THROW(registry.create("arrivals:poisson:rate_per_ms=1"),
               ConfigError);  // app missing
  // mmpp
  EXPECT_THROW(
      registry.create(
          "arrivals:mmpp:app=a,rates_per_ms=0/0,mean_dwell_ms=1"),
      ConfigError);
  EXPECT_THROW(
      registry.create(
          "arrivals:mmpp:app=a,rates_per_ms=1/2,mean_dwell_ms=0"),
      ConfigError);
  // ramp
  EXPECT_THROW(
      registry.create(
          "arrivals:ramp:app=a,start_rate_per_ms=0,end_rate_per_ms=0"),
      ConfigError);
  // validation
  EXPECT_THROW(registry.create("arrivals:validation:app=a,count=-1"),
               ConfigError);
  // field grammar
  EXPECT_THROW(registry.create("arrivals:poisson:app=a,rate_per_ms=1,bogus=2"),
               ConfigError);
  EXPECT_THROW(
      registry.create("arrivals:poisson:app=a,rate_per_ms=1,rate_per_ms=2"),
      ConfigError);
  EXPECT_THROW(
      registry.create("arrivals:poisson:app=a,rate_per_ms=banana"),
      ConfigError);
  EXPECT_THROW(registry.create(
                   "arrivals:poisson:app=a,rate_per_ms=1,deadline_ns=-5"),
               ConfigError);
}

TEST(WorkloadWrappers, LegacyValidationStillFires) {
  Rng rng(1);
  EXPECT_THROW(make_performance_workload({{"a", 0, 1.0}}, 100, rng),
               DssocError);
  EXPECT_THROW(make_performance_workload({{"a", 10, 1.5}}, 100, rng),
               DssocError);
  EXPECT_THROW(make_performance_workload({}, 0, rng), DssocError);
  EXPECT_THROW(make_validation_workload({{"a", -1}}), DssocError);
}

// --- trace record/replay --------------------------------------------------

struct TempFile {
  explicit TempFile(std::string name) : path(std::move(name)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(ArrivalTrace, RoundTripsThroughAFile) {
  TempFile file("arrivals_test_trace.bin");
  const auto process = ArrivalRegistry::instance().create(
      "arrivals:poisson:app=a,rate_per_ms=3,deadline_ns=900");
  Rng rng(17);
  const Workload original = process->generate(sim_from_ms(10.0), rng);
  ASSERT_GT(original.size(), 0u);
  write_arrival_trace(file.path, original);

  const Workload read_back = read_arrival_trace(file.path);
  expect_same_trace(original, read_back);
  EXPECT_EQ(read_back.source_spec, original.source_spec);

  // Replay through the registry: the entries are the recorded ones, the
  // source_spec becomes the trace spec (that is what a re-run would hash).
  const std::string trace_spec = "arrivals:trace:" + file.path;
  Rng unused(0);
  const Workload replayed = ArrivalRegistry::instance()
                                .create(trace_spec)
                                ->generate(sim_from_ms(999.0), unused);
  expect_same_trace(original, replayed);
  EXPECT_EQ(replayed.source_spec, trace_spec);
}

TEST(ArrivalTrace, RejectsCorruptAndMissingFiles) {
  EXPECT_THROW(read_arrival_trace("no_such_arrival_trace.bin"), ConfigError);
  EXPECT_THROW(
      ArrivalRegistry::instance().create("arrivals:trace:no_such_trace.bin"),
      ConfigError);

  TempFile file("arrivals_test_corrupt.bin");
  const Workload workload = make_validation_workload({{"a", 3}});
  write_arrival_trace(file.path, workload);
  // Flip one byte in the middle: the CRC trailer must catch it.
  std::fstream stream(file.path,
                      std::ios::in | std::ios::out | std::ios::binary);
  stream.seekg(0, std::ios::end);
  const std::streamoff size = stream.tellg();
  stream.seekp(size / 2);
  char byte = 0;
  stream.seekg(size / 2);
  stream.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  stream.seekp(size / 2);
  stream.write(&byte, 1);
  stream.close();
  EXPECT_THROW(read_arrival_trace(file.path), StateError);
}

// --- latency / deadline / jitter statistics -------------------------------

AppRecord app_record(double latency_ms, SimTime deadline = 0) {
  AppRecord record;
  record.app_name = "a";
  record.injection_time = 0;
  record.completion_time = sim_from_ms(latency_ms);
  record.deadline = deadline;
  return record;
}

TEST(LatencyStatsTest, MatchesHandComputedFixture) {
  EmulationStats stats;
  for (int i = 1; i <= 10; ++i) {
    stats.apps.push_back(app_record(static_cast<double>(i)));
  }
  const LatencyStats slo = stats.latency_stats();
  EXPECT_EQ(slo.count, 10u);
  EXPECT_DOUBLE_EQ(slo.mean_ms, 5.5);
  // Nearest-rank: p50 -> 5th sample, p95 -> ceil(9.5) = 10th, p99 -> 10th.
  EXPECT_DOUBLE_EQ(slo.p50_ms, 5.0);
  EXPECT_DOUBLE_EQ(slo.p95_ms, 10.0);
  EXPECT_DOUBLE_EQ(slo.p99_ms, 10.0);
  EXPECT_DOUBLE_EQ(slo.max_ms, 10.0);
  // Population stddev of 1..10 = sqrt(8.25).
  EXPECT_NEAR(slo.jitter_ms, 2.8722813232690143, 1e-12);
  EXPECT_EQ(slo.deadline_count, 0u);
  EXPECT_DOUBLE_EQ(slo.deadline_miss_rate(), 0.0);
}

TEST(LatencyStatsTest, CountsDeadlineMisses) {
  EmulationStats stats;
  stats.apps.push_back(app_record(1.0, sim_from_ms(2.0)));  // met
  stats.apps.push_back(app_record(3.0, sim_from_ms(2.0)));  // missed
  stats.apps.push_back(app_record(9.0));                    // no deadline
  const LatencyStats slo = stats.latency_stats();
  EXPECT_EQ(slo.count, 3u);
  EXPECT_EQ(slo.deadline_count, 2u);
  EXPECT_EQ(slo.deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(slo.deadline_miss_rate(), 0.5);
}

TEST(LatencyStatsTest, EmptyStatsAreAllZero) {
  const LatencyStats slo = EmulationStats{}.latency_stats();
  EXPECT_EQ(slo.count, 0u);
  EXPECT_DOUBLE_EQ(slo.p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(slo.jitter_ms, 0.0);
}

TEST(EmulationStatsTest, SaturationFieldsSurviveCheckpoint) {
  EmulationStats stats;
  stats.config_label = "cfg";
  stats.saturated = true;
  stats.saturation_time = sim_from_ms(4.0);
  stats.saturation_arrivals = 37;
  stats.apps.push_back(app_record(2.0, sim_from_ms(1.0)));

  StateWriter out(state_tag('T', 'E', 'S', 'T'));
  stats.save(out);
  const std::vector<std::uint8_t> bytes = out.take();
  StateReader in(bytes.data(), bytes.size(), state_tag('T', 'E', 'S', 'T'));
  EmulationStats restored;
  restored.load(in);
  EXPECT_TRUE(restored.saturated);
  EXPECT_EQ(restored.saturation_time, sim_from_ms(4.0));
  EXPECT_EQ(restored.saturation_arrivals, 37u);
  ASSERT_EQ(restored.apps.size(), 1u);
  EXPECT_EQ(restored.apps[0].deadline, sim_from_ms(1.0));
  EXPECT_EQ(restored.digest(), stats.digest());
  EXPECT_NEAR(restored.saturation_rate_jobs_per_ms(), 37.0 / 4.0, 1e-12);
}

}  // namespace
}  // namespace dssoc::core

namespace dssoc::exp {
namespace {

struct EngineFixture {
  EngineFixture() {
    platform = platform::zcu102();
    apps::register_all_kernels(registry);
    library = apps::default_application_library();
  }

  core::EmulationSetup setup(const std::string& config,
                             const std::string& scheduler) const {
    core::EmulationSetup s;
    s.platform = &platform;
    s.soc = platform::parse_config_label(config);
    s.apps = &library;
    s.registry = &registry;
    s.cost_model = platform::default_cost_model();
    s.options.scheduler = scheduler;
    s.options.run_kernels = false;
    return s;
  }

  platform::Platform platform;
  core::SharedObjectRegistry registry;
  core::ApplicationLibrary library;
};

/// A 1C+0F engine fed two jobs per microsecond cannot keep up: the backlog
/// crosses any small bound almost immediately.
core::Workload overdriven_workload() {
  Rng rng(7);
  return core::ArrivalRegistry::instance()
      .create("arrivals:periodic:app=range_detection,period_ns=500,"
              "deadline_ns=1000000")
      ->generate(sim_from_ms(5.0), rng);
}

TEST(Saturation, OverdrivenPointTerminatesWithMeasuredRate) {
  EngineFixture fx;
  core::EmulationSetup setup = fx.setup("1C+0F", "FRFS");
  setup.options.saturation_backlog_limit = 32;
  const core::EmulationStats stats =
      core::run_virtual(setup, overdriven_workload());
  EXPECT_TRUE(stats.saturated);
  EXPECT_GT(stats.saturation_time, 0);
  EXPECT_GT(stats.saturation_arrivals, 0u);
  EXPECT_GT(stats.saturation_rate_jobs_per_ms(), 0.0);
  EXPECT_EQ(status_from_stats(stats), PointStatus::kSaturated);
  // The detector cut the run long before the full trace drained.
  EXPECT_LT(stats.apps.size(), overdriven_workload().size());
}

TEST(Saturation, DisabledLimitRunsToCompletion) {
  EngineFixture fx;
  const core::EmulationStats stats =
      core::run_virtual(fx.setup("1C+0F", "FRFS"), overdriven_workload());
  EXPECT_FALSE(stats.saturated);
  EXPECT_EQ(status_from_stats(stats), PointStatus::kOk);
  EXPECT_EQ(stats.apps.size(), overdriven_workload().size());
}

TEST(Saturation, CheckpointRestoreReproducesTheCut) {
  EngineFixture fx;
  core::EmulationSetup setup = fx.setup("1C+0F", "FRFS");
  setup.options.saturation_backlog_limit = 32;
  const core::Workload workload = overdriven_workload();

  core::Emulation reference(setup, workload);
  const core::EmulationStats direct = reference.finish();
  ASSERT_TRUE(direct.saturated);

  core::Emulation source(setup, workload);
  source.run_until_idle(sim_from_us(3.0));
  const core::EngineSnapshot snapshot = source.snapshot();
  core::Emulation resumed(setup, workload);
  resumed.restore(snapshot);
  const core::EmulationStats after = resumed.finish();
  EXPECT_TRUE(after.saturated);
  EXPECT_EQ(after.digest(), direct.digest());
}

// --- config-hash sensitivity ----------------------------------------------

TEST(PointConfigHash, SensitiveToSloInputs) {
  SweepPoint point;
  point.label = "p";
  point.workload.source_spec = "arrivals:poisson:app=a,rate_per_ms=1";
  point.workload.entries.push_back({"a", 10, 100});
  const std::uint64_t base = point_config_hash(point);

  SweepPoint other = point;
  other.workload.source_spec = "arrivals:poisson:app=a,rate_per_ms=2";
  EXPECT_NE(point_config_hash(other), base);

  other = point;
  other.workload.entries[0].deadline = 200;
  EXPECT_NE(point_config_hash(other), base);

  other = point;
  other.setup.options.saturation_backlog_limit = 64;
  EXPECT_NE(point_config_hash(other), base);

  EXPECT_EQ(point_config_hash(point), base);
}

// --- DSSOC_ARRIVALS whole-sweep override ----------------------------------

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {}
  ~EnvGuard() { ::unsetenv(name_); }
  const char* name_;
};

TEST(SweepEnvArrivals, OverrideRegeneratesEveryPoint) {
  EngineFixture fx;
  const EnvGuard guard("DSSOC_ARRIVALS");
  const std::string spec =
      "arrivals:poisson:app=wifi_tx,rate_per_ms=2,deadline_ns=5000000";
  ::setenv("DSSOC_ARRIVALS", spec.c_str(), 1);
  const SweepEnv env = SweepEnv::from_env();
  EXPECT_EQ(env.arrivals_override, spec);

  std::vector<SweepPoint> points;
  for (const std::uint64_t seed : {1u, 2u}) {
    SweepPoint point;
    point.label = cat("1C+0F/FRFS/", seed);
    point.setup = fx.setup("1C+0F", "FRFS");
    point.setup.options.seed = seed;
    point.workload = core::make_validation_workload({{"wifi_tx", 1}});
    point.time_frame = sim_from_ms(4.0);
    points.push_back(std::move(point));
  }
  const SweepRun run = run_sweep(points, env);
  ASSERT_EQ(run.execution.results.size(), 2u);
  for (const SweepPoint& point : points) {
    EXPECT_EQ(point.workload.source_spec, spec);
    EXPECT_GT(point.workload.size(), 0u);
  }
  // Distinct seeds must draw distinct Poisson streams.
  EXPECT_NE(points[0].workload.entries.back().arrival,
            points[1].workload.entries.back().arrival);
  for (const SweepResult& result : run.execution.results) {
    EXPECT_EQ(result.status, PointStatus::kOk);
  }
}

TEST(SweepEnvArrivals, RejectsPointsWithoutAnInjectionWindow) {
  EngineFixture fx;
  SweepEnv env;
  env.arrivals_override = "arrivals:poisson:app=wifi_tx,rate_per_ms=1";
  std::vector<SweepPoint> points;
  SweepPoint point;
  point.label = "windowless";
  point.setup = fx.setup("1C+0F", "FRFS");
  point.workload = core::make_validation_workload({{"wifi_tx", 1}});
  points.push_back(std::move(point));
  EXPECT_THROW(run_sweep(points, env), ConfigError);
}

TEST(SweepEnvArrivals, InvalidOverrideFailsBeforeAnyPointRuns) {
  EngineFixture fx;
  SweepEnv env;
  env.arrivals_override = "arrivals:nope:x";
  std::vector<SweepPoint> points;
  SweepPoint point;
  point.label = "p";
  point.setup = fx.setup("1C+0F", "FRFS");
  point.workload = core::make_validation_workload({{"wifi_tx", 1}});
  point.time_frame = sim_from_ms(1.0);
  points.push_back(std::move(point));
  EXPECT_THROW(run_sweep(points, env), ConfigError);
}

}  // namespace
}  // namespace dssoc::exp
