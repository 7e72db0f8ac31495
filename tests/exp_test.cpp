// Tests for the experiment layer: parallel sweep execution (determinism,
// ordering, error propagation, thread resolution) and the BENCH_sweep.json
// artifact writer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "apps/registry.hpp"
#include "core/emulation.hpp"
#include "exp/aggregate.hpp"
#include "exp/bench_json.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_env.hpp"
#include "platform/platform.hpp"

namespace dssoc::exp {
namespace {

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

  platform::Platform platform;
  core::SharedObjectRegistry registry;
  core::ApplicationLibrary library;
};

std::vector<SweepPoint> mixed_points(const Fixture& fx) {
  const core::Workload workload = core::make_validation_workload(
      {{"range_detection", 2}, {"wifi_tx", 1}, {"wifi_rx", 1}});
  std::vector<SweepPoint> points;
  for (const char* config : {"1C+0F", "1C+1F", "2C+1F", "3C+2F"}) {
    for (const char* scheduler : {"FRFS", "MET", "EFT", "RANDOM"}) {
      points.push_back(fx.point(config, scheduler, workload));
    }
  }
  return points;
}

TEST(SweepRunner, ResultsArriveInInputOrder) {
  Fixture fx;
  const std::vector<SweepPoint> points = mixed_points(fx);
  const SweepRunner runner(4);
  const std::vector<SweepResult> results = runner.run(points);
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(results[i].label, points[i].label);
    EXPECT_EQ(results[i].stats.config_label, points[i].setup.soc.label);
    EXPECT_GT(results[i].stats.makespan, 0);
    EXPECT_GE(results[i].wall_ms, 0.0);
  }
}

TEST(SweepRunner, ParallelRunIsBitIdenticalToSerialRun) {
  Fixture fx;
  const std::vector<SweepPoint> points = mixed_points(fx);
  const std::vector<SweepResult> serial = SweepRunner(1).run(points);
  const std::vector<SweepResult> parallel = SweepRunner(4).run(points);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].label);
    EXPECT_EQ(serial[i].stats.makespan, parallel[i].stats.makespan);
    EXPECT_EQ(serial[i].stats.scheduling_overhead_total,
              parallel[i].stats.scheduling_overhead_total);
    ASSERT_EQ(serial[i].stats.tasks.size(), parallel[i].stats.tasks.size());
    for (std::size_t t = 0; t < serial[i].stats.tasks.size(); ++t) {
      EXPECT_EQ(serial[i].stats.tasks[t].end_time,
                parallel[i].stats.tasks[t].end_time);
      EXPECT_EQ(serial[i].stats.tasks[t].pe_id,
                parallel[i].stats.tasks[t].pe_id);
    }
  }
}

TEST(SweepRunner, FunctionalKernelsRunSafelyInParallel) {
  // run_kernels=true executes real DSP kernels (FFT plan cache and all) on
  // pool threads; every point must still complete and stay deterministic.
  Fixture fx;
  const core::Workload workload = core::make_validation_workload(
      {{"wifi_rx", 1}, {"pulse_doppler", 1}});
  std::vector<SweepPoint> points;
  for (int i = 0; i < 6; ++i) {
    points.push_back(fx.point("2C+1F", "FRFS", workload));
  }
  const std::vector<SweepResult> results = SweepRunner(3).run(points);
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].stats.makespan, results[0].stats.makespan);
  }
}

TEST(SweepRunner, FirstErrorByInputOrderIsRethrown) {
  Fixture fx;
  const core::Workload workload =
      core::make_validation_workload({{"wifi_tx", 1}});
  std::vector<SweepPoint> points;
  points.push_back(fx.point("1C+0F", "FRFS", workload));
  points.push_back(fx.point("1C+0F", "BOGUS", workload));  // unknown policy
  // The rethrow keeps the dynamic type (ConfigError stays catchable as
  // ConfigError) and prepends which point died, by index and label.
  try {
    SweepRunner(2).run(points);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("sweep point 1 (1C+0F/BOGUS)"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepRunner, EmptySweepYieldsEmptyResults) {
  EXPECT_TRUE(SweepRunner(2).run({}).empty());
}

TEST(SweepRunner, ThreadResolution) {
  EXPECT_EQ(SweepRunner(3).threads(), 3);
  EXPECT_GE(SweepRunner(0).threads(), 1);  // hardware fallback
  EXPECT_GE(SweepRunner::resolve_threads(-5), 1);
}

TEST(PointSeed, DistinctAndDeterministic) {
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 256; ++i) {
    seeds.insert(point_seed(1, i));
  }
  EXPECT_EQ(seeds.size(), 256u);
  EXPECT_EQ(point_seed(1, 7), point_seed(1, 7));
  EXPECT_NE(point_seed(1, 7), point_seed(2, 7));
}

TEST(BenchJson, DocumentShape) {
  Fixture fx;
  const core::Workload workload =
      core::make_validation_workload({{"wifi_tx", 1}});
  const std::vector<SweepResult> results =
      SweepRunner(1).run({fx.point("1C+0F", "FRFS", workload)});
  const json::Value doc = sweep_to_json("unit_test", 2, 12.5, results,
                                        SweepArtifactMeta::detect());
  EXPECT_EQ(doc.at("schema_version").as_int(), 5);
  EXPECT_EQ(doc.at("saturated_count").as_int(), 0);
  EXPECT_EQ(doc.at("bench").as_string(), "unit_test");
  EXPECT_EQ(doc.at("threads").as_int(), 2);
  EXPECT_EQ(doc.at("point_count").as_int(), 1);
  EXPECT_EQ(doc.at("failed_count").as_int(), 0);
  EXPECT_EQ(doc.at("fabric").as_string(), "inproc");
  EXPECT_EQ(doc.at("worker_respawns").as_int(), 0);
  EXPECT_FALSE(doc.at("resumed").as_bool());
  EXPECT_EQ(doc.at("journal_points_reused").as_int(), 0);
  EXPECT_EQ(doc.at("interrupted").as_int(), 0);
  const json::Array& points = doc.at("points").as_array();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].at("label").as_string(), "1C+0F/FRFS");
  EXPECT_EQ(points[0].at("status").as_string(), "ok");
  EXPECT_EQ(points[0].at("source").as_string(), "run");
  EXPECT_EQ(points[0].at("retries").as_int(), 0);
  // The bit-identity proof key: 16 hex digits of the stats digest.
  EXPECT_EQ(points[0].at("digest").as_string().size(), 16u);
  EXPECT_EQ(points[0].at("scheduler").as_string(), "FRFS");
  EXPECT_EQ(points[0].at("tasks").as_int(), 7);
  EXPECT_GT(points[0].at("makespan_ms").as_double(), 0.0);
  EXPECT_GE(points[0].at("wall_ms").as_double(), 0.0);
}

TEST(BenchJson, FailedPointsCarryStatusNotMeasurements) {
  std::vector<SweepResult> results(2);
  results[0].label = "cfg/ok";
  results[0].stats.makespan = sim_from_ms(5.0);
  results[1].label = "cfg/bad";
  results[1].status = PointStatus::kFailed;
  results[1].error = "sweep point 1 (cfg/bad): worker crashed (signal 9)";
  results[1].retries = 2;
  SweepArtifactMeta meta;
  meta.fabric = "proc";
  meta.worker_respawns = 3;
  const json::Value doc = sweep_to_json("unit_test", 2, 1.0, results, meta);
  EXPECT_EQ(doc.at("fabric").as_string(), "proc");
  EXPECT_EQ(doc.at("worker_respawns").as_int(), 3);
  EXPECT_EQ(doc.at("failed_count").as_int(), 1);
  const json::Array& points = doc.at("points").as_array();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].at("status").as_string(), "ok");
  EXPECT_TRUE(points[0].as_object().contains("makespan_ms"));
  EXPECT_EQ(points[1].at("status").as_string(), "failed");
  EXPECT_EQ(points[1].at("retries").as_int(), 2);
  EXPECT_EQ(points[1].at("error").as_string(),
            "sweep point 1 (cfg/bad): worker crashed (signal 9)");
  // A failed point has no meaningful stats, so no measurement keys at all —
  // their absence is what bench_compare.py keys on.
  EXPECT_FALSE(points[1].as_object().contains("makespan_ms"));
  EXPECT_FALSE(points[1].as_object().contains("wall_ms"));
}

TEST(BenchJson, WriteAndParseRoundTrip) {
  Fixture fx;
  const core::Workload workload =
      core::make_validation_workload({{"range_detection", 1}});
  const std::vector<SweepResult> results =
      SweepRunner(1).run({fx.point("2C+0F", "FRFS", workload)});
  const std::string path = "exp_test_sweep.json";
  write_json_file(path, sweep_to_json("roundtrip", 1, 1.0, results,
                                      SweepArtifactMeta::detect()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const json::Value parsed = json::parse(buffer.str());
  EXPECT_EQ(parsed.at("bench").as_string(), "roundtrip");
  EXPECT_EQ(parsed.at("points").as_array().size(), 1u);
  std::remove(path.c_str());
}

TEST(BenchJson, UnwritablePathThrows) {
  EXPECT_THROW(write_json_file("/nonexistent-dir/x.json", json::Value(1)),
               DssocError);
}

// --- fork mode --------------------------------------------------------------

core::Workload perf_workload(double frame_ms) {
  Rng rng(3);
  return core::make_performance_workload(
      {{"wifi_tx", sim_from_ms(1.0), 1.0},
       {"wifi_rx", sim_from_ms(1.0), 1.0}},
      sim_from_ms(frame_ms), rng);
}

// EmulationStats::digest() hashes the full checkpoint encoding — strictly
// stronger than the old hand-rolled field hash this helper used to be.
std::uint64_t result_digest(const SweepResult& result) {
  return result.stats.digest();
}

/// Warm-up snapshot plus composite (warm-up prefix + shifted tail) points —
/// the fig10 fork-sweep pattern in miniature.
struct ForkSweep {
  SweepRunner::Warmup warm;
  std::vector<SweepPoint> points;
};

ForkSweep make_fork_sweep(const Fixture& fx, const std::string& scheduler) {
  const core::Workload warmup = perf_workload(2.0);
  SweepPoint base = fx.point("3C+2F", scheduler, warmup);
  base.setup.options.run_kernels = false;
  ForkSweep sweep;
  sweep.warm =
      SweepRunner::warm_up(base.setup, warmup, sim_from_ms(2.0));
  const SimTime offset = sweep.warm.snapshot.virtual_time();
  for (int i = 0; i < 4; ++i) {
    SweepPoint point = base;
    point.label = "3C+2F/" + scheduler + "/tail" + std::to_string(i);
    core::Workload tail = perf_workload(0.5 + 0.5 * i);
    point.workload.entries = warmup.entries;
    for (core::WorkloadEntry& entry : tail.entries) {
      entry.arrival += offset;
      point.workload.entries.push_back(std::move(entry));
    }
    sweep.points.push_back(std::move(point));
  }
  return sweep;
}

TEST(SweepRunnerFork, ForkedSweepIsBitIdenticalToColdSweep) {
  Fixture fx;
  const ForkSweep sweep = make_fork_sweep(fx, "FRFS");
  ASSERT_TRUE(sweep.warm.snapshot.quiescent());
  ASSERT_GE(sweep.warm.wall_ms, 0.0);

  // Thread-count sweep: serial, small pool, and the hardware default. Both
  // modes must return input-ordered, bit-identical results at every width.
  const std::vector<SweepResult> reference =
      SweepRunner(1).run(sweep.points);
  for (const int threads : {1, 4, 0}) {
    SCOPED_TRACE(threads);
    const SweepRunner runner(threads);
    const std::vector<SweepResult> cold = runner.run(sweep.points);
    const std::vector<SweepResult> forked =
        runner.run_forked(sweep.points, sweep.warm.snapshot);
    ASSERT_EQ(cold.size(), sweep.points.size());
    ASSERT_EQ(forked.size(), sweep.points.size());
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
      EXPECT_EQ(cold[i].label, sweep.points[i].label);
      EXPECT_EQ(forked[i].label, sweep.points[i].label);
      EXPECT_EQ(result_digest(cold[i]), result_digest(reference[i]));
      EXPECT_EQ(result_digest(forked[i]), result_digest(reference[i]));
    }
  }
}

TEST(SweepRunnerFork, PointSeedStreamsAreThreadCountInvariant) {
  // point_seed is pure, but drivers derive per-point seeds before the pool
  // ever runs; pin that the (seed, index) -> stream mapping the sweep
  // observes cannot depend on DSSOC_SWEEP_THREADS or pool width.
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < 16; ++i) {
    expected.push_back(point_seed(42, i));
  }
  for (const char* threads : {"1", "4", "16"}) {
    ASSERT_EQ(setenv("DSSOC_SWEEP_THREADS", threads, 1), 0);
    EXPECT_EQ(SweepRunner(SweepEnv::from_env().threads).threads(),
              std::atoi(threads));
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(point_seed(42, i), expected[i]);
    }
  }
  ASSERT_EQ(unsetenv("DSSOC_SWEEP_THREADS"), 0);
}

TEST(SweepRunnerFork, MidSweepFailurePropagatesInBothModes) {
  Fixture fx;
  ForkSweep sweep = make_fork_sweep(fx, "FRFS");

  {  // cold mode: an unknown policy mid-sweep (healthy points around it)
    std::vector<SweepPoint> points = sweep.points;
    points[1].setup.options.scheduler = "BOGUS";
    EXPECT_THROW(SweepRunner(2).run(points), ConfigError);
  }
  {  // fork mode: a mid-sweep point whose tail violates the fork contract
     // (arrival before the snapshot's virtual time) throws StateError
     // through the same first-by-input-order rethrow.
    std::vector<SweepPoint> points = sweep.points;
    core::WorkloadEntry early;
    early.app_name = "wifi_tx";
    early.arrival = 0;
    points[2].workload.entries.push_back(std::move(early));
    EXPECT_THROW(SweepRunner(2).run_forked(points, sweep.warm.snapshot),
                 StateError);
  }
}

TEST(SweepRunnerFork, PoolDisabledParity) {
  Fixture fx;
  const ForkSweep sweep = make_fork_sweep(fx, "EFT");
  const std::vector<SweepResult> pooled_cold =
      SweepRunner(2).run(sweep.points);
  const std::vector<SweepResult> pooled_fork =
      SweepRunner(2).run_forked(sweep.points, sweep.warm.snapshot);

  ASSERT_EQ(setenv("DSSOC_POOL_DISABLE", "1", 1), 0);
  const std::vector<SweepResult> bare_cold = SweepRunner(2).run(sweep.points);
  const std::vector<SweepResult> bare_fork =
      SweepRunner(2).run_forked(sweep.points, sweep.warm.snapshot);
  ASSERT_EQ(unsetenv("DSSOC_POOL_DISABLE"), 0);

  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    SCOPED_TRACE(sweep.points[i].label);
    EXPECT_EQ(result_digest(bare_cold[i]), result_digest(pooled_cold[i]));
    EXPECT_EQ(result_digest(bare_fork[i]), result_digest(pooled_fork[i]));
    EXPECT_EQ(result_digest(pooled_fork[i]), result_digest(pooled_cold[i]));
  }
}

// --- aggregation ------------------------------------------------------------

std::vector<SweepResult> fake_results() {
  // Two "configs" x three "iterations", fig9-label style, with makespans
  // chosen so the reductions are easy to verify by hand.
  std::vector<SweepResult> results;
  const struct {
    const char* label;
    double makespan_ms;
    std::size_t events;
  } rows[] = {
      {"1C+1F/iter0", 10.0, 5}, {"1C+1F/iter1", 30.0, 5},
      {"1C+1F/iter2", 20.0, 5}, {"3C+2F/iter0", 2.0, 10},
      {"3C+2F/iter1", 4.0, 10}, {"3C+2F/iter2", 6.0, 10},
  };
  for (const auto& row : rows) {
    SweepResult result;
    result.label = row.label;
    result.stats.makespan = sim_from_ms(row.makespan_ms);
    result.stats.scheduling_events = row.events;
    result.stats.scheduling_overhead_total = sim_from_ms(1.0);
    results.push_back(std::move(result));
  }
  return results;
}

TEST(Aggregation, GroupsByLabelPrefixInFirstAppearanceOrder) {
  const std::vector<SweepResult> results = fake_results();
  const Aggregation aggregation = Aggregation::by_label_prefix(results);
  ASSERT_EQ(aggregation.groups().size(), 2u);
  EXPECT_EQ(aggregation.groups()[0].key, "1C+1F");
  EXPECT_EQ(aggregation.groups()[1].key, "3C+2F");

  const ResultGroup& first = aggregation.groups()[0];
  ASSERT_EQ(first.members.size(), 3u);
  EXPECT_EQ(first.makespans_ms(), (std::vector<double>{10.0, 30.0, 20.0}));
  EXPECT_DOUBLE_EQ(first.mean_makespan_ms(), 20.0);
  const FiveNumberSummary summary = first.makespan_summary_ms();
  EXPECT_DOUBLE_EQ(summary.min, 10.0);
  EXPECT_DOUBLE_EQ(summary.median, 20.0);
  EXPECT_DOUBLE_EQ(summary.max, 30.0);
  // Representative = the group's last point (the legacy utilization row).
  EXPECT_EQ(&first.representative(), &results[2].stats);

  const ResultGroup* found = aggregation.find("3C+2F");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->mean_makespan_ms(), 4.0);
  EXPECT_EQ(aggregation.find("9C+9F"), nullptr);
}

TEST(Aggregation, CustomKeyAndOverheadReduction) {
  const std::vector<SweepResult> results = fake_results();
  const Aggregation by_events = Aggregation::by(
      results, [](const SweepResult& result) {
        return std::to_string(result.stats.scheduling_events) + "ev";
      });
  ASSERT_EQ(by_events.groups().size(), 2u);
  const ResultGroup* five = by_events.find("5ev");
  ASSERT_NE(five, nullptr);
  EXPECT_EQ(five->members.size(), 3u);
  // avg overhead per event = 1 ms / 5 events = 200 us for each member.
  EXPECT_NEAR(five->mean_avg_sched_overhead_us(), 200.0, 1e-9);
  // A label with no '/' forms its own group under the prefix convention.
  std::vector<SweepResult> bare(1);
  bare[0].label = "solo";
  const Aggregation solo = Aggregation::by_label_prefix(bare);
  ASSERT_EQ(solo.groups().size(), 1u);
  EXPECT_EQ(solo.groups()[0].key, "solo");
}

TEST(Aggregation, FailedMembersAreExcludedFromReductions) {
  std::vector<SweepResult> results = fake_results();
  results[1].status = PointStatus::kFailed;  // 1C+1F/iter1, the 30 ms point
  const Aggregation aggregation = Aggregation::by_label_prefix(results);
  const ResultGroup* group = aggregation.find("1C+1F");
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->members.size(), 3u);  // failed members still belong
  EXPECT_EQ(group->ok_count(), 2u);
  EXPECT_EQ(group->failed_count(), 1u);
  EXPECT_FALSE(group->all_ok());
  EXPECT_EQ(group->makespans_ms(), (std::vector<double>{10.0, 20.0}));
  EXPECT_DOUBLE_EQ(group->mean_makespan_ms(), 15.0);
  const ResultGroup* other = aggregation.find("3C+2F");
  ASSERT_NE(other, nullptr);
  EXPECT_TRUE(other->all_ok());
}

TEST(Aggregation, RepresentativeSkipsFailedTail) {
  std::vector<SweepResult> results = fake_results();
  results[2].status = PointStatus::kFailed;  // the group's last member
  const Aggregation aggregation = Aggregation::by_label_prefix(results);
  const ResultGroup* group = aggregation.find("1C+1F");
  ASSERT_NE(group, nullptr);
  // Last *ok* member, not last member.
  EXPECT_EQ(&group->representative(), &results[1].stats);
}

TEST(Aggregation, AllFailedGroupRefusesToSummarize) {
  std::vector<SweepResult> results = fake_results();
  results[0].status = PointStatus::kFailed;
  results[1].status = PointStatus::kFailed;
  results[2].status = PointStatus::kFailed;
  const Aggregation aggregation = Aggregation::by_label_prefix(results);
  const ResultGroup* group = aggregation.find("1C+1F");
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->ok_count(), 0u);
  EXPECT_TRUE(group->makespans_ms().empty());
  EXPECT_THROW(group->representative(), DssocError);
  EXPECT_THROW(group->mean_avg_sched_overhead_us(), DssocError);
}

}  // namespace
}  // namespace dssoc::exp
