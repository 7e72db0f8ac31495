// Tests of the benchmark itself: metric names, span arithmetic, the traced
// layer wrappers and the seeded workload generation.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "json/json.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace emubench;

dssoc::json::Value benchmark_json() {
  std::ifstream in(EMUBENCH_JSON_PATH);
  std::stringstream text;
  text << in.rdbuf();
  return dssoc::json::parse(text.str());
}

Span span(Layer layer, std::int64_t parent, std::int64_t start,
          std::int64_t end) {
  Span s;
  s.layer = layer;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(MetricNames, FollowTheGrammarAndAreUnique) {
  std::set<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *defs) {
      EXPECT_TRUE(valid_metric_name(def.name)) << def.name;
      EXPECT_TRUE(seen.insert(def.name).second) << def.name;
      EXPECT_TRUE(std::string(def.better) == "higher" ||
                  std::string(def.better) == "lower")
          << def.name;
    }
  }
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".wall"));
  EXPECT_FALSE(valid_metric_name("wall s"));
  EXPECT_FALSE(valid_metric_name("kernel.fft/ifft.ms"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name("sched.ns_per_call.p99"));
}

TEST(MetricNames, MatchBenchmarkJson) {
  const dssoc::json::Value doc = benchmark_json();
  const std::pair<const char*, const std::vector<MetricDef>*> sections[] = {
      {"end_to_end", &end_to_end_metrics()},
      {"per_layer", &per_layer_metrics()}};
  for (const auto& [key, defs] : sections) {
    const dssoc::json::Array& listed = doc.at(key).as_array();
    ASSERT_EQ(listed.size(), defs->size()) << key;
    for (std::size_t i = 0; i < listed.size(); ++i) {
      EXPECT_EQ(listed[i].at("name").as_string(), (*defs)[i].name);
      EXPECT_EQ(listed[i].at("unit").as_string(), (*defs)[i].unit);
      EXPECT_EQ(listed[i].at("better").as_string(), (*defs)[i].better);
    }
  }
  const dssoc::json::Array& workloads = doc.at("workloads").as_array();
  ASSERT_EQ(workloads.size(), workload_names().size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(workloads[i].at("name").as_string(), workload_names()[i]);
  }
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      span(Layer::kPoint, -1, 0, 100),      // 0: root
      span(Layer::kEngineRun, 0, 10, 30),   // 1: child
      span(Layer::kSched, 1, 12, 20),       // 2: grandchild
      span(Layer::kEngineRun, 0, 25, 50),   // 3: sibling overlapping 1
      span(Layer::kEngineRun, 0, 60, 70),   // 4: disjoint sibling
      span(Layer::kEngineRun, 0, 90, 120),  // 5: runs past the parent
      span(Layer::kPoint, -1, 200, 210),    // 6: second root
  };
  const std::vector<std::int64_t> self = self_times(spans);
  // Root: 100 minus [10,50) + [60,70) + [90,100) = 40.
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 12);  // 20 minus the nested 8
  EXPECT_EQ(self[2], 8);
  EXPECT_EQ(self[3], 25);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 30);
  EXPECT_EQ(self[6], 10);
}

TEST(SelfTime, SiblingsAreOrderedByStartWhateverTheirIndex) {
  const std::vector<Span> spans = {
      span(Layer::kEngineRun, -1, 0, 50),
      span(Layer::kSched, 0, 30, 40),
      span(Layer::kSched, 0, 5, 10),
      span(Layer::kEst, 1, 32, 34),
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 35);
  EXPECT_EQ(self[1], 8);
  EXPECT_EQ(self[2], 5);
  EXPECT_EQ(self[3], 2);
}

TEST(ThreadTrace, NestsSpansAndMergeRebasesParents) {
  std::vector<ThreadTrace> traces(2);
  for (ThreadTrace& trace : traces) {
    trace.set_point(3);
    trace.begin(Layer::kPoint);
    trace.begin(Layer::kEngineRun);
    trace.begin(Layer::kSched);
    trace.end();
    trace.end();
    trace.end();
    trace.counters.est_logical = 5;
  }
  EXPECT_THROW(traces[0].end(), dssoc::DssocError);
  Counters counters;
  const std::vector<Span> spans = merge_traces(traces, counters);
  ASSERT_EQ(spans.size(), 6U);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[4].parent, 3);
  EXPECT_EQ(spans[5].parent, 4);
  EXPECT_EQ(spans[5].point, 3);
  EXPECT_EQ(counters.est_logical, 10U);
  for (const Span& s : spans) {
    EXPECT_LE(s.start_ns, s.end_ns);
  }
}

TEST(Quantiles, NearestRankAndMedian) {
  EXPECT_EQ(nearest_rank({}, 0.5), 0.0);
  EXPECT_EQ(nearest_rank({4, 1, 3, 2}, 0.5), 2.0);
  EXPECT_EQ(nearest_rank({4, 1, 3, 2}, 0.99), 4.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({5, 1, 3}), 3.0);
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  const std::vector<MetricDef> defs = {{"wall_s", "s", "lower"},
                                       {"tasks_per_s", "1/s", "higher"}};
  const std::string line =
      result_line(true, 12, 0, defs, {{"wall_s", 0.25}, {"tasks_per_s", 8e5}});
  const dssoc::json::Value doc = dssoc::json::parse(line);
  EXPECT_EQ(doc.as_object().size(), 4U);
  EXPECT_TRUE(doc.at("correct").as_bool());
  EXPECT_EQ(doc.at("attempted").as_int(), 12);
  EXPECT_EQ(doc.at("failed").as_int(), 0);
  EXPECT_EQ(doc.at("metrics").at("wall_s").at("value").as_double(), 0.25);
  EXPECT_EQ(doc.at("metrics").at("tasks_per_s").at("unit").as_string(), "1/s");
  EXPECT_THROW(result_line(true, 1, 0, defs, {{"wall_s", 1.0}}),
               dssoc::DssocError);
}

TEST(Workloads, PhasedPeriodicKeepsCountsAndDependsOnTheSeed) {
  const dssoc::SimTime frame = dssoc::sim_from_ms(10.0);
  const std::vector<dssoc::core::InjectionSpec> specs = {
      {"wifi_tx", dssoc::core::period_for_count(frame, 7), 1.0},
      {"range_detection", dssoc::core::period_for_count(frame, 40), 1.0}};
  auto generate = [&](std::uint64_t seed) {
    dssoc::Rng rng(seed);
    return phased_periodic(specs, frame, 1.0, rng);
  };
  const dssoc::core::Workload a = generate(1);
  EXPECT_EQ(a.instance_counts().at("wifi_tx"), 7U);
  EXPECT_EQ(a.instance_counts().at("range_detection"), 40U);
  for (std::size_t i = 1; i < a.entries.size(); ++i) {
    EXPECT_LE(a.entries[i - 1].arrival, a.entries[i].arrival);
  }
  auto arrivals = [](const dssoc::core::Workload& w) {
    std::vector<dssoc::SimTime> out;
    for (const auto& entry : w.entries) {
      out.push_back(entry.arrival);
    }
    return out;
  };
  EXPECT_EQ(arrivals(a), arrivals(generate(1)));
  EXPECT_NE(arrivals(a), arrivals(generate(2)));
}

TEST(Workloads, SetupIsDeterministicPerSeed) {
  for (const std::string& name : workload_names()) {
    const SweepSetup a = build_setup(name, 7);
    const SweepSetup b = build_setup(name, 7);
    ASSERT_EQ(a.points.size(), b.points.size()) << name;
    ASSERT_FALSE(a.points.empty()) << name;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
      EXPECT_EQ(a.points[i].label, b.points[i].label);
      EXPECT_EQ(a.points[i].setup.options.seed, b.points[i].setup.options.seed);
      ASSERT_EQ(a.points[i].workload.size(), b.points[i].workload.size());
      for (std::size_t k = 0; k < a.points[i].workload.size(); ++k) {
        EXPECT_EQ(a.points[i].workload.entries[k].app_name,
                  b.points[i].workload.entries[k].app_name);
        EXPECT_EQ(a.points[i].workload.entries[k].arrival,
                  b.points[i].workload.entries[k].arrival);
      }
    }
  }
  EXPECT_THROW(build_setup("no-such-workload", 7), dssoc::DssocError);
}

// The decorator, the estimator proxy and the kernel wrappers must not change
// what is emulated: a traced emulation's digest equals the untraced one.
TEST(Traced, DecoratorLeavesEmulationsDigestIdentical) {
  register_traced_scheduler();
  dssoc::bench::Harness harness;
  std::vector<std::string> symbols;
  const dssoc::core::SharedObjectRegistry registry = traced_registry(
      harness.registry, harness.library, app_names(), symbols);
  ASSERT_FALSE(symbols.empty());
  const dssoc::SimTime frame = dssoc::sim_from_ms(2.0);
  dssoc::Rng rng(7);
  const dssoc::core::Workload workload = phased_periodic(
      {{"range_detection", dssoc::core::period_for_count(frame, 12), 1.0},
       {"wifi_tx", dssoc::core::period_for_count(frame, 3), 1.0},
       {"pulse_doppler", frame, 1.0}},
      frame, 1.0, rng);
  for (const char* policy : {"FRFS", "EFT"}) {
    for (const bool run_kernels : {false, true}) {
      dssoc::core::EmulationSetup plain =
          harness.setup(harness.zcu102, "3C+2F", policy);
      plain.options.run_kernels = run_kernels;
      dssoc::core::EmulationSetup traced = plain;
      traced.options.scheduler = traced_scheduler_spec(policy);
      traced.registry = &registry;

      const dssoc::core::EmulationStats expected =
          dssoc::core::run_virtual(plain, workload);
      ThreadTrace trace;
      set_current_trace(&trace);
      const dssoc::core::EmulationStats got =
          dssoc::core::run_virtual(traced, workload);
      set_current_trace(nullptr);

      EXPECT_EQ(got.digest(), expected.digest()) << policy << run_kernels;
      EXPECT_EQ(got.scheduler_name, policy);
      std::size_t sched = 0;
      std::size_t est = 0;
      std::size_t kernel = 0;
      for (const Span& s : trace.spans()) {
        sched += s.layer == Layer::kSched ? 1 : 0;
        est += s.layer == Layer::kEst ? 1 : 0;
        kernel += s.layer == Layer::kKernel ? 1 : 0;
      }
      EXPECT_GT(sched, 0U) << policy;
      EXPECT_EQ(est > 0, std::string(policy) == "EFT") << policy;
      EXPECT_EQ(kernel, run_kernels ? expected.tasks.size() : 0U) << policy;
    }
  }
}

}  // namespace
