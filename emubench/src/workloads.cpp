#include "workloads.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace emubench {
namespace {

using dssoc::Rng;
using dssoc::SimTime;
using dssoc::Stopwatch;
using dssoc::cat;
using dssoc::format_double;
using dssoc::core::InjectionSpec;

// Arrival phases are drawn in [0, period / 8): enough to give every seed its
// own trace, small enough that EFT's backlog, which is sensitive to how the
// applications' arrivals line up, varies little between seeds.
constexpr double kPhaseFraction = 0.125;

// fig10-eft runs each Table II rate and policy this many times, each with
// its own arrival phases. EFT's host time depends on how the phases line
// up; several draws per point keep wall_s from following the seed, and
// keep all four threads busy.
constexpr int kFig10Replicas = 4;

// Times the arrival generation of each point separately from the rest of
// its construction.
struct SetupClock {
  Stopwatch total;
  SimTime arrivals_ns = 0;

  template <typename Fn>
  dssoc::core::Workload arrivals(Fn&& generate) {
    Stopwatch watch;
    dssoc::core::Workload workload = generate();
    arrivals_ns += watch.elapsed();
    return workload;
  }

  void finish(SweepSetup& setup) const {
    const SimTime total_ns = total.elapsed();
    setup.arrivals_ms = dssoc::sim_to_ms(arrivals_ns);
    setup.points_ms = dssoc::sim_to_ms(total_ns - arrivals_ns);
  }
};

void fig10_points(SweepSetup& setup, std::uint64_t seed, SetupClock& clock) {
  const dssoc::bench::Harness& harness = *setup.harness;
  const double scale = 0.2;  // bench_fig10's scaled 20 ms frame
  const SimTime frame = dssoc::sim_from_ms(100.0 * scale);
  auto scaled = [&](std::size_t count) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(count) * scale));
  };
  // The sweep hands points out in order, so they are built longest first:
  // EFT before MET before FRFS, higher rates first. The replicas of the EFT
  // 6.92 jobs/ms point, which alone takes a third of the sweep's host time,
  // start together, and the short points fill the threads in at the end.
  const std::vector<dssoc::bench::TableTwoRow> rows(
      std::rbegin(dssoc::bench::kTableTwo), std::rend(dssoc::bench::kTableTwo));
  for (const char* policy : {"EFT", "MET", "FRFS"}) {
    for (const dssoc::bench::TableTwoRow& row : rows) {
      for (int replica = 0; replica < kFig10Replicas; ++replica) {
        const std::uint64_t point_seed =
            dssoc::exp::point_seed(seed, setup.points.size());
        Rng rng(point_seed);
        dssoc::exp::SweepPoint point;
        point.label = cat("3C+2F/", policy, "/",
                          format_double(row.rate_jobs_per_ms, 2), "/r", replica);
        point.workload = clock.arrivals([&] {
          return phased_periodic(
              {{"pulse_doppler",
                dssoc::core::period_for_count(frame, scaled(row.pulse_doppler)),
                1.0},
               {"range_detection",
                dssoc::core::period_for_count(frame,
                                              scaled(row.range_detection)),
                1.0},
               {"wifi_tx",
                dssoc::core::period_for_count(frame, scaled(row.wifi_tx)),
                1.0},
               {"wifi_rx",
                dssoc::core::period_for_count(frame, scaled(row.wifi_rx)),
                1.0}},
              frame, kPhaseFraction, rng);
        });
        point.time_frame = frame;
        point.setup = harness.setup(harness.zcu102, "3C+2F", policy);
        point.setup.options.run_kernels = false;
        point.setup.options.seed = point_seed;
        setup.points.push_back(std::move(point));
      }
    }
  }
}

void fig11_points(SweepSetup& setup, std::uint64_t seed, SetupClock& clock) {
  const dssoc::bench::Harness& harness = *setup.harness;
  const double window_ms = 10.0;  // bench_fig11's scaled frame
  const SimTime frame = dssoc::sim_from_ms(window_ms);
  const char* configs[] = {"0BIG+3LTL", "1BIG+2LTL", "1BIG+3LTL",
                           "2BIG+1LTL", "2BIG+2LTL", "2BIG+3LTL",
                           "3BIG+1LTL", "3BIG+2LTL", "3BIG+3LTL",
                           "4BIG+1LTL", "4BIG+2LTL", "4BIG+3LTL"};
  const double rates[] = {4, 6, 8, 10, 12, 14, 16, 18};
  // The Table II application mix, rescaled to each rate.
  const std::pair<const char*, double> mix[] = {
      {"pulse_doppler", 8.0 / 171.0},
      {"range_detection", 123.0 / 171.0},
      {"wifi_tx", 20.0 / 171.0},
      {"wifi_rx", 20.0 / 171.0}};
  for (const char* config : configs) {
    for (const double rate : rates) {
      const std::uint64_t point_seed =
          dssoc::exp::point_seed(seed, setup.points.size());
      Rng rng(point_seed);
      dssoc::exp::SweepPoint point;
      point.label = cat(config, "/", format_double(rate, 0), "j_ms");
      point.workload = clock.arrivals([&] {
        std::vector<InjectionSpec> specs;
        for (const auto& [app, fraction] : mix) {
          const auto count = std::max<std::size_t>(
              1, static_cast<std::size_t>(rate * window_ms * fraction));
          specs.push_back(
              {app, dssoc::core::period_for_count(frame, count), 1.0});
        }
        return phased_periodic(specs, frame, kPhaseFraction, rng);
      });
      point.time_frame = frame;
      point.setup = harness.setup(harness.odroid, config, "FRFS");
      point.setup.options.run_kernels = false;
      point.setup.options.seed = point_seed;
      setup.points.push_back(std::move(point));
    }
  }
}

void validation_points(SweepSetup& setup, std::uint64_t seed, SetupClock& clock) {
  const dssoc::bench::Harness& harness = *setup.harness;
  const int iterations = 20;  // bench_fig9's scaled iteration count
  const char* configs[] = {"1C+0F", "1C+1F", "1C+2F", "2C+0F",
                           "2C+1F", "2C+2F", "3C+0F"};
  for (const char* config : configs) {
    for (int i = 0; i < iterations; ++i) {
      const std::uint64_t point_seed =
          dssoc::exp::point_seed(seed, setup.points.size());
      Rng rng(point_seed);
      dssoc::exp::SweepPoint point;
      point.label = cat(config, "/iter", i);
      // All four instances arrive at t = 0; the seed decides the order the
      // workload manager injects them in.
      point.workload = clock.arrivals([&] {
        std::vector<std::pair<std::string, int>> instances;
        for (const std::string& app : app_names()) {
          instances.emplace_back(app, 1);
        }
        for (std::size_t k = instances.size(); k > 1; --k) {
          std::swap(instances[k - 1], instances[rng.next_below(k)]);
        }
        return dssoc::core::make_validation_workload(instances);
      });
      point.setup = harness.setup(harness.zcu102, config);
      point.setup.options.seed = point_seed;
      setup.points.push_back(std::move(point));
    }
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig10-eft", "fig11-grid", "validation-kernels", "fig11-proc-journal"};
  return names;
}

const std::vector<std::string>& app_names() {
  static const std::vector<std::string> names = {
      "pulse_doppler", "range_detection", "wifi_tx", "wifi_rx"};
  return names;
}

SweepSetup build_setup(const std::string& workload, std::uint64_t seed) {
  SweepSetup setup;
  Stopwatch harness_watch;
  setup.harness = std::make_unique<dssoc::bench::Harness>();
  setup.harness_ms = dssoc::sim_to_ms(harness_watch.elapsed());
  SetupClock clock;
  if (workload == "fig10-eft") {
    fig10_points(setup, seed, clock);
  } else if (workload == "fig11-grid" || workload == "fig11-proc-journal") {
    fig11_points(setup, seed, clock);
    setup.proc_journal = workload == "fig11-proc-journal";
  } else if (workload == "validation-kernels") {
    validation_points(setup, seed, clock);
  } else {
    throw dssoc::DssocError(cat("unknown workload \"", workload, "\""));
  }
  clock.finish(setup);
  return setup;
}

dssoc::core::Workload phased_periodic(const std::vector<InjectionSpec>& specs,
                                      SimTime frame, double phase_fraction,
                                      Rng& rng) {
  dssoc::core::Workload workload =
      dssoc::core::make_performance_workload(specs, frame, rng);
  std::map<std::string, SimTime> phase;
  for (const InjectionSpec& spec : specs) {
    const auto range = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(spec.period) *
                                      phase_fraction));
    phase[spec.app_name] = static_cast<SimTime>(rng.next_below(range));
  }
  for (dssoc::core::WorkloadEntry& entry : workload.entries) {
    entry.arrival += phase.at(entry.app_name);
  }
  std::stable_sort(workload.entries.begin(), workload.entries.end(),
                   [](const dssoc::core::WorkloadEntry& a,
                      const dssoc::core::WorkloadEntry& b) {
                     return a.arrival < b.arrival;
                   });
  // The trace is no longer what the periodic spec alone generates.
  workload.source_spec.clear();
  return workload;
}

}  // namespace emubench
