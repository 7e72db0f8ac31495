// The benchmark's workloads: each is one design-space sweep, built from the
// workload seed through the emulator's public set-up API (bench::Harness,
// core::make_*_workload, exp::point_seed).
//
//   fig10-eft           Table II rates x {EFT, MET, FRFS} on ZCU102 3C+2F,
//                       20 ms frame, timing only, each point run with four
//                       arrival-phase draws, longest points first.
//   fig11-grid          12 Odroid big.LITTLE configurations x 8 rates, FRFS,
//                       10 ms frame, timing only.
//   validation-kernels  one each of the four applications on the 7 ZCU102
//                       configurations x 20 iterations, kernels executed,
//                       modeled scheduling overhead.
//   fig11-proc-journal  the fig11-grid points on the process fabric with a
//                       sweep journal.
//
// Every point starts emulation from empty (no warm prefix). Point i gets the
// seed exp::point_seed(seed, i), which seeds its engine (options.seed) and
// its arrival draws: a phase per application in the periodic workloads, the
// injection order in validation-kernels.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "exp/sweep.hpp"

namespace emubench {

inline constexpr std::uint64_t kDefaultSeed = 7;

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// The applications of the default library.
const std::vector<std::string>& app_names();

/// Everything one workload's set-up builds. The points refer to the
/// harness's platforms, library and registry; the harness is heap-owned so
/// a SweepSetup can be moved.
struct SweepSetup {
  std::unique_ptr<dssoc::bench::Harness> harness;
  std::vector<dssoc::exp::SweepPoint> points;
  /// Run on the process fabric with a sweep journal (fig11-proc-journal).
  bool proc_journal = false;
  double harness_ms = 0.0;   ///< constructing the Harness
  double arrivals_ms = 0.0;  ///< generating every point's arrivals
  double points_ms = 0.0;    ///< the rest of building the points

  double total_s() const {
    return (harness_ms + arrivals_ms + points_ms) / 1e3;
  }
};

/// Builds `workload`'s points from `seed`. Throws DssocError on an unknown
/// workload name.
SweepSetup build_setup(const std::string& workload, std::uint64_t seed);

/// Periodic arrivals (core::make_performance_workload) with every attempt of
/// each application shifted by one phase drawn from `rng` in
/// [0, period * phase_fraction). Each application keeps its count and
/// period; only where its arrivals sit in the frame depends on the seed.
dssoc::core::Workload phased_periodic(
    const std::vector<dssoc::core::InjectionSpec>& specs,
    dssoc::SimTime frame, double phase_fraction, dssoc::Rng& rng);

}  // namespace emubench
