// Table II reproduction: application instance counts used for the
// performance-mode injection rates (100 ms frame, probability 1), plus the
// measured execution time of each row's workload on the paper's 3C+2F
// configuration under FRFS — the five emulations run as one exp::run_sweep
// sweep.
#include "bench/harness.hpp"
#include "exp/sweep_env.hpp"

int main() {
  using namespace dssoc;
  bench::Harness harness;
  const SimTime frame = sim_from_ms(100.0);

  std::vector<exp::SweepPoint> points;
  for (const bench::TableTwoRow& row : bench::kTableTwo) {
    Rng rng(1);
    exp::SweepPoint point;
    point.label = cat("3C+2F/FRFS/", format_double(row.rate_jobs_per_ms, 2));
    point.workload = bench::table_two_workload(row, 1.0, frame, rng);
    point.setup = harness.setup(harness.zcu102, "3C+2F", "FRFS");
    point.setup.options.run_kernels = false;
    points.push_back(std::move(point));
  }

  exp::SweepRun run = exp::run_sweep(points, exp::SweepEnv::from_env());
  const std::vector<exp::SweepResult>& results = run.execution.results;

  trace::Table table({"Rate (jobs/ms)", "Pulse Doppler", "Range Detection",
                      "WiFi TX", "WiFi RX", "Total", "Measured rate",
                      "Exec time (s)"});
  for (std::size_t i = 0; i < std::size(bench::kTableTwo); ++i) {
    const bench::TableTwoRow& row = bench::kTableTwo[i];
    const core::Workload& workload = points[i].workload;
    const auto counts = workload.instance_counts();
    table.add_row(
        {format_double(row.rate_jobs_per_ms, 2),
         std::to_string(counts.at("pulse_doppler")),
         std::to_string(counts.at("range_detection")),
         std::to_string(counts.at("wifi_tx")),
         std::to_string(counts.at("wifi_rx")),
         std::to_string(workload.size()),
         format_double(workload.offered_rate_per_ms(frame), 2),
         results[i].status == exp::PointStatus::kFailed
             ? "failed"
             : format_double(results[i].stats.makespan_sec(), 3)});
  }

  std::cout << "Table II — instance counts per injection rate "
               "(100 ms frame, injection probability 1; exec time on "
               "3C+2F/FRFS)\n\n"
            << table.render() << '\n';
  std::cout << "Paper rows: 8/123/20/20, 10/164/27/27, 15/245/41/41, "
               "18/329/55/55, 32/495/82/83\n";
  return run.finish("bench_table2");
}
