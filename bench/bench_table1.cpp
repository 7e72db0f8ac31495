// Table I reproduction: standalone application execution time and task
// count on a 3-core + 2-FFT DSSoC configuration under FRFS.
//
// Paper values (ZCU102): range detection 0.32 ms / 6 tasks, pulse Doppler
// 5.60 ms / 770 tasks, WiFi TX 0.13 ms / 7 tasks, WiFi RX 2.22 ms / 9 tasks.
//
// The four standalone emulations run as one exp::run_sweep sweep.
#include "bench/harness.hpp"
#include "exp/sweep_env.hpp"

int main() {
  using namespace dssoc;
  bench::Harness harness;

  struct PaperRow {
    const char* app;
    double paper_ms;
    std::size_t paper_tasks;
  };
  const PaperRow rows[] = {
      {"range_detection", 0.32, 6},
      {"pulse_doppler", 5.60, 770},
      {"wifi_tx", 0.13, 7},
      {"wifi_rx", 2.22, 9},
  };

  std::vector<exp::SweepPoint> points;
  for (const PaperRow& row : rows) {
    exp::SweepPoint point;
    point.label = row.app;
    point.workload = core::make_validation_workload({{row.app, 1}});
    point.setup = harness.setup(harness.zcu102, "3C+2F", "FRFS");
    points.push_back(std::move(point));
  }

  exp::SweepRun run = exp::run_sweep(points, exp::SweepEnv::from_env());
  const std::vector<exp::SweepResult>& results = run.execution.results;

  trace::Table table({"Application", "Exec time (ms)", "Paper (ms)",
                      "Task count", "Paper tasks"});
  std::size_t i = 0;
  for (const PaperRow& row : rows) {
    const exp::SweepResult& result = results[i++];
    if (result.status == exp::PointStatus::kFailed) {
      table.add_row({row.app, "failed", format_double(row.paper_ms, 2),
                     "failed", std::to_string(row.paper_tasks)});
      continue;
    }
    const core::EmulationStats& stats = result.stats;
    table.add_row({row.app, format_double(stats.makespan_ms(), 3),
                   format_double(row.paper_ms, 2),
                   std::to_string(stats.tasks.size()),
                   std::to_string(row.paper_tasks)});
  }

  std::cout << "Table I — application execution time and task count on "
               "3 cores + 2 FFT accelerators (FRFS)\n\n"
            << table.render() << '\n';
  return run.finish("bench_table1");
}
