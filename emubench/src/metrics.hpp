// Metric definitions, the reductions behind them, and the result line.
//
// End-to-end metrics come from untraced sweeps through exp::run_sweep;
// per-layer metrics come from the traced run (spans.hpp, traced.hpp) plus
// outside timings of the sweep, wire and journal layers. Host time and
// emulated time are separate metrics; "emu_" names the emulated ones.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep.hpp"
#include "spans.hpp"

namespace emubench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
};

/// Printed by a run with tracing off, in this order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Printed by a traced run, in this order.
const std::vector<MetricDef>& per_layer_metrics();

/// Metric-name grammar: 1 to 64 characters of [A-Za-z0-9_.-], starting with
/// a letter or a digit.
bool valid_metric_name(std::string_view name);

using MetricValues = std::map<std::string, double>;

double median(std::vector<double> values);
/// Nearest-rank quantile, q in (0, 1]; 0 for an empty sample.
double nearest_rank(std::vector<double> values, double q);

/// Host-time per-layer metrics of one traced pass: engine, scheduler,
/// estimator, kernel and pool layers. Adds "kernel.<symbol>.ms" (self time)
/// for every kernel symbol that ran.
MetricValues layer_metrics(const std::vector<Span>& spans,
                           const Counters& counters,
                           const std::vector<std::string>& symbols);

/// The sweep layer, from one exp::run_sweep execution: per-point wall p50
/// and max, and the wall time not explained by point work spread over the
/// fabric's width.
MetricValues sweep_metrics(const std::vector<dssoc::exp::SweepResult>& results,
                           double sweep_wall_ms, int width);

/// The one-line JSON result: correct, attempted, failed, and each metric of
/// `defs` with its value and unit. Throws when `values` lacks one of them.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricDef>& defs,
                        const MetricValues& values);

}  // namespace emubench
