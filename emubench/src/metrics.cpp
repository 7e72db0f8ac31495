#include "metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace emubench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"wall_s", "s", "lower"},
      {"tasks_per_s", "1/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
      {"ok_ratio", "ratio", "higher"},
      {"emu_makespan_s", "s", "lower"},
      {"emu_sched_overhead_us", "us", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup.harness_ms", "ms", "lower"},
      {"setup.points_ms", "ms", "lower"},
      {"arrivals.gen_ms", "ms", "lower"},
      {"engine.init_ms", "ms", "lower"},
      {"engine.run_ms", "ms", "lower"},
      {"engine.self_ms", "ms", "lower"},
      {"engine.ns_per_task", "ns", "lower"},
      {"engine.events", "count", "lower"},
      {"engine.tasks", "count", "higher"},
      {"sched.calls", "count", "lower"},
      {"sched.self_ms", "ms", "lower"},
      {"sched.ns_per_call.p50", "ns", "lower"},
      {"sched.ns_per_call.p99", "ns", "lower"},
      {"sched.inert_ratio", "ratio", "lower"},
      {"sched.ready_depth.mean", "count", "lower"},
      {"sched.ready_depth.max", "count", "lower"},
      {"est.calls", "count", "lower"},
      {"est.logical", "count", "higher"},
      {"est.self_ms", "ms", "lower"},
      {"est.real_ratio", "ratio", "lower"},
      {"kernel.calls", "count", "lower"},
      {"kernel.self_ms", "ms", "lower"},
      {"kernel.ns_per_call.p50", "ns", "lower"},
      {"kernel.ns_per_call.p99", "ns", "lower"},
      {"kernel.pd_ref_fft.ms", "ms", "lower"},
      {"kernel.pd_row_fft.ms", "ms", "lower"},
      {"kernel.pd_ref_fft_accel.ms", "ms", "lower"},
      {"pool.constructed", "count", "lower"},
      {"pool.recycled", "count", "higher"},
      {"pool.recycle_ratio", "ratio", "higher"},
      {"sweep.point_ms.p50", "ms", "lower"},
      {"sweep.point_ms.max", "ms", "lower"},
      {"sweep.dispatch_ms", "ms", "lower"},
      {"fabric.overhead_ms", "ms", "lower"},
      {"fabric.result_bytes", "bytes", "lower"},
      {"fabric.encode_ms", "ms", "lower"},
      {"fabric.decode_ms", "ms", "lower"},
      {"journal.append_ms", "ms", "lower"},
      {"journal.bytes", "bytes", "lower"},
      {"journal.records", "count", "lower"},
      {"trace.overhead", "ratio", "lower"},
  };
  return defs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(name.front()))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

MetricValues layer_metrics(const std::vector<Span>& spans,
                           const Counters& counters,
                           const std::vector<std::string>& symbols) {
  const std::vector<std::int64_t> self = self_times(spans);
  double init_ns = 0.0;
  double run_ns = 0.0;
  double engine_self_ns = 0.0;
  double sched_self_ns = 0.0;
  double est_self_ns = 0.0;
  double kernel_self_ns = 0.0;
  std::vector<double> sched_ns;
  std::vector<double> kernel_ns;
  std::map<std::string, double> symbol_self_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const auto duration = static_cast<double>(span.duration_ns());
    const auto own = static_cast<double>(self[i]);
    switch (span.layer) {
      case Layer::kPoint:
        break;
      case Layer::kEngineInit:
        init_ns += duration;
        engine_self_ns += own;
        break;
      case Layer::kEngineRun:
        run_ns += duration;
        engine_self_ns += own;
        break;
      case Layer::kSched:
        sched_ns.push_back(duration);
        sched_self_ns += own;
        break;
      case Layer::kEst:
        est_self_ns += own;
        break;
      case Layer::kKernel:
        kernel_ns.push_back(duration);
        kernel_self_ns += own;
        DSSOC_REQUIRE(span.symbol < symbols.size(),
                      "kernel span with an unknown symbol id");
        symbol_self_ns[symbols[span.symbol]] += own;
        break;
    }
  }
  auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const auto tasks = static_cast<double>(counters.tasks);
  const auto sched_calls = static_cast<double>(sched_ns.size());
  const auto est_calls = static_cast<double>(counters.est_calls);
  const auto est_logical = static_cast<double>(counters.est_logical);
  const auto constructed = static_cast<double>(counters.pool_constructed);
  const auto recycled = static_cast<double>(counters.pool_recycled);

  MetricValues m;
  m["engine.init_ms"] = init_ns / 1e6;
  m["engine.run_ms"] = run_ns / 1e6;
  m["engine.self_ms"] = engine_self_ns / 1e6;
  m["engine.ns_per_task"] = ratio(engine_self_ns, tasks);
  m["engine.events"] = static_cast<double>(counters.events);
  m["engine.tasks"] = tasks;
  m["sched.calls"] = sched_calls;
  m["sched.self_ms"] = sched_self_ns / 1e6;
  m["sched.ns_per_call.p50"] = nearest_rank(sched_ns, 0.50);
  m["sched.ns_per_call.p99"] = nearest_rank(sched_ns, 0.99);
  m["sched.inert_ratio"] =
      ratio(static_cast<double>(counters.sched_inert), sched_calls);
  m["sched.ready_depth.mean"] =
      ratio(static_cast<double>(counters.ready_depth_sum), sched_calls);
  m["sched.ready_depth.max"] = static_cast<double>(counters.ready_depth_max);
  m["est.calls"] = est_calls;
  m["est.logical"] = est_logical;
  m["est.self_ms"] = est_self_ns / 1e6;
  m["est.real_ratio"] = ratio(est_calls, est_calls + est_logical);
  m["kernel.calls"] = static_cast<double>(kernel_ns.size());
  m["kernel.self_ms"] = kernel_self_ns / 1e6;
  m["kernel.ns_per_call.p50"] = nearest_rank(kernel_ns, 0.50);
  m["kernel.ns_per_call.p99"] = nearest_rank(kernel_ns, 0.99);
  for (const MetricDef& def : per_layer_metrics()) {
    const std::string name = def.name;
    if (dssoc::starts_with(name, "kernel.") && dssoc::ends_with(name, ".ms")) {
      m[name] = 0.0;  // a listed symbol that did not run
    }
  }
  for (const auto& [symbol, ns] : symbol_self_ns) {
    m[dssoc::cat("kernel.", symbol, ".ms")] = ns / 1e6;
  }
  m["pool.constructed"] = constructed;
  m["pool.recycled"] = recycled;
  m["pool.recycle_ratio"] = ratio(recycled, constructed + recycled);
  return m;
}

MetricValues sweep_metrics(const std::vector<dssoc::exp::SweepResult>& results,
                           double sweep_wall_ms, int width) {
  std::vector<double> point_ms;
  double sum_ms = 0.0;
  for (const dssoc::exp::SweepResult& result : results) {
    point_ms.push_back(result.wall_ms);
    sum_ms += result.wall_ms;
  }
  MetricValues m;
  m["sweep.point_ms.p50"] = nearest_rank(point_ms, 0.50);
  m["sweep.point_ms.max"] = nearest_rank(point_ms, 1.0);
  m["sweep.dispatch_ms"] =
      sweep_wall_ms - sum_ms / static_cast<double>(std::max(width, 1));
  return m;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricDef>& defs,
                        const MetricValues& values) {
  std::string metrics;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    DSSOC_REQUIRE(it != values.end(),
                  dssoc::cat("metric ", def.name, " was not measured"));
    DSSOC_REQUIRE(std::isfinite(it->second),
                  dssoc::cat("metric ", def.name, " is not finite"));
    metrics += dssoc::cat(metrics.empty() ? "" : ", ", "\"", def.name,
                          "\": {\"value\": ",
                          dssoc::format_double_roundtrip(it->second),
                          ", \"unit\": \"", def.unit,
                          "\"}");
  }
  return dssoc::cat("{\"correct\": ", correct ? "true" : "false",
                    ", \"attempted\": ", attempted, ", \"failed\": ", failed,
                    ", \"metrics\": {", metrics, "}}");
}

}  // namespace emubench
