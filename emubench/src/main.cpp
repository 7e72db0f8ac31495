// emubench: runs one benchmark workload and prints its metrics.
//
//   emubench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//            [--scratch DIR] [--expected FILE] [--print-digests]
//
// --trace 0 runs the whole sweep through exp::run_sweep again and again for
// S seconds, setting the workload up three times before each sweep; wall_s
// and setup_s are medians. --trace 1 prints the per-layer profile instead:
// one sweep through exp::run_sweep for the sweep layer (plus, on the process
// fabric, the fabric and journal layers timed from outside), then untraced
// and traced passes of the benchmark's own executor (core::Emulation per
// point, a caller-owned instance pool per thread) for S seconds. Every pass
// is checked point by point: status ok, digest equal to the expected digest
// (default seed) and to every other pass of the run. The last stdout line is
// the JSON result; the exit code is 0 only when every check passed.
// --print-digests prints one "<workload> <label> <digest>" line per point,
// the format of expected_digests.txt.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "exp/journal.hpp"
#include "exp/sweep_env.hpp"
#include "exp/wire.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "traced.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using dssoc::Stopwatch;
using dssoc::cat;
using dssoc::exp::SweepPoint;
using dssoc::exp::SweepResult;
using namespace emubench;

constexpr int kSetupRuns = 21;     // set-ups per traced run
constexpr int kSetupsPerSweep = 3;  // set-ups before each untraced sweep
constexpr std::size_t kMaxReportedProblems = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/emubench-scratch";
  std::string expected = "emubench/expected_digests.txt";
  bool print_digests = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digests") {
      args.print_digests = true;
      continue;
    }
    DSSOC_REQUIRE(i + 1 < argc, cat(flag, " needs a value"));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      DSSOC_REQUIRE(value == "0" || value == "1", "--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--expected") {
      args.expected = value;
    } else {
      throw dssoc::DssocError(cat("unknown argument ", flag));
    }
  }
  bool known = false;
  for (const std::string& name : workload_names()) {
    known = known || name == args.workload;
  }
  DSSOC_REQUIRE(known, cat("--workload must name one of the workloads, got \"",
                           args.workload, "\""));
  DSSOC_REQUIRE(args.seconds > 0.0, "--seconds must be positive");
  return args;
}

/// The sweep layer reads DSSOC_* knobs from the environment; start from
/// none, so an inherited knob cannot change what is measured.
void clear_dssoc_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text = *entry;
    if (dssoc::starts_with(text, "DSSOC_")) {
      names.push_back(text.substr(0, text.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
}

/// fig11-proc-journal runs the fig11-grid points, so it must reproduce
/// fig11-grid's digests.
std::string digest_key(const std::string& workload) {
  return workload == "fig11-proc-journal" ? "fig11-grid" : workload;
}

/// Expected digest per point label, from lines of
/// "<workload> <label> <hex digest>".
using ExpectedDigests = std::map<std::string, std::uint64_t>;

ExpectedDigests load_expected(const std::string& path,
                              const std::string& workload) {
  std::ifstream in(path);
  DSSOC_REQUIRE(in.good(), cat("cannot read expected digests ", path));
  ExpectedDigests by_label;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::string label;
    std::string hex;
    if ((fields >> name >> label >> hex) && name == digest_key(workload)) {
      by_label[label] = std::stoull(hex, nullptr, 16);
    }
  }
  DSSOC_REQUIRE(!by_label.empty(), cat(path, " has no digests for ",
                                       digest_key(workload)));
  return by_label;
}

/// The expected digests in point order; empty when none are pinned.
std::vector<std::uint64_t> expected_for(const ExpectedDigests& expected,
                                        const std::vector<SweepPoint>& points) {
  std::vector<std::uint64_t> digests;
  for (const SweepPoint& point : points) {
    if (expected.empty()) {
      break;
    }
    const auto it = expected.find(point.label);
    DSSOC_REQUIRE(it != expected.end(),
                  cat("no expected digest for point ", point.label));
    digests.push_back(it->second);
  }
  return digests;
}

/// Attempted and failed point counts over every checked pass.
class Tally {
 public:
  /// Checks one pass: a digest per point (empty when the pass did not
  /// produce the point) against `reference`. An empty reference is
  /// replaced by this pass's digests, so later passes must repeat them.
  void check(const std::string& pass,
             const std::vector<std::optional<std::uint64_t>>& digests,
             const std::vector<SweepPoint>& points,
             std::vector<std::uint64_t>& reference) {
    const bool adopt = reference.empty();
    for (std::size_t i = 0; i < points.size(); ++i) {
      ++attempted_;
      const std::optional<std::uint64_t> digest =
          i < digests.size() ? digests[i] : std::nullopt;
      if (!digest.has_value()) {
        fail(cat(pass, ": point ", points[i].label, " did not complete"));
      } else if (!adopt && *digest != reference[i]) {
        fail(cat(pass, ": point ", points[i].label, " digest ",
                 dssoc::format_hex64(*digest), " != expected ",
                 dssoc::format_hex64(reference[i])));
      }
      if (adopt) {
        reference.push_back(digest.value_or(0));
      }
    }
  }

  void fail(const std::string& problem) {
    ++failed_;
    if (failed_ <= kMaxReportedProblems) {
      std::cerr << "emubench: FAILED " << problem << '\n';
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One exp::run_sweep execution and its host wall time.
struct Sweep {
  dssoc::exp::SweepExecution execution;
  double wall_ms = 0.0;
};

/// Runs `points` through exp::run_sweep on `fabric` ("inproc" or "proc"),
/// journaling to `journal` when it is non-empty (a fresh file per sweep).
Sweep run_sweep(std::vector<SweepPoint>& points, int width,
                const std::string& fabric, const std::string& journal) {
  // The fabric and journal are selected by the environment (proc_pool.hpp).
  if (fabric == "proc") {
    setenv("DSSOC_SWEEP_FABRIC", "proc", 1);
  } else {
    unsetenv("DSSOC_SWEEP_FABRIC");
  }
  if (journal.empty()) {
    unsetenv("DSSOC_SWEEP_JOURNAL");
  } else {
    std::filesystem::remove(journal);
    setenv("DSSOC_SWEEP_JOURNAL", journal.c_str(), 1);
  }
  dssoc::exp::SweepEnv env;
  env.fabric = fabric;
  env.threads = width;
  env.journal_path = journal;
  dssoc::exp::SweepRun run = dssoc::exp::run_sweep(points, env);
  return {std::move(run.execution), run.total_wall_ms};
}

/// Applies `digest` to indices [0, n) on `width` threads: hashing every
/// result of a large sweep costs more than running it, and each repetition
/// is checked.
template <typename Fn>
std::vector<std::optional<std::uint64_t>> parallel_digests(std::size_t n,
                                                           int width,
                                                           const Fn& digest) {
  std::vector<std::optional<std::uint64_t>> digests(n);
  std::atomic<std::size_t> cursor{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < width; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = cursor++; i < n; i = cursor++) {
        digests[i] = digest(i);
      }
    });
  }
  threads.clear();  // joins
  return digests;
}

/// Digests of a sweep's ok points; a point that failed, saturated, or ran
/// on another fabric than requested has none.
std::vector<std::optional<std::uint64_t>> sweep_digests(
    const Sweep& sweep, const std::string& fabric, int width) {
  const std::vector<SweepResult>& results = sweep.execution.results;
  return parallel_digests(
      results.size(), width,
      [&](std::size_t i) -> std::optional<std::uint64_t> {
        if (results[i].status != dssoc::exp::PointStatus::kOk ||
            sweep.execution.fabric != fabric) {
          return std::nullopt;
        }
        return results[i].stats.digest();
      });
}

/// One pass of the benchmark's own executor over the points.
struct Pass {
  double wall_ms = 0.0;
  std::vector<std::optional<dssoc::core::EmulationStats>> stats;
  std::vector<ThreadTrace> traces;  ///< one per thread when traced
};

/// Runs every point as core::Emulation + finish() on `width` threads, each
/// with its own caller-owned instance pool, as exp::SweepRunner does. When
/// `traced`, each thread records spans and counters into its ThreadTrace.
Pass run_pass(const std::vector<SweepPoint>& points, int width, bool traced) {
  Pass pass;
  pass.stats.resize(points.size());
  const std::size_t threads = std::clamp<std::size_t>(
      static_cast<std::size_t>(width), 1, std::max<std::size_t>(points.size(), 1));
  pass.traces.resize(traced ? threads : 0);
  std::atomic<std::size_t> cursor{0};
  auto worker = [&](std::size_t t) {
    ThreadTrace* trace = traced ? &pass.traces[t] : nullptr;
    set_current_trace(trace);
    dssoc::core::AppInstancePool pool;
    for (std::size_t i = cursor++; i < points.size(); i = cursor++) {
      if (trace != nullptr) {
        trace->set_point(static_cast<std::int32_t>(i));
      }
      try {
        const ScopedSpan point_span(Layer::kPoint);
        std::optional<dssoc::core::Emulation> emulation;
        {
          const ScopedSpan init_span(Layer::kEngineInit);
          emulation.emplace(points[i].setup, points[i].workload, &pool);
        }
        const ScopedSpan run_span(Layer::kEngineRun);
        pass.stats[i] = emulation->finish();
      } catch (const std::exception& e) {
        std::cerr << "emubench: point " << points[i].label << ": " << e.what()
                  << '\n';
      }
      if (trace != nullptr && pass.stats[i].has_value()) {
        trace->counters.tasks += pass.stats[i]->tasks.size();
        trace->counters.events += pass.stats[i]->scheduling_events;
      }
    }
    if (trace != nullptr) {
      trace->counters.pool_constructed = pool.constructed();
      trace->counters.pool_recycled = pool.recycled();
    }
    set_current_trace(nullptr);
  };
  Stopwatch watch;
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t);
    }
  }
  pass.wall_ms = dssoc::sim_to_ms(watch.elapsed());
  return pass;
}

std::vector<std::optional<std::uint64_t>> pass_digests(const Pass& pass,
                                                       int width) {
  return parallel_digests(
      pass.stats.size(), width,
      [&](std::size_t i) -> std::optional<std::uint64_t> {
        if (!pass.stats[i].has_value()) {
          return std::nullopt;
        }
        return pass.stats[i]->digest();
      });
}

/// Host peak resident memory of this process plus its largest reaped child
/// (the process fabric's workers), in MB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

/// Medians of each metric over several measurements.
MetricValues medians(const std::vector<MetricValues>& samples) {
  std::map<std::string, std::vector<double>> by_name;
  for (const MetricValues& sample : samples) {
    for (const auto& [name, value] : sample) {
      by_name[name].push_back(value);
    }
  }
  MetricValues out;
  for (const auto& [name, values] : by_name) {
    out[name] = median(values);
  }
  return out;
}

/// Sets the workload up kSetupRuns times, keeping the last set-up, and
/// returns the median set-up layer metrics.
MetricValues set_up(const Args& args, SweepSetup& setup) {
  std::vector<MetricValues> samples;
  for (int run = 0; run < kSetupRuns; ++run) {
    setup = build_setup(args.workload, args.seed);
    samples.push_back({{"setup.harness_ms", setup.harness_ms},
                       {"setup.points_ms", setup.points_ms},
                       {"arrivals.gen_ms", setup.arrivals_ms}});
  }
  return medians(samples);
}

/// --trace 0: the end-to-end metrics.
MetricValues measure_end_to_end(const Args& args, int width,
                                const ExpectedDigests& expected,
                                Tally& tally) {
  SweepSetup setup = build_setup(args.workload, args.seed);
  std::vector<std::uint64_t> reference = expected_for(expected, setup.points);
  const std::string fabric = setup.proc_journal ? "proc" : "inproc";
  const std::string journal =
      setup.proc_journal ? cat(args.scratch, "/", args.workload, ".journal")
                         : "";
  if (setup.proc_journal) {
    // The in-process sweep of the same points is the reference the process
    // fabric must reproduce.
    const Sweep inproc = run_sweep(setup.points, width, "inproc", "");
    tally.check("in-process reference sweep",
                sweep_digests(inproc, "inproc", width), setup.points,
                reference);
  }
  std::vector<double> setups;
  std::vector<double> walls;
  Sweep last;
  double rss_mb = 0.0;
  Stopwatch measuring;
  do {
    // A user's process holds no earlier results when it sweeps, and the
    // process fabric forks its workers from this process, so the previous
    // sweep's results are released before the next one starts.
    last = Sweep{};
    // Set-ups are sampled between the sweeps, so both medians cover the
    // whole run.
    for (int k = 0; k < kSetupsPerSweep; ++k) {
      setup = build_setup(args.workload, args.seed);
      setups.push_back(setup.total_s());
    }
    last = run_sweep(setup.points, width, fabric, journal);
    walls.push_back(last.wall_ms);
    tally.check(cat("sweep ", walls.size()), sweep_digests(last, fabric, width),
                setup.points, reference);
    if (walls.size() == 1) {
      // A user runs a sweep once per process. Later repetitions only add
      // allocator arena churn from their fresh worker threads, which would
      // make the peak depend on how many repetitions fit in the run.
      rss_mb = peak_rss_mb();
    }
  } while (dssoc::sim_to_sec(measuring.elapsed()) < args.seconds);
  if (!journal.empty()) {
    std::filesystem::remove(journal);
  }

  double tasks = 0.0;
  double makespan_s = 0.0;
  double overhead_us = 0.0;
  for (const SweepResult& result : last.execution.results) {
    tasks += static_cast<double>(result.stats.tasks.size());
    makespan_s += result.stats.makespan_sec();
    overhead_us += result.stats.avg_scheduling_overhead_us();
  }
  const double wall_s = median(walls) / 1e3;
  MetricValues metrics;
  metrics["setup_s"] = median(setups);
  metrics["wall_s"] = wall_s;
  metrics["tasks_per_s"] = tasks / wall_s;
  metrics["peak_rss_mb"] = rss_mb;
  metrics["ok_ratio"] =
      1.0 - static_cast<double>(tally.failed()) /
                static_cast<double>(std::max<std::uint64_t>(tally.attempted(), 1));
  metrics["emu_makespan_s"] = makespan_s;
  metrics["emu_sched_overhead_us"] =
      overhead_us / static_cast<double>(setup.points.size());
  std::cout << "sweeps: " << walls.size() << " in "
            << dssoc::format_double(dssoc::sim_to_sec(measuring.elapsed()), 2)
            << " s; wall_ms min/median/max "
            << dssoc::format_double(*std::min_element(walls.begin(), walls.end()), 1)
            << " / " << dssoc::format_double(median(walls), 1) << " / "
            << dssoc::format_double(*std::max_element(walls.begin(), walls.end()), 1)
            << "\nwall_ms per sweep:";
  for (const double wall : walls) {
    std::cout << ' ' << dssoc::format_double(wall, 1);
  }
  std::cout << '\n';
  return metrics;
}

/// The wire and journal layers of the process fabric, timed from outside
/// over the sweep's own results: encode and decode each result as a worker
/// and the supervisor do, and append each to a fresh journal.
MetricValues replay_fabric(const Args& args, const std::vector<SweepPoint>& points,
                           std::vector<SweepResult>& results, Tally& tally,
                           const std::vector<std::uint64_t>& reference) {
  MetricValues m;
  const std::string path =
      cat(args.scratch, "/", args.workload, ".replay.journal");
  std::filesystem::remove(path);
  std::vector<std::uint64_t> hashes;
  for (const SweepPoint& point : points) {
    hashes.push_back(dssoc::exp::point_config_hash(point));
  }
  {
    dssoc::exp::SweepJournal journal(path);
    Stopwatch watch;
    for (std::size_t i = 0; i < results.size(); ++i) {
      journal.append(hashes[i], results[i]);
    }
    m["journal.append_ms"] = dssoc::sim_to_ms(watch.elapsed());
    m["journal.records"] = static_cast<double>(journal.size());
  }
  m["journal.bytes"] = static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);

  double bytes = 0.0;
  dssoc::SimTime encode_ns = 0;
  dssoc::SimTime decode_ns = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    dssoc::exp::WireResult wire;
    wire.point_index = i;
    wire.ok = true;
    wire.wall_ms = results[i].wall_ms;
    wire.stats = std::move(results[i].stats);
    Stopwatch encode;
    const std::vector<std::uint8_t> payload = dssoc::exp::encode_result(wire);
    encode_ns += encode.elapsed();
    Stopwatch decode;
    const dssoc::exp::WireResult back = dssoc::exp::decode_result(payload);
    decode_ns += decode.elapsed();
    bytes += static_cast<double>(payload.size());
    if (back.stats.digest() != reference[i]) {
      tally.fail(cat("wire replay: point ", points[i].label,
                     " decodes to another digest"));
    }
  }
  m["fabric.result_bytes"] = bytes;
  m["fabric.encode_ms"] = dssoc::sim_to_ms(encode_ns);
  m["fabric.decode_ms"] = dssoc::sim_to_ms(decode_ns);
  return m;
}

/// --trace 1: the per-layer metrics.
MetricValues measure_layers(const Args& args, int width,
                            const ExpectedDigests& expected, Tally& tally) {
  SweepSetup setup;
  MetricValues metrics = set_up(args, setup);
  std::vector<SweepPoint>& points = setup.points;
  std::vector<std::uint64_t> reference = expected_for(expected, points);
  const std::string fabric = setup.proc_journal ? "proc" : "inproc";
  const std::string journal =
      setup.proc_journal ? cat(args.scratch, "/", args.workload, ".journal")
                         : "";

  Sweep sweep = run_sweep(points, width, fabric, journal);
  tally.check("sweep", sweep_digests(sweep, fabric, width), points, reference);
  metrics.merge(sweep_metrics(sweep.execution.results, sweep.wall_ms,
                              sweep.execution.width));
  for (const char* name :
       {"fabric.overhead_ms", "fabric.result_bytes", "fabric.encode_ms",
        "fabric.decode_ms", "journal.append_ms", "journal.bytes",
        "journal.records"}) {
    metrics[name] = 0.0;  // no process fabric, no journal
  }
  if (setup.proc_journal) {
    std::filesystem::remove(journal);
    const Sweep inproc = run_sweep(points, width, "inproc", "");
    tally.check("in-process sweep", sweep_digests(inproc, "inproc", width), points,
                reference);
    const Sweep proc = run_sweep(points, width, "proc", "");
    tally.check("process sweep without journal", sweep_digests(proc, "proc", width),
                points, reference);
    metrics["fabric.overhead_ms"] = proc.wall_ms - inproc.wall_ms;
    for (const auto& [name, value] : replay_fabric(
             args, points, sweep.execution.results, tally, reference)) {
      metrics[name] = value;
    }
  }

  std::vector<std::string> symbols;
  const dssoc::core::SharedObjectRegistry registry = traced_registry(
      setup.harness->registry, setup.harness->library, app_names(), symbols);
  std::vector<SweepPoint> traced_points = points;
  for (SweepPoint& point : traced_points) {
    point.setup.options.scheduler =
        traced_scheduler_spec(point.setup.options.scheduler);
    point.setup.registry = &registry;
  }

  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<MetricValues> samples;
  std::vector<Span> spans;
  Stopwatch measuring;
  do {
    const Pass untraced = run_pass(points, width, false);
    tally.check("untraced pass", pass_digests(untraced, width), points, reference);
    untraced_ms.push_back(untraced.wall_ms);
    const Pass traced = run_pass(traced_points, width, true);
    tally.check("traced pass", pass_digests(traced, width), points, reference);
    traced_ms.push_back(traced.wall_ms);
    Counters counters;
    spans = merge_traces(traced.traces, counters);
    samples.push_back(layer_metrics(spans, counters, symbols));
  } while (dssoc::sim_to_sec(measuring.elapsed()) < args.seconds);

  const MetricValues layers = medians(samples);
  metrics.insert(layers.begin(), layers.end());
  metrics["trace.overhead"] = median(traced_ms) / median(untraced_ms) - 1.0;

  const std::string span_path =
      cat(args.scratch, "/", args.workload, ".spans.tsv");
  write_spans(span_path, spans, symbols);
  std::vector<std::pair<double, std::string>> kernels;
  for (const auto& [name, value] : layers) {
    if (dssoc::starts_with(name, "kernel.") && dssoc::ends_with(name, ".ms") &&
        value > 0.0) {
      kernels.emplace_back(value, name);
    }
  }
  std::sort(kernels.rbegin(), kernels.rend());
  std::cout << "passes: " << traced_ms.size()
            << " traced/untraced pairs; spans of the last traced pass ("
            << spans.size() << ") in " << span_path << "\ncostliest kernels:";
  for (std::size_t k = 0; k < std::min<std::size_t>(kernels.size(), 3); ++k) {
    std::cout << ' ' << kernels[k].second << '='
              << dssoc::format_double(kernels[k].first, 2);
  }
  std::cout << (kernels.empty() ? " none ran\n" : "\n");
  return metrics;
}

void print_metrics(const std::vector<MetricDef>& defs,
                   const MetricValues& values) {
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    std::cout << "  " << dssoc::pad_right(def.name, 28) << ' '
              << (it == values.end() ? std::string("missing")
                                     : dssoc::format_double(it->second, 6))
              << ' ' << def.unit << '\n';
  }
}

int run(const Args& args) {
  clear_dssoc_environment();
  register_traced_scheduler();
  std::filesystem::create_directories(args.scratch);
  const int width = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1U, 4U));

  if (args.print_digests) {
    SweepSetup setup = build_setup(args.workload, args.seed);
    const Sweep sweep = run_sweep(setup.points, width, "inproc", "");
    for (std::size_t i = 0; i < setup.points.size(); ++i) {
      const SweepResult& result = sweep.execution.results[i];
      DSSOC_REQUIRE(result.status == dssoc::exp::PointStatus::kOk,
                    cat("point ", result.label, " did not complete"));
      std::cout << digest_key(args.workload) << ' ' << result.label << ' '
                << dssoc::format_hex64(result.stats.digest()) << '\n';
    }
    return 0;
  }

  std::cout << "emubench: workload " << args.workload << ", seed "
            << args.seed << ", " << args.seconds << " s, trace "
            << (args.trace ? 1 : 0) << ", width " << width << '\n';
  Tally tally;
  // The default seed's digests are pinned; any other seed is checked for
  // agreement between the passes of this run.
  const ExpectedDigests expected =
      args.seed == kDefaultSeed ? load_expected(args.expected, args.workload)
                                : ExpectedDigests{};
  const MetricValues metrics =
      args.trace ? measure_layers(args, width, expected, tally)
                 : measure_end_to_end(args, width, expected, tally);
  const std::vector<MetricDef>& defs =
      args.trace ? per_layer_metrics() : end_to_end_metrics();
  print_metrics(defs, metrics);
  const bool correct = tally.failed() == 0;
  std::cout << "points checked: " << tally.attempted() << ", failed "
            << tally.failed() << '\n'
            << result_line(correct, tally.attempted(), tally.failed(), defs,
                           metrics)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "emubench: " << e.what() << '\n';
    return 2;
  }
}
