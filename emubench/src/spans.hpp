// In-memory spans for the benchmark's traced run.
//
// Every layer boundary the benchmark can reach from outside (a sweep point,
// the engine's init and run phases, each scheduler call, each kernel call)
// records a span: layer, start, end, enclosing span and sweep point.
// Estimator calls are too many and too short for one span each (EFT makes
// millions): each is timed, and the calls made within one scheduler call
// are recorded as one span, a child of that call, whose length is their
// summed time. Each executor thread owns one ThreadTrace, so recording
// takes no lock; the traces are merged and written out after the pass.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace emubench {

enum class Layer : std::uint8_t {
  kPoint,       ///< one sweep point, end to end
  kEngineInit,  ///< core::Emulation construction
  kEngineRun,   ///< core::Emulation::finish()
  kSched,       ///< one core::Scheduler::schedule() call
  kEst,         ///< the estimate() calls of one scheduler call, summed
  kKernel,      ///< one kernel function call
};

/// "point", "engine.init", ... — the layer names used in span files.
const char* to_string(Layer layer);

/// Host nanoseconds on the steady clock.
std::int64_t now_ns();

struct Span {
  Layer layer = Layer::kPoint;
  std::uint32_t symbol = 0;  ///< kernel symbol id (kKernel spans only)
  std::int32_t point = -1;   ///< sweep point index, -1 outside any point
  std::int64_t parent = -1;  ///< enclosing span's index, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Layer counters that are not spans.
struct Counters {
  std::uint64_t sched_inert = 0;      ///< schedule() calls that assigned nothing
  std::uint64_t ready_depth_sum = 0;  ///< ready-list length summed over calls
  std::uint64_t ready_depth_max = 0;
  std::uint64_t est_calls = 0;    ///< estimate() calls made
  std::uint64_t est_logical = 0;  ///< estimates reported as logical only
  std::uint64_t pool_constructed = 0;
  std::uint64_t pool_recycled = 0;
  std::uint64_t tasks = 0;   ///< emulated tasks completed
  std::uint64_t events = 0;  ///< emulated scheduling events
};

/// One thread's spans, in start order, plus its counters. Spans nest: end()
/// closes the innermost open span.
class ThreadTrace {
 public:
  void set_point(std::int32_t point) { point_ = point; }
  void begin(Layer layer, std::uint32_t symbol = 0);
  void end();
  /// Records an already-closed span inside the innermost open span.
  void add(Layer layer, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  Counters counters;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::int32_t point_ = -1;
};

/// The calling thread's trace, or nullptr when the thread is not tracing.
ThreadTrace* current_trace();
void set_current_trace(ThreadTrace* trace);

/// A span on the calling thread's trace for the lifetime of the object; does
/// nothing when the thread is not tracing.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, std::uint32_t symbol = 0)
      : trace_(current_trace()) {
    if (trace_ != nullptr) {
      trace_->begin(layer, symbol);
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->end();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
};

/// Concatenates per-thread traces into one span list (parents rebased) and
/// sums their counters into `counters`.
std::vector<Span> merge_traces(const std::vector<ThreadTrace>& traces,
                               Counters& counters);

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent's [start, end).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Writes one tab-separated line per span: layer (kernel spans as
/// "kernel:<symbol>"), point, parent, start and end ns.
void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& symbols);

}  // namespace emubench
