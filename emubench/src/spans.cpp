#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace emubench {
namespace {

thread_local ThreadTrace* t_current = nullptr;

}  // namespace

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kPoint:
      return "point";
    case Layer::kEngineInit:
      return "engine.init";
    case Layer::kEngineRun:
      return "engine.run";
    case Layer::kSched:
      return "sched";
    case Layer::kEst:
      return "est";
    case Layer::kKernel:
      return "kernel";
  }
  return "unknown";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ThreadTrace::begin(Layer layer, std::uint32_t symbol) {
  Span span;
  span.layer = layer;
  span.symbol = symbol;
  span.point = point_;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  open_.push_back(spans_.size());
  spans_.push_back(span);
  // Read the clock last, so the bookkeeping above is not inside the span.
  spans_.back().start_ns = now_ns();
}

void ThreadTrace::end() {
  const std::int64_t t = now_ns();
  DSSOC_REQUIRE(!open_.empty(), "span end() without an open span");
  spans_[open_.back()].end_ns = t;
  open_.pop_back();
}

void ThreadTrace::add(Layer layer, std::int64_t start_ns,
                      std::int64_t end_ns) {
  Span span;
  span.layer = layer;
  span.point = point_;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

ThreadTrace* current_trace() { return t_current; }

void set_current_trace(ThreadTrace* trace) { t_current = trace; }

std::vector<Span> merge_traces(const std::vector<ThreadTrace>& traces,
                               Counters& counters) {
  std::vector<Span> merged;
  for (const ThreadTrace& trace : traces) {
    const auto base = static_cast<std::int64_t>(merged.size());
    for (Span span : trace.spans()) {
      if (span.parent >= 0) {
        span.parent += base;
      }
      merged.push_back(span);
    }
    const Counters& c = trace.counters;
    counters.sched_inert += c.sched_inert;
    counters.ready_depth_sum += c.ready_depth_sum;
    counters.ready_depth_max = std::max(counters.ready_depth_max,
                                        c.ready_depth_max);
    counters.est_calls += c.est_calls;
    counters.est_logical += c.est_logical;
    counters.pool_constructed += c.pool_constructed;
    counters.pool_recycled += c.pool_recycled;
    counters.tasks += c.tasks;
    counters.events += c.events;
  }
  return merged;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns();
  }
  // Group children by parent, each group in start order, then subtract the
  // covered part of the parent's interval once per group.
  std::vector<std::size_t> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children.push_back(i);
    }
  }
  std::sort(children.begin(), children.end(),
            [&](std::size_t a, std::size_t b) {
              return spans[a].parent != spans[b].parent
                         ? spans[a].parent < spans[b].parent
                         : spans[a].start_ns < spans[b].start_ns;
            });
  for (std::size_t g = 0; g < children.size();) {
    const auto parent = static_cast<std::size_t>(spans[children[g]].parent);
    DSSOC_REQUIRE(parent < spans.size(), "span parent out of range");
    const Span& p = spans[parent];
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (; g < children.size() &&
           static_cast<std::size_t>(spans[children[g]].parent) == parent;
         ++g) {
      const std::int64_t start = std::max(spans[children[g]].start_ns,
                                          p.start_ns);
      const std::int64_t end = std::min(spans[children[g]].end_ns, p.end_ns);
      if (end <= start) {
        continue;
      }
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) {
        covered += run_end - run_start;
      }
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) {
      covered += run_end - run_start;
    }
    self[parent] -= covered;
  }
  return self;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& symbols) {
  std::ofstream out(path, std::ios::trunc);
  DSSOC_REQUIRE(out.good(), dssoc::cat("cannot write span file ", path));
  out << "layer\tpoint\tparent\tstart_ns\tend_ns\n";
  for (const Span& span : spans) {
    out << to_string(span.layer);
    if (span.layer == Layer::kKernel && span.symbol < symbols.size()) {
      out << ':' << symbols[span.symbol];
    }
    out << '\t' << span.point << '\t' << span.parent << '\t' << span.start_ns
        << '\t' << span.end_ns << '\n';
  }
  DSSOC_REQUIRE(out.good(), dssoc::cat("short write to span file ", path));
}

}  // namespace emubench
