#include "traced.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "core/scheduler.hpp"
#include "spans.hpp"

namespace emubench {
namespace {

using dssoc::SimTime;
using dssoc::core::ExecutionEstimator;
using dssoc::core::PlatformOption;
using dssoc::core::ResourceHandler;
using dssoc::core::TaskInstance;

class EstimatorProxy final : public ExecutionEstimator {
 public:
  EstimatorProxy(const ExecutionEstimator& inner, ThreadTrace& trace)
      : inner_(inner), trace_(trace) {}

  SimTime estimate(const TaskInstance& task, const PlatformOption& option,
                   const ResourceHandler& handler) const override {
    const std::int64_t start = now_ns();
    const SimTime estimate = inner_.estimate(task, option, handler);
    const std::int64_t end = now_ns();
    if (calls_++ == 0) {
      first_start_ns_ = start;
    }
    total_ns_ += end - start;
    return estimate;
  }

  SimTime available_at(const ResourceHandler& handler) const override {
    return inner_.available_at(handler);
  }

  void note_logical_estimates(std::size_t count) const override {
    trace_.counters.est_logical += count;
    inner_.note_logical_estimates(count);
  }

  void note_external_latency_ns(std::uint64_t host_ns) const override {
    inner_.note_external_latency_ns(host_ns);
  }

  /// Records this scheduler call's estimate() calls as one span inside the
  /// open scheduler span: from the first call's start, as long as their
  /// summed time.
  void record() const {
    if (calls_ == 0) {
      return;
    }
    trace_.counters.est_calls += calls_;
    trace_.add(Layer::kEst, first_start_ns_, first_start_ns_ + total_ns_);
  }

 private:
  const ExecutionEstimator& inner_;
  ThreadTrace& trace_;
  mutable std::uint64_t calls_ = 0;
  mutable std::int64_t first_start_ns_ = 0;
  mutable std::int64_t total_ns_ = 0;
};

class TracedScheduler final : public dssoc::core::Scheduler {
 public:
  explicit TracedScheduler(std::unique_ptr<dssoc::core::Scheduler> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }

  void schedule(dssoc::core::ReadyList& ready,
                std::vector<ResourceHandler*>& handlers,
                dssoc::core::SchedulerContext& ctx) override {
    ThreadTrace* trace = current_trace();
    if (trace == nullptr || ctx.estimator == nullptr) {
      inner_->schedule(ready, handlers, ctx);
      return;
    }
    const std::size_t depth = ready.size();
    trace->counters.ready_depth_sum += depth;
    trace->counters.ready_depth_max =
        std::max<std::uint64_t>(trace->counters.ready_depth_max, depth);
    const EstimatorProxy proxy(*ctx.estimator, *trace);
    // Restores the engine's estimator and closes the span on every exit,
    // exceptions included.
    struct Restore {
      dssoc::core::SchedulerContext& ctx;
      const ExecutionEstimator* estimator;
      ThreadTrace& trace;
      const EstimatorProxy& proxy;
      ~Restore() {
        proxy.record();
        trace.end();
        ctx.estimator = estimator;
      }
    } restore{ctx, ctx.estimator, *trace, proxy};
    ctx.estimator = &proxy;
    trace->begin(Layer::kSched);
    inner_->schedule(ready, handlers, ctx);
    if (ready.size() == depth) {
      ++trace->counters.sched_inert;
    }
  }

  void save_state(dssoc::StateWriter& out) const override {
    inner_->save_state(out);
  }
  void load_state(dssoc::StateReader& in) override { inner_->load_state(in); }
  bool time_invariant() const override { return inner_->time_invariant(); }

 private:
  std::unique_ptr<dssoc::core::Scheduler> inner_;
};

}  // namespace

void register_traced_scheduler() {
  const std::string prefix = std::string(kTracedPrefix) + ":";
  dssoc::core::SchedulerRegistry::instance().register_prefix(
      kTracedPrefix, [prefix](const std::string& spec) {
        return std::make_unique<TracedScheduler>(
            dssoc::core::SchedulerRegistry::instance().create(
                spec.substr(prefix.size())));
      });
}

std::string traced_scheduler_spec(const std::string& scheduler) {
  return std::string(kTracedPrefix) + ":" + scheduler;
}

dssoc::core::SharedObjectRegistry traced_registry(
    const dssoc::core::SharedObjectRegistry& base,
    const dssoc::core::ApplicationLibrary& library,
    const std::vector<std::string>& apps, std::vector<std::string>& symbols) {
  dssoc::core::SharedObjectRegistry traced;
  std::set<std::pair<std::string, std::string>> wrapped;
  for (const std::string& app : apps) {
    const dssoc::core::AppModel& model = library.get(app);
    for (const dssoc::core::DagNode& node : model.nodes) {
      for (const PlatformOption& option : node.platforms) {
        const std::string& object = option.shared_object.empty()
                                        ? model.shared_object
                                        : option.shared_object;
        if (!wrapped.emplace(object, option.runfunc).second) {
          continue;
        }
        if (!traced.has_object(object)) {
          traced.create_object(object);
        }
        const auto id = static_cast<std::uint32_t>(symbols.size());
        symbols.push_back(option.runfunc);
        dssoc::core::KernelFn fn = base.resolve(object, option.runfunc);
        traced.mutable_object(object).add_symbol(
            option.runfunc,
            [fn = std::move(fn), id](dssoc::core::KernelContext& ctx) {
              const ScopedSpan span(Layer::kKernel, id);
              fn(ctx);
            });
      }
    }
  }
  return traced;
}

}  // namespace emubench
