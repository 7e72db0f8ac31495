// Layer wrappers for the traced run, applied from outside the emulator
// through its public extension points:
//
//  * the scheduler layer: a decorator registered in core::SchedulerRegistry
//    under the spec prefix "emubench-traced:<inner spec>". It records a
//    Layer::kSched span per schedule() call, the ready-list depth, and
//    whether the call assigned anything. name(), time_invariant(),
//    save_state() and load_state() forward to the inner scheduler, so the
//    emulated results (and their digests) do not change.
//  * the estimator layer: for the duration of each call, the decorator hands
//    the inner scheduler a proxy in SchedulerContext::estimator that counts
//    and times every estimate() call (recorded as one Layer::kEst span per
//    scheduler call, see spans.hpp) and forwards note_logical_estimates()
//    and note_external_latency_ns().
//  * the kernel layer: a copy of the shared-object registry in which every
//    kernel symbol the applications reference is wrapped in a
//    Layer::kKernel span.
//
// Spans go to the calling thread's ThreadTrace (spans.hpp); a thread that is
// not tracing runs the wrapped code with no recording.
#pragma once

#include <string>
#include <vector>

#include "core/emulation.hpp"

namespace emubench {

/// Spec prefix of the traced scheduler decorator.
inline constexpr const char* kTracedPrefix = "emubench-traced";

/// Registers the decorator prefix with core::SchedulerRegistry. Call before
/// any emulation resolves a "emubench-traced:..." spec.
void register_traced_scheduler();

/// "emubench-traced:<scheduler>".
std::string traced_scheduler_spec(const std::string& scheduler);

/// A registry resolving every kernel symbol that `apps` (looked up in
/// `library`) references to a span-recording wrapper around `base`'s
/// function. `symbols` receives the symbol names; a kernel span's symbol id
/// indexes it.
dssoc::core::SharedObjectRegistry traced_registry(
    const dssoc::core::SharedObjectRegistry& base,
    const dssoc::core::ApplicationLibrary& library,
    const std::vector<std::string>& apps, std::vector<std::string>& symbols);

}  // namespace emubench
