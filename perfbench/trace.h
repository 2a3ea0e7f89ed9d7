// The traced run (--trace 1): replays a workload's request stream one
// request at a time through successively lower public entry points and
// prints the per-layer metrics.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include "bench.h"

namespace perfbench {

/// Runs the traced replay for about `seconds`; returns the exit code.
int RunTraced(const Spec& spec, const Inputs& in, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
