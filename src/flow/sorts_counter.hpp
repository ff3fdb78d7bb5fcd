// The physical-sort counter shared by FlowTrace::sort and FlowColumns::sort
// (internal to the flow library; defined in trace.cpp).
#pragma once

#include "llmprism/obs/metrics.hpp"

namespace llmprism::detail {

/// `llmprism_flowtrace_sorts_total`: every *physical* sort of flow data,
/// AoS or columnar, is one tick (no-op sorts on sorted data are free and
/// not counted). Registered at static initialization, so a process that
/// never sorts still exports it as 0.
obs::Counter& flow_sorts_counter();

}  // namespace llmprism::detail
