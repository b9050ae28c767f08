// The four workloads; each runs sessions until the run is done.
#pragma once

#include "run.hpp"

namespace perfbench {

void run_flow_local(Run& run);
void run_farm_remote(Run& run);
void run_farm_store(Run& run);
void run_exec_cosim(Run& run);

}  // namespace perfbench
