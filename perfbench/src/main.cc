// storm_perfbench: the anytime-query benchmark program.
//
//   storm_perfbench --workload explore_local|pan_remote|fleet_ingest
//                   --seed N --seconds S --trace 0|1
//
// Prints "PERFBENCH_BUILD {...}" (build type, compiler),
// "PERFBENCH_META {...}" (run facts) and "PERFBENCH_RESULT {...}" lines;
// perfbench/run.py builds this binary and turns those lines into the
// benchmark's JSON output.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: storm_perfbench --workload "
               "explore_local|pan_remote|fleet_ingest --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  storm::perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();
  std::printf("PERFBENCH_BUILD {\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
              STORM_PERFBENCH_BUILD_TYPE, STORM_PERFBENCH_COMPILER);
  if (args.workload == "explore_local") {
    return storm::perfbench::RunExploreLocal(args);
  }
  if (args.workload == "pan_remote") {
    return storm::perfbench::RunPanRemote(args);
  }
  if (args.workload == "fleet_ingest") {
    return storm::perfbench::RunFleetIngest(args);
  }
  return Usage();
}
