// Benchmark program entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <file>]
//
// --spans names the file a traced run writes its spans to, one per line:
// name, start_ns, end_ns, id, parent, thread.
//
// Prints human-readable progress and, in traced runs, the per-layer span
// table, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when a correctness check failed, 2 on a usage error.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.seconds <= 0) {
    std::fprintf(stderr, "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                         "[--spans <file>]\n", argv[0]);
    return 2;
  }
  if (options.workload == "reference") return RunReference(options.seed);
  Tracer::Get().Enable(options.trace);

  RunResult result;
  if (options.workload == "tpcw-phase-cost") {
    result = RunPhaseCost(options);
  } else if (options.workload == "fleet-tiny-rollout") {
    result = RunFleetRollout(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (options.trace && !options.spans_path.empty()) WriteSpans(options.spans_path);
  // The entity mirror (tests/common/test_db_builder) reports through gtest
  // assertions; outside a test they land in the ad-hoc result.
  if (::testing::UnitTest::GetInstance()->ad_hoc_test_result().Failed()) {
    std::fprintf(stderr, "CHECK FAILED: the entity mirror rejected a write\n");
    result.correct = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), result.metrics.ToJson().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
