// Benchmark harness entry point (driven by perfbench/run.py).
//
//   perfbench_harness prep --cache DIR
//   perfbench_harness run --workload NAME --seed N --seconds S --trace 0|1
//                         --cache DIR
//
// `run` prints info lines ({"inputs": ...}, {"checks": ...}, ...) and, last,
// one result object {"correct", "attempted", "failed", "metrics"}.  Any
// error exits non-zero without a result line.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness prep --cache DIR\n"
               "       perfbench_harness run --workload train|serve-cold|"
               "serve-hot --seed N --seconds S --trace 0|1 --cache DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  perfbench::RunOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--cache") {
        opt.cache_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.cache_dir.empty() || !(opt.seconds > 0)) return usage();
  try {
    if (cmd == "prep") return perfbench::prep_serve(opt.cache_dir);
    if (cmd != "run") return usage();
    if (opt.workload == "train") return perfbench::run_train(opt);
    if (opt.workload == "serve-cold" || opt.workload == "serve-hot")
      return perfbench::run_serve(opt);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
