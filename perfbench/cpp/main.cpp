// perfbench — runs one workload of the repository benchmark and prints its
// result as the last line of stdout (see perfbench/README.md).
//
//   perfbench_run --workload <paper-batch|wide-keys|serving> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-out <file>]
//                 [--break-check <name>]
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the result line then says "correct": false), 2 on a usage error or when
// the run could not finish (no result line).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <paper-batch|wide-keys|serving> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--break-check <name>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(argv[0]);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--break-check") {
        args.break_check = value;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (!(args.seconds > 0.0)) return usage(argv[0]);

  try {
    perfbench::Report report;
    if (args.workload == "paper-batch") {
      report = perfbench::run_paper_batch(args);
    } else if (args.workload == "wide-keys") {
      report = perfbench::run_wide_keys(args);
    } else if (args.workload == "serving") {
      report = perfbench::run_serving(args);
    } else {
      return usage(argv[0]);
    }
    perfbench::print_report(report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
