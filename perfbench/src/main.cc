// x3perf: one benchmark run of one workload.
//
//   x3perf --workload <cube-batch|serve-mixed|serve-ingest> --seed <n>
//          --seconds <s> --trace <0|1> --workdir <dir> [--trace-out <file>]
//
// Prints a detail line (per-operation counts, exact-repeat counts,
// informational figures) and, as the last line, the result object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exits non-zero when an operation or a check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perf::Args* args,
               std::string* trace_out) {
  if (argc % 2 != 1) return false;  // flags come in (name, value) pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--trace-out") {
      *trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Args args;
  std::string trace_out;
  if (!ParseArgs(argc, argv, &args, &trace_out)) {
    std::fprintf(stderr,
                 "usage: x3perf --workload W --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--trace-out FILE]\n");
    return 2;
  }
  perf::EnableTracing(args.trace);
  perf::Report report;
  if (args.workload == "cube-batch") {
    perf::RunCubeBatch(args, &report);
  } else if (args.workload == "serve-mixed") {
    perf::RunServe(args, /*ingest=*/false, &report);
  } else if (args.workload == "serve-ingest") {
    perf::RunServe(args, /*ingest=*/true, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  perf::EnableTracing(false);
  if (args.trace && !trace_out.empty()) {
    size_t spans = perf::WriteSpans(trace_out);
    report.Info("spans", static_cast<double>(spans));
  }
  return report.Print();
}
