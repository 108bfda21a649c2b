// perfbench: the repository's end-to-end benchmark binary. One process runs
// one workload (serve, ingest or build) at one seed; perfbench/run.py builds
// it and passes the arguments through. See perfbench/README.md.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 64;
  using Factory = std::unique_ptr<perfbench::Phase> (*)(const perfbench::Args&, bool,
                                                       perfbench::Report&);
  Factory factories[3];
  if (args.workload == "serve") {
    factories[0] = perfbench::MakeServePhase;
    factories[1] = perfbench::MakeIngestPhase;
    factories[2] = perfbench::MakeBuildPhase;
  } else if (args.workload == "ingest") {
    factories[0] = perfbench::MakeIngestPhase;
    factories[1] = perfbench::MakeServePhase;
    factories[2] = perfbench::MakeBuildPhase;
  } else if (args.workload == "build") {
    factories[0] = perfbench::MakeBuildPhase;
    factories[1] = perfbench::MakeServePhase;
    factories[2] = perfbench::MakeIngestPhase;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 64;
  }
  perfbench::Report report;
  perfbench::RecordEnvironment(args, report);
  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = perfbench::CpuNow();
  std::vector<std::unique_ptr<perfbench::Phase>> phases;
  int32_t max_blocks = 0;
  for (int i = 0; i < 3; ++i) {
    phases.push_back(factories[i](args, /*primary=*/i == 0, report));
    const int code = phases.back()->SetUp();
    if (code != 0) return code;
    max_blocks = std::max(max_blocks, phases.back()->num_blocks());
  }
  // Round robin: block b of every phase before block b + 1 of any.
  for (int32_t block = 0; block < max_blocks; ++block) {
    for (const auto& phase : phases) {
      if (block < phase->num_blocks()) phase->RunBlock(block);
    }
  }
  for (const auto& phase : phases) phase->Finish();
  // Wall against CPU seconds of the whole run: the gap is parallel build
  // work minus time stolen by the hypervisor and time blocked on the disk.
  report.Env("run_wall_s", std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count());
  report.Env("run_cpu_s", perfbench::CpuNow() - cpu_start);
  if (!args.trace) report.Metric("peak_rss_mb", perfbench::PeakRssMb(), "MiB");
  report.Print();
  return 0;
}
