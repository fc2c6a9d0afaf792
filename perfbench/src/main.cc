// Entry point of the repository benchmark. perfbench/run.py builds and invokes
// it; see perfbench/README.md.
//
//   perfbench --workload campaign|hostile|daemon --seed N --seconds S
//             [--work-dir DIR] [--smoke] [--corrupt-reference]
//
// The traced build (perfbench_traced) takes the same flags plus
// --untraced-probes-per-s X and --counts-only, and prints the per-layer
// metrics instead of the end-to-end ones. Exit status: 0 when every output
// was correct, 1 when the correctness gate failed, 2 on a usage error or an
// exception (nothing is printed on the last line then).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>

#include "bench.h"

namespace {

bool known_workload(const std::string& name) {
  return name == "campaign" || name == "hostile" || name == "daemon";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--workload")) {
      options.workload = v;
    } else if (const char* v2 = value("--seed")) {
      options.seed = std::strtoull(v2, nullptr, 10);
    } else if (const char* v3 = value("--seconds")) {
      options.seconds = std::atof(v3);
    } else if (const char* v4 = value("--work-dir")) {
      options.work_dir = v4;
    } else if (const char* v5 = value("--untraced-probes-per-s")) {
      options.untraced_probes_per_s = std::atof(v5);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    } else if (std::strcmp(argv[i], "--corrupt-reference") == 0) {
      options.corrupt_reference = true;
    } else if (std::strcmp(argv[i], "--counts-only") == 0) {
      options.counts_only = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (!known_workload(options.workload) || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload campaign|hostile|daemon --seed N --seconds S\n");
    return 2;
  }

  try {
    std::filesystem::create_directories(options.work_dir);
    perfbench::Result result;
#ifdef PERFBENCH_TRACED
    result = perfbench::run_layers(options);
#else
    perfbench::BatchWorkload batch;
    if (perfbench::batch_workload(options.workload, options.smoke, &batch))
      result = perfbench::run_batch(options, batch);
    else
      result = perfbench::run_daemon(options);
#endif
    perfbench::emit(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
