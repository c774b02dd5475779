// perfbench_workload: runs one workload of the repository benchmark and prints
// its result document as one JSON line. perfbench/run.py builds this binary,
// pins the measured program and turns the document into the benchmark's
// result line; see perfbench/README.md.
//
//   perfbench_workload --workload mail_event|cold_connect|view_session
//                      --seed N --seconds S --trace 0|1 [--out-dir DIR]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench_workload: " << why
            << "\nusage: perfbench_workload --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.seconds <= 0) return usage("--seconds must be positive");

  perfbench::install_trace_hooks(options);
  const double steal_before = perfbench::host_steal_s();
  perfbench::Result result;
  try {
    if (options.workload == "mail_event") {
      result = perfbench::run_mail_event(options);
    } else if (options.workload == "cold_connect") {
      result = perfbench::run_cold_connect(options);
    } else if (options.workload == "view_session") {
      result = perfbench::run_view_session(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workload: " << options.workload
              << " aborted: " << e.what() << "\n";
    return 1;
  }
  // Time the host took from the machine while the workload ran: wall-clock
  // figures of a run with much of it are the host's, not the program's.
  result.info["host_steal_s"] = std::to_string(perfbench::host_steal_s() - steal_before);
  perfbench::sample_threads();
  const int threads = perfbench::peak_threads();
  result.info["os_threads_peak"] = std::to_string(threads);
  if (threads > static_cast<int>(std::thread::hardware_concurrency())) {
    result.invalid_reasons.push_back("more OS threads than nproc: " +
                                     std::to_string(threads));
  }
  std::cout << perfbench::to_json(result, options) << std::endl;
  return 0;
}
