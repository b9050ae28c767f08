// perfbench driver: runs one workload for about --seconds and prints one
// result line (see README.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR --mock-sim PATH
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "run.hpp"
#include "workloads.hpp"

namespace {

int usage() {
    std::cerr << "usage: perfbench_driver --workload flow-local|farm-remote|farm-store|exec-cosim\n"
                 "         --seed N --seconds S --trace 0|1 --workdir DIR --mock-sim PATH\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
    if (argc % 2 == 0) return usage();
    for (const char* required : {"--workload", "--seed", "--seconds", "--trace", "--workdir"}) {
        if (!args.count(required)) return usage();
    }

    perfbench::Config config;
    config.workload = args["--workload"];
    char* end = nullptr;
    config.seed = std::strtoull(args["--seed"].c_str(), &end, 10);
    if (*end != '\0') return usage();
    config.seconds = std::strtod(args["--seconds"].c_str(), &end);
    if (*end != '\0' || !(config.seconds > 0.0)) return usage();
    if (args["--trace"] != "0" && args["--trace"] != "1") return usage();
    config.trace = args["--trace"] == "1";
    config.workdir = args["--workdir"];
    config.mock_sim = args.count("--mock-sim") ? args["--mock-sim"] : "";

    const std::map<std::string, void (*)(perfbench::Run&)> workloads = {
        {"flow-local", perfbench::run_flow_local},
        {"farm-remote", perfbench::run_farm_remote},
        {"farm-store", perfbench::run_farm_store},
        {"exec-cosim", perfbench::run_exec_cosim},
    };
    const auto it = workloads.find(config.workload);
    if (it == workloads.end()) return usage();
    if (config.workload == "exec-cosim" && config.mock_sim.empty()) return usage();

    std::filesystem::create_directories(config.workdir);
    int code = 1;
    try {
        perfbench::Run run(config);
        it->second(run);
        code = run.finish();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        code = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(config.workdir, ec);
    return code;
}
