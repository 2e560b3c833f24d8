/// \file main.cpp
/// perfbench — the repository benchmark's measuring program.
///
///   perfbench --workload <serve-wide|serve-faulted|library-sweep>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--source-id <id>] [--out <path prefix>]
///
/// Prints one line per metric, then a line "perfbench-result <json>"
/// holding the fingerprint, the operation counts and every metric. With
/// --out it also writes <prefix>.json (and, traced, <prefix>.spans.jsonl).
/// perfbench/run.py builds this program and turns that line into the
/// benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <serve-wide|serve-faulted|"
                 "library-sweep> --seed <n> --seconds <s> --trace <0|1> "
                 "[--source-id <id>] [--out <prefix>]\n",
                 why.c_str());
    std::exit(2);
}

std::string result_json(const Options& opt, const Fingerprint& fp, const Ledger& ledger,
                        const std::vector<Metric>& metrics) {
    std::string j = "{\"workload\":" + json_string(opt.workload) +
                    ",\"seed\":" + std::to_string(opt.seed) +
                    ",\"seconds\":" + json_number(opt.seconds) +
                    ",\"trace\":" + (opt.trace ? "1" : "0") + ",\"fingerprint\":{" +
                    "\"cpu_model\":" + json_string(fp.cpu_model) +
                    ",\"nproc\":" + std::to_string(fp.nproc) +
                    ",\"simd_backend\":" + json_string(fp.simd_backend) +
                    ",\"compiler\":" + json_string(fp.compiler) +
                    ",\"build_type\":" + json_string(fp.build_type) +
                    ",\"source_id\":" + json_string(fp.source_id) +
                    ",\"seed\":" + std::to_string(opt.seed) + "}" +
                    ",\"attempted\":" + std::to_string(ledger.attempted()) +
                    ",\"failed\":" + std::to_string(ledger.failed()) + ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i) j += ',';
        j += json_string(metrics[i].name) + ":{\"value\":" + json_number(metrics[i].value) +
             ",\"unit\":" + json_string(metrics[i].unit) + "}";
    }
    return j + "}}";
}

void write_spans(const std::string& path, const std::vector<SpanRec>& spans) {
    std::ofstream out(path);
    for (const SpanRec& s : spans) {
        out << "{\"name\":" << json_string(s.name) << ",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"group\":" << s.group
            << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    std::string source_id = "unknown";
    std::string out_prefix;
    bool have_workload = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage("missing value for " + key);
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                opt.workload = value;
                have_workload = true;
            } else if (key == "--seed") {
                opt.seed = std::stoull(value);
            } else if (key == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                opt.trace = value == "1";
            } else if (key == "--source-id") {
                source_id = value;
            } else if (key == "--out") {
                out_prefix = value;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + key);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
    const bool serve = opt.workload == "serve-wide" || opt.workload == "serve-faulted";
    if (!serve && opt.workload != "library-sweep") usage("unknown workload " + opt.workload);

    const Fingerprint fp = host_fingerprint(source_id);
    std::printf("perfbench %s seed %llu, %g s, trace %d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    std::printf("host: %s, %u cpus, simd %s, %s, %s build, source %s\n", fp.cpu_model.c_str(),
                fp.nproc, fp.simd_backend.c_str(), fp.compiler.c_str(), fp.build_type.c_str(),
                fp.source_id.c_str());

    Ledger ledger;
    RunResult result;
    try {
        result = serve ? run_serve(opt, ledger) : run_library(opt, ledger);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
        return 1;
    }

    for (const Metric& m : result.metrics) {
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("operations: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()));
    for (const std::string& r : ledger.reasons()) std::printf("  check failed: %s\n", r.c_str());

    const std::string json = result_json(opt, fp, ledger, result.metrics);
    if (!out_prefix.empty()) {
        std::ofstream(out_prefix + ".json") << json << '\n';
        if (opt.trace) write_spans(out_prefix + ".spans.jsonl", result.spans);
    }
    std::printf("perfbench-result %s\n", json.c_str());
    return 0;
}
