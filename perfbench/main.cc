/**
 * @file
 * kbench: runs one benchmark workload and prints its report as one
 * JSON line on stdout. perfbench/run.py builds this binary, runs it,
 * checks the digest against the recorded ones and prints the result.
 *
 *   kbench <workload> --seed N --seconds S --trace 0|1 --out DIR [--tiny]
 *   kbench --probe <workload> --seed N --ready-fd FD [--tiny]
 *
 * The probe form is the set-up measurement: it prepares the workload,
 * writes one byte to FD and exits.
 */

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "perfbench/kbench.hh"

using namespace kbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "kbench: " << why
              << "\nusage: kbench <workload> --seed N --seconds S "
                 "--trace 0|1 --out DIR [--tiny]\n";
    std::exit(2);
}

bool
knownWorkload(const std::string &w)
{
    return w == "paper_sim" || w == "small_setup" || w == "serve_mix" ||
        w == "classify_scenarios";
}

std::uint64_t
parseUint(const char *text, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || !end || *end != '\0' || text[0] == '-')
        usage(what);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    bool probe = false;
    int readyFd = -1;
    bool tiny = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--probe") {
            probe = true;
        } else if (a == "--tiny") {
            tiny = true;
        } else if (a == "--seed" && hasValue) {
            args.seed = parseUint(argv[++i], "bad --seed");
        } else if (a == "--seconds" && hasValue) {
            args.seconds = double(parseUint(argv[++i], "bad --seconds"));
        } else if (a == "--trace" && hasValue) {
            args.trace = parseUint(argv[++i], "bad --trace") != 0;
        } else if (a == "--out" && hasValue) {
            args.outDir = argv[++i];
        } else if (a == "--ready-fd" && hasValue) {
            readyFd = int(parseUint(argv[++i], "bad --ready-fd"));
        } else if (a.rfind("--", 0) != 0 && args.workload.empty()) {
            args.workload = a;
        } else {
            usage(("unexpected argument " + a).c_str());
        }
    }
    if (!knownWorkload(args.workload))
        usage("unknown workload");
    args.shape = Shape::make(tiny);

    if (probe) {
        if (args.workload == "classify_scenarios")
            prepareClassify(args);
        else
            prepareCampaign(args);
        const char byte = 1;
        const bool ok = write(readyFd, &byte, 1) == 1;
        close(readyFd);
        return ok ? 0 : 1;
    }

    if (args.outDir.empty())
        usage("--out is required");
    std::filesystem::create_directories(args.outDir);

    Report report;
    if (args.workload == "serve_mix")
        runServeMixWorkload(args, report);
    else if (args.workload == "classify_scenarios")
        runClassifyWorkload(args, report);
    else
        runCampaignWorkload(args, report);

    Json doc = Json::object();
    doc.set("workload", Json::string(args.workload));
    doc.set("seed", Json::number(args.seed));
    doc.set("attempted", Json::number(report.attempted));
    doc.set("failed", Json::number(report.failed));
    Json failures = Json::array();
    for (const std::string &f : report.failures)
        failures.push(Json::string(f));
    doc.set("failures", std::move(failures));
    doc.set("digest", Json::string(report.digest));
    Json metrics = Json::object();
    for (const auto &[name, vu] : report.metrics) {
        Json m = Json::object();
        m.set("value", Json::number(vu.first));
        m.set("unit", Json::string(vu.second));
        metrics.set(name, std::move(m));
    }
    doc.set("metrics", std::move(metrics));
    Json samples = Json::object();
    for (const auto &[name, values] : report.samples) {
        Json arr = Json::array();
        for (const double v : values)
            arr.push(Json::number(v));
        samples.set(name, std::move(arr));
    }
    doc.set("samples", std::move(samples));
    doc.set("info", report.info);
    std::cout << doc.toString(0) << std::endl;
    return 0;
}
