/**
 * @file
 * Figure 4: GPU kernel execution time normalized to a fault-free
 * baseline at nominal VDD, for DECTED, FLAIR, MS-ECC and Killi at
 * ECC-cache ratios 1:256 .. 1:16, all operating the 2MB L2 at
 * 0.625xVDD and 1GHz, across the ten HPC workload proxies.
 *
 * Expected shape (paper): every scheme within a few percent of
 * baseline; Killi's penalty regulated by the ECC-cache size, with
 * the memory-bound, capacity-sensitive workloads (XSBench, FFT)
 * showing the largest 1:256 penalties.
 *
 * Run with --help for the sweep knobs; `jobs=N` runs N sweep points
 * concurrently with bit-identical tables, and the full per-point
 * results land in results/fig4_performance.json.
 */

#include <cmath>
#include <iostream>

#include "bench/sweep.hh"
#include "common/log.hh"
#include "common/table.hh"

using namespace killi;

int
main(int argc, char **argv)
{
    Options opts("fig4_performance",
                 "Figure 4: normalized GPU kernel execution time "
                 "across LV protection schemes");
    declareSweepOptions(opts, "fig4_performance");
    opts.parse(argc, argv);

    const SweepOptions opt = sweepOptions(opts);

    std::cout << "=== Figure 4: normalized GPU kernel execution time "
                 "(baseline = fault-free @ 1.0xVDD) ===\n"
              << "    L2 @ " << opt.voltage << "xVDD, 1GHz; scale="
              << opt.scale << ", warmup=" << opt.warmupPasses
              << ", jobs=" << opt.jobs << "\n\n";

    const SweepResult res = runEvaluationSweep(opt);
    const auto &sweeps = res.workloads;

    TextTable table;
    std::vector<std::string> header{"workload"};
    for (const SchemeRun &run : sweeps.front().schemes)
        header.push_back(run.scheme);
    table.header(header);

    const std::size_t numSchemes = sweeps.front().schemes.size();
    std::vector<double> logSum(numSchemes, 0.0);
    std::vector<std::size_t> logCount(numSchemes, 0);
    for (const auto &sweep : sweeps) {
        std::vector<std::string> row{sweep.workload};
        for (std::size_t i = 0; i < sweep.schemes.size(); ++i) {
            const SchemeRun &run = sweep.schemes[i];
            if (!run.ok) {
                row.push_back("n/a");
                continue;
            }
            const double norm = double(run.result.cycles) /
                double(sweep.baseline.cycles);
            logSum[i] += std::log(norm);
            ++logCount[i];
            row.push_back(TextTable::num(norm, 4));
        }
        table.row(std::move(row));
    }
    std::vector<std::string> geo{"geomean"};
    for (std::size_t i = 0; i < numSchemes; ++i) {
        geo.push_back(logCount[i]
                          ? TextTable::num(
                                std::exp(logSum[i] / logCount[i]), 4)
                          : "n/a");
    }
    table.row(std::move(geo));
    table.print(std::cout);

    std::cout << "\nSDC oracle (must stay ~0; nonzero Killi entries "
                 "are the documented 5.6.2 window):\n";
    for (const auto &sweep : sweeps) {
        for (const auto &run : sweep.schemes) {
            if (run.ok && run.result.sdc) {
                std::cout << "  " << sweep.workload << " / "
                          << run.scheme << ": " << run.result.sdc
                          << " corrupted reads\n";
            }
        }
    }

    writeSweepJson(opts, opt, res);
    return 0;
}
