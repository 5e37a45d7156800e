/**
 * @file
 * Extension experiment: transient (soft-error) resilience at the LV
 * operating point. The paper argues (§2.3) that FLAIR's exclusive
 * reliance on SECDED leaves it exposed to multi-bit soft errors
 * landing on lines that already carry an LV fault, while Killi's
 * always-on interleaved parity keeps detecting. This bench injects
 * Poisson-distributed upsets (with an adjacent-pair multi-bit
 * fraction) into resident L2 lines and compares detection outcomes,
 * with and without the footnote-7 scrubber.
 */

#include <iostream>
#include <memory>

#include "baselines/precharacterized.hh"
#include "bench/report.hh"
#include "common/table.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "gpu/gpu_system.hh"
#include "killi/killi.hh"

using namespace killi;

int
main(int argc, char **argv)
{
    Options opts("softerror_resilience",
                 "Soft-error detection outcomes for FLAIR vs Killi "
                 "at the LV operating point");
    const auto &scale =
        opts.add<double>("scale", 0.5, "workload size multiplier")
            .range(0.001, 1000.0);
    const auto &voltage =
        opts.add<double>("voltage", 0.625,
                         "normalized supply voltage (V/VDD)")
            .range(0.5, 1.0);
    const auto &burst =
        opts.add<double>("burst", 0.3,
                         "fraction of upsets that flip an adjacent "
                         "pair")
            .range(0.0, 1.0);
    const auto &seed =
        opts.add<std::uint64_t>("seed", 42, "fault map seed");
    declareJsonOption(opts, "softerror_resilience");
    opts.parse(argc, argv);

    std::cout << "=== Soft-error resilience at " << voltage.value()
              << "xVDD (adjacent-pair fraction " << burst.value()
              << ") ===\n\n";
    TextTable table;
    table.header({"rate/bit/cycle", "scheme", "soft errors",
                  "error misses", "SDC", "disabled@end",
                  "scrub reclaims"});

    const auto wl = makeWorkload("spmv", scale);
    for (const double rate : {1e-10, 1e-9, 4e-9}) {
        const auto runOne = [&](const std::string &name,
                                bool scrubber) {
            GpuParams gp;
            gp.l2.softErrorRatePerBitCycle = rate;
            gp.l2.softErrorBurstFraction = burst;
            gp.l2.maintenanceInterval = scrubber ? 50000 : 0;
            ScenarioSpec spec;
            spec.seed = seed;
            spec.voltage = voltage;
            const std::unique_ptr<FaultModel> model =
                FaultModel::fromScenario(spec);
            const std::unique_ptr<FaultMap> faultsPtr =
                model->buildMap(gp.l2Geom.numLines(), 720);
            FaultMap &faults = *faultsPtr;

            std::unique_ptr<ProtectionScheme> prot;
            std::size_t disabledEnd = 0;
            std::uint64_t scrubs = 0;
            RunResult r;
            if (name == "FLAIR") {
                auto flair = makeFlair(faults);
                GpuSystem sys(gp, *flair, *wl, &faults);
                r = sys.run();
                disabledEnd = flair->disabledLines();
                table.row({TextTable::num(rate, 12), name,
                           std::to_string(sys.l2().stats().softErrors),
                           std::to_string(r.l2ErrorMisses),
                           std::to_string(r.sdc),
                           std::to_string(disabledEnd),
                           "n/a"});
                return;
            }
            KilliParams kp;
            kp.interleavedParity = name != "Killi no-ilv";
            KilliProtection killi(faults, kp);
            GpuSystem sys(gp, killi, *wl, &faults);
            r = sys.run();
            disabledEnd = killi.dfhHistogram()[3];
            scrubs = killi.killiStats().scrubReclaims;
            table.row({TextTable::num(rate, 12), name,
                       std::to_string(sys.l2().stats().softErrors),
                       std::to_string(r.l2ErrorMisses),
                       std::to_string(r.sdc),
                       std::to_string(disabledEnd),
                       std::to_string(scrubs)});
        };
        runOne("FLAIR", false);
        runOne("Killi", false);
        runOne("Killi no-ilv", false);
        runOne("Killi+scrub", true);
    }
    table.print(std::cout);

    std::cout << "\nReading guide: single upsets become error-induced "
                 "misses (write-through refetch)\nfor both schemes. "
                 "Transient-disabled Killi lines accumulate without "
                 "the scrubber\nand are reclaimed with it (footnote "
                 "7). SDC counts include the persistent\n5.6.2 "
                 "masked-fault window.\n";

    writeBenchReport(opts, {{"table", table.toJson()}});
    return 0;
}
