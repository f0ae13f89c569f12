/**
 * @file
 * Quickstart: evaluate one machine/application configuration with
 * the combined model.
 *
 * Builds the paper's Section 3 application and Alewife-like machine
 * description, solves the combined model for ideal and random
 * thread placements, and prints the predicted operating points and
 * the expected gain from exploiting physical locality.
 *
 *   ./quickstart --processors 4096 --contexts 2 --dims 2
 */

#include <cstdio>

#include "model/alewife.hh"
#include "model/locality.hh"
#include "util/options.hh"
#include "util/table.hh"

#include <iostream>

using namespace locsim;

int
main(int argc, char **argv)
{
    util::OptionParser opts(
        "quickstart",
        "combined-model evaluation of one machine configuration");
    opts.addDouble("processors", "machine size N", 1024);
    opts.addDouble("contexts", "hardware contexts p", 1);
    opts.addInt("dims", "mesh dimension n", 2);
    opts.addDouble("run-length", "T_r in processor cycles", 8);
    opts.addDouble("fixed-overhead", "T_f in processor cycles", 40);
    opts.addDouble("clock-ratio",
                   "network cycles per processor cycle", 2);
    opts.parse(argc, argv);

    // 1. Describe the application (Section 2.1), the transaction
    //    mechanism (Section 2.2), and the machine (Section 2.4).
    model::StudyConfig config = model::alewifeStudy(
        opts.getDouble("contexts"), opts.getDouble("processors"));
    config.application.run_length = opts.getDouble("run-length");
    config.transaction.fixed_overhead =
        opts.getDouble("fixed-overhead");
    config.machine.net_clock_ratio = opts.getDouble("clock-ratio");
    config.machine.network.dims = opts.getInt32("dims");

    // 2. Solve the combined model for both mapping regimes.
    model::LocalityAnalysis analysis(config);
    const model::GainResult result = analysis.expectedGain();

    std::printf("machine: N = %.0f processors, %d-D torus, network "
                "clock %.2gx processor clock\n",
                config.machine.processors,
                config.machine.network.dims,
                config.machine.net_clock_ratio);
    std::printf("application: T_r = %.0f proc cycles, p = %.0f "
                "contexts, s = %.2f, limiting T_h = %.2f\n\n",
                config.application.run_length,
                config.application.contexts,
                analysis.nodeModel().latencySensitivity(),
                analysis.limitingPerHopLatency());

    util::TextTable table({"quantity", "ideal mapping",
                           "random mapping"});
    auto row = [&](const char *name, double a, double b,
                   int precision) {
        table.newRow().cell(name).cell(a, precision).cell(b,
                                                          precision);
    };
    row("avg distance d (hops)", result.ideal_distance,
        result.random_distance, 2);
    row("message latency T_m (net cyc)",
        result.ideal.message_latency, result.random.message_latency,
        1);
    row("per-hop latency T_h", result.ideal.per_hop_latency,
        result.random.per_hop_latency, 2);
    row("channel utilization rho", result.ideal.utilization,
        result.random.utilization, 3);
    row("message rate r_m (/net cyc)", result.ideal.injection_rate,
        result.random.injection_rate, 5);
    row("inter-txn time t_t (net cyc)", result.ideal.inter_txn_time,
        result.random.inter_txn_time, 1);
    row("transaction rate r_t", result.ideal.txn_rate,
        result.random.txn_rate, 5);
    table.print(std::cout);

    std::printf("\nexpected gain from exploiting physical locality: "
                "%.2fx\n",
                result.gain);
    return 0;
}
