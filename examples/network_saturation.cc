/**
 * @file
 * Network saturation: drive the flit-level torus open loop at
 * increasing offered loads and watch latency diverge, then show how
 * the closed-loop combined model self-limits instead — the paper's
 * core argument against fixed-rate network analyses (Section 5).
 *
 *   ./network_saturation --radix 8 --dims 2
 */

#include <cstdio>
#include <iostream>

#include "model/alewife.hh"
#include "model/combined_model.hh"
#include "net/network.hh"
#include "net/traffic.hh"
#include "sim/engine.hh"
#include "util/options.hh"
#include "util/table.hh"

using namespace locsim;

int
main(int argc, char **argv)
{
    util::OptionParser opts("network_saturation",
                            "open-loop saturation vs closed-loop "
                            "self-limiting");
    opts.addInt("radix", "torus radix", 8);
    opts.addInt("dims", "torus dimensions", 2);
    opts.addInt("cycles", "cycles per operating point", 15000);
    opts.parse(argc, argv);
    const int radix = opts.getInt32("radix");
    const int dims = opts.getInt32("dims");
    const sim::Tick cycles = opts.getUint64("cycles", 1);

    std::printf("=== Open loop: offered load vs delivered latency "
                "(%d-ary %d-cube) ===\n\n",
                radix, dims);

    util::TextTable table({"offered rate", "delivered rate",
                           "rho", "T_m", "backlog/node"});
    for (double rate = 0.01; rate <= 0.09; rate += 0.01) {
        sim::Engine engine;
        net::NetworkConfig config;
        config.radix = radix;
        config.dims = dims;
        net::Network network(engine, config);
        engine.addClocked(&network, 1);
        net::TrafficConfig traffic;
        traffic.injection_rate = rate;
        net::TrafficGenerator gen(network, traffic);
        engine.addClocked(&gen, 1);

        engine.run(cycles / 3);
        network.resetStats();
        const sim::Tick start = engine.now();
        engine.run(cycles);
        const double window =
            static_cast<double>(engine.now() - start);
        const double nodes =
            static_cast<double>(network.topology().nodeCount());
        const double delivered =
            static_cast<double>(network.stats().messages_delivered) /
            (window * nodes);
        // Signed: warm-up messages delivered inside the window can
        // outnumber the window's sends.
        const double backlog =
            (static_cast<double>(network.stats().messages_sent) -
             static_cast<double>(network.stats().messages_delivered)) /
            nodes;
        table.newRow()
            .cell(rate, 3)
            .cell(delivered, 4)
            .cell(network.channelUtilization(), 3)
            .cell(network.stats().latency.mean(), 1)
            .cell(backlog, 1);
    }
    table.print(std::cout);
    std::printf("\nPast saturation the delivered rate flattens and "
                "queues (backlog) grow without\nbound -- the regime "
                "where fixed-rate models stop making sense.\n\n");

    std::printf("=== Closed loop: the combined model self-limits "
                "===\n\n");
    util::TextTable closed({"avg distance d", "r_m", "rho", "T_m",
                            "T_h"});
    model::StudyConfig config = model::alewifeStudy(2, 4096);
    model::LocalityAnalysis analysis(config);
    for (double d : {1.0, 4.0, 16.0, 64.0, 256.0}) {
        const model::Prediction p = analysis.predictAtDistance(d);
        closed.newRow()
            .cell(d, 0)
            .cell(p.injection_rate, 5)
            .cell(p.utilization, 3)
            .cell(p.message_latency, 1)
            .cell(p.per_hop_latency, 2);
    }
    closed.print(std::cout);
    std::printf("\nNo matter how far communication must travel, "
                "feedback keeps rho below one and\npins per-hop "
                "latency at B*s/(2n) = %.2f network cycles "
                "(Equation 16).\n",
                analysis.limitingPerHopLatency());
    return 0;
}
