/**
 * @file
 * Placement study: how much locality does a workload *have*, how much
 * of it can a placement optimizer *recover*, and what is that worth
 * end to end?
 *
 * For a set of communication graphs (ring, grid, tree, torus,
 * expander), this example:
 *   1. reports the graph's structural locality (diameter, degree);
 *   2. optimizes thread placement on the 64-node torus via simulated
 *      annealing, reporting random vs optimized average distance;
 *   3. runs the cycle-level machine under both placements and
 *      reports delivered transaction rates.
 *
 *   ./placement_study --simulate
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "machine/machine.hh"
#include "util/options.hh"
#include "util/table.hh"
#include "workload/comm_graph.hh"
#include "workload/placement.hh"

using namespace locsim;

int
main(int argc, char **argv)
{
    util::OptionParser opts("placement_study",
                            "graph locality vs optimizer vs machine");
    opts.addFlag("simulate",
                 "run the cycle-level machine for each placement");
    opts.addInt("iterations", "annealing proposals", 120000);
    opts.addInt("window", "simulation window, processor cycles",
                10000);
    opts.parse(argc, argv);
    const bool simulate = opts.getFlag("simulate");
    const std::uint64_t iterations = opts.getUint64("iterations");
    const std::uint64_t window = opts.getUint64("window", 1);

    net::TorusTopology topo(8, 2);

    struct Entry
    {
        const char *name;
        workload::CommGraph graph;
    };
    const Entry entries[] = {
        {"ring", workload::CommGraph::ring(64)},
        {"grid 8x8", workload::CommGraph::grid2d(8, 8)},
        {"binary tree", workload::CommGraph::binaryTree(64)},
        {"torus 8x8", workload::CommGraph::torus(8, 2)},
        {"expander deg 4",
         workload::CommGraph::randomPeers(64, 4, 17)},
    };

    std::printf("=== Structural locality and recoverable distance "
                "(64-node 2-D torus) ===\n\n");
    util::TextTable table(
        simulate ? std::vector<std::string>{"graph", "diam", "deg",
                                            "d random", "d optimized",
                                            "r_t random", "r_t opt",
                                            "speedup"}
                 : std::vector<std::string>{"graph", "diam", "deg",
                                            "d random",
                                            "d optimized",
                                            "recovered"});

    for (const Entry &entry : entries) {
        workload::PlacementConfig pconfig;
        pconfig.iterations = iterations;
        pconfig.seed = 29;
        const workload::PlacementResult placed =
            workload::optimizePlacement(entry.graph, topo, pconfig);

        table.newRow()
            .cell(entry.name)
            .cell(static_cast<long long>(entry.graph.diameter()))
            .cell(entry.graph.averageDegree(), 1)
            .cell(placed.initial_distance, 2)
            .cell(placed.distance, 2);

        if (!simulate) {
            table.cell(1.0 - placed.distance /
                                 placed.initial_distance,
                       2);
            continue;
        }

        auto graph_ptr = std::make_shared<workload::CommGraph>(
            entry.graph);
        auto run = [&](const workload::Mapping &mapping) {
            machine::MachineConfig config;
            config.workload = machine::WorkloadKind::Graph;
            config.graph = graph_ptr;
            machine::Machine machine(config, mapping);
            return machine.run(3000, window).txn_rate;
        };
        const double random_rate =
            run(workload::Mapping::random(64, 41));
        const double opt_rate = run(placed.mapping);
        table.cell(random_rate, 5)
            .cell(opt_rate, 5)
            .cell(opt_rate / random_rate, 2);
    }
    table.print(std::cout);

    std::printf(
        "\nHigh-diameter, low-degree graphs (ring, grid) embed "
        "almost perfectly -- their\nlocality is recoverable. The "
        "expander has none to recover (Section 1.1), and no\n"
        "placement will save it: its performance is set by the "
        "machine's bisection\nbandwidth, exactly the regime the "
        "paper's random-mapping analysis describes.\n");
    return 0;
}
