/**
 * @file
 * Mapping explorer: evaluate thread-to-processor mappings for the
 * nearest-neighbour application, first analytically (distance
 * metrics + combined model), then empirically on the cycle-level
 * simulator, and rank them by delivered performance.
 *
 *   ./mapping_explorer --simulate --contexts 2
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "machine/machine.hh"
#include "model/alewife.hh"
#include "model/combined_model.hh"
#include "util/options.hh"
#include "util/table.hh"
#include "workload/mapping.hh"

using namespace locsim;

int
main(int argc, char **argv)
{
    util::OptionParser opts("mapping_explorer",
                            "rank thread-to-processor mappings");
    opts.addInt("contexts", "hardware contexts", 1);
    opts.addFlag("simulate",
                 "also run the cycle-level simulator per mapping");
    opts.addInt("window", "simulation window, processor cycles",
                12000);
    opts.parse(argc, argv);
    const int contexts = opts.getInt32("contexts");
    const bool simulate = opts.getFlag("simulate");
    const std::uint64_t window = opts.getUint64("window", 1);

    net::TorusTopology topo(8, 2);
    const auto family = workload::experimentMappings(topo);

    std::printf("=== Mapping family on the 64-node radix-8 2-D torus "
                "===\n\n");

    struct Row
    {
        std::string name;
        double distance;
        double model_rate;
        double sim_rate = 0.0;
    };
    std::vector<Row> rows;

    for (const auto &named : family) {
        Row row;
        row.name = named.name;
        row.distance = named.avg_distance;

        // Analytic estimate: combined model at this distance with
        // the calibrated Section 3 application.
        model::StudyConfig config = model::alewifeStudy(contexts, 64);
        model::LocalityAnalysis analysis(config);
        row.model_rate =
            analysis.predictAtDistance(named.avg_distance).txn_rate;

        if (simulate) {
            machine::MachineConfig mc;
            mc.contexts = contexts;
            machine::Machine machine(mc, named.mapping);
            const auto m = machine.run(3000, window);
            row.sim_rate = m.txn_rate;
        }
        rows.push_back(row);
    }

    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  return a.distance < b.distance;
              });

    util::TextTable table(
        simulate
            ? std::vector<std::string>{"mapping", "d", "model r_t",
                                       "sim r_t", "sim/best"}
            : std::vector<std::string>{"mapping", "d", "model r_t",
                                       "model/best"});
    const double best = simulate
                            ? std::max_element(
                                  rows.begin(), rows.end(),
                                  [](const Row &a, const Row &b) {
                                      return a.sim_rate < b.sim_rate;
                                  })
                                  ->sim_rate
                            : rows.front().model_rate;
    for (const auto &row : rows) {
        table.newRow().cell(row.name).cell(row.distance, 2).cell(
            row.model_rate, 5);
        if (simulate) {
            table.cell(row.sim_rate, 5)
                .cell(row.sim_rate / best, 2);
        } else {
            table.cell(row.model_rate / best, 2);
        }
    }
    table.print(std::cout);

    std::printf("\nShorter mappings win, but with bounded margin: "
                "latency is linear in distance\n(Section 4.1), so "
                "halving d can at most double throughput, and fixed "
                "overheads\ndilute even that.\n");
    return 0;
}
