/**
 * @file
 * Open-loop network experiment: drive the flit-level torus simulator
 * with fixed-rate Bernoulli traffic (the regime Agarwal's analysis
 * assumes) and compare measured latencies with the network model of
 * Section 2.4.
 *
 * This isolates the network-model component of the framework and
 * demonstrates the paper's Section 5 point: open-loop analysis
 * diverges as saturation approaches, while a real machine's
 * application feedback (the combined model) keeps the operating
 * point stable.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>

#include "model/network_model.hh"
#include "net/network.hh"
#include "net/traffic.hh"
#include "obs/build_info.hh"
#include "obs/counters.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "sim/engine.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/table.hh"

using namespace locsim;

namespace {

struct OpenLoopPoint
{
    double rate;
    double latency_sim;
    double latency_model;
    double rho_sim;
    double rho_model;
};

OpenLoopPoint
runOne(double rate, sim::Tick cycles, obs::Profiler *profiler)
{
    sim::Engine engine;
    net::NetworkConfig config;
    config.radix = 8;
    config.dims = 2;
    net::Network network(engine, config);
    engine.addClocked(&network, 1);
    if (profiler != nullptr) {
        engine.setProfiler(&profiler->slot(0, 0));
        network.setProfiler(profiler, 0);
    }

    net::TrafficConfig traffic;
    traffic.injection_rate = rate;
    traffic.message_flits = 12;
    traffic.seed = 42;
    net::TrafficGenerator gen(network, traffic);
    engine.addClocked(&gen, 1);

    engine.run(cycles / 4); // warmup
    network.resetStats();
    engine.run(cycles);

    model::NetworkParams params;
    params.dims = 2;
    params.message_flits = 12;
    params.node_channel_contention = false;
    model::TorusNetworkModel model(params);
    const double kd = network.stats().hops.mean() / 2.0;

    OpenLoopPoint point;
    point.rate = rate;
    point.latency_sim = network.stats().latency.mean();
    point.rho_sim = network.channelUtilization();
    point.rho_model = model.utilization(rate, kd);
    point.latency_model =
        point.rho_model < 0.999 ? model.messageLatency(rate, kd)
                                : -1.0;
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    util::OptionParser opts("open_loop_network",
                            "open-loop network model validation");
    opts.addString("csv", "write results here", "");
    opts.addInt("cycles", "measurement window in network cycles",
                20000);
    opts.addFlag("build-info",
                 "print build provenance (git SHA, compiler, flags) "
                 "and exit");
    util::addObservabilityOptions(opts);
    opts.parse(argc, argv);
    if (opts.getFlag("build-info")) {
        obs::printBuildInfo(std::cout);
        return 0;
    }
    const util::ObservabilityOptions obs_opts =
        util::applyObservabilityOptions(opts);
    const sim::Tick cycles = opts.getUint64("cycles", 1);
    const auto start_time = std::chrono::steady_clock::now();

    // This harness runs one engine/network pair at a time, so a 1x1
    // profiler grid captures the whole run.
    std::unique_ptr<obs::Profiler> profiler;
    if (!obs_opts.run_report.empty())
        profiler = std::make_unique<obs::Profiler>(1, 1);

    std::printf("=== Open-loop network: Agarwal model vs flit-level "
                "simulation ===\n");
    std::printf("64-node radix-8 2-D torus, B = 12 flits, uniform "
                "random traffic\n\n");

    util::TextTable table({"inject rate", "rho sim", "rho model",
                           "T_m sim", "T_m model"});
    std::vector<OpenLoopPoint> points;
    for (double rate :
         {0.002, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06}) {
        points.push_back(runOne(rate, cycles, profiler.get()));
        const OpenLoopPoint &p = points.back();
        table.newRow()
            .cell(p.rate, 3)
            .cell(p.rho_sim, 3)
            .cell(p.rho_model, 3)
            .cell(p.latency_sim, 1)
            .cell(p.latency_model < 0 ? std::string("saturated")
                                      : util::formatDouble(
                                            p.latency_model, 1));
    }
    table.print(std::cout);
    std::printf("\nOpen-loop latency diverges near saturation "
                "(rho -> 1); in the full machine, the\napplication's "
                "negative feedback (Section 2.5) pins the operating "
                "point below this.\n");

    const std::string csv_path = opts.getString("csv");
    if (!csv_path.empty()) {
        util::CsvWriter csv(csv_path);
        csv.header({"rate", "rho_sim", "rho_model", "latency_sim",
                    "latency_model"});
        for (const auto &p : points) {
            csv.rowDoubles({p.rate, p.rho_sim, p.rho_model,
                            p.latency_sim, p.latency_model});
        }
    }

    if (!obs_opts.run_report.empty()) {
        obs::RunReport report("open_loop_network");
        report.setArgv(argc, argv);
        report.addConfig("cycles", static_cast<long long>(cycles));
        report.setCounters(
            obs::CounterRegistry::process().snapshot());
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_time)
                .count();
        report.setProfile(profiler.get(), wall);
        report.writeFile(obs_opts.run_report);
        LOCSIM_INFORM("wrote run manifest to ", obs_opts.run_report);
    }
    return 0;
}
