/**
 * @file
 * campaign_bench: the whole-campaign benchmark program. run.py builds
 * it and runs it once per measurement:
 *
 *   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--t0-ns NS] [--setup-probe] [--out-dir DIR]
 *
 * and it prints report lines ("# ...") followed by one JSON line with
 * the run's checks and metrics. `--worker-connect PORT` turns the same
 * executable into a fleet worker (fleet_tcp spawns two).
 */

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hh"
#include "trace.hh"

#include "core/fleetnet.hh"

#ifndef CBENCH_BUILD_TYPE
#define CBENCH_BUILD_TYPE "unknown"
#endif

namespace cbench {

namespace {

uint64_t processStartNs = 0;

/** JSON number with every digit; a non-finite value prints as 0 and
 *  clears `correct` (a metric the run failed to measure). */
std::string
number(double v, Result &res, const std::string &name)
{
    if (!std::isfinite(v)) {
        res.correct = false;
        res.notes.push_back("FAILED: metric " + name + " is not finite");
        v = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
print(Result &res)
{
    std::string metrics;
    for (const auto &[name, m] : res.metrics) {
        metrics += metrics.empty() ? "" : ",";
        metrics += "\"" + name + "\":{\"value\":" +
                   number(m.value, res, name) + ",\"unit\":\"" + m.unit +
                   "\",\"samples\":" + std::to_string(m.samples) + "}";
    }
    for (const std::string &note : res.notes)
        std::cout << "# " << note << "\n";
    std::cout << "{\"correct\":" << (res.correct ? "true" : "false")
              << ",\"attempted\":" << res.attempted
              << ",\"failed\":" << res.failed << ",\"metrics\":{" << metrics
              << "},\"build\":{\"compiler\":\"" << __VERSION__
              << "\",\"build_type\":\"" << CBENCH_BUILD_TYPE << "\"}}"
              << std::endl;
}

int
usage()
{
    std::cerr << "usage: campaign_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--t0-ns NS] [--setup-probe] "
                 "[--out-dir DIR]\n"
                 "       campaign_bench --worker-connect PORT\n";
    return 2;
}

} // namespace

void
Result::check(bool ok, const std::string &what, const char *known_defect)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (!known_defect)
        correct = false;
    notes.push_back(known_defect ? "FAILED (known defect " +
                                       std::string(known_defect) +
                                       "): " + what
                                 : "FAILED: " + what);
}

void
Result::gate(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    notes.push_back("FAILED: " + what);
}

unsigned
hostJobs()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return 1;
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0;
}

std::string
legsNote(const std::string &name, const std::vector<double> &values)
{
    std::string out = name + " per leg:";
    char buf[32];
    for (double v : values) {
        std::snprintf(buf, sizeof buf, " %.4g", v);
        out += buf;
    }
    return out;
}

bool
resetPeakRss(const std::string &pid)
{
    std::ofstream out("/proc/" + pid + "/clear_refs");
    out << "5\n";
    out.flush();
    return bool(out);
}

Window
timedWindow(double seconds, const std::function<double(bool, unsigned)> &leg,
            const std::function<bool()> &reset,
            const std::function<double()> &peak)
{
    constexpr unsigned Blocks = 6;
    // j1 legs slow down with the host more than jmax legs do (one
    // thread feels how loaded the rest of the machine is), so the j1
    // blocks get 60% of the window.
    constexpr double J1Share = 0.6;
    Window window;
    const uint64_t begin = nowNs();
    double deadline = 0;
    for (unsigned b = 0; b < Blocks; ++b) {
        const bool wide = b % 2 == 1;
        Phase &phase = wide ? window.jmax : window.j1;
        deadline += seconds * (wide ? 1 - J1Share : J1Share) / (Blocks / 2);
        do {
            const bool rss = reset ? reset() : resetPeakRss();
            phase.seconds.push_back(
                leg(wide, static_cast<unsigned>(phase.seconds.size())));
            if (rss)
                phase.peakRssMb.push_back(peak ? peak() : peakRssMb());
        } while (secondsSince(begin) < deadline);
    }
    return window;
}

void
reportWindow(Result &result, const Window &window)
{
    const Phase &j1 = window.j1;
    const Phase &jmax = window.jmax;
    result.notes.push_back(legsNote("wall_s_per_unit.j1", j1.seconds));
    result.notes.push_back(legsNote("wall_s_per_unit.jmax", jmax.seconds));
    result.metric("wall_s_per_unit.j1", median(j1.seconds), "s",
                  j1.seconds.size());
    result.metric("wall_s_per_unit.jmax", median(jmax.seconds), "s",
                  jmax.seconds.size());
    if (!j1.peakRssMb.empty() && !jmax.peakRssMb.empty())
        result.peakRssMb =
            std::max(median(j1.peakRssMb), median(jmax.peakRssMb));
}

double
secondsSince(uint64_t t0_ns)
{
    return double(nowNs() - t0_ns) * 1e-9;
}

void
reportSetup(Result &result, const Options &options, uint64_t done_ns)
{
    const uint64_t origin = options.t0Ns ? options.t0Ns : processStartNs;
    result.metric("setup_s", double(done_ns - origin) * 1e-9, "s", 1);
}

void
reportLayers(Result &result, double overhead_s, unsigned passes)
{
    const LayerTimes lt = Tracer::instance().layerTimes(TraceRoot);
    const double per_pass = 1.0 / double(passes);
    double attributed = 0;
    // No span is named jit.*: the JIT runs inside sim::Cpu calls, so
    // its time is sim's (see NOTES.md). bench.* spans are the
    // benchmark's own glue and stay unattributed.
    for (const char *layer : {"asm", "sim", "core", "net", "vax", "cc"}) {
        const auto it = lt.selfSec.find(layer);
        const double sec = it == lt.selfSec.end() ? 0 : it->second;
        attributed += sec;
        result.metric(std::string("layer.") + layer + ".self_ms",
                      sec * 1e3 * per_pass, "ms", passes);
    }
    const double unattributed = lt.rootSec - attributed;
    const double frac = lt.rootSec > 0 ? unattributed / lt.rootSec : 1;
    result.metric("trace.wall_s", lt.rootSec * per_pass, "s", passes);
    result.metric("trace.unattributed_frac", frac, "frac", passes);
    result.metric("trace.overhead_s", overhead_s * per_pass, "s", passes);
    result.metric("trace.overhead_frac",
                  overhead_s / (lt.rootSec - overhead_s), "frac", passes);
    result.metric("trace.spans",
                  double(Tracer::instance().spanCount()) * per_pass,
                  "count", passes);
    if (frac > TraceTolerance) {
        result.correct = false;
        result.notes.push_back(
            "FAILED: trace self-check: layer spans leave " +
            std::to_string(frac) + " of the traced wall unattributed (" +
            "tolerance " + std::to_string(TraceTolerance) + ")");
    } else {
        result.notes.push_back(
            "trace self-check passed: " + std::to_string(frac) +
            " of the traced wall unattributed (tolerance " +
            std::to_string(TraceTolerance) + ")");
    }
}

void
writeSpans(const Options &options)
{
    std::filesystem::create_directories(options.outDir);
    // One file per workload, replaced by its next traced run: a
    // recovery run records ~30k spans a second.
    const std::string path =
        options.outDir + "/spans-" + options.workload + ".tsv";
    Tracer::instance().writeTsv(path);
}

} // namespace cbench

int
main(int argc, char **argv)
{
    using namespace cbench;
    processStartNs = nowNs();
    Options options;
    unsigned worker_port = 0;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                options.workload = value();
            } else if (arg == "--seed") {
                options.seed = std::stoull(value());
                have_seed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value());
                have_seconds = options.seconds > 0;
            } else if (arg == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    return usage();
                options.trace = v == "1";
                have_trace = true;
            } else if (arg == "--t0-ns") {
                options.t0Ns = std::stoull(value());
            } else if (arg == "--setup-probe") {
                options.setupProbe = true;
            } else if (arg == "--out-dir") {
                options.outDir = value();
            } else if (arg == "--worker-connect") {
                worker_port = static_cast<unsigned>(std::stoul(value()));
            } else {
                return usage();
            }
        } catch (const std::exception &) {
            return usage();
        }
    }

    try {
        if (worker_port) {
            // A fleet worker: keep the coordinator's stdout (a pipe to
            // run.py) free of anything but the coordinator's report.
            if (!std::freopen("/dev/null", "w", stdout))
                return 1;
            // Each Assign frame carries the shard's job count; this
            // is only the worker's fallback.
            risc1::core::runFleetWorker(
                "127.0.0.1", static_cast<uint16_t>(worker_port), 1);
            return 0;
        }
        if (options.workload.empty() || !have_seed || !have_seconds ||
            !have_trace)
            return usage();

        Result res;
        const std::string &w = options.workload;
        if (w == "r1_campaign")
            res = runCampaignWorkload(options, false, "");
        else if (w == "r1_campaign_jit")
            res = runCampaignWorkload(options, false, "jit");
        else if (w == "r2_recover")
            res = runCampaignWorkload(options, true, "");
        else if (w == "r2_recover_jit")
            res = runCampaignWorkload(options, true, "jit");
        else if (w == "fleet_tcp")
            res = runFleetWorkload(options, "/proc/self/exe");
        else if (w == "paper_tables")
            res = runTablesWorkload(options);
        else {
            std::cerr << "campaign_bench: unknown workload " << w << "\n";
            return 2;
        }
        if (!options.setupProbe && !options.trace) {
            if (res.peakRssMb > 0)
                res.metric("peak_rss_mb", res.peakRssMb, "MB", 2);
            else
                res.metric("peak_rss_mb", peakRssMb(), "MB", 1);
            res.metric("ops_ok_frac",
                       res.attempted ? 1.0 - double(res.failed) /
                                                 double(res.attempted)
                                     : 0.0,
                       "frac", res.attempted);
        }
        print(res);
        return 0;
    } catch (const Unsupported &e) {
        std::cerr << "campaign_bench: " << e.what() << "\n";
        return 77;
    } catch (const std::exception &e) {
        std::cerr << "campaign_bench: " << e.what() << "\n";
        return 1;
    }
}
