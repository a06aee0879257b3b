/**
 * @file
 * What every workload of the campaign benchmark shares: its
 * options, the result it reports, and small helpers.
 */

#ifndef CAMPAIGN_BENCH_COMMON_HH
#define CAMPAIGN_BENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace cbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** CLOCK_MONOTONIC ns at which run.py spawned this process; the
     *  origin of setup_s. 0 means "this process's start of main". */
    uint64_t t0Ns = 0;
    /** Do the workload's set-up, report setup_s, and exit. */
    bool setupProbe = false;
    /** Directory (inside the checkout) for caches and span files. */
    std::string outDir = ".bench_results";
};

struct Metric
{
    double value = 0;
    std::string unit;
    uint64_t samples = 0; //!< how many measurements the value summarises
};

/** What one run reports (run.py renders the final JSON line). */
struct Result
{
    /** False when a check outside the known-defect list failed. */
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes; //!< human-readable report lines
    /** peak_rss_mb, MB: the larger of the j1 and jmax phases' median
     *  per-leg peaks. 0: report the whole run's peak instead. */
    double peakRssMb = 0;

    void
    metric(const std::string &name, double value, const std::string &unit,
           uint64_t samples)
    {
        metrics[name] = Metric{value, unit, samples};
    }

    /**
     * Count one checked operation (what ops_ok_frac is over; see
     * NOTES.md). A failure always counts in `failed`; it clears
     * `correct` unless `known_defect` names the recorded defect it is
     * an instance of.
     */
    void check(bool ok, const std::string &what,
               const char *known_defect = nullptr);

    /** A pass/fail check that is not an operation: a failure clears
     *  `correct` and counts nowhere else. */
    void gate(bool ok, const std::string &what);
};

/** vCPUs available to the process (the `jmax` job count). */
unsigned hostJobs();

/** Deterministic 64-bit mix (splitmix64) for per-round seeds. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/**
 * Peak resident set (VmHWM) of process `pid` ("self" for this one),
 * MB; 0 if unreadable. Unlike getrusage, VmHWM restarts at exec, so
 * it does not inherit the peak of the python process that forked us.
 */
double peakRssMb(const std::string &pid = "self");

/** Restart the VmHWM count of `pid`; false if the kernel refuses. */
bool resetPeakRss(const std::string &pid = "self");

/** Per-leg measurements of one timed phase. */
struct Phase
{
    std::vector<double> seconds;   //!< what each leg timed
    std::vector<double> peakRssMb; //!< peak RSS during each leg
};

/** The two phases of a timed window: j1 legs and jmax legs. */
struct Window
{
    Phase j1;
    Phase jmax;
};

/**
 * The timed window of an untraced run: `seconds` split into six
 * blocks, alternately of j1 legs and jmax legs (at least one leg a
 * block; the j1 blocks take 60% of the time). leg(wide, k) runs leg
 * k of the jmax (wide) or j1 phase and returns the seconds it timed.
 * Before each leg the VmHWM counts are restarted with `reset`; after
 * it `peak` reads the leg's peak RSS (both default to this process).
 * Alternating blocks spread both configurations over the whole
 * window, so a few seconds of host contention do not land on one of
 * them alone.
 */
Window timedWindow(double seconds,
                   const std::function<double(bool, unsigned)> &leg,
                   const std::function<bool()> &reset = {},
                   const std::function<double()> &peak = {});

/** wall_s_per_unit.{j1,jmax} (median leg) and peak_rss_mb of a
 *  window, plus the per-leg values as report lines. */
void reportWindow(Result &result, const Window &window);

/** "name per leg: v1 v2 ..." report line of a metric's per-leg values. */
std::string legsNote(const std::string &name,
                     const std::vector<double> &values);

/** Seconds since `t0_ns` (CLOCK_MONOTONIC). */
double secondsSince(uint64_t t0_ns);

/** Record setup_s: from run.py's spawn time (or main) to `done_ns`. */
void reportSetup(Result &result, const Options &options, uint64_t done_ns);

/** Thrown when the host cannot run a workload (exit code 77). */
class Unsupported : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Name of the span that wraps one traced pass. */
constexpr const char *TraceRoot = "bench.trace";

/** Largest share of the traced wall the layer spans may leave
 *  unattributed (the root's and every bench.* span's self time)
 *  before the traced run fails its self-check. */
constexpr double TraceTolerance = 0.05;

/**
 * Self time per layer of the `passes` traced passes under TraceRoot
 * (per pass), the self-check against TraceTolerance, and the tracing
 * overhead (`overhead_s` = traced wall - untraced wall of the same
 * passes).
 */
void reportLayers(Result &result, double overhead_s, unsigned passes);

/** Write the recorded spans under options.outDir (at the end of the run). */
void writeSpans(const Options &options);

// ---- workloads -------------------------------------------------------------

/** r1_campaign / r2_recover and their _jit variants. */
Result runCampaignWorkload(const Options &options, bool recover,
                           const std::string &engine);

/** fleet_tcp: coordinator here, worker subprocesses over loopback. */
Result runFleetWorkload(const Options &options, const std::string &self_exe);

/** paper_tables: the E3-E9 / A1 / A2 drivers, repeated. */
Result runTablesWorkload(const Options &options);

} // namespace cbench

#endif // CAMPAIGN_BENCH_COMMON_HH
