/**
 * @file
 * The campaign workloads: r1_campaign (plain streaming R1) and
 * r2_recover (the same grid with checkpoint/rollback recovery), each
 * on the default engine or, as the _jit variants, on the chained JIT.
 *
 * Untraced runs time whole core::faultCampaign calls at one job and at
 * one job per vCPU, then check the first legs' grids slot by slot
 * against the reference engine. Traced runs replay the same
 * campaign through replay.hh, with a span around every layer call,
 * and check that the replay tallies exactly what faultCampaign does.
 */

#include "common.hh"
#include "replay.hh"
#include "trace.hh"

#include "jit/arena.hh"

namespace cbench {

namespace {

using namespace risc1;
using core::FaultCampaignRow;
using core::RecoveryOptions;

/** Injections per suite program in one timed campaign (a leg). Leg k
 *  of either phase runs the grid of seed mixSeed(seed, k). */
constexpr unsigned PlainInjections = 20;
constexpr unsigned RecoverInjections = 12;
/** Checkpoint interval of the recovery workloads: short against the
 *  ~74k instructions of a suite run, so every run pauses many times. */
constexpr uint64_t CheckpointInterval = 1000;
/** Legs whose whole grid is checked slot by slot against the ref
 *  engine (the first legs of the window, on every host). */
constexpr unsigned CheckLegs = 2;
/** Injections per program in the traced replay. */
constexpr unsigned TraceInjections = 12;

/**
 * The traced run: passes over fresh grids until options.seconds have
 * passed. Each pass replays the campaign untraced and traced at j1
 * (their difference is the tracing overhead) and untraced at jmax
 * (for busy_frac, from per-slot clocks), and checks all three against
 * core::faultCampaign.
 */
void
traced(Result &res, const Options &options, const RecoveryOptions &recovery)
{
    Tracer &tr = Tracer::instance();
    std::vector<SlotInfo> slots;
    double plain_sec = 0, traced_sec = 0, tally_sec = 0, busy = 0,
           capacity = 0, cold = 0, warm = 0, insts = 0;
    size_t wide_slots = 0, programs = 0;
    unsigned passes = 0;
    const uint64_t begin = nowNs();
    do {
        const uint64_t seed = mixSeed(options.seed, passes);
        const CampaignReplay plain =
            replayCampaign(TraceInjections, seed, 1, recovery, true);
        tr.setEnabled(true);
        CampaignReplay one;
        {
            Span root(TraceRoot);
            one = replayCampaign(TraceInjections, seed, 1, recovery, true);
        }
        tr.setEnabled(false);
        const CampaignReplay wide =
            replayCampaign(TraceInjections, seed, hostJobs(), recovery, true);
        ++passes;

        plain_sec += plain.wallSec;
        traced_sec += one.wallSec;
        tally_sec += one.tallySec;
        for (const Prepared &p : one.prepared) {
            cold += p.coldSec;
            warm += p.warmSec;
            insts += double(p.base.instructions);
            res.check(p.warmOk, "a re-run after restore differs from the "
                                "baseline run");
        }
        programs += one.prepared.size();
        slots.insert(slots.end(), one.slots.begin(), one.slots.end());
        for (const SlotInfo &s : wide.slots)
            busy += double(s.busyNs) * 1e-9;
        capacity += wide.mapSec * double(wide.jobs);
        wide_slots += wide.slots.size();

        const auto lib = core::faultCampaign(
            TraceInjections, seed, hostJobs(), /*streaming=*/true, recovery);
        res.check(sameRows(plain.rows, lib),
                  "the untraced replay tallies differ from faultCampaign's");
        res.check(sameRows(one.rows, lib),
                  "the traced replay tallies differ from faultCampaign's");
        res.check(sameRows(wide.rows, lib),
                  "the jmax replay tallies differ from faultCampaign's");
    } while (secondsSince(begin) < options.seconds);

    reportPrep(res, passes);
    res.metric("sim.cold_minst_s", insts / cold * 1e-6, "Minst/s", programs);
    res.metric("sim.warm_minst_s", insts / warm * 1e-6, "Minst/s", programs);
    res.metric("sim.cold_frac", 1.0 - warm / cold, "frac", programs);
    reportSlots(res, slots, tally_sec);
    res.metric("core.parallel.busy_frac", busy / capacity, "frac",
               wide_slots);
    reportLayers(res, traced_sec - plain_sec, passes);
    res.notes.push_back(std::to_string(passes) + " traced passes of " +
                        std::to_string(TraceInjections) +
                        " injections per program");
    writeSpans(options);
}

} // namespace

Result
runCampaignWorkload(const Options &options, bool recover,
                    const std::string &engine)
{
    Result res;
    if (engine == "jit" && !jit::hostSupported())
        throw Unsupported("the JIT does not support this host; the jit "
                          "workloads run only where jit::hostSupported()");
    selectEngine(engine);
    RecoveryOptions recovery;
    recovery.enabled = recover;
    recovery.checkpointInterval = CheckpointInterval;
    const unsigned jmax = hostJobs();
    const unsigned injections =
        recover ? RecoverInjections : PlainInjections;
    const uint64_t grid = workloads::allWorkloads().size() * injections;
    reportSetup(res, options, nowNs());
    if (options.setupProbe)
        return res;
    if (options.trace) {
        traced(res, options, recovery);
        return res;
    }

    // ---- timed window: whole campaigns, j1 and jmax blocks ----
    std::vector<std::vector<FaultCampaignRow>> rows[2];
    const Window window =
        timedWindow(options.seconds, [&](bool wide, unsigned k) {
            const uint64_t t = nowNs();
            auto got = core::faultCampaign(
                injections, mixSeed(options.seed, k), wide ? jmax : 1,
                /*streaming=*/true, recovery);
            const double sec = secondsSince(t);
            rows[wide].push_back(std::move(got));
            return sec / double(grid) * 1000.0;
        });

    // ---- checks, outside the window ----
    for (size_t k = 0; k < std::min(rows[0].size(), rows[1].size()); ++k)
        res.gate(core::faultCampaignTable(rows[0][k], recover) ==
                     core::faultCampaignTable(rows[1][k], recover),
                 "leg " + std::to_string(k) +
                     ": the j1 and jmax tables differ");
    for (unsigned k = 0; k < CheckLegs && k < rows[0].size(); ++k)
        res.gate(sameRows(checkGridAgainstRef(res, injections,
                                              mixSeed(options.seed, k),
                                              recovery, engine),
                          rows[0][k]),
                 "leg " + std::to_string(k) +
                     ": the replayed grid tallies differ from "
                     "faultCampaign's");

    reportWindow(res, window);
    res.notes.push_back("unit = 1000 injected runs; legs of " +
                        std::to_string(grid) + " slots; jmax = " +
                        std::to_string(jmax) + " jobs; the grids of the "
                        "first " + std::to_string(CheckLegs) +
                        " legs checked slot by slot against ref");
    return res;
}

} // namespace cbench
