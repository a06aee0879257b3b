#include "replay.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "trace.hh"

#include "core/parallel.hh"
#include "sim/faultinject.hh"
#include "sim/snapshot.hh"
#include "support/rng.hh"

namespace cbench {

using namespace risc1;
using core::FaultCampaignRow;
using core::FaultOutcome;
using core::RecoveryOptions;

namespace {

/** Per-run RNG seed; must match core/faultcampaign.cc bit for bit, or
 *  the replay draws different injections than the campaign. */
uint64_t
runSeed(uint64_t seed, uint64_t workload, uint64_t run)
{
    uint64_t s = seed;
    s = s * 0x9e3779b97f4a7c15ull + workload + 1;
    s = s * 0x9e3779b97f4a7c15ull + run + 1;
    return s;
}

FaultOutcome
classify(const sim::ExecResult &result, uint32_t got, uint32_t expected)
{
    switch (result.reason) {
      case sim::StopReason::Halted:
        return got == expected ? FaultOutcome::Masked : FaultOutcome::Sdc;
      case sim::StopReason::Fault:
        return FaultOutcome::DetectedTrap;
      case sim::StopReason::Watchdog:
      case sim::StopReason::InstLimit:
        return FaultOutcome::WatchdogHang;
      case sim::StopReason::Paused:
        break;
    }
    throw std::runtime_error("classify: run() returned Paused");
}

/** The one recorded defect (see NOTES.md): under recovery a
 *  non-reference engine may stop a run at the watchdog at another
 *  instruction than ref, so `replayed` (and for a hung injected run
 *  `ckpts`) differs while every outcome column agrees. */
const char *const ReplayedDefect = "recover-replayed";

} // namespace

Prepared
prepare(const workloads::Workload &wl, bool probe)
{
    Prepared p;
    assembler::Program program;
    {
        Span s("asm.buildRisc");
        program = workloads::buildRisc(wl, wl.defaultScale);
    }
    {
        Span s("sim.ProgramImage");
        p.image = sim::ProgramImage(program);
    }
    p.expected = wl.expected(wl.defaultScale);
    std::unique_ptr<sim::Cpu> cpu;
    {
        Span s("sim.Cpu");
        cpu = std::make_unique<sim::Cpu>(core::campaignCpuOptions());
    }
    {
        Span s("sim.load");
        cpu->load(p.image);
    }
    sim::Snapshot start;
    if (probe) {
        Span s("sim.probe_snapshot");
        start = cpu->snapshot();
    }
    uint64_t t = nowNs();
    {
        Span s("sim.baseline_run");
        p.base = cpu->run();
    }
    p.coldSec = double(nowNs() - t) * 1e-9;
    if (!p.base.halted() ||
        cpu->memory().peek32(workloads::ResultAddr) != p.expected)
        throw std::runtime_error("baseline run of " + wl.name +
                                 " is broken");
    if (probe) {
        {
            Span s("sim.probe_restore");
            cpu->restore(start);
        }
        t = nowNs();
        sim::ExecResult warm;
        {
            Span s("sim.warm_run");
            warm = cpu->run();
        }
        p.warmSec = double(nowNs() - t) * 1e-9;
        p.warmOk = warm.halted() &&
                   cpu->stats().instructions == p.base.instructions &&
                   cpu->memory().peek32(workloads::ResultAddr) ==
                       p.expected;
    }
    {
        Span s("sim.cpu_delete");
        cpu.reset();
    }
    p.opts = core::campaignCpuOptions();
    p.opts.watchdogCycles = p.base.cycles * 8 + 100'000;
    return p;
}

SlotInfo
runSlot(const Prepared &p, uint64_t seed, size_t w, uint64_t r,
        uint64_t slot, const RecoveryOptions &recovery)
{
    const uint64_t begin = nowNs();
    SlotInfo out;
    Rng rng(runSeed(seed, w, r));
    sim::Injection inj;
    {
        Span s("sim.drawInjection", slot);
        inj = sim::drawInjection(rng, p.base.instructions);
    }
    out.target = static_cast<uint8_t>(inj.target);
    std::unique_ptr<sim::Cpu> cpu;
    {
        Span s("sim.Cpu", slot);
        cpu = std::make_unique<sim::Cpu>(p.opts);
    }
    {
        Span s("sim.load", slot);
        cpu->load(p.image);
    }
    const auto exec = [&](const char *name, auto &&call) {
        const uint64_t before = cpu->stats().instructions;
        const uint64_t t = nowNs();
        sim::ExecResult res;
        {
            Span s(name, slot);
            res = call();
        }
        out.execNs += nowNs() - t;
        out.insts += cpu->stats().instructions - before;
        return res;
    };
    const auto classifyNow = [&](const sim::ExecResult &result) {
        const uint64_t t = nowNs();
        {
            Span s("core.tally", slot);
            out.outcome = classify(
                result, cpu->memory().peek32(workloads::ResultAddr),
                p.expected);
        }
        out.classifyNs = nowNs() - t;
    };

    if (!recovery.enabled) {
        classifyNow(exec("sim.runWithInjection", [&] {
            return sim::runWithInjection(*cpu, rng, inj);
        }));
    } else {
        // The recovery loop of faultCampaignRange: pause at every
        // multiple of K retired instructions to snapshot, roll a
        // detected run back to its last checkpoint and re-run it.
        const uint64_t K = recovery.checkpointInterval;
        sim::Snapshot ckpt;
        // Replacing the checkpoint frees the old one: sim's work too.
        const auto checkpoint = [&] {
            Span s("sim.snapshot", slot);
            ckpt = cpu->snapshot();
        };
        const auto runUntil = [&](uint64_t bound) {
            const sim::ExecResult res = exec(
                "sim.runUntil", [&] { return cpu->runUntil(bound); });
            if (res.reason == sim::StopReason::Paused)
                ++out.pauses;
            return res;
        };
        checkpoint();
        uint64_t ckptAt = 0;
        const uint64_t T = inj.atInstruction;
        const auto runFaulted = [&]() -> sim::ExecResult {
            while (cpu->stats().instructions < T) {
                const uint64_t next =
                    (cpu->stats().instructions / K + 1) * K;
                const sim::ExecResult r2 = runUntil(std::min(next, T));
                if (r2.reason != sim::StopReason::Paused)
                    return r2;
                if (cpu->stats().instructions % K == 0) {
                    checkpoint();
                    ckptAt = cpu->stats().instructions;
                    ++out.checkpoints;
                }
            }
            {
                Span s("sim.applyInjection", slot);
                sim::applyInjection(*cpu, rng, inj);
            }
            while (true) {
                const uint64_t next =
                    (cpu->stats().instructions / K + 1) * K;
                const sim::ExecResult r2 = runUntil(next);
                if (r2.reason != sim::StopReason::Paused)
                    return r2;
                checkpoint();
                ckptAt = cpu->stats().instructions;
                ++out.checkpoints;
            }
        };
        classifyNow(runFaulted());
        if (r == 0) {
            Span s("sim.serializeSnapshot", slot);
            out.snapshotBytes = sim::serializeSnapshot(ckpt, p.opts).size();
        }
        if (out.outcome == FaultOutcome::DetectedTrap ||
            out.outcome == FaultOutcome::WatchdogHang) {
            {
                Span s("sim.restore", slot);
                cpu->restore(ckpt);
            }
            const sim::ExecResult rerun =
                exec("sim.run", [&] { return cpu->run(); });
            out.replayed = cpu->stats().instructions - ckptAt;
            out.recovered =
                rerun.halted() &&
                cpu->memory().peek32(workloads::ResultAddr) == p.expected;
        }
    }
    out.jitBytes = double(cpu->jitCodeBytes());
    out.chainPatches = double(cpu->jitChainPatches());
    out.sbFormed = double(cpu->stats().sbBlocksFormed);
    out.sbDemoted = double(cpu->stats().sbBlocksDemoted);
    {
        Span s("sim.cpu_delete", slot);
        cpu.reset();
    }
    out.busyNs = nowNs() - begin;
    return out;
}

void
tallySlot(FaultCampaignRow &row, const SlotInfo &slot)
{
    const unsigned c = static_cast<unsigned>(slot.outcome);
    ++row.byOutcome[c];
    ++row.byTarget[slot.target][c];
    if (slot.recovered) {
        ++row.recovered[c];
        ++row.recoveredByTarget[slot.target][c];
    }
    row.checkpoints += slot.checkpoints;
    row.replayedInsts += slot.replayed;
}

void
reportSlots(Result &res, const std::vector<SlotInfo> &slots,
            double tally_sec)
{
    const auto us = [](double sec) { return sec * 1e6; };
    std::vector<double> run_us;
    double exec = 0, insts = 0, hang_exec = 0, pauses = 0, classify = 0;
    double jit_bytes = 0, chains = 0, formed = 0, demoted = 0;
    double snap_bytes = 0;
    uint64_t snap_samples = 0, hangs = 0;
    for (const SlotInfo &s : slots) {
        run_us.push_back(double(s.execNs) * 1e-3);
        exec += double(s.execNs) * 1e-9;
        insts += double(s.insts);
        if (s.outcome == FaultOutcome::WatchdogHang) {
            ++hangs;
            hang_exec += double(s.execNs) * 1e-9;
        }
        pauses += double(s.pauses);
        classify += double(s.classifyNs) * 1e-9;
        jit_bytes += s.jitBytes;
        chains += s.chainPatches;
        formed += s.sbFormed;
        demoted += s.sbDemoted;
        if (s.snapshotBytes) {
            snap_bytes += double(s.snapshotBytes);
            ++snap_samples;
        }
    }
    const uint64_t n = slots.size();
    const double runs = n ? double(n) : 1.0;
    res.metric("sim.run_us.p50", percentile(run_us, 50), "us", n);
    res.metric("sim.run_us.p99", percentile(run_us, 99), "us", n);
    res.metric("sim.minst_per_s", exec > 0 ? insts / exec * 1e-6 : 0,
               "Minst/s", n);
    res.metric("sim.hang_runs", double(hangs), "count", n);
    res.metric("sim.hang_time_frac", exec > 0 ? hang_exec / exec : 0,
               "frac", n);
    res.metric("sim.pauses", pauses, "count", n);
    const Tracer &tr = Tracer::instance();
    const auto snaps = tr.durations("sim.snapshot");
    res.metric("sim.snapshot_us.p50", us(percentile(snaps, 50)), "us",
               snaps.size());
    const auto restores = tr.durations("sim.restore");
    res.metric("sim.restore_us.p50", us(percentile(restores, 50)), "us",
               restores.size());
    res.metric("sim.snapshot_bytes",
               snap_samples ? snap_bytes / double(snap_samples) : 0, "B",
               snap_samples);
    res.metric("jit.code_bytes", jit_bytes / runs, "B", n);
    res.metric("jit.chain_patches", chains / runs, "count", n);
    res.metric("sim.sb_blocks_formed", formed / runs, "count", n);
    res.metric("sim.sb_blocks_demoted", demoted / runs, "count", n);
    res.metric("core.tally_us", us((classify + tally_sec) / runs), "us", n);
}

void
reportPrep(Result &res, unsigned passes)
{
    const Tracer &tr = Tracer::instance();
    const auto ms = [&](const std::vector<double> &d) {
        return sum(d) * 1e3 / double(passes);
    };
    const auto count = [&](const std::vector<double> &d) {
        return double(d.size()) / double(passes);
    };
    const auto us = [](double sec) { return sec * 1e6; };
    const auto builds = tr.durations("asm.buildRisc");
    res.metric("asm.build_ms", ms(builds), "ms", builds.size());
    res.metric("asm.builds", count(builds), "count", builds.size());
    const auto images = tr.durations("sim.ProgramImage");
    res.metric("sim.image_ms", ms(images), "ms", images.size());
    const auto baselines = tr.durations("sim.baseline_run");
    res.metric("sim.baseline_ms", ms(baselines), "ms", baselines.size());
    res.metric("sim.baselines", count(baselines), "count", baselines.size());
    const auto news = tr.durations("sim.Cpu");
    res.metric("sim.cpu_new_us.p50", us(percentile(news, 50)), "us",
               news.size());
    const auto loads = tr.durations("sim.load");
    res.metric("sim.load_us.p50", us(percentile(loads, 50)), "us",
               loads.size());
    res.metric("sim.load_us.p99", us(percentile(loads, 99)), "us",
               loads.size());
}

std::vector<std::string>
rowDiff(const FaultCampaignRow &a, const FaultCampaignRow &b)
{
    std::vector<std::string> cols;
    const auto cmp = [&](bool same, const char *col) {
        if (!same)
            cols.push_back(col);
    };
    const auto arrays = [](const auto &x, const auto &y) {
        return std::equal(std::begin(x), std::end(x), std::begin(y));
    };
    cmp(a.name == b.name, "name");
    cmp(a.injections == b.injections, "runs");
    cmp(a.baselineInsts == b.baselineInsts, "base insts");
    cmp(arrays(a.byOutcome, b.byOutcome), "outcomes");
    cmp(arrays(a.recovered, b.recovered), "recovered");
    cmp(a.checkpoints == b.checkpoints, "ckpts");
    cmp(a.replayedInsts == b.replayedInsts, "replayed");
    bool targets = true;
    for (unsigned t = 0; t < core::NumFaultTargets; ++t)
        targets = targets && arrays(a.byTarget[t], b.byTarget[t]) &&
                  arrays(a.recoveredByTarget[t], b.recoveredByTarget[t]);
    cmp(targets, "by target");
    return cols;
}

bool
sameRows(const std::vector<FaultCampaignRow> &a,
         const std::vector<FaultCampaignRow> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!rowDiff(a[i], b[i]).empty())
            return false;
    return true;
}

void
selectEngine(const std::string &engine)
{
    if (engine.empty()) {
        // Undo any earlier selection: a fresh setCampaignEngine value
        // cannot express "no override", so check that "superblock"
        // spells out the CpuOptions defaults before using it.
        const sim::CpuOptions want;
        if (!want.predecode || !want.threaded || !want.superblock ||
            want.jit)
            throw std::runtime_error(
                "CpuOptions defaults are no longer the superblock "
                "interpreter; update selectEngine");
        core::setCampaignEngine("superblock");
        return;
    }
    if (!core::setCampaignEngine(engine))
        throw std::runtime_error("unknown engine " + engine);
}

CampaignReplay
replayCampaign(unsigned injections, uint64_t seed, unsigned jobs,
               const RecoveryOptions &recovery, bool probe)
{
    const auto &suite = workloads::allWorkloads();
    const core::ParallelRunner runner(jobs);
    CampaignReplay out;
    out.jobs = runner.jobs();
    const uint64_t t0 = nowNs();
    {
        Span s("core.parallel.map");
        out.prepared = runner.map<Prepared>(suite.size(), [&](size_t w) {
            Span g("bench.prepare");
            return prepare(suite[w], probe);
        });
    }
    const size_t total = suite.size() * injections;
    const uint64_t tm = nowNs();
    {
        Span s("core.parallel.map");
        out.slots = runner.map<SlotInfo>(total, [&](size_t i) {
            Span g("bench.slot", i);
            const size_t w = i / injections;
            return runSlot(out.prepared[w], seed, w, i % injections, i,
                           recovery);
        });
    }
    const uint64_t tt = nowNs();
    out.mapSec = double(tt - tm) * 1e-9;
    {
        Span s("core.tally");
        out.rows.resize(suite.size());
        for (size_t w = 0; w < suite.size(); ++w) {
            out.rows[w].name = suite[w].name;
            out.rows[w].injections = injections;
            out.rows[w].baselineInsts = out.prepared[w].base.instructions;
        }
        for (size_t i = 0; i < total; ++i)
            tallySlot(out.rows[i / injections], out.slots[i]);
    }
    const uint64_t end = nowNs();
    out.tallySec = double(end - tt) * 1e-9;
    out.wallSec = double(end - t0) * 1e-9;
    return out;
}

std::vector<FaultCampaignRow>
checkGridAgainstRef(Result &res, unsigned injections, uint64_t seed,
                    const RecoveryOptions &recovery,
                    const std::string &engine)
{
    selectEngine(engine);
    const CampaignReplay got =
        replayCampaign(injections, seed, hostJobs(), recovery, false);
    selectEngine("ref");
    const CampaignReplay want =
        replayCampaign(injections, seed, hostJobs(), recovery, false);
    selectEngine(engine);
    // The row of one slot: what faultCampaignRange(slot, slot + 1)
    // returns for the slot's program.
    const auto slotRow = [&](const CampaignReplay &rp, size_t i) {
        FaultCampaignRow row;
        row.name = rp.rows[i / injections].name;
        row.injections = 1;
        row.baselineInsts = rp.rows[i / injections].baselineInsts;
        tallySlot(row, rp.slots[i]);
        return row;
    };
    for (size_t i = 0; i < got.slots.size(); ++i) {
        const FaultCampaignRow row = slotRow(got, i);
        const auto cols = rowDiff(row, slotRow(want, i));
        std::string what = "seed " + std::to_string(seed) + " slot " +
                           std::to_string(i) + " (" + row.name +
                           ") differs from ref in:";
        for (const std::string &c : cols)
            what += " " + c;
        // The recorded defect stops a run at the watchdog at another
        // instruction than ref: that moves the re-run's stop
        // (`replayed`) and, when the injected run itself hangs, may
        // move it past one more checkpoint (`ckpts`).
        const bool hang =
            got.slots[i].outcome == FaultOutcome::WatchdogHang;
        const bool known =
            recovery.enabled && !cols.empty() &&
            std::all_of(cols.begin(), cols.end(), [&](const auto &c) {
                return c == "replayed" || (hang && c == "ckpts");
            });
        res.check(cols.empty(), what, known ? ReplayedDefect : nullptr);
    }
    return got.rows;
}

} // namespace cbench
