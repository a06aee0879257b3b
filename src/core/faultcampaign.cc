/**
 * @file
 * Experiment R1: the seeded fault-injection campaign. Every suite
 * workload runs N times, each run perturbed by exactly one random
 * single-bit flip, and every outcome is classified against the host
 * oracle — the soft-error / AVF methodology applied to the RISC I
 * model. Deterministic: the per-run RNG is derived from (seed,
 * workload, run index) only, which is also what makes the campaign
 * shardable — faultCampaignRange() runs any sub-range of the flat
 * workload x injection grid and a partition of the grid sums back to
 * the full campaign exactly (the fleet coordinator in core/fleet is
 * built on this). Experiment R3 (avfReport) folds the per-target
 * tallies into recovery-aware AVF columns.
 */

#include "core/experiments.hh"

#include <algorithm>

#include "core/parallel.hh"
#include "core/table.hh"
#include "sim/fault.hh"
#include "sim/faultinject.hh"
#include "sim/image.hh"
#include "sim/snapshot.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace risc1::core {

using workloads::allWorkloads;
using workloads::Workload;

std::string_view
faultOutcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::Masked:       return "masked";
      case FaultOutcome::Sdc:          return "sdc";
      case FaultOutcome::DetectedTrap: return "detected-trap";
      case FaultOutcome::WatchdogHang: return "watchdog-hang";
    }
    panic("faultOutcomeName: bad outcome %u",
          static_cast<unsigned>(outcome));
}

std::string_view
faultTargetName(unsigned target)
{
    switch (target) {
      case 0: return "register";
      case 1: return "memory";
      case 2: return "istream";
    }
    panic("faultTargetName: bad target %u", target);
}

namespace {

/** Guest address-space limit for campaign runs (16 MB). */
constexpr uint32_t CampaignMemLimit = 0x01000000;

/** Per-run RNG seed: a pure function of campaign seed, workload, run. */
uint64_t
runSeed(uint64_t seed, uint64_t workload, uint64_t run)
{
    uint64_t s = seed;
    s = s * 0x9e3779b97f4a7c15ull + workload + 1;
    s = s * 0x9e3779b97f4a7c15ull + run + 1;
    return s;
}

/** Every run lands in exactly one class — no unclassified outcomes. */
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
        break; // run() never returns Paused
    }
    panic("classify: unexpected stop reason %u",
          static_cast<unsigned>(result.reason));
}

/** Everything one injected run reports back for tallying. */
struct RunOut
{
    FaultOutcome outcome = FaultOutcome::Masked;
    uint8_t target = 0; //!< drawn sim::InjectTarget, as an index
    bool recovered = false;
    uint32_t checkpoints = 0;
    uint64_t replayed = 0;
};

} // namespace

namespace {

/** Engine overrides applied by setCampaignEngine (process-wide). */
struct CampaignEngine
{
    bool selected = false;
    bool predecode = true;
    bool threaded = true;
    bool superblock = true;
    bool jit = false;
    bool jitChain = true;
};

CampaignEngine campaignEngine;

} // namespace

sim::CpuOptions
campaignCpuOptions()
{
    sim::CpuOptions opts;
    opts.memLimit = CampaignMemLimit;
    if (campaignEngine.selected) {
        opts.predecode = campaignEngine.predecode;
        opts.threaded = campaignEngine.threaded;
        opts.superblock = campaignEngine.superblock;
        opts.jit = campaignEngine.jit;
        opts.jitChain = campaignEngine.jitChain;
    }
    return opts;
}

bool
setCampaignEngine(const std::string &name)
{
    CampaignEngine e;
    e.selected = true;
    if (name == "ref") {
        e.predecode = e.threaded = e.superblock = false;
    } else if (name == "threaded") {
        e.superblock = false;
    } else if (name == "superblock") {
        // the defaults
    } else if (name == "jit") {
        e.jit = true;
    } else {
        return false;
    }
    e.jitChain = campaignEngine.jitChain; // set independently
    campaignEngine = e;
    return true;
}

void
setCampaignJitChain(bool enabled)
{
    campaignEngine.jitChain = enabled;
}

namespace {

/**
 * Everything the injected runs of one workload share: its immutable
 * ProgramImage (every run attaches it copy-on-write, so only mutated
 * pages are ever private), its oracle result, the uninjected baseline
 * (the horizon for injection times) and the campaign options with a
 * watchdog budget sized from that baseline.
 */
struct Prepared
{
    sim::ProgramImage image;
    uint32_t expected = 0;
    sim::ExecResult base;
    sim::CpuOptions opts;
};

/** Build `wl`'s image, then run and oracle-check its baseline. */
Prepared
prepareWorkload(const Workload &wl)
{
    Prepared p;
    p.image = sim::ProgramImage(workloads::buildRisc(wl, wl.defaultScale));
    p.expected = wl.expected(wl.defaultScale);
    p.opts = campaignCpuOptions();
    sim::Cpu baseline(p.opts);
    baseline.load(p.image);
    p.base = baseline.run();
    if (!p.base.halted() ||
        baseline.memory().peek32(workloads::ResultAddr) != p.expected)
        fatal("faultCampaign: baseline run of %s is broken",
              wl.name.c_str());
    // Generous livelock budget: a run this far past its healthy cycle
    // count is never coming back.
    p.opts.watchdogCycles = p.base.cycles * 8 + 100'000;
    return p;
}

/** One plain-mode grid slot, drawn and waiting for its forked run. */
struct DrawnSlot
{
    size_t offset = 0;   //!< index into the chunk's outcome buffer
    size_t prepared = 0; //!< index into the campaign's Prepared list
    sim::Injection inj;
    Rng rng; //!< the slot's stream, just past drawInjection
};

/** Contiguous DrawnSlots [begin, end) of one workload, run on one Cpu. */
struct ForkUnit
{
    size_t begin = 0;
    size_t end = 0;
    uint64_t cost = 0; //!< baseline instructions x slots
};

} // namespace

std::vector<FaultCampaignRow>
faultCampaignRange(unsigned injections, uint64_t seed, uint64_t first,
                   uint64_t last, unsigned jobs, bool streaming,
                   const RecoveryOptions &recovery)
{
    if (recovery.enabled && recovery.checkpointInterval == 0)
        fatal("faultCampaign: checkpoint interval must be nonzero");
    const auto &suite = allWorkloads();
    const uint64_t total = uint64_t{suite.size()} * injections;
    if (first > last || last > total)
        fatal("faultCampaign: seed range %llu:%llu outside the "
              "%llu-slot grid",
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(last),
              static_cast<unsigned long long>(total));
    const ParallelRunner runner(jobs);

    std::vector<FaultCampaignRow> rows(suite.size());
    for (size_t w = 0; w < suite.size(); ++w)
        rows[w].name = suite[w].name;
    if (first == last)
        return rows;

    // Phase 1 — per-workload setup, restricted to the workloads the
    // range actually touches; every injected run of workload w reuses
    // its Prepared.
    const size_t w_first = first / injections;
    const size_t w_count = (last - 1) / injections - w_first + 1;
    const std::vector<Prepared> prepared =
        runner.map<Prepared>(w_count, [&](size_t idx) {
            return prepareWorkload(suite[w_first + idx]);
        });

    for (size_t idx = 0; idx < w_count; ++idx) {
        FaultCampaignRow &row = rows[w_first + idx];
        const uint64_t w_lo = uint64_t{w_first + idx} * injections;
        const uint64_t w_hi = w_lo + injections;
        row.injections = static_cast<unsigned>(
            std::min(last, w_hi) - std::max(first, w_lo));
        row.baselineInsts = prepared[idx].base.instructions;
    }

    // Phase 2 — the flat workload x injection grid, slots [first,
    // last). Each cell's RNG is a pure function of (seed, workload,
    // run), so the outcomes — and therefore the tallies — are
    // identical for any job count, either aggregation mode, and any
    // partition of the grid into ranges.
    //
    // Plain mode forks every injected run off one advancing golden
    // run instead of re-executing the fault-free prefix from
    // instruction 0. A chunk's slots are drawn up front, grouped by
    // workload, sorted by injection time and split into at most
    // `jobs` contiguous units per workload. A unit loads one Cpu and,
    // for each slot in ascending time, advances the golden run to the
    // flip, snapshots it, applies the flip, runs the faulted machine
    // to its classification and restores the golden state for the
    // next slot. runUntil pauses exactly on every engine and restore
    // reinstates the complete architectural state, so each outcome
    // equals the slot's from-scratch run.
    const auto forkChunk = [&](uint64_t slot0, std::vector<RunOut> &out) {
        std::vector<DrawnSlot> slots(out.size());
        for (size_t i = 0; i < out.size(); ++i) {
            const uint64_t slot = slot0 + i;
            const size_t w = slot / injections;
            DrawnSlot &d = slots[i];
            d.offset = i;
            d.prepared = w - w_first;
            d.rng = Rng(runSeed(seed, w, slot % injections));
            d.inj = sim::drawInjection(
                d.rng, prepared[d.prepared].base.instructions);
        }
        // Slots arrive workload-major; stable, so equal times keep
        // slot order.
        std::stable_sort(slots.begin(), slots.end(),
                         [](const DrawnSlot &a, const DrawnSlot &b) {
                             return a.prepared != b.prepared
                                        ? a.prepared < b.prepared
                                        : a.inj.atInstruction <
                                              b.inj.atInstruction;
                         });

        std::vector<ForkUnit> units;
        for (size_t b = 0, e = 0; b < slots.size(); b = e) {
            while (e < slots.size() &&
                   slots[e].prepared == slots[b].prepared)
                ++e;
            const size_t n = e - b;
            const size_t k = std::min<size_t>(runner.jobs(), n);
            for (size_t u = 0; u < k; ++u) {
                ForkUnit unit;
                unit.begin = b + n * u / k;
                unit.end = b + n * (u + 1) / k;
                unit.cost = prepared[slots[b].prepared].base.instructions *
                            (unit.end - unit.begin);
                units.push_back(unit);
            }
        }
        // Longest first, so no long unit starts last and tails the
        // chunk.
        std::stable_sort(units.begin(), units.end(),
                         [](const ForkUnit &a, const ForkUnit &b) {
                             return a.cost > b.cost;
                         });

        runner.run(units.size(), [&](size_t u) {
            const ForkUnit &unit = units[u];
            const Prepared &p = prepared[slots[unit.begin].prepared];
            sim::Cpu cpu(p.opts);
            cpu.load(p.image);
            for (size_t s = unit.begin; s < unit.end; ++s) {
                DrawnSlot &d = slots[s];
                // The golden run is the baseline and every time is
                // drawn below its length; a duplicate time pauses
                // again without a step.
                if (cpu.runUntil(d.inj.atInstruction).reason !=
                    sim::StopReason::Paused)
                    panic("faultCampaign: golden run ended early");
                const sim::Snapshot golden = cpu.snapshot();
                sim::applyInjection(cpu, d.rng, d.inj);
                const sim::ExecResult result = cpu.run();
                out[d.offset] = {
                    classify(result,
                             cpu.memory().peek32(workloads::ResultAddr),
                             p.expected),
                    static_cast<uint8_t>(d.inj.target)};
                cpu.restore(golden);
            }
        });
    };

    // Recovery mode runs every slot from scratch: a faulted run,
    // paused at every multiple of K retired instructions to snapshot.
    // Pausing does not perturb the machine (every engine honours
    // runUntil exactly) and recovery draws no randomness, so
    // `out.outcome` is identical to the plain classification.
    const auto runRecovered = [&](uint64_t slot) {
        const size_t w = slot / injections;
        const Prepared &p = prepared[w - w_first];
        Rng rng(runSeed(seed, w, slot % injections));
        sim::Injection inj =
            sim::drawInjection(rng, p.base.instructions);
        sim::Cpu cpu(p.opts);
        cpu.load(p.image);
        RunOut out;
        out.target = static_cast<uint8_t>(inj.target);

        const uint64_t K = recovery.checkpointInterval;
        sim::Snapshot ckpt = cpu.snapshot();
        uint64_t ckptAt = 0;
        const uint64_t T = inj.atInstruction;
        const auto runFaulted = [&]() -> sim::ExecResult {
            // To the injection point, snapshotting at boundaries (a
            // boundary coinciding with T is captured pre-injection).
            while (cpu.stats().instructions < T) {
                const uint64_t next =
                    (cpu.stats().instructions / K + 1) * K;
                const sim::ExecResult r2 =
                    cpu.runUntil(std::min(next, T));
                if (r2.reason != sim::StopReason::Paused)
                    return r2; // finished before the injection landed
                if (cpu.stats().instructions % K == 0) {
                    ckpt = cpu.snapshot();
                    ckptAt = cpu.stats().instructions;
                    ++out.checkpoints;
                }
            }
            sim::applyInjection(cpu, rng, inj);
            while (true) {
                const uint64_t next =
                    (cpu.stats().instructions / K + 1) * K;
                const sim::ExecResult r2 = cpu.runUntil(next);
                if (r2.reason != sim::StopReason::Paused)
                    return r2;
                // Post-injection checkpoints may hold corrupted state;
                // that is the methodology's point — recovery succeeds
                // only when detection outruns the checkpoint cadence.
                ckpt = cpu.snapshot();
                ckptAt = cpu.stats().instructions;
                ++out.checkpoints;
            }
        };

        const sim::ExecResult result = runFaulted();
        out.outcome = classify(
            result, cpu.memory().peek32(workloads::ResultAddr),
            p.expected);
        if (out.outcome == FaultOutcome::DetectedTrap ||
            out.outcome == FaultOutcome::WatchdogHang) {
            // Roll back to the most recent checkpoint and re-execute.
            // restore() clears the armed fetch corruption, so a
            // transient istream flip is not re-injected; a register or
            // memory flip captured by a post-injection checkpoint
            // persists and typically fails again (unrecovered).
            cpu.restore(ckpt);
            const sim::ExecResult rerun = cpu.run();
            out.replayed = cpu.stats().instructions - ckptAt;
            out.recovered =
                rerun.halted() &&
                cpu.memory().peek32(workloads::ResultAddr) == p.expected;
        }
        return out;
    };

    const auto produceChunk = [&](size_t base, std::vector<RunOut> &out) {
        if (recovery.enabled)
            runner.run(out.size(), [&](size_t i) {
                out[i] = runRecovered(first + base + i);
            });
        else
            forkChunk(first + base, out);
    };

    const auto tally = [&](size_t i, const RunOut &out) {
        FaultCampaignRow &row = rows[(first + i) / injections];
        const unsigned c = static_cast<unsigned>(out.outcome);
        ++row.byOutcome[c];
        ++row.byTarget[out.target][c];
        if (out.recovered) {
            ++row.recovered[c];
            ++row.recoveredByTarget[out.target][c];
        }
        row.checkpoints += out.checkpoints;
        row.replayedInsts += out.replayed;
    };

    const size_t count = static_cast<size_t>(last - first);
    if (streaming) {
        // Stream outcomes straight into the fixed-size tallies: peak
        // memory is one reduceChunks buffer, independent of
        // `injections`, so a campaign can scale to millions of runs.
        runner.reduceChunks<RunOut>(count, produceChunk, tally);
        return rows;
    }

    // Flat mode: materialize the whole outcome vector as one chunk,
    // then tally. Kept as the differential oracle for the streaming
    // path (its forked units split the grid differently; the tests
    // assert both modes agree for a fixed seed).
    std::vector<RunOut> outcomes(count);
    produceChunk(0, outcomes);
    for (size_t i = 0; i < count; ++i)
        tally(i, outcomes[i]);
    return rows;
}

FaultRepro
faultCampaignRepro(uint64_t slot, unsigned injections, uint64_t seed)
{
    const auto &suite = allWorkloads();
    const uint64_t total = uint64_t{suite.size()} * injections;
    if (injections == 0 || slot >= total)
        fatal("faultCampaignRepro: slot %llu outside the %llu-slot "
              "grid (%zu workloads x %u injections)",
              static_cast<unsigned long long>(slot),
              static_cast<unsigned long long>(total), suite.size(),
              injections);
    const size_t w = slot / injections;
    const uint64_t r = slot % injections;
    const Workload &wl = suite[w];

    const Prepared p = prepareWorkload(wl);
    FaultRepro repro;
    repro.workload = wl.name;
    repro.options = p.opts;

    // The slot's RNG stream, bit for bit as the campaign drew it.
    Rng rng(runSeed(seed, w, r));
    sim::Injection inj = sim::drawInjection(rng, p.base.instructions);
    repro.target = static_cast<unsigned>(inj.target);

    sim::Cpu cpu(repro.options);
    cpu.load(p.image);
    const sim::ExecResult to_inj = cpu.runUntil(inj.atInstruction);
    if (to_inj.reason != sim::StopReason::Paused)
        fatal("faultCampaignRepro: %s ended before the injection "
              "point %llu (baseline says %llu instructions)",
              wl.name.c_str(),
              static_cast<unsigned long long>(inj.atInstruction),
              static_cast<unsigned long long>(p.base.instructions));
    sim::applyInjection(cpu, rng, inj);

    // A fetch flip arms transient corruption of the next fetch, which
    // is not snapshot state: execute the corrupted word first so its
    // architectural effect is captured. If that word itself faults,
    // the detection point IS the injection point.
    if (inj.target == sim::InjectTarget::Fetch) {
        try {
            cpu.step();
        } catch (const sim::SimFault &f) {
            repro.snapshot = sim::serializeSnapshot(cpu.snapshot(), repro.options);
            repro.snapshotInstructions = cpu.stats().instructions;
            repro.targetInstructions = repro.snapshotInstructions;
            repro.targetPc = cpu.pc();
            repro.outcome = FaultOutcome::DetectedTrap;
            repro.note = strprintf(
                "campaign slot %llu (%s run %llu, seed %llu): %s; "
                "faults immediately: %s",
                static_cast<unsigned long long>(slot), wl.name.c_str(),
                static_cast<unsigned long long>(r),
                static_cast<unsigned long long>(seed),
                sim::describeInjection(inj).c_str(),
                f.message.c_str());
            return repro;
        }
    }

    repro.snapshot = sim::serializeSnapshot(cpu.snapshot(), repro.options);
    repro.snapshotInstructions = cpu.stats().instructions;

    const sim::ExecResult result = cpu.run();
    repro.outcome = classify(
        result, cpu.memory().peek32(workloads::ResultAddr), p.expected);
    repro.targetInstructions = cpu.stats().instructions;
    repro.targetPc = result.reason == sim::StopReason::Fault
                         ? result.faultPc
                         : cpu.pc();
    repro.note = strprintf(
        "campaign slot %llu (%s run %llu, seed %llu): %s; outcome %s "
        "at instruction %llu%s%s",
        static_cast<unsigned long long>(slot), wl.name.c_str(),
        static_cast<unsigned long long>(r),
        static_cast<unsigned long long>(seed),
        sim::describeInjection(inj).c_str(),
        std::string(faultOutcomeName(repro.outcome)).c_str(),
        static_cast<unsigned long long>(repro.targetInstructions),
        result.message.empty() ? "" : ": ",
        result.message.c_str());
    return repro;
}

std::vector<FaultCampaignRow>
faultCampaign(unsigned injections, uint64_t seed, unsigned jobs,
              bool streaming, const RecoveryOptions &recovery)
{
    const uint64_t total =
        uint64_t{allWorkloads().size()} * injections;
    return faultCampaignRange(injections, seed, 0, total, jobs,
                              streaming, recovery);
}

std::string
faultCampaignTable(const std::vector<FaultCampaignRow> &rows,
                   bool recovery)
{
    std::vector<std::string> headers = {"program", "runs", "base insts",
                                        "masked", "sdc", "trap", "hang",
                                        "masked%", "detect%"};
    if (recovery) {
        headers.insert(headers.end(),
                       {"recov", "unrec", "recov%", "ckpts", "replayed"});
    }
    Table table(headers);
    FaultCampaignRow total;
    total.name = "TOTAL";
    auto pct = [](unsigned part, unsigned whole) {
        return whole ? 100.0 * part / whole : 0.0;
    };
    auto emit = [&](const FaultCampaignRow &row, bool is_total) {
        std::vector<std::string> cells = {
            row.name, cell(uint64_t{row.injections}),
            is_total ? "" : cell(row.baselineInsts),
            cell(uint64_t{row.count(FaultOutcome::Masked)}),
            cell(uint64_t{row.count(FaultOutcome::Sdc)}),
            cell(uint64_t{row.count(FaultOutcome::DetectedTrap)}),
            cell(uint64_t{row.count(FaultOutcome::WatchdogHang)}),
            cell(pct(row.count(FaultOutcome::Masked), row.injections),
                 1),
            cell(pct(row.count(FaultOutcome::DetectedTrap),
                     row.injections), 1)};
        if (recovery) {
            cells.push_back(cell(uint64_t{row.recoveredTotal()}));
            cells.push_back(cell(uint64_t{row.detectedCount() -
                                          row.recoveredTotal()}));
            cells.push_back(cell(pct(row.recoveredTotal(),
                                     row.detectedCount()), 1));
            cells.push_back(cell(row.checkpoints));
            cells.push_back(cell(row.replayedInsts));
        }
        table.row(cells);
    };
    for (const FaultCampaignRow &row : rows) {
        total.injections += row.injections;
        for (unsigned c = 0; c < NumFaultOutcomes; ++c) {
            total.byOutcome[c] += row.byOutcome[c];
            total.recovered[c] += row.recovered[c];
        }
        total.checkpoints += row.checkpoints;
        total.replayedInsts += row.replayedInsts;
        emit(row, false);
    }
    emit(total, true);
    std::string title =
        "R1: fault-injection campaign (one seeded single-bit flip "
        "per run;\nregister file / memory word / fetched "
        "instruction; outcome vs host oracle)\n";
    if (recovery)
        title += "recovery: rollback to the last checkpoint on "
                 "trap/hang, re-run vs oracle\n";
    return title + table.str();
}

std::vector<AvfRow>
avfReport(const std::vector<FaultCampaignRow> &rows)
{
    std::vector<AvfRow> out;
    out.reserve(rows.size() + 1);
    AvfRow total;
    total.name = "TOTAL";
    for (const FaultCampaignRow &row : rows) {
        AvfRow a;
        a.name = row.name;
        for (unsigned t = 0; t < NumFaultTargets; ++t) {
            a.injections[t] = row.targetInjections(t);
            a.vulnerable[t] = row.targetVulnerable(t);
            a.recovered[t] = row.targetRecovered(t);
            total.injections[t] += a.injections[t];
            total.vulnerable[t] += a.vulnerable[t];
            total.recovered[t] += a.recovered[t];
        }
        out.push_back(std::move(a));
    }
    out.push_back(std::move(total));
    return out;
}

std::string
avfTable(const std::vector<AvfRow> &rows, bool recovery)
{
    std::vector<std::string> headers = {"program"};
    for (unsigned t = 0; t < NumFaultTargets; ++t) {
        headers.push_back(std::string(faultTargetName(t)) + " runs");
        headers.push_back(std::string(faultTargetName(t)) + " avf");
    }
    if (recovery)
        for (unsigned t = 0; t < NumFaultTargets; ++t)
            headers.push_back(std::string(faultTargetName(t)) +
                              " avf-r");
    Table table(headers);
    for (const AvfRow &row : rows) {
        std::vector<std::string> cells = {row.name};
        for (unsigned t = 0; t < NumFaultTargets; ++t) {
            cells.push_back(cell(uint64_t{row.injections[t]}));
            cells.push_back(cell(row.avf(t), 3));
        }
        if (recovery)
            for (unsigned t = 0; t < NumFaultTargets; ++t)
                cells.push_back(cell(row.avfRecovered(t), 3));
        table.row(cells);
    }
    std::string title =
        "R3: architectural vulnerability factor by fault target\n"
        "(avf = non-masked fraction of that target's injections)\n";
    if (recovery)
        title += "avf-r: recovered detections weighted out of the "
                 "numerator (checkpoint/rollback)\n";
    return title + table.str();
}

std::vector<RecoverySweepRow>
recoverySweep(const std::vector<uint64_t> &intervals, unsigned injections,
              uint64_t seed, unsigned jobs)
{
    std::vector<RecoverySweepRow> out;
    out.reserve(intervals.size());
    for (const uint64_t interval : intervals) {
        RecoveryOptions recovery;
        recovery.enabled = true;
        recovery.checkpointInterval = interval;
        const std::vector<FaultCampaignRow> rows = faultCampaign(
            injections, seed, jobs, /*streaming=*/true, recovery);
        RecoverySweepRow row;
        row.interval = interval;
        for (const FaultCampaignRow &r : rows) {
            row.injections += r.injections;
            row.detected += r.detectedCount();
            row.recovered += r.recoveredTotal();
            row.checkpoints += r.checkpoints;
            row.replayedInsts += r.replayedInsts;
        }
        row.recoveryPct =
            row.detected ? 100.0 * row.recovered / row.detected : 0.0;
        row.checkpointsPerRun = row.injections
                                    ? double(row.checkpoints) /
                                          row.injections
                                    : 0.0;
        row.replayPerDetected = row.detected
                                    ? double(row.replayedInsts) /
                                          row.detected
                                    : 0.0;
        out.push_back(row);
    }
    return out;
}

std::string
recoverySweepTable(const std::vector<RecoverySweepRow> &rows)
{
    Table table({"interval", "runs", "detected", "recovered", "recov%",
                 "ckpts", "ckpts/run", "replayed", "replay/det"});
    for (const RecoverySweepRow &row : rows) {
        table.row({cell(row.interval), cell(uint64_t{row.injections}),
                   cell(uint64_t{row.detected}),
                   cell(uint64_t{row.recovered}),
                   cell(row.recoveryPct, 1), cell(row.checkpoints),
                   cell(row.checkpointsPerRun, 2),
                   cell(row.replayedInsts),
                   cell(row.replayPerDetected, 1)});
    }
    return "R2: checkpoint-interval sweep (recovery rate vs checkpoint "
           "overhead;\nrollback to the most recent checkpoint on "
           "trap/hang detection)\n" +
           table.str();
}

} // namespace risc1::core
