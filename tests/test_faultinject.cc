/**
 * @file
 * Fault-injection tests: deterministic replay of campaign rows,
 * outcome completeness, transience of fetch-word flips, bounds on
 * drawn injections, and the forked campaign (every injected run
 * branches off one advancing golden run) against from-scratch runs
 * on every engine.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/experiments.hh"
#include "jit/arena.hh"
#include "sim/cpu.hh"
#include "sim/faultinject.hh"
#include "support/rng.hh"
#include "workloads/workload.hh"

namespace {

using namespace risc1;
using assembler::assembleOrDie;

TEST(FaultInject, CampaignIsDeterministicForFixedSeed)
{
    auto first = core::faultCampaign(5, 1981);
    auto second = core::faultCampaign(5, 1981);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].name, second[i].name);
        EXPECT_EQ(first[i].baselineInsts, second[i].baselineInsts);
        for (unsigned c = 0; c < core::NumFaultOutcomes; ++c)
            EXPECT_EQ(first[i].byOutcome[c], second[i].byOutcome[c])
                << first[i].name << " outcome " << c;
    }
}

TEST(FaultInject, EveryRunIsClassified)
{
    for (const auto &row : core::faultCampaign(8, 7)) {
        unsigned sum = 0;
        for (unsigned c = 0; c < core::NumFaultOutcomes; ++c)
            sum += row.byOutcome[c];
        EXPECT_EQ(sum, row.injections) << row.name;
    }
}

TEST(FaultInject, DifferentSeedsDrawDifferentInjections)
{
    Rng a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 8 && !differ; ++i) {
        sim::Injection x = sim::drawInjection(a, 1000);
        sim::Injection y = sim::drawInjection(b, 1000);
        differ = x.target != y.target || x.bit != y.bit ||
                 x.atInstruction != y.atInstruction;
    }
    EXPECT_TRUE(differ);
}

TEST(FaultInject, DrawnInjectionsAreInBounds)
{
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        sim::Injection inj = sim::drawInjection(rng, 1234);
        EXPECT_LT(inj.bit, 32u);
        EXPECT_LT(inj.atInstruction, 1234u);
    }
}

TEST(FaultInject, FetchFlipIsTransient)
{
    // Corrupting the fetched word must not alter the stored program:
    // flip the whole opcode field of the first instruction to zero so
    // decode faults, then check memory still holds the original image.
    sim::Cpu cpu;
    cpu.load(assembleOrDie(R"(
main:   mov   7, r16
        halt
)"));
    const uint32_t entry = cpu.pc();
    const uint32_t original = cpu.memory().peek32(entry);
    ASSERT_NE(original, 0u);

    cpu.corruptNextFetch(original); // word ^ original == 0 → illegal
    auto result = cpu.run();
    EXPECT_EQ(result.reason, sim::StopReason::Fault);
    EXPECT_EQ(result.faultCause, isa::TrapCause::IllegalOpcode);
    EXPECT_EQ(cpu.memory().peek32(entry), original);
}

TEST(FaultInject, FetchCorruptionOnlyHitsOneFetch)
{
    // A flip that turns `mov 7, r16` into a different-but-legal word
    // would run on; here we flip a bit that keeps the opcode legal by
    // flipping the immediate instead, and the program must still halt.
    sim::Cpu cpu;
    cpu.load(assembleOrDie(R"(
main:   mov   7, r16
        stl   r16, (r0)800
        halt
)"));
    cpu.corruptNextFetch(1u); // flip bit 0 of the first word
    auto result = cpu.run();
    if (result.halted()) {
        // The corrupted immediate (7^1 = 6) reached r16; the stored
        // program was untouched, so a re-run gives the true value.
        EXPECT_EQ(cpu.memory().peek32(800), 6u);
        sim::Cpu again;
        again.load(assembleOrDie(R"(
main:   mov   7, r16
        stl   r16, (r0)800
        halt
)"));
        ASSERT_TRUE(again.run().halted());
        EXPECT_EQ(again.memory().peek32(800), 7u);
    }
}

TEST(FaultInject, RegisterInjectionFlipsExactlyOneBit)
{
    sim::Cpu cpu;
    cpu.load(assembleOrDie(R"(
main:   b     main
)"));
    Rng rng(99);
    sim::Injection inj;
    inj.target = sim::InjectTarget::Register;
    inj.atInstruction = 0;
    inj.bit = 5;
    sim::applyInjection(cpu, rng, inj);
    EXPECT_TRUE(inj.applied);
    EXPECT_EQ(inj.oldValue ^ inj.newValue, 1u << 5);
    EXPECT_EQ(cpu.regfile().readPhys(inj.physReg), inj.newValue);
}

TEST(FaultInject, MemoryInjectionFlipsATouchedWord)
{
    sim::Cpu cpu;
    cpu.load(assembleOrDie(R"(
main:   b     main
)"));
    Rng rng(7);
    sim::Injection inj;
    inj.target = sim::InjectTarget::Memory;
    inj.atInstruction = 0;
    inj.bit = 12;
    sim::applyInjection(cpu, rng, inj);
    EXPECT_TRUE(inj.applied);
    EXPECT_EQ(inj.oldValue ^ inj.newValue, 1u << 12);
    EXPECT_EQ(cpu.memory().peek32(inj.memAddr), inj.newValue);
    EXPECT_EQ(inj.memAddr % 4, 0u);
}

TEST(FaultInject, RunWithInjectionPausesAppliesAndFinishes)
{
    sim::Cpu cpu;
    cpu.load(assembleOrDie(R"(
main:   mov   1, r16
        mov   2, r16
        mov   3, r16
        halt
)"));
    Rng rng(3);
    sim::Injection inj;
    inj.target = sim::InjectTarget::Register;
    inj.atInstruction = 2;
    inj.bit = 0;
    auto result = sim::runWithInjection(cpu, rng, inj);
    EXPECT_TRUE(inj.applied);
    EXPECT_TRUE(result.halted()) << result.message;
    EXPECT_GE(cpu.stats().instructions, 4u);
    EXPECT_FALSE(sim::describeInjection(inj).empty());
}

TEST(FaultInject, InjectionPastEndOfRunIsNotApplied)
{
    sim::Cpu cpu;
    cpu.load(assembleOrDie(R"(
main:   halt
)"));
    Rng rng(3);
    sim::Injection inj;
    inj.target = sim::InjectTarget::Register;
    inj.atInstruction = 50; // beyond the program's lifetime
    inj.bit = 0;
    auto result = sim::runWithInjection(cpu, rng, inj);
    EXPECT_TRUE(result.halted());
    EXPECT_FALSE(inj.applied);
}

TEST(FaultInject, DescribeNamesEveryTarget)
{
    for (auto target : {sim::InjectTarget::Register,
                        sim::InjectTarget::Memory,
                        sim::InjectTarget::Fetch}) {
        sim::Injection inj;
        inj.target = target;
        inj.bit = 3;
        EXPECT_FALSE(sim::describeInjection(inj).empty());
    }
}

void
expectRowsEq(const std::vector<core::FaultCampaignRow> &a,
             const std::vector<core::FaultCampaignRow> &b,
             const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name) << what;
        EXPECT_EQ(a[i].baselineInsts, b[i].baselineInsts) << what;
        EXPECT_EQ(a[i].checkpoints, b[i].checkpoints)
            << what << " " << a[i].name;
        EXPECT_EQ(a[i].replayedInsts, b[i].replayedInsts)
            << what << " " << a[i].name;
        EXPECT_EQ(a[i].injections, b[i].injections)
            << what << " " << a[i].name;
        for (unsigned c = 0; c < core::NumFaultOutcomes; ++c) {
            EXPECT_EQ(a[i].byOutcome[c], b[i].byOutcome[c])
                << what << " " << a[i].name << " outcome " << c;
            EXPECT_EQ(a[i].recovered[c], b[i].recovered[c])
                << what << " " << a[i].name << " recovered " << c;
            for (unsigned t = 0; t < core::NumFaultTargets; ++t) {
                EXPECT_EQ(a[i].byTarget[t][c], b[i].byTarget[t][c])
                    << what << " " << a[i].name << " target " << t
                    << " outcome " << c;
                EXPECT_EQ(a[i].recoveredByTarget[t][c],
                          b[i].recoveredByTarget[t][c])
                    << what << " " << a[i].name << " target " << t
                    << " recovered " << c;
            }
        }
    }
}

/** Add the tallies of `part` (a sub-range's rows) into `sum`. */
void
addRows(std::vector<core::FaultCampaignRow> &sum,
        const std::vector<core::FaultCampaignRow> &part)
{
    ASSERT_EQ(sum.size(), part.size());
    for (size_t i = 0; i < sum.size(); ++i) {
        sum[i].name = part[i].name;
        sum[i].injections += part[i].injections;
        if (part[i].injections != 0)
            sum[i].baselineInsts = part[i].baselineInsts;
        for (unsigned c = 0; c < core::NumFaultOutcomes; ++c) {
            sum[i].byOutcome[c] += part[i].byOutcome[c];
            for (unsigned t = 0; t < core::NumFaultTargets; ++t)
                sum[i].byTarget[t][c] += part[i].byTarget[t][c];
        }
    }
}

/**
 * The plain campaign forks every injected run off one advancing
 * golden run per unit of slots. Each case runs on one engine and
 * checks the forked grids against from-scratch runs of every slot.
 */
class ForkedCampaign : public ::testing::TestWithParam<const char *>
{
  protected:
    void
    SetUp() override
    {
        if (std::string(GetParam()) == "jit" && !jit::hostSupported())
            GTEST_SKIP() << "no templates for " << jit::hostArchName();
        ASSERT_TRUE(core::setCampaignEngine(GetParam()));
    }

    // The campaign engine is process-wide: leave the Cpu defaults.
    void TearDown() override { core::setCampaignEngine("superblock"); }
};

TEST_P(ForkedCampaign, RunUntilAtTheCurrentCountPausesWithoutAStep)
{
    // A slot whose flip time equals the golden run's position (time 0
    // on a fresh load, or a duplicate time) must fork right there.
    sim::Cpu cpu(core::campaignCpuOptions());
    cpu.load(assembleOrDie(R"(
main:   mov   1, r16
        mov   2, r16
        mov   3, r16
        halt
)"));
    const uint32_t entry = cpu.pc();
    sim::ExecResult r = cpu.runUntil(0);
    EXPECT_EQ(r.reason, sim::StopReason::Paused);
    EXPECT_EQ(cpu.stats().instructions, 0u);
    EXPECT_EQ(cpu.stats().cycles, 0u);
    EXPECT_EQ(cpu.pc(), entry);

    r = cpu.runUntil(2);
    ASSERT_EQ(r.reason, sim::StopReason::Paused);
    ASSERT_EQ(cpu.stats().instructions, 2u);
    const uint64_t cycles = cpu.stats().cycles;
    const uint32_t pc = cpu.pc();
    r = cpu.runUntil(2);
    EXPECT_EQ(r.reason, sim::StopReason::Paused);
    EXPECT_EQ(cpu.stats().instructions, 2u);
    EXPECT_EQ(cpu.stats().cycles, cycles);
    EXPECT_EQ(cpu.pc(), pc);
    EXPECT_EQ(cpu.reg(16), 2u);
    EXPECT_TRUE(cpu.run().halted());
}

TEST_P(ForkedCampaign, EverySlotAndGridMatchesFromScratchRuns)
{
    constexpr unsigned Inj = 4;
    constexpr uint64_t Seed = 1981;
    const uint64_t total = uint64_t{workloads::allWorkloads().size()} * Inj;

    // Each slot alone: its forked unit holds just that slot, and its
    // outcome and target equal faultCampaignRepro's from-scratch run.
    std::vector<core::FaultCampaignRow> scratch(
        workloads::allWorkloads().size());
    for (uint64_t slot = 0; slot < total; ++slot) {
        const auto one =
            core::faultCampaignRange(Inj, Seed, slot, slot + 1, 1, true);
        const core::FaultRepro repro =
            core::faultCampaignRepro(slot, Inj, Seed);
        const core::FaultCampaignRow &row = one[slot / Inj];
        EXPECT_EQ(row.name, repro.workload);
        EXPECT_EQ(row.injections, 1u) << "slot " << slot;
        EXPECT_EQ(row.byTarget[repro.target]
                              [static_cast<unsigned>(repro.outcome)],
                  1u)
            << "slot " << slot << ": " << repro.note;
        addRows(scratch, one);
    }

    // Whole grids fork many slots per unit (units split differently
    // at each job count and in each mode) and must sum to the same
    // tallies as the from-scratch slots.
    for (unsigned jobs : {1u, 4u})
        for (bool streaming : {false, true})
            expectRowsEq(scratch,
                         core::faultCampaign(Inj, Seed, jobs, streaming),
                         "jobs=" + std::to_string(jobs) +
                             (streaming ? " streaming" : " flat"));

    // A partition whose ranges cut workloads mid-grid.
    std::vector<core::FaultCampaignRow> parts(scratch.size());
    const uint64_t cuts[] = {0, 2, 7, 13, 30, 31, 45, total};
    for (size_t i = 0; i + 1 < std::size(cuts); ++i)
        addRows(parts, core::faultCampaignRange(Inj, Seed, cuts[i],
                                                cuts[i + 1], 1, true));
    expectRowsEq(scratch, parts, "partition");
}

INSTANTIATE_TEST_SUITE_P(Engines, ForkedCampaign,
                         ::testing::Values("ref", "threaded",
                                           "superblock", "jit"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(Recovery, CampaignDeterministicAcrossJobsAndModes)
{
    core::RecoveryOptions recovery;
    recovery.enabled = true;
    recovery.checkpointInterval = 500;
    const auto serial_flat =
        core::faultCampaign(3, 2026, 1, false, recovery);
    expectRowsEq(serial_flat,
                 core::faultCampaign(3, 2026, 4, false, recovery),
                 "jobs=4 flat");
    expectRowsEq(serial_flat,
                 core::faultCampaign(3, 2026, 1, true, recovery),
                 "jobs=1 streaming");
    expectRowsEq(serial_flat,
                 core::faultCampaign(3, 2026, 4, true, recovery),
                 "jobs=4 streaming");
}

TEST(Recovery, BaseClassTalliesUnchangedByRecovery)
{
    // Pausing at checkpoints and re-running after detection must not
    // perturb the faulted run's own outcome: the four base classes
    // match the plain campaign for the same seed, run for run.
    const auto plain = core::faultCampaign(4, 77);
    core::RecoveryOptions recovery;
    recovery.enabled = true;
    recovery.checkpointInterval = 300;
    const auto recovered = core::faultCampaign(4, 77, 2, true, recovery);
    ASSERT_EQ(plain.size(), recovered.size());
    for (size_t i = 0; i < plain.size(); ++i)
        for (unsigned c = 0; c < core::NumFaultOutcomes; ++c)
            EXPECT_EQ(plain[i].byOutcome[c], recovered[i].byOutcome[c])
                << plain[i].name << " outcome " << c;
}

TEST(Recovery, OnlyDetectedClassesRecoverAndWithinBounds)
{
    core::RecoveryOptions recovery;
    recovery.enabled = true;
    recovery.checkpointInterval = 400;
    for (const auto &row : core::faultCampaign(5, 1234, 2, true,
                                               recovery)) {
        EXPECT_EQ(row.recoveredCount(core::FaultOutcome::Masked), 0u)
            << row.name;
        EXPECT_EQ(row.recoveredCount(core::FaultOutcome::Sdc), 0u)
            << row.name;
        EXPECT_LE(row.recoveredCount(core::FaultOutcome::DetectedTrap),
                  row.count(core::FaultOutcome::DetectedTrap))
            << row.name;
        EXPECT_LE(row.recoveredCount(core::FaultOutcome::WatchdogHang),
                  row.count(core::FaultOutcome::WatchdogHang))
            << row.name;
        EXPECT_GT(row.checkpoints, 0u) << row.name;
    }
}

TEST(Recovery, NoRecoveryFieldsWhenDisabled)
{
    for (const auto &row : core::faultCampaign(2, 99)) {
        EXPECT_EQ(row.recoveredTotal(), 0u) << row.name;
        EXPECT_EQ(row.checkpoints, 0u) << row.name;
        EXPECT_EQ(row.replayedInsts, 0u) << row.name;
    }
}

TEST(Recovery, SweepAggregatesAreConsistent)
{
    const auto rows = core::recoverySweep({300, 3000}, 2, 7, 2);
    ASSERT_EQ(rows.size(), 2u);
    for (const auto &row : rows) {
        EXPECT_GT(row.injections, 0u);
        EXPECT_LE(row.recovered, row.detected);
        EXPECT_GE(row.checkpoints, row.injections / 2) << "interval "
            << row.interval; // every run of nontrivial length snapshots
    }
    // Smaller interval => strictly more checkpoints taken.
    EXPECT_GT(rows[0].checkpoints, rows[1].checkpoints);
}

} // namespace
