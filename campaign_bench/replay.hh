/**
 * @file
 * The benchmark's own replay of one campaign grid slot, and the row
 * comparisons every campaign-shaped workload checks with.
 *
 * prepare() and runSlot() repeat core/faultcampaign.cc step for step
 * through each layer's public functions, with a span around every
 * call, so the traced run can attribute a slot's time to asm, sim and
 * core. The workloads check that the replay tallies exactly what
 * core::faultCampaign tallies; if it did not, it would be measuring a
 * different program.
 */

#ifndef CAMPAIGN_BENCH_REPLAY_HH
#define CAMPAIGN_BENCH_REPLAY_HH

#include <string>
#include <vector>

#include "common.hh"

#include "core/experiments.hh"
#include "sim/image.hh"
#include "workloads/workload.hh"

namespace cbench {

/** One suite program, prepared as faultCampaignRange prepares it. */
struct Prepared
{
    risc1::sim::ProgramImage image;
    uint32_t expected = 0;
    risc1::sim::ExecResult base;
    risc1::sim::CpuOptions opts;
    double coldSec = 0; //!< baseline: first run on a fresh Cpu
    double warmSec = 0; //!< probe: the same run after restore of the start
    bool warmOk = true;
};

/**
 * Build, image and baseline one workload. With `probe`, also time a
 * re-run after restoring the snapshot taken before the baseline: the
 * warm half of the cold/warm comparison (campaigns do not do this).
 */
Prepared prepare(const risc1::workloads::Workload &wl, bool probe);

/** What one injected run reports: its tallies plus measurements. */
struct SlotInfo
{
    risc1::core::FaultOutcome outcome = risc1::core::FaultOutcome::Masked;
    uint8_t target = 0;
    bool recovered = false;
    uint32_t checkpoints = 0;
    uint64_t replayed = 0;

    uint64_t execNs = 0; //!< time inside the execution calls
    uint64_t insts = 0;  //!< instructions those calls retired
    uint64_t busyNs = 0; //!< the whole slot, for busy_frac
    uint64_t classifyNs = 0;
    uint64_t pauses = 0;
    uint64_t snapshotBytes = 0; //!< serialized last checkpoint (run 0)
    double jitBytes = 0;
    double chainPatches = 0;
    double sbFormed = 0;
    double sbDemoted = 0;
};

/** Grid slot `slot` = (workload w, run r), as faultCampaignRange runs it. */
SlotInfo runSlot(const Prepared &p, uint64_t seed, size_t w, uint64_t r,
                 uint64_t slot, const risc1::core::RecoveryOptions &recovery);

/** Fold one slot into its workload's row, as faultCampaignRange does. */
void tallySlot(risc1::core::FaultCampaignRow &row, const SlotInfo &slot);

/** Per-run metrics over replayed slots (run time, hangs, snapshots,
 *  engine counters, classify + tally). */
void reportSlots(Result &res, const std::vector<SlotInfo> &slots,
                 double tally_sec);

/** Build/image/baseline metrics from the spans of `passes` traced
 *  passes: totals and counts per pass, Cpu/load percentiles. */
void reportPrep(Result &res, unsigned passes);

/** Names of the columns in which two campaign rows differ. */
std::vector<std::string> rowDiff(const risc1::core::FaultCampaignRow &a,
                                 const risc1::core::FaultCampaignRow &b);

bool sameRows(const std::vector<risc1::core::FaultCampaignRow> &a,
              const std::vector<risc1::core::FaultCampaignRow> &b);

/** Campaign engine by workload name: "" keeps the CpuOptions defaults
 *  (the "interp" of the metric names), else "jit" or "ref". */
void selectEngine(const std::string &engine);

/** One campaign grid replayed: faultCampaign(injections, seed, jobs,
 *  ..., recovery) step for step, with its per-slot results. */
struct CampaignReplay
{
    std::vector<risc1::core::FaultCampaignRow> rows;
    std::vector<Prepared> prepared;
    std::vector<SlotInfo> slots;
    double wallSec = 0;
    double mapSec = 0;   //!< the slot map alone (busy_frac's wall)
    double tallySec = 0;
    unsigned jobs = 1;
};

/** Replay the (injections, seed) grid under the current campaign
 *  engine; `probe` as for prepare(). */
CampaignReplay replayCampaign(unsigned injections, uint64_t seed,
                              unsigned jobs,
                              const risc1::core::RecoveryOptions &recovery,
                              bool probe);

/**
 * The slot-by-slot correctness check: every slot of the (injections,
 * seed) grid, replayed under `engine` and under the reference engine
 * (each program prepared once per engine, the slots spread over every
 * vCPU). Each slot is one checked operation of `res`; it fails when
 * its row differs from ref's in any column. Returns the `engine`
 * replay's tallies, for the caller to compare with the library's.
 */
std::vector<risc1::core::FaultCampaignRow>
checkGridAgainstRef(Result &res, unsigned injections, uint64_t seed,
                    const risc1::core::RecoveryOptions &recovery,
                    const std::string &engine);

} // namespace cbench

#endif // CAMPAIGN_BENCH_REPLAY_HH
