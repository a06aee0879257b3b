/**
 * @file
 * Drivers for every experiment in DESIGN.md's per-experiment index
 * (E1..E9, A1/A2). Each driver returns structured rows — asserted by
 * the integration tests — and has a Table renderer used by the bench
 * binaries to print the paper-style artifact.
 */

#ifndef RISC1_CORE_EXPERIMENTS_HH
#define RISC1_CORE_EXPERIMENTS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/run.hh"

namespace risc1::core {

// ---- E1: the instruction-set table -------------------------------------

/** Render Table I: the 31 RISC I instructions. */
std::string isaTable();

// ---- E2: register-window geometry --------------------------------------

/** Render the overlapped-window diagram and mapping for `nwindows`. */
std::string windowGeometryReport(unsigned nwindows = 8);

// ---- E3: procedure call/return cost -------------------------------------

/** One row of the call-overhead comparison. */
struct CallOverheadRow
{
    unsigned nargs = 0;
    double riscCyclesPerCall = 0;
    double vaxCyclesPerCall = 0;
    double riscMemPerCall = 0; //!< data-memory accesses per call+return
    double vaxMemPerCall = 0;
};

/**
 * Measure call+return cost for 0..max_args arguments. Here and in every
 * driver below, `jobs` is the worker-thread count for the independent
 * per-row simulations (see core/parallel.hh): 1 is the historical
 * serial loop and any N produces byte-identical rows.
 */
std::vector<CallOverheadRow> callOverhead(unsigned max_args = 6,
                                          unsigned iters = 2000,
                                          unsigned jobs = 1);
std::string callOverheadTable(const std::vector<CallOverheadRow> &rows);

// ---- E4: static code size ------------------------------------------------

struct CodeSizeRow
{
    std::string name;
    uint32_t riscBytes = 0;
    uint32_t vaxBytes = 0;
    double riscOverVax = 0; //!< paper: RISC I <= ~1.5x the VAX size
};

std::vector<CodeSizeRow> codeSize(unsigned jobs = 1);
std::string codeSizeTable(const std::vector<CodeSizeRow> &rows);

// ---- E5: execution time ----------------------------------------------------

struct ExecTimeRow
{
    std::string name;
    bool resultsMatch = false;
    uint64_t riscInsts = 0;
    uint64_t riscCycles = 0;
    uint64_t vaxInsts = 0;
    uint64_t vaxCycles = 0;
    double riscUs = 0; //!< at the paper's 400 ns cycle
    double vaxUs = 0;  //!< at the VAX-11/780's 200 ns cycle
    double speedup = 0; //!< vaxUs / riscUs
};

std::vector<ExecTimeRow> execTime(unsigned jobs = 1);
std::string execTimeTable(const std::vector<ExecTimeRow> &rows);

// ---- E6: window overflow vs window count ----------------------------------

struct WindowSweepRow
{
    unsigned windows = 0;
    uint64_t calls = 0;
    uint64_t overflows = 0;
    double overflowPct = 0;   //!< overflows / calls
    uint64_t cycles = 0;
    double trapCyclePct = 0;  //!< share of cycles spent in window traps
};

/** Aggregate over the recursive workloads for each window count. */
std::vector<WindowSweepRow>
windowSweep(const std::vector<unsigned> &window_counts = {2, 4, 6, 8, 12,
                                                          16},
            unsigned jobs = 1);
std::string windowSweepTable(const std::vector<WindowSweepRow> &rows);

// ---- E7: memory traffic ------------------------------------------------------

struct MemTrafficRow
{
    std::string name;
    uint64_t riscDataAccesses = 0;
    uint64_t riscTotalAccesses = 0; //!< incl. instruction fetches
    uint64_t vaxDataAccesses = 0;
    uint64_t vaxTotalAccesses = 0;
    double dataRatio = 0;  //!< vax / risc data accesses
    double totalRatio = 0;
};

std::vector<MemTrafficRow> memTraffic(unsigned jobs = 1);
std::string memTrafficTable(const std::vector<MemTrafficRow> &rows);

// ---- E8: dynamic instruction mix ----------------------------------------------

struct InstrMixRow
{
    std::string name;
    double aluPct = 0;
    double loadPct = 0;
    double storePct = 0;
    double branchPct = 0;
    double callRetPct = 0;
    double miscPct = 0;
    double nopPct = 0; //!< executed canonical NOPs (unfilled slots)
};

std::vector<InstrMixRow> instrMix(unsigned jobs = 1);
std::string instrMixTable(const std::vector<InstrMixRow> &rows);

/** One row of the aggregate per-opcode frequency table. */
struct OpcodeFreqRow
{
    std::string mnemonic;
    uint64_t count = 0;
    double pct = 0;
};

/** Aggregate dynamic opcode frequencies over the whole suite,
 *  descending (the paper's detailed-mix table). */
std::vector<OpcodeFreqRow> opcodeFrequencies(unsigned jobs = 1);
std::string opcodeFrequencyTable(const std::vector<OpcodeFreqRow> &rows);

// ---- E9: delayed-branch slot filling ------------------------------------------

struct DelaySlotRow
{
    std::string name;
    unsigned slots = 0;
    unsigned filled = 0;
    double fillPct = 0;
    uint64_t cyclesFilled = 0;   //!< optimizer on
    uint64_t cyclesUnfilled = 0; //!< optimizer off
    double savingPct = 0;
};

std::vector<DelaySlotRow> delaySlots(unsigned jobs = 1);
std::string delaySlotTable(const std::vector<DelaySlotRow> &rows);

// ---- A1: register-window ablation ----------------------------------------------

struct WindowAblationRow
{
    std::string name;
    uint64_t cyclesWith = 0;    //!< 8 windows
    uint64_t cyclesWithout = 0; //!< 2 windows: spill on every call
    double slowdown = 0;
    uint64_t extraMemAccesses = 0;
};

std::vector<WindowAblationRow> windowAblation(unsigned jobs = 1);
std::string windowAblationTable(const std::vector<WindowAblationRow> &rows);

// ---- A2: immediate-field usage ----------------------------------------------------

struct ImmediateRow
{
    std::string name;
    uint64_t shortImmInsts = 0; //!< static insts with imm s2
    uint64_t ldhiInsts = 0;     //!< static LDHI count
    double ldhiPct = 0;         //!< LDHI share of immediate-bearing insts
};

std::vector<ImmediateRow> immediateUsage(unsigned jobs = 1);
std::string immediateUsageTable(const std::vector<ImmediateRow> &rows);

// ---- R1: seeded fault-injection campaign -----------------------------------

/**
 * Outcome class of one injected run, judged against the host oracle
 * (the standard soft-error taxonomy).
 */
enum class FaultOutcome : uint8_t
{
    Masked,       //!< halted with the oracle's result
    Sdc,          //!< halted with a wrong result (silent corruption)
    DetectedTrap, //!< stopped on a precise guest fault
    WatchdogHang, //!< watchdog (or instruction limit) cut a livelock
};

/** Number of FaultOutcome classes. */
constexpr unsigned NumFaultOutcomes = 4;

/** Short name of an outcome class ("masked", "sdc", ...). */
std::string_view faultOutcomeName(FaultOutcome outcome);

/**
 * Number of fault-target classes the injector draws from, indexed by
 * sim::InjectTarget: 0 register file, 1 memory word, 2 fetched
 * instruction (istream).
 */
constexpr unsigned NumFaultTargets = 3;

/** Short name of a fault target ("register", "memory", "istream"). */
std::string_view faultTargetName(unsigned target);

/**
 * Checkpoint/rollback recovery configuration for faultCampaign().
 * When enabled, every injected run snapshots the machine at each
 * multiple of `checkpointInterval` retired instructions; a run that
 * ends in DetectedTrap or WatchdogHang is rolled back to its most
 * recent checkpoint and re-executed (the transient fetch corruption is
 * not re-armed), splitting those classes into recovered (the re-run
 * halts with the oracle result) and unrecovered. Recovery draws no
 * extra randomness and pausing at checkpoints does not perturb the
 * machine, so the base four-class tallies are identical to a
 * non-recovery campaign with the same seed.
 */
struct RecoveryOptions
{
    bool enabled = false;
    uint64_t checkpointInterval = 5000; //!< instructions between snapshots
};

/** Per-workload tallies of one campaign. */
struct FaultCampaignRow
{
    std::string name;
    unsigned injections = 0;
    unsigned byOutcome[NumFaultOutcomes] = {};
    uint64_t baselineInsts = 0; //!< uninjected dynamic length

    // Recovery-mode extras (all zero when recovery is off). Only the
    // detected classes (DetectedTrap, WatchdogHang) can recover; a
    // recovered run still counts in byOutcome under its first
    // classification.
    unsigned recovered[NumFaultOutcomes] = {};
    uint64_t checkpoints = 0;   //!< snapshots taken across all runs
    uint64_t replayedInsts = 0; //!< instructions re-executed after rollback

    // Per-fault-target split of the same tallies, indexed
    // [target][outcome] with target as for faultTargetName(). Summing
    // over targets reproduces byOutcome/recovered exactly; the split
    // feeds the per-target AVF columns (avfReport).
    unsigned byTarget[NumFaultTargets][NumFaultOutcomes] = {};
    unsigned recoveredByTarget[NumFaultTargets][NumFaultOutcomes] = {};

    unsigned
    count(FaultOutcome outcome) const
    {
        return byOutcome[static_cast<unsigned>(outcome)];
    }

    unsigned
    recoveredCount(FaultOutcome outcome) const
    {
        return recovered[static_cast<unsigned>(outcome)];
    }

    /** Runs in a detected (recovery-eligible) class. */
    unsigned
    detectedCount() const
    {
        return count(FaultOutcome::DetectedTrap) +
               count(FaultOutcome::WatchdogHang);
    }

    /** Detected runs whose rollback re-run matched the oracle. */
    unsigned
    recoveredTotal() const
    {
        return recoveredCount(FaultOutcome::DetectedTrap) +
               recoveredCount(FaultOutcome::WatchdogHang);
    }

    /** Injected runs whose flip was drawn for `target`. */
    unsigned
    targetInjections(unsigned target) const
    {
        unsigned sum = 0;
        for (unsigned c = 0; c < NumFaultOutcomes; ++c)
            sum += byTarget[target][c];
        return sum;
    }

    /** Non-masked runs for `target`: the plain AVF numerator. */
    unsigned
    targetVulnerable(unsigned target) const
    {
        return targetInjections(target) -
               byTarget[target][static_cast<unsigned>(
                   FaultOutcome::Masked)];
    }

    /** Recovered detections for `target` (both detected classes). */
    unsigned
    targetRecovered(unsigned target) const
    {
        return recoveredByTarget[target][static_cast<unsigned>(
                   FaultOutcome::DetectedTrap)] +
               recoveredByTarget[target][static_cast<unsigned>(
                   FaultOutcome::WatchdogHang)];
    }
};

/**
 * Run every suite workload `injections` times, each under one seeded
 * single-bit flip (register file / memory word / fetched instruction,
 * uniformly over the run), classify each run, and tally. Every run
 * lands in exactly one class; the whole campaign is a pure function
 * of `seed`. Guests run with a watchdog (a multiple of the baseline
 * cycle count), a 16 MB address limit and no trap vector, so precise
 * faults stop the machine and count as detections. `jobs` parallelizes
 * the workload x injection grid; the tallies are identical for any
 * value because each run's RNG depends only on (seed, workload, run).
 * Without `recovery`, runs fork off one golden run per group of
 * slots: it pauses at each flip time, is snapshotted, takes the flip,
 * runs to its classification and is restored — the prefix before the
 * flip is never re-executed, and every outcome equals the slot's
 * from-scratch run.
 * `streaming` selects the aggregation mode: true streams outcomes into
 * the fixed-size per-workload tallies chunk by chunk (peak memory
 * independent of `injections` — see ParallelRunner::reduceChunks),
 * false materializes the flat outcome vector first. Both modes produce
 * byte-identical rows for a fixed (injections, seed). `recovery`
 * enables checkpoint/rollback re-execution of detected runs (see
 * RecoveryOptions); it changes neither the RNG stream nor the base
 * four-class tallies.
 */
std::vector<FaultCampaignRow> faultCampaign(unsigned injections = 100,
                                            uint64_t seed = 1981,
                                            unsigned jobs = 1,
                                            bool streaming = false,
                                            const RecoveryOptions &recovery =
                                                {});
std::string faultCampaignTable(const std::vector<FaultCampaignRow> &rows,
                               bool recovery = false);

/**
 * One seed-range shard of the campaign: run only the flat grid slots
 * in [first, last) of the `suite.size() * injections` total (slot =
 * workload * injections + run). Every slot's RNG is the same pure
 * function of (seed, workload, run) as in faultCampaign, so summing
 * the rows of any partition of [0, total) — in any order — reproduces
 * the full campaign's tallies exactly; this is the worker entry point
 * of the campaign fleet (core/fleet) and of `bench_fault_campaign
 * --seed-range A:B`. Rows cover the whole suite; workloads with no
 * slot in the range keep zero tallies and a zero baselineInsts (only
 * covered workloads are prepared and baselined).
 */
std::vector<FaultCampaignRow>
faultCampaignRange(unsigned injections, uint64_t seed, uint64_t first,
                   uint64_t last, unsigned jobs = 1,
                   bool streaming = false,
                   const RecoveryOptions &recovery = {});

/** The CpuOptions every campaign guest runs under (16 MB limit, no
 *  trap vector). Its sim::configHash is the configuration component of
 *  the fleet's shard-cache key; the per-workload watchdog budget is
 *  excluded from the hash by construction. */
sim::CpuOptions campaignCpuOptions();

/**
 * Select the execution engine campaignCpuOptions() configures for
 * every subsequent guest (process-wide; default keeps the CpuOptions
 * defaults). Accepts "ref", "threaded", "superblock" or "jit"; false
 * on any other name. The campaign tables are engine-invariant — the
 * flag exists to drive the whole fault/recovery machinery over a
 * specific engine (the JIT's sanitizer smoke test, ablations).
 * Callers offering "jit" should reject unsupported hosts up front
 * (jit::hostSupported()) for a clear error; on such hosts the option
 * is otherwise inert.
 */
bool setCampaignEngine(const std::string &name);

/**
 * Disable (or re-enable) native block-to-block chaining for campaign
 * guests running under `--engine jit` (process-wide; default on, and
 * inert for every other engine). The chained/unchained A/B half of
 * `bench_fault_campaign --jit-no-chain`.
 */
void setCampaignJitChain(bool enabled);

/**
 * Self-contained reproduction of one campaign grid slot — everything
 * an interactive time-travel session (risc1_gdb --replay, via
 * debug/replay.hh) needs: the machine configuration the run used, a
 * serialized snapshot of the state just after the bit flip landed, and
 * the detection point the session should park at.
 */
struct FaultRepro
{
    std::string workload;          //!< suite workload of the slot
    sim::CpuOptions options;       //!< campaign options + watchdog budget
    std::vector<uint8_t> snapshot; //!< serialized post-injection state
    uint64_t snapshotInstructions = 0;
    uint64_t targetInstructions = 0; //!< where the run was detected/ended
    uint32_t targetPc = 0;
    FaultOutcome outcome = FaultOutcome::Masked;
    unsigned target = 0; //!< drawn fault target (see faultTargetName)
    std::string note; //!< injection + outcome description
};

/**
 * Re-execute one grid slot (slot = workload * injections + run, as in
 * faultCampaignRange) and capture it as a FaultRepro. The injection is
 * re-derived from (seed, workload, run), so the reproduction is exact:
 * the run advances to the injection point, applies the flip, snapshots
 * (for a transient fetch flip, after the corrupted word executes — the
 * armed corruption itself is not snapshot state), then runs on to its
 * classification. `bench_fault_campaign --repro SLOT --repro-out FILE`
 * wraps this into a replay file.
 */
FaultRepro faultCampaignRepro(uint64_t slot, unsigned injections = 100,
                              uint64_t seed = 1981);

// ---- R3: recovery-aware AVF reporting --------------------------------------

/**
 * Per-workload architectural-vulnerability factors split by fault
 * target, derived purely from merged campaign tallies. The plain AVF
 * of a target is the fraction of its injections that changed the
 * program outcome (everything but masked); the recovery-aware AVF
 * additionally weights recovered detections out of the numerator —
 * the figure a checkpoint/rollback deployment actually observes.
 */
struct AvfRow
{
    std::string name;
    unsigned injections[NumFaultTargets] = {};
    unsigned vulnerable[NumFaultTargets] = {}; //!< sdc + trap + hang
    unsigned recovered[NumFaultTargets] = {};  //!< recovered detections

    double
    avf(unsigned target) const
    {
        return injections[target]
                   ? double(vulnerable[target]) / injections[target]
                   : 0.0;
    }

    double
    avfRecovered(unsigned target) const
    {
        return injections[target]
                   ? double(vulnerable[target] - recovered[target]) /
                         injections[target]
                   : 0.0;
    }
};

/** Fold campaign rows into per-workload AVF rows (plus totals row). */
std::vector<AvfRow> avfReport(const std::vector<FaultCampaignRow> &rows);

/**
 * Render the R3 table: one row per workload plus TOTAL, AVF columns
 * per fault target; with `recovery` the recovery-weighted columns are
 * appended.
 */
std::string avfTable(const std::vector<AvfRow> &rows,
                     bool recovery = false);

// ---- R2: checkpoint-interval sweep (recovery rate vs overhead) -----------

/** Aggregate recovery metrics of one campaign at one interval. */
struct RecoverySweepRow
{
    uint64_t interval = 0;    //!< instructions between checkpoints
    unsigned injections = 0;  //!< total injected runs (whole suite)
    unsigned detected = 0;    //!< recovery-eligible (trap + hang)
    unsigned recovered = 0;   //!< rollback re-run matched the oracle
    double recoveryPct = 0;   //!< recovered / detected
    uint64_t checkpoints = 0; //!< snapshots taken (checkpoint overhead)
    uint64_t replayedInsts = 0; //!< re-executed instructions (replay cost)
    double checkpointsPerRun = 0;
    double replayPerDetected = 0;
};

/**
 * Run the recovery campaign once per checkpoint interval and aggregate
 * across the suite: the recovery-rate vs checkpoint-overhead tradeoff.
 * Deterministic in (injections, seed) like the campaign itself; `jobs`
 * parallelizes within each campaign.
 */
std::vector<RecoverySweepRow>
recoverySweep(const std::vector<uint64_t> &intervals = {250, 1000, 4000,
                                                        16000},
              unsigned injections = 40, uint64_t seed = 1981,
              unsigned jobs = 1);
std::string recoverySweepTable(const std::vector<RecoverySweepRow> &rows);

} // namespace risc1::core

#endif // RISC1_CORE_EXPERIMENTS_HH
