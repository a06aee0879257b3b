/**
 * @file
 * Campaign fleet coordinator: a fault-injection campaign as a sharded,
 * crash-resumable, fault-tolerant workload. The flat workload x
 * injection grid (see faultCampaignRange) is split into fixed-size
 * seed-range shards; each shard is executed by a worker subprocess
 * (`bench_fault_campaign --seed-range A:B --shard-out FILE`, itself
 * using ParallelRunner + streaming reduceChunks tallies) or, when
 * subprocess spawning is unavailable or disabled, in-process. Per-shard
 * tally rows are merged by summation, which is order-independent, so
 * the final tables are byte-identical to a single-process campaign at
 * any worker count.
 *
 * Robustness model:
 *  - Every completed shard is persisted to a durable on-disk cache as
 *    a versioned little-endian record keyed by fnv1a-64 over the
 *    campaign's determinants (snapshot config hash, suite image hash,
 *    fault-target mask, injections, seed, seed range, recovery
 *    options). Workers write the record atomically (temp file +
 *    rename), so an interrupted or crashed campaign resumes warm: on
 *    the next run, cached shards are validated and merged without
 *    re-execution, and the final output is byte-identical to an
 *    uninterrupted run.
 *  - Malformed cache entries — truncated, foreign magic, stale
 *    version, key mismatch, bit flips (caught by a trailing fnv1a
 *    checksum), unreadable files — raise ShardCacheError with a
 *    machine-checkable Kind, a byte-offset locator and, for file I/O,
 *    the errno text; the coordinator discards and transparently
 *    recomputes them, never merges them.
 *  - Hung workers are detected by a wall-clock watchdog and killed;
 *    crashed or killed workers have their shard re-queued with bounded
 *    retries and exponential backoff, and a shard that exhausts its
 *    retries falls back to in-process execution.
 */

#ifndef RISC1_CORE_FLEET_HH
#define RISC1_CORE_FLEET_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiments.hh"

namespace risc1::core {

class RemotePool; // core/fleetnet.hh

/** Current shard-cache record format version. */
constexpr uint32_t ShardCacheFormatVersion = 1;

/**
 * The fault-target space a campaign draws from, as a bit set indexed
 * like faultTargetName(). The injector currently always draws from all
 * three targets; the mask is part of the shard key so a future
 * restricted-target campaign can never alias a full one.
 */
constexpr uint8_t FaultTargetMaskAll = 0b111;

/** Typed failure of shard-cache record deserialization or file I/O. */
class ShardCacheError : public std::runtime_error
{
  public:
    enum class Kind : uint8_t
    {
        Truncated,   //!< record ended inside a field
        BadMagic,    //!< not a shard-cache record at all
        BadVersion,  //!< produced by a different format version
        KeyMismatch, //!< keyed for a different campaign or shard
        Corrupt,     //!< checksum or structural failure (bit flips)
        Io,          //!< file unreadable/unwritable (message has errno)
    };

    ShardCacheError(Kind kind, const std::string &message)
        : std::runtime_error(message), kind_(kind)
    {}

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
};

/**
 * Everything that determines a shard's tallies. configHash is
 * sim::configHash(campaignCpuOptions()); imageHash is
 * suiteImageHash(). Two shards with equal keys hold interchangeable
 * rows.
 */
struct ShardParams
{
    uint64_t configHash = 0;
    uint64_t imageHash = 0;
    uint8_t targetMask = FaultTargetMaskAll;
    uint32_t injections = 0;
    uint64_t seed = 0;
    uint64_t first = 0; //!< flat grid slot range [first, last)
    uint64_t last = 0;
    bool recover = false;
    uint64_t checkpointInterval = 0; //!< 0 when recover is false
};

/** fnv1a-64 over every ShardParams field, in declaration order. */
uint64_t shardKey(const ShardParams &params);

/**
 * fnv1a-64 over every suite workload's sim::imageHash, in suite order
 * — the image component of the shard key. Assembles each workload
 * once; no baselines are run.
 */
uint64_t suiteImageHash();

/** Assemble the ShardParams for one seed-range shard of a campaign. */
ShardParams shardParams(unsigned injections, uint64_t seed,
                        uint64_t first, uint64_t last,
                        const RecoveryOptions &recovery);

/**
 * Render a shard's campaign rows as a versioned little-endian record:
 * magic/version header, the shard key and echoed params, the rows,
 * and a trailing fnv1a-64 checksum over every preceding byte (so a
 * single flipped bit anywhere is a typed Corrupt error, not a wrong
 * tally).
 */
std::vector<uint8_t>
serializeShardRecord(const ShardParams &params,
                     const std::vector<FaultCampaignRow> &rows);

/**
 * Parse a shard-cache record that must match `expect`. Throws
 * ShardCacheError on any malformed input, checksum failure, or
 * key/params mismatch; messages carry the failing byte offset.
 */
std::vector<FaultCampaignRow>
deserializeShardRecord(const std::vector<uint8_t> &bytes,
                       const ShardParams &expect);

/**
 * Write a serialized record to `path` atomically (a unique temp file
 * in the same directory, then rename), so a reader never observes a
 * partial record. Throws ShardCacheError::Kind::Io with the errno text
 * on failure.
 */
void writeShardFile(const std::string &path,
                    const std::vector<uint8_t> &bytes);

/**
 * Load and validate the shard record at `path` against `expect`.
 * Throws ShardCacheError: Io (with errno text) if unreadable, else as
 * deserializeShardRecord.
 */
std::vector<FaultCampaignRow>
loadShardFile(const std::string &path, const ShardParams &expect);

/** The cache file name for a shard key: "shard-<key hex>.shard". */
std::string shardFileName(uint64_t key);

/** Configuration of one fleet campaign. */
struct FleetOptions
{
    unsigned injections = 100;
    uint64_t seed = 1981;

    unsigned workers = 1;       //!< concurrent worker subprocesses
    unsigned jobsPerWorker = 1; //!< --jobs inside each worker
    /** Grid slots per shard; 0 picks ~4 shards per worker. */
    uint64_t shardSlots = 0;

    /** Durable shard cache directory; empty disables persistence
     *  (subprocess mode requires it — workers hand results back
     *  through the cache). Created if missing. */
    std::string cacheDir;

    /** Worker executable (bench_fault_campaign); empty runs every
     *  shard in-process instead of fanning out subprocesses. */
    std::string workerExe;

    bool streaming = true; //!< per-shard --tally aggregation mode
    RecoveryOptions recovery;

    unsigned maxRetries = 2;        //!< re-queues per shard after a failure
    double workerTimeoutSec = 300;  //!< wall-clock watchdog per shard
    /** Base retry delay: doubles per retry, scaled by deterministic
     *  per-(seed, shard, attempt) jitter — see fleetBackoffSec. */
    double backoffSec = 0.05;

    /**
     * Remote TCP worker pool (core/fleetnet.hh); non-owning, nullptr
     * disables remote scheduling. With a pool, shards are assigned to
     * connected workers instead of subprocesses; several campaigns can
     * share one pool (runFleets). When no worker is reachable the
     * coordinator degrades gracefully: subprocess workers if workerExe
     * is set, else in-process.
     */
    RemotePool *pool = nullptr;

    /** With a pool but no connected worker, wait this long for a
     *  first connection before degrading. Also the drought window: if
     *  every worker is quarantined mid-campaign and none reconnects
     *  within it, the remaining shards degrade the same way. */
    double remoteGraceSec = 2.0;

    /**
     * Test/ops hook simulating a coordinator crash: stop after this
     * many shards have been merged (cached shards count), leaving the
     * cache partially populated; runFleet returns with stats.halted
     * set and must NOT be treated as a completed campaign. 0 disables.
     */
    unsigned haltAfterShards = 0;
};

/** What the coordinator did, for operators (not part of the tables). */
struct FleetStats
{
    unsigned shards = 0;          //!< total shards in the campaign
    unsigned cachedShards = 0;    //!< merged warm from the cache
    unsigned computedShards = 0;  //!< computed by worker subprocesses
    unsigned inProcessShards = 0; //!< computed in-process (fallback/mode)
    unsigned rejectedCache = 0;   //!< malformed cache entries recomputed
    unsigned workerCrashes = 0;   //!< nonzero-exit / signaled workers
    unsigned workerTimeouts = 0;  //!< workers killed by the watchdog
    unsigned retries = 0;         //!< shard re-queues
    unsigned remoteShards = 0;    //!< computed by remote TCP workers
    unsigned remoteStalls = 0;    //!< remote heartbeat stalls / timeouts
    /** Remote workers removed for cause while serving this campaign
     *  (protocol error, stall, or a record that failed validation). */
    unsigned quarantinedWorkers = 0;
    bool halted = false;          //!< stopped early by haltAfterShards
};

/** A merged campaign plus the coordinator's account of itself. */
struct FleetResult
{
    std::vector<FaultCampaignRow> rows;
    FleetStats stats;
};

/**
 * Run a sharded campaign (see file comment). The merged rows are
 * byte-identical to faultCampaign(injections, seed, ...) for any
 * worker count, shard size, cache state, and any interleaving of
 * worker failures — unless stats.halted is set, in which case rows
 * are partial and only the cache is meaningful.
 */
FleetResult runFleet(const FleetOptions &options);

/**
 * Run several campaigns ("tenants") over one shared worker
 * infrastructure. tenants[0] supplies the infrastructure half of the
 * options (pool, workers, jobsPerWorker, workerExe, cacheDir,
 * maxRetries, workerTimeoutSec, backoffSec, remoteGraceSec); each
 * tenant keeps its own campaign half (injections, seed, shardSlots,
 * streaming, recovery, haltAfterShards). Shards are interleaved
 * round-robin across tenants so a small campaign is never starved
 * behind a large one. Results index-match `tenants`, and each
 * tenant's merged rows are byte-identical to running it alone.
 */
std::vector<FleetResult>
runFleets(const std::vector<FleetOptions> &tenants);

/**
 * The retry delay before attempt `attempt` (1-based) of shard
 * `shard_index`: backoff_sec doubled per attempt, scaled by a jitter
 * factor in [0.5, 1.0) derived deterministically from fnv1a(seed,
 * shard_index, attempt) — reproducible for a fixed campaign seed, yet
 * decorrelating the retry times of shards that failed together (a
 * whole fleet retrying in lockstep is its own thundering herd).
 * Consecutive attempts of one shard never reorder: attempt N's
 * jittered range is [2^(N-2), 2^(N-1)) x backoff_sec, strictly below
 * attempt N+1's.
 */
double fleetBackoffSec(double backoff_sec, uint64_t seed,
                       size_t shard_index, unsigned attempt);

} // namespace risc1::core

#endif // RISC1_CORE_FLEET_HH
