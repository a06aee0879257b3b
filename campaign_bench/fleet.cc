/**
 * @file
 * fleet_tcp: a sharded campaign with the coordinator in this process
 * and two worker subprocesses (this executable in --worker-connect
 * mode) over loopback TCP, small shards and a cold shard cache,
 * followed by a warm resume over the same cache.
 *
 * The traced run replays the fleet's per-shard path in-process —
 * prepare the covered programs, run the slots, serialize the record,
 * write and later read the cache file, encode and decode the frame,
 * and bounce it over a loopback connection — with a span around each
 * call, then runs the real fleet once for its coordinator counters.
 */

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "common.hh"
#include "replay.hh"
#include "trace.hh"

#include "core/fleet.hh"
#include "core/fleetnet.hh"
#include "net/frame.hh"
#include "net/transport.hh"

extern char **environ;

namespace cbench {

namespace {

using namespace risc1;
using core::FaultCampaignRow;

constexpr unsigned Workers = 2;
/** Injections per program of one timed fleet campaign. */
constexpr unsigned Injections = 40;
/** Grid slots per shard: small, so per-shard work shows. */
constexpr uint64_t ShardSlots = 20;
constexpr unsigned TraceInjections = 12;
constexpr double ConnectTimeoutSec = 30;
constexpr double ReapTimeoutSec = 10;

/** The pool plus the worker processes connected to it. */
class WorkerFleet
{
  public:
    WorkerFleet(const std::string &exe, unsigned count)
        : pool_(std::make_unique<core::RemotePool>())
    {
        const std::string port = std::to_string(pool_->port());
        for (unsigned i = 0; i < count; ++i) {
            std::vector<std::string> args = {exe, "--worker-connect", port};
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            pid_t pid = 0;
            if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr,
                            argv.data(), environ) != 0) {
                stop();
                throw std::runtime_error("cannot spawn a fleet worker");
            }
            pids_.push_back(pid);
        }
        const uint64_t t0 = nowNs();
        while (pool_->connectedWorkers() < count) {
            if (secondsSince(t0) > ConnectTimeoutSec) {
                stop();
                throw std::runtime_error("fleet workers did not connect");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    ~WorkerFleet() { stop(); }

    WorkerFleet(const WorkerFleet &) = delete;
    WorkerFleet &operator=(const WorkerFleet &) = delete;

    core::RemotePool &pool() { return *pool_; }

    /** Restart every worker's VmHWM count; false if refused. */
    bool
    resetPeaks()
    {
        bool ok = true;
        for (pid_t pid : pids_)
            ok = resetPeakRss(std::to_string(pid)) && ok;
        return ok;
    }

    /** Largest worker VmHWM now, MB. */
    double
    workerPeakMb() const
    {
        double peak = 0;
        for (pid_t pid : pids_)
            peak = std::max(peak, peakRssMb(std::to_string(pid)));
        return peak;
    }

    /** Bye every worker and reap it (killing one that lingers). */
    void
    stop()
    {
        pool_->shutdown();
        const uint64_t t0 = nowNs();
        for (pid_t pid : pids_) {
            int status = 0;
            while (waitpid(pid, &status, WNOHANG) == 0) {
                if (secondsSince(t0) > ReapTimeoutSec) {
                    kill(pid, SIGKILL);
                    waitpid(pid, &status, 0);
                    break;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
        pids_.clear();
    }

  private:
    std::unique_ptr<core::RemotePool> pool_;
    std::vector<pid_t> pids_;
};

core::FleetOptions
fleetOptions(core::RemotePool &pool, unsigned injections, uint64_t seed,
             unsigned jobs, const std::string &cache)
{
    core::FleetOptions fo;
    fo.injections = injections;
    fo.seed = seed;
    fo.workers = Workers;
    fo.jobsPerWorker = jobs;
    fo.shardSlots = ShardSlots;
    fo.cacheDir = cache;
    fo.pool = &pool;
    fo.remoteGraceSec = ConnectTimeoutSec;
    return fo;
}

/** Channel reading from a byte buffer: frame decode without a socket. */
class BufferChannel : public net::Channel
{
  public:
    explicit BufferChannel(const std::vector<uint8_t> &bytes)
        : bytes_(bytes)
    {}

    size_t
    recv(char *out, size_t n) override
    {
        n = std::min(n, bytes_.size() - pos_);
        std::memcpy(out, bytes_.data() + pos_, n);
        pos_ += n;
        return n;
    }

    void
    send(const char *, size_t) override
    {
        throw net::TransportError("BufferChannel is read-only");
    }

  private:
    const std::vector<uint8_t> &bytes_;
    size_t pos_ = 0;
};

/** A loopback TCP peer that sends every frame straight back. */
class EchoPeer
{
  public:
    EchoPeer() : listener_(0)
    {
        thread_ = std::thread([this] {
            try {
                std::unique_ptr<net::Channel> ch = listener_.accept();
                while (auto frame = net::recvFrame(*ch))
                    net::sendFrame(*ch, frame->type, frame->payload);
            } catch (const std::exception &) {
                // closed under us: the client is gone
            }
        });
        try {
            client_ = net::connectTcp("127.0.0.1", listener_.port());
        } catch (...) {
            listener_.close();
            thread_.join();
            throw;
        }
    }

    ~EchoPeer()
    {
        client_.reset();
        listener_.close();
        thread_.join();
    }

    EchoPeer(const EchoPeer &) = delete;
    EchoPeer &operator=(const EchoPeer &) = delete;

    net::Channel &channel() { return *client_; }

  private:
    net::TcpListener listener_;
    std::unique_ptr<net::Channel> client_;
    std::thread thread_;
};

void
mergeRows(std::vector<FaultCampaignRow> &dst,
          const std::vector<FaultCampaignRow> &src)
{
    for (size_t w = 0; w < dst.size(); ++w) {
        FaultCampaignRow &d = dst[w];
        const FaultCampaignRow &s = src[w];
        d.injections += s.injections;
        d.baselineInsts = std::max(d.baselineInsts, s.baselineInsts);
        for (unsigned c = 0; c < core::NumFaultOutcomes; ++c) {
            d.byOutcome[c] += s.byOutcome[c];
            d.recovered[c] += s.recovered[c];
            for (unsigned t = 0; t < core::NumFaultTargets; ++t) {
                d.byTarget[t][c] += s.byTarget[t][c];
                d.recoveredByTarget[t][c] += s.recoveredByTarget[t][c];
            }
        }
        d.checkpoints += s.checkpoints;
        d.replayedInsts += s.replayedInsts;
    }
}

std::vector<FaultCampaignRow>
emptyRows()
{
    std::vector<FaultCampaignRow> rows(workloads::allWorkloads().size());
    for (size_t w = 0; w < rows.size(); ++w)
        rows[w].name = workloads::allWorkloads()[w].name;
    return rows;
}

struct FleetReplay
{
    std::vector<FaultCampaignRow> cold;
    std::vector<FaultCampaignRow> warm;
    std::vector<SlotInfo> slots;
    std::vector<double> recordBytes;
    double tallySec = 0;
    double wallSec = 0;
    bool framesIntact = true;
};

/** The fleet's per-shard path for one (injections, seed) campaign. */
FleetReplay
replayFleet(unsigned injections, uint64_t seed, const std::string &cache,
            net::Channel &echo)
{
    const auto &suite = workloads::allWorkloads();
    const uint64_t total = uint64_t{suite.size()} * injections;
    const core::RecoveryOptions recovery;
    FleetReplay out;
    out.cold = emptyRows();
    out.warm = emptyRows();
    std::filesystem::remove_all(cache);
    std::filesystem::create_directories(cache);
    const uint64_t t0 = nowNs();
    core::ShardParams proto;
    {
        Span s("core.fleet.shardParams");
        proto = core::shardParams(injections, seed, 0, total, recovery);
    }
    std::vector<std::pair<core::ShardParams, std::string>> shards;
    for (uint64_t first = 0; first < total; first += ShardSlots) {
        core::ShardParams sp = proto;
        sp.first = first;
        sp.last = std::min(first + ShardSlots, total);
        const size_t w_first = first / injections;
        const size_t w_last = (sp.last - 1) / injections;
        std::vector<FaultCampaignRow> rows = emptyRows();
        std::vector<Prepared> prepared;
        {
            // Benchmark glue around asm/sim calls; its duration is
            // core.fleet.shard_prep_ms.
            Span s("bench.shard_prep", first);
            for (size_t w = w_first; w <= w_last; ++w)
                prepared.push_back(prepare(suite[w], /*probe=*/false));
        }
        for (uint64_t slot = first; slot < sp.last; ++slot) {
            const size_t w = slot / injections;
            out.slots.push_back(runSlot(prepared[w - w_first], seed, w,
                                        slot % injections, slot, recovery));
            const uint64_t t = nowNs();
            {
                Span s("core.tally", slot);
                tallySlot(rows[w], out.slots.back());
            }
            out.tallySec += secondsSince(t);
        }
        for (size_t w = w_first; w <= w_last; ++w) {
            const uint64_t lo = std::max<uint64_t>(first, w * injections);
            const uint64_t hi =
                std::min<uint64_t>(sp.last, (w + 1) * injections);
            rows[w].injections = static_cast<unsigned>(hi - lo);
            rows[w].baselineInsts =
                prepared[w - w_first].base.instructions;
        }
        std::vector<uint8_t> record;
        {
            Span s("core.fleet.serialize", first);
            record = core::serializeShardRecord(sp, rows);
        }
        out.recordBytes.push_back(double(record.size()));
        const std::string path =
            cache + "/" + core::shardFileName(core::shardKey(sp));
        {
            Span s("core.fleet.cache_write", first);
            core::writeShardFile(path, record);
        }
        std::vector<uint8_t> frame;
        {
            Span s("net.frame_encode", first);
            frame = net::encodeFrame(net::FrameType::ShardDone, record);
        }
        std::optional<net::Frame> decoded;
        {
            Span s("net.frame_decode", first);
            BufferChannel in(frame);
            decoded = net::recvFrame(in);
        }
        std::optional<net::Frame> echoed;
        {
            Span s("net.loopback_rtt", first);
            net::sendFrame(echo, net::FrameType::ShardDone, record);
            echoed = net::recvFrame(echo);
        }
        out.framesIntact = out.framesIntact && decoded &&
                           decoded->payload == record && echoed &&
                           echoed->payload == record;
        mergeRows(out.cold, rows);
        shards.emplace_back(sp, path);
    }
    // The warm resume: every shard from the cache.
    for (const auto &[sp, path] : shards) {
        std::vector<FaultCampaignRow> rows;
        {
            Span s("core.fleet.cache_read", sp.first);
            rows = core::loadShardFile(path, sp);
        }
        mergeRows(out.warm, rows);
    }
    out.wallSec = secondsSince(t0);
    return out;
}

/**
 * The traced run: passes over fresh grids until options.seconds have
 * passed, each replaying the fleet path untraced and traced (their
 * difference is the tracing overhead), then the real fleet once, cold
 * and warm, for its coordinator counters.
 */
void
traced(Result &res, const Options &options, WorkerFleet &fleet,
       const std::string &cache)
{
    Tracer &tr = Tracer::instance();
    EchoPeer echo;
    std::vector<SlotInfo> slots;
    std::vector<double> record_bytes;
    double plain_sec = 0, traced_sec = 0, tally_sec = 0;
    unsigned passes = 0;
    const uint64_t begin = nowNs();
    do {
        const uint64_t seed = mixSeed(options.seed, passes);
        const FleetReplay plain =
            replayFleet(TraceInjections, seed, cache, echo.channel());
        tr.setEnabled(true);
        FleetReplay one;
        {
            Span root(TraceRoot);
            one = replayFleet(TraceInjections, seed, cache, echo.channel());
        }
        tr.setEnabled(false);
        ++passes;
        plain_sec += plain.wallSec;
        traced_sec += one.wallSec;
        tally_sec += one.tallySec;
        slots.insert(slots.end(), one.slots.begin(), one.slots.end());
        record_bytes.insert(record_bytes.end(), one.recordBytes.begin(),
                            one.recordBytes.end());
        const auto lib = core::faultCampaign(TraceInjections, seed,
                                             hostJobs(), /*streaming=*/true);
        res.check(one.framesIntact && plain.framesIntact,
                  "a shard record did not survive frame encode/decode/echo");
        res.check(sameRows(plain.cold, lib) && sameRows(one.cold, lib),
                  "the replayed fleet tallies differ from faultCampaign's");
        res.check(sameRows(one.warm, lib),
                  "the replayed warm resume differs from faultCampaign's");
    } while (secondsSince(begin) < options.seconds);
    std::filesystem::remove_all(cache);

    const auto mean = [](const std::vector<double> &v) {
        return v.empty() ? 0.0 : sum(v) / double(v.size());
    };
    const auto per_shard = [&](const char *metric, const char *span,
                               double scale, const char *unit) {
        const auto d = tr.durations(span);
        res.metric(metric, mean(d) * scale, unit, d.size());
    };
    reportPrep(res, passes);
    reportSlots(res, slots, tally_sec);
    per_shard("core.fleet.shard_prep_ms", "bench.shard_prep", 1e3, "ms");
    per_shard("core.fleet.serialize_us", "core.fleet.serialize", 1e6, "us");
    res.metric("core.fleet.record_bytes", mean(record_bytes), "B",
               record_bytes.size());
    per_shard("core.fleet.cache_write_ms", "core.fleet.cache_write", 1e3,
              "ms");
    per_shard("core.fleet.cache_read_ms", "core.fleet.cache_read", 1e3,
              "ms");
    per_shard("net.frame_encode_us", "net.frame_encode", 1e6, "us");
    per_shard("net.frame_decode_us", "net.frame_decode", 1e6, "us");
    const auto rtt = tr.durations("net.loopback_rtt");
    res.metric("net.loopback_rtt_us", percentile(rtt, 50) * 1e6, "us",
               rtt.size());
    reportLayers(res, traced_sec - plain_sec, passes);
    res.notes.push_back(std::to_string(passes) + " traced passes of " +
                        std::to_string(TraceInjections) +
                        " injections per program");

    // The real fleet, once cold and once warm, for its own counters.
    const uint64_t seed = mixSeed(options.seed, 0);
    const auto fo = fleetOptions(fleet.pool(), TraceInjections, seed,
                                 std::max(1u, hostJobs() / Workers), cache);
    const core::FleetResult cold = core::runFleet(fo);
    const core::FleetResult warm = core::runFleet(fo);
    std::filesystem::remove_all(cache);
    const auto counted = [](const core::FleetStats &s) {
        return s.retries + s.workerCrashes + s.workerTimeouts +
               s.quarantinedWorkers + s.remoteStalls;
    };
    res.metric("core.fleet.shards", cold.stats.shards, "count", 1);
    res.metric("core.fleet.retries",
               double(counted(cold.stats) + counted(warm.stats)), "count", 2);

    const auto lib = core::faultCampaign(TraceInjections, seed, hostJobs(),
                                         /*streaming=*/true);
    res.check(sameRows(cold.rows, lib) && sameRows(warm.rows, lib),
              "runFleet's tallies differ from faultCampaign's");
    writeSpans(options);
}

} // namespace

Result
runFleetWorkload(const Options &options, const std::string &self_exe)
{
    Result res;
    selectEngine("");
    const std::string cache = options.outDir + "/fleet-cache-" +
                              std::to_string(getpid());
    const unsigned jmax_per_worker = std::max(1u, hostJobs() / Workers);
    const uint64_t grid = workloads::allWorkloads().size() * Injections;
    WorkerFleet fleet(self_exe, Workers);
    reportSetup(res, options, nowNs());
    if (options.setupProbe)
        return res;
    if (options.trace) {
        traced(res, options, fleet, cache);
        fleet.stop();
        return res;
    }

    // ---- timed window: cold campaign + warm resume; j1 / jmax blocks ----
    std::vector<std::vector<FaultCampaignRow>> rows[2];
    std::vector<double> warm_all, worker_rss;
    const Window window = timedWindow(
        options.seconds,
        [&](bool wide, unsigned k) {
            std::filesystem::remove_all(cache);
            const auto fo = fleetOptions(fleet.pool(), Injections,
                                         mixSeed(options.seed, k),
                                         wide ? jmax_per_worker : 1, cache);
            uint64_t t = nowNs();
            const core::FleetResult cold = core::runFleet(fo);
            const double sec = secondsSince(t);
            t = nowNs();
            const core::FleetResult warm = core::runFleet(fo);
            warm_all.push_back(secondsSince(t) / double(grid) * 1000.0);
            const std::string what = std::string(wide ? "jmax" : "j1") +
                                     " leg " + std::to_string(k) + ": ";
            res.gate(cold.stats.remoteShards == cold.stats.shards &&
                         !cold.stats.halted,
                     what + "not every shard ran on a TCP worker");
            res.gate(warm.stats.cachedShards == warm.stats.shards &&
                         sameRows(warm.rows, cold.rows),
                     what + "the warm resume differs from the cold run");
            rows[wide].push_back(cold.rows);
            return sec / double(grid) * 1000.0;
        },
        [&] { return resetPeakRss() && fleet.resetPeaks(); },
        [&] {
            worker_rss.push_back(fleet.workerPeakMb());
            return std::max(peakRssMb(), worker_rss.back());
        });
    std::filesystem::remove_all(cache);
    fleet.stop();

    // ---- checks, outside the window ----
    for (size_t k = 0; k < std::min(rows[0].size(), rows[1].size()); ++k)
        res.gate(sameRows(rows[0][k], rows[1][k]),
                 "leg " + std::to_string(k) +
                     ": the j1 and jmax fleet tables differ");
    const uint64_t seed0 = mixSeed(options.seed, 0);
    const auto lib = core::faultCampaign(Injections, seed0, hostJobs(),
                                         /*streaming=*/true);
    for (size_t w = 0; w < lib.size(); ++w)
        res.gate(rowDiff(rows[0][0][w], lib[w]).empty(),
                 "fleet row " + lib[w].name +
                     " differs from the single-process campaign");
    res.gate(sameRows(checkGridAgainstRef(res, Injections, seed0, {}, ""),
                      rows[0][0]),
             "leg 0: the replayed grid tallies differ from the fleet's");

    reportWindow(res, window);
    res.notes.push_back(legsNote("largest worker peak RSS (MB)", worker_rss));
    res.notes.push_back(
        "unit = 1000 injected runs of a cold-cache fleet campaign; legs "
        "of " + std::to_string(grid) + " slots in " +
        std::to_string((grid + ShardSlots - 1) / ShardSlots) +
        " shards over " + std::to_string(Workers) + " TCP workers x 1 job " +
        "(j1) and x " + std::to_string(jmax_per_worker) +
        " jobs (jmax); warm resume " + std::to_string(median(warm_all)) +
        " s per 1000");
    return res;
}

} // namespace cbench
