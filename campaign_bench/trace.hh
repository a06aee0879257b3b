/**
 * @file
 * In-memory span recorder for the traced replay, plus the small
 * statistics helpers every workload shares.
 *
 * A span is (name, start, end, parent, request id, thread). Spans are
 * appended to a per-thread buffer owned by the process-wide Tracer, so
 * they survive the short-lived ParallelRunner pool threads; nothing is
 * written out until the run ends. With tracing disabled a Span scope
 * costs one branch. The layer of a span is its name up to the first
 * '.', which is always one of the repository's module names (asm, sim,
 * core, net, vax, cc) or "bench" for the benchmark's own glue around
 * layer calls (a per-slot or per-shard scope), whose self time the
 * self-check counts as unattributed.
 */

#ifndef CAMPAIGN_BENCH_TRACE_HH
#define CAMPAIGN_BENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cbench {

/** Monotonic nanoseconds (CLOCK_MONOTONIC, shared with run.py). */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Request id of a span that belongs to no grid slot. */
constexpr uint64_t NoRequest = ~uint64_t{0};

struct SpanRecord
{
    const char *name = nullptr; //!< static string "layer.op"
    uint64_t start = 0;
    uint64_t end = 0;
    int64_t parent = -1; //!< index in the same thread's buffer
    uint64_t request = NoRequest;
    unsigned thread = 0;
    uint64_t count = 0; //!< work the call did (e.g. instructions), if set
};

/** Per-layer totals derived from the recorded spans. */
struct LayerTimes
{
    std::map<std::string, double> selfSec; //!< layer -> self time
    double rootSec = 0; //!< duration of the root span(s)
};

class Tracer
{
  public:
    static Tracer &instance();

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span on the calling thread; returns its index. */
    int64_t open(const char *name, uint64_t request);
    void close(int64_t index);
    void setCount(int64_t index, uint64_t count);

    /** All spans, thread by thread. */
    std::vector<SpanRecord> spans() const;

    size_t spanCount() const;

    /** Durations (seconds) of every span with this exact name. */
    std::vector<double> durations(const std::string &name) const;

    /** Sum of the counts of every span with this exact name. */
    uint64_t totalCount(const std::string &name) const;

    /**
     * Self time per layer: a span's duration minus the part covered
     * by its direct children on the same thread. Spans named
     * `root_name` are the roots; their self time is no layer's.
     */
    LayerTimes layerTimes(const std::string &root_name) const;

    /**
     * Write every span as a tab-separated line (times relative to the
     * first span's start, given on the first line; parent is an index
     * into the same thread's spans, in file order; request "-" for
     * none). A recovery pass records ~30k spans a second, hence not
     * JSON.
     */
    void writeTsv(const std::string &path) const;

  private:
    struct Buffer
    {
        unsigned thread = 0;
        std::vector<SpanRecord> spans;
        std::vector<int64_t> stack;
    };

    Buffer &local();

    bool enabled_ = false;
    mutable std::mutex mutex_; //!< guards buffers_
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** RAII span; a no-op while the tracer is disabled. */
class Span
{
  public:
    explicit Span(const char *name, uint64_t request = NoRequest)
    {
        Tracer &t = Tracer::instance();
        if (t.enabled())
            index_ = t.open(name, request);
    }
    ~Span()
    {
        if (index_ >= 0)
            Tracer::instance().close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Record the work this call did, e.g. instructions retired. */
    void
    count(uint64_t n)
    {
        if (index_ >= 0)
            Tracer::instance().setCount(index_, n);
    }

  private:
    int64_t index_ = -1;
};

/** Nearest-rank percentile of `values` (p in [0, 100]); 0 if empty. */
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

double sum(const std::vector<double> &values);

} // namespace cbench

#endif // CAMPAIGN_BENCH_TRACE_HH
