/**
 * @file
 * Deterministic parallel execution of experiment jobs. A ParallelRunner
 * fans index-addressed jobs out over a ThreadPool; every job writes
 * only its own result slot, so the assembled output is identical for
 * any thread count — `--jobs 1` reproduces the historical serial loops
 * bit for bit, and `--jobs N` merely reorders wall-clock execution
 * (see docs/PERFORMANCE.md for the determinism argument).
 */

#ifndef RISC1_CORE_PARALLEL_HH
#define RISC1_CORE_PARALLEL_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace risc1::core {

/**
 * Resolve a jobs request to a worker count: a nonzero `requested`
 * wins, else a positive integer in $RISC1_JOBS, else the hardware
 * concurrency (at least 1).
 */
unsigned resolveJobs(unsigned requested = 0);

class ParallelRunner
{
  public:
    /** `jobs` as for resolveJobs(); 1 means strictly serial. */
    explicit ParallelRunner(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(0) … fn(count-1), concurrently when jobs() > 1. Jobs must
     * not share mutable state except through their own index. The
     * first exception thrown by any job is rethrown here (the
     * remaining jobs still run to completion). With jobs() == 1 this
     * is exactly the plain `for` loop, on the calling thread.
     */
    void run(size_t count, const std::function<void(size_t)> &fn) const;

    /** run() collecting fn(i) into slot i of the returned vector. */
    template <typename R, typename Fn>
    std::vector<R>
    map(size_t count, Fn fn) const
    {
        std::vector<R> out(count);
        run(count, [&](size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Streaming reduction: produce(i) for i in 0..count-1, consumed as
     * consume(i, value) strictly in index order. Work proceeds chunk by
     * chunk — each chunk's produce() calls run in parallel into a
     * buffer, then the buffer is drained serially on the calling thread
     * — so peak memory is one chunk of R, independent of `count`, and
     * the consume order (hence any accumulator) is byte-identical to
     * the serial loop for any job count, provided produce(i) depends
     * only on i. This is what lets campaign drivers tally millions of
     * runs without ever materializing a flat outcome vector.
     * `chunk` == 0 picks a size that keeps every worker busy while
     * bounding the buffer (jobs x 64, at least 1024).
     */
    template <typename R, typename Produce, typename Consume>
    void
    reduceChunked(size_t count, Produce produce, Consume consume,
                  size_t chunk = 0) const
    {
        reduceChunks<R>(
            count,
            [&](size_t base, std::vector<R> &buf) {
                run(buf.size(),
                    [&](size_t i) { buf[i] = produce(base + i); });
            },
            consume, chunk);
    }

    /**
     * reduceChunked() with the producer called once per chunk:
     * produce_chunk(base, buf) fills buf[0..buf.size()) with the
     * values of indices base.. and may schedule the work itself (the
     * fault campaign groups a chunk's runs into forked units). The
     * same chunking, consume order and memory bound as
     * reduceChunked(), provided each value depends only on its index.
     */
    template <typename R, typename ProduceChunk, typename Consume>
    void
    reduceChunks(size_t count, ProduceChunk produce_chunk,
                 Consume consume, size_t chunk = 0) const
    {
        if (chunk == 0)
            chunk = std::max<size_t>(size_t{jobs_} * 64, 1024);
        std::vector<R> buf;
        for (size_t base = 0; base < count; base += chunk) {
            const size_t n = std::min(chunk, count - base);
            buf.resize(n);
            produce_chunk(base, buf);
            for (size_t i = 0; i < n; ++i)
                consume(base + i, buf[i]);
        }
    }

  private:
    unsigned jobs_;
};

} // namespace risc1::core

#endif // RISC1_CORE_PARALLEL_HH
