#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace cbench {

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Buffer &
Tracer::local()
{
    // The buffer outlives its thread: the Tracer owns it, the thread
    // only caches the pointer.
    thread_local Buffer *buffer = nullptr;
    if (!buffer) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<Buffer>());
        buffer = buffers_.back().get();
        buffer->thread = static_cast<unsigned>(buffers_.size() - 1);
    }
    return *buffer;
}

int64_t
Tracer::open(const char *name, uint64_t request)
{
    Buffer &b = local();
    SpanRecord s;
    s.name = name;
    s.parent = b.stack.empty() ? -1 : b.stack.back();
    s.request = request;
    s.thread = b.thread;
    b.spans.push_back(s);
    const int64_t index = static_cast<int64_t>(b.spans.size() - 1);
    b.stack.push_back(index);
    b.spans.back().start = nowNs();
    return index;
}

void
Tracer::close(int64_t index)
{
    const uint64_t end = nowNs();
    Buffer &b = local();
    b.spans[static_cast<size_t>(index)].end = end;
    b.stack.pop_back();
}

void
Tracer::setCount(int64_t index, uint64_t count)
{
    local().spans[static_cast<size_t>(index)].count = count;
}

uint64_t
Tracer::totalCount(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    for (const auto &b : buffers_)
        for (const SpanRecord &s : b->spans)
            if (name == s.name)
                total += s.count;
    return total;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> out;
    for (const auto &b : buffers_)
        out.insert(out.end(), b->spans.begin(), b->spans.end());
    return out;
}

size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto &b : buffers_)
        n += b->spans.size();
    return n;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const auto &b : buffers_)
        for (const SpanRecord &s : b->spans)
            if (name == s.name)
                out.push_back(double(s.end - s.start) * 1e-9);
    return out;
}

LayerTimes
Tracer::layerTimes(const std::string &root_name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    LayerTimes out;
    for (const auto &b : buffers_) {
        std::vector<uint64_t> covered(b->spans.size(), 0);
        for (const SpanRecord &s : b->spans)
            if (s.parent >= 0)
                covered[static_cast<size_t>(s.parent)] += s.end - s.start;
        for (size_t i = 0; i < b->spans.size(); ++i) {
            const SpanRecord &s = b->spans[i];
            const double self =
                double((s.end - s.start) - covered[i]) * 1e-9;
            if (root_name == s.name) {
                out.rootSec += double(s.end - s.start) * 1e-9;
                continue;
            }
            const std::string name = s.name;
            out.selfSec[name.substr(0, name.find('.'))] += self;
        }
    }
    return out;
}

void
Tracer::writeTsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write span file " + path);
    const std::vector<SpanRecord> all = spans();
    uint64_t t0 = ~uint64_t{0};
    for (const SpanRecord &s : all)
        t0 = std::min(t0, s.start);
    out << "# t0_ns " << (all.empty() ? 0 : t0) << "\n"
        << "name\tstart_ns\tend_ns\tparent\tthread\tcount\trequest\n";
    for (const SpanRecord &s : all) {
        out << s.name << '\t' << s.start - t0 << '\t' << s.end - t0 << '\t'
            << s.parent << '\t' << s.thread << '\t' << s.count << '\t';
        if (s.request == NoRequest)
            out << '-';
        else
            out << s.request;
        out << '\n';
    }
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * double(values.size()));
    const size_t index =
        rank < 1 ? 0 : std::min(values.size(), size_t(rank)) - 1;
    return values[index];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
sum(const std::vector<double> &values)
{
    double total = 0;
    for (double v : values)
        total += v;
    return total;
}

} // namespace cbench
