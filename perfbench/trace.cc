#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::vector<uint32_t> t_open;  // ids of this thread's open spans
thread_local uint32_t t_tid = 0;

}  // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer&
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

uint32_t
Tracer::threadId()
{
    if (t_tid == 0) {
        std::scoped_lock lock(mu_);
        t_tid = next_tid_++;
    }
    return t_tid;
}

uint32_t
Tracer::nextId()
{
    std::scoped_lock lock(mu_);
    return next_id_++;
}

void
Tracer::record(const Span& span)
{
    std::scoped_lock lock(mu_);
    spans_.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    std::scoped_lock lock(mu_);
    return spans_;
}

bool
Tracer::writeChromeTrace(const std::string& path) const
{
    const std::vector<Span> all = spans();
    int64_t origin = all.empty() ? 0 : all.front().start_ns;
    for (const Span& s : all)
        origin = std::min(origin, s.start_ns);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        // Category = the layer prefix of the name ("store.read" -> store).
        const std::string_view name(s.name);
        const size_t dot = std::min(name.find('.'), name.size());
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%u,\"parent\":%u,\"rows\":%llu}}%s\n",
                     s.name, static_cast<int>(dot), s.name, s.tid,
                     (s.start_ns - origin) / 1e3,
                     (s.end_ns - s.start_ns) / 1e3, s.id, s.parent,
                     static_cast<unsigned long long>(s.rows),
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t rows)
{
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled())
        return;
    active_ = true;
    span_.name = name;
    span_.rows = rows;
    span_.id = tracer.nextId();
    span_.tid = tracer.threadId();
    span_.parent = t_open.empty() ? 0 : t_open.back();
    t_open.push_back(span_.id);
    span_.start_ns = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    span_.end_ns = nowNs();
    t_open.pop_back();
    Tracer::instance().record(span_);
}

std::map<std::string, double>
selfSeconds(const std::vector<Span>& spans)
{
    std::unordered_map<uint32_t, int64_t> child_ns;  // by parent id
    for (const Span& s : spans) {
        if (s.parent != 0)
            child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> self;
    for (const Span& s : spans) {
        auto it = child_ns.find(s.id);
        const int64_t children = it == child_ns.end() ? 0 : it->second;
        self[s.name] +=
            std::max<int64_t>(0, s.end_ns - s.start_ns - children) / 1e9;
    }
    return self;
}

double
rootCoverage(const std::vector<Span>& spans, uint32_t tid,
             int64_t begin_ns, int64_t end_ns)
{
    if (end_ns <= begin_ns)
        return 0;
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const Span& s : spans) {
        if (s.tid != tid || s.parent != 0)
            continue;
        const int64_t a = std::max(s.start_ns, begin_ns);
        const int64_t b = std::min(s.end_ns, end_ns);
        if (b > a)
            iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0;
    int64_t cur_b = -1;
    for (const auto& [a, b] : iv) {
        if (a > cur_b) {
            if (cur_b > cur_a)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
        } else {
            cur_b = std::max(cur_b, b);
        }
    }
    if (cur_b > cur_a)
        covered += cur_b - cur_a;
    return static_cast<double>(covered) /
           static_cast<double>(end_ns - begin_ns);
}

}  // namespace perfbench
