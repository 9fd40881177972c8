/**
 * @file
 * Span recorder for the benchmark's traced run.
 *
 * Spans are opened and closed by the benchmark around each call it makes
 * into the system; they are kept in memory and written out as a Chrome
 * trace-event file when the run ends. When tracing is off a ScopedSpan is
 * one predictable branch, so the untraced timed phase carries no cost.
 */
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
int64_t nowNs();

/** One closed span. */
struct Span {
    const char* name = "";  ///< static string
    uint32_t id = 0;
    uint32_t parent = 0;  ///< 0 = root span of its thread
    uint32_t tid = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t rows = 0;  ///< rows the spanned call worked on (0 = none)
};

/** Process-wide span store. Thread-safe. */
class Tracer
{
  public:
    static Tracer& instance();

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Small stable id of the calling thread. */
    uint32_t threadId();
    uint32_t nextId();
    void record(const Span& span);

    /** Spans recorded so far (copy). */
    std::vector<Span> spans() const;

    /** Write a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    // Read by every thread that opens a span (the publisher too).
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<Span> spans_;            // guarded by mu_
    uint32_t next_id_ = 1;               // guarded by mu_
    uint32_t next_tid_ = 1;              // guarded by mu_
};

/** RAII span; nests under the innermost open span of its thread. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char* name, uint64_t rows = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Span span_;
    bool active_ = false;
};

/**
 * Self time in seconds by span name over @p spans: each span's duration
 * minus the time its child spans cover.
 */
std::map<std::string, double> selfSeconds(const std::vector<Span>& spans);

/**
 * Share of [begin_ns, end_ns) on thread @p tid that root spans cover
 * (the union of their intervals clipped to the window).
 */
double rootCoverage(const std::vector<Span>& spans, uint32_t tid,
                    int64_t begin_ns, int64_t end_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
