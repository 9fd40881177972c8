/**
 * @file
 * Shared types of the end-to-end benchmark driver: run options, the
 * report every workload fills, and the closed-loop trainer measurement.
 */
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tabular/minibatch.h"

namespace perfbench {

/** Command-line options of one run. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir;     ///< scratch directory for segment stores
    std::string trace_path;  ///< Chrome trace output (traced run only)
};

/** Set-ups of an untraced run; setup_s is the fastest. A traced run
    reports no setup_s and sets up once. */
inline constexpr int kSetups = 3;

/** A named value with its unit. */
struct Metric {
    double value = 0;
    std::string unit;
};

/** Everything one run reports. */
struct Report {
    std::vector<std::string> errors;  ///< correctness failures
    uint64_t attempted = 0;           ///< checked operations
    uint64_t failed = 0;              ///< of those, wrong or failed
    std::map<std::string, Metric> end_to_end;
    std::map<std::string, Metric> per_layer;
    /** Seed-exact counts (must repeat bit for bit for one seed). */
    std::map<std::string, uint64_t> counts;
    /** Threads per role during the timed phase. */
    std::map<std::string, int> threads;
    /** Noise provenance and other numeric context. */
    std::map<std::string, double> context;

    void fail(const std::string& what);
    /** Count one checked operation; record a failure when !ok. */
    void check(bool ok, const std::string& what);
};

/** Order-independent content digest of one train-ready batch. */
uint64_t batchDigest(const presto::MiniBatch& mb);

/** Cumulative process CPU seconds (user + sys). */
double processCpuSeconds();
/** Peak resident set size of the process, MiB. */
double peakRssMib();
/** Current thread count of the process (/proc/self/status). */
int processThreads();

/** Host-wide CPU jiffies from /proc/stat: (steal, total). */
struct StatSample {
    uint64_t steal = 0;
    uint64_t total = 0;
};
StatSample readProcStat();

/** Length of one measurement block of a timed phase. */
inline constexpr int64_t kBlockNs = 1'000'000'000;

/** Quantile (0..1) of @p v by linear interpolation; 0 when empty. */
double quantile(std::vector<double> v, double q);

/**
 * Measurement of one closed-loop timed phase: a trainer thread pulls
 * batches back to back; each pull's blocked time is one wait sample of
 * the tenant it pulled for.
 */
class TimedPhase
{
  public:
    /** The wait quantiles are those of @p wait_tenant's pulls ("" = the
        only tenant of a training workload). */
    explicit TimedPhase(std::string wait_tenant = "")
        : wait_tenant_(std::move(wait_tenant))
    {
    }

    void begin();
    /** Record one delivered batch of @p rows, blocked @p wait_ns; a
        @p tenant's wait samples are also kept apart. */
    void delivered(uint64_t rows, int64_t wait_ns,
                   const std::string& tenant = "");
    /** Sample the thread count (cheap enough for every batch). */
    void sampleThreads();
    void end();

    int64_t beginNs() const { return t0_; }
    int64_t endNs() const { return t1_; }
    double wallSeconds() const { return (t1_ - t0_) / 1e9; }
    double cpuSeconds() const { return cpu1_ - cpu0_; }
    uint64_t rows() const { return rows_; }
    int maxThreads() const { return max_threads_; }
    double stealShare() const;

    /** Write the end-to-end timed-phase metrics into @p report. */
    void reportEndToEnd(Report& report) const;

  private:
    int64_t t0_ = 0;
    int64_t t1_ = 0;
    int64_t last_thread_sample_ = 0;
    double cpu0_ = 0;
    double cpu1_ = 0;
    StatSample st0_;
    StatSample st1_;
    uint64_t rows_ = 0;
    uint64_t batches_ = 0;
    int max_threads_ = 0;
    std::string wait_tenant_;
    std::map<std::string, std::vector<double>> waits_ms_;  ///< by tenant
    // Fixed-length measurement blocks: throughput and CPU cost are the
    // medians over blocks, so a transient burst from a noisy neighbour
    // moves one block instead of the whole run's mean.
    int64_t block_t0_ = 0;
    double block_cpu0_ = 0;
    uint64_t block_rows_ = 0;
    std::vector<double> block_rate_;      ///< rows/s per block
    std::vector<double> block_cpu_mrow_;  ///< CPU s per Mrow per block
};

/** Workload entry points; each returns after filling @p report. */
void runTrainRm1Cold(const Options& options, Report& report);
void runTrainRm5Hot(const Options& options, Report& report);
void runServeMixed(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
