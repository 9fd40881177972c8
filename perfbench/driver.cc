/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints one JSON
 * report line (end-to-end and per-layer metrics, seed-exact counts,
 * thread roles, noise provenance, correctness). run.py builds this
 * program, runs it and turns the report into the benchmark's result.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --workdir <dir> [--trace-out <file>]
 */
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "ops/simd.h"
#include "trace.h"

namespace perfbench {

// --- Report ----------------------------------------------------------------

void
Report::fail(const std::string& what)
{
    if (errors.size() < 20)
        errors.push_back(what);
    else if (errors.size() == 20)
        errors.push_back("... further errors omitted");
    ++attempted;
    ++failed;
}

void
Report::check(bool ok, const std::string& what)
{
    if (!ok) {
        fail(what);
        return;
    }
    ++attempted;
}

// --- Measurement helpers ---------------------------------------------------

uint64_t
batchDigest(const presto::MiniBatch& mb)
{
    uint32_t crc = presto::crc32c(&mb.batch_size, sizeof(mb.batch_size));
    crc = presto::crc32c(mb.dense.data(), mb.dense.size() * sizeof(float),
                         crc);
    crc = presto::crc32c(mb.labels.data(), mb.labels.size() * sizeof(float),
                         crc);
    uint64_t values = 0;
    for (const presto::JaggedIndices& j : mb.sparse) {
        crc = presto::crc32c(j.values.data(),
                             j.values.size() * sizeof(int64_t), crc);
        crc = presto::crc32c(j.lengths.data(),
                             j.lengths.size() * sizeof(uint32_t), crc);
        values += j.values.size();
    }
    return (static_cast<uint64_t>(crc) << 32) ^ values;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 +
           ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

int
processThreads()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    }
    return 0;
}

StatSample
readProcStat()
{
    // First line: cpu user nice system idle iowait irq softirq steal ...
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    StatSample s;
    for (int field = 0; field < 8; ++field) {
        uint64_t v = 0;
        if (!(in >> v))
            break;
        s.total += v;
        if (field == 7)
            s.steal = v;
    }
    return s;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
TimedPhase::begin()
{
    st0_ = readProcStat();
    cpu0_ = processCpuSeconds();
    t0_ = nowNs();
    block_t0_ = t0_;
    block_cpu0_ = cpu0_;
    max_threads_ = processThreads();
}

void
TimedPhase::delivered(uint64_t rows, int64_t wait_ns,
                      const std::string& tenant)
{
    rows_ += rows;
    ++batches_;
    waits_ms_[tenant].push_back(wait_ns / 1e6);
    block_rows_ += rows;
    const int64_t now = nowNs();
    if (now - block_t0_ >= kBlockNs) {
        const double cpu = processCpuSeconds();
        block_rate_.push_back(block_rows_ / ((now - block_t0_) / 1e9));
        block_cpu_mrow_.push_back((cpu - block_cpu0_) / block_rows_ * 1e6);
        block_t0_ = now;
        block_cpu0_ = cpu;
        block_rows_ = 0;
    }
}

void
TimedPhase::sampleThreads()
{
    const int64_t now = nowNs();
    if (now - last_thread_sample_ < 20'000'000)
        return;
    last_thread_sample_ = now;
    max_threads_ = std::max(max_threads_, processThreads());
}

void
TimedPhase::end()
{
    t1_ = nowNs();
    cpu1_ = processCpuSeconds();
    st1_ = readProcStat();
}

double
TimedPhase::stealShare() const
{
    const uint64_t total = st1_.total - st0_.total;
    return total == 0 ? 0
                      : static_cast<double>(st1_.steal - st0_.steal) / total;
}

void
TimedPhase::reportEndToEnd(Report& r) const
{
    const double wall = wallSeconds();
    const double mean_rate = rows_ / wall;
    const double mean_cpu = cpuSeconds() / static_cast<double>(rows_) * 1e6;
    // Phases shorter than two blocks fall back to whole-phase means.
    const bool blocked = block_rate_.size() >= 2;
    r.end_to_end["rows_per_s"] =
        Metric{blocked ? quantile(block_rate_, 0.5) : mean_rate, "rows/s"};
    r.end_to_end["cpu_s_per_mrow"] = Metric{
        blocked ? quantile(block_cpu_mrow_, 0.5) : mean_cpu, "s/Mrow"};
    r.context["mean_rows_per_s"] = mean_rate;
    r.context["mean_cpu_s_per_mrow"] = mean_cpu;
    r.context["blocks"] = static_cast<double>(block_rate_.size());
    r.context["block_rate_min"] = blocked ? quantile(block_rate_, 0) : 0;
    r.context["block_rate_max"] = blocked ? quantile(block_rate_, 1) : 0;
    auto waits = waits_ms_.find(wait_tenant_);
    const std::vector<double> none;
    const std::vector<double>& w = waits == waits_ms_.end() ? none
                                                            : waits->second;
    r.end_to_end["batch_wait_p50_ms"] = Metric{quantile(w, 0.5), "ms"};
    r.end_to_end["batch_wait_p90_ms"] = Metric{quantile(w, 0.9), "ms"};
    r.context["timed_s"] = wall;
    r.context["batches"] = static_cast<double>(batches_);
    r.context["wait_samples"] = static_cast<double>(w.size());
    for (const auto& [tenant, tw] : waits_ms_) {
        if (tenant.empty())
            continue;
        r.context["wait_p50_ms." + tenant] = quantile(tw, 0.5);
        r.context["wait_p90_ms." + tenant] = quantile(tw, 0.9);
        r.context["wait_samples." + tenant] = static_cast<double>(tw.size());
    }
    r.context["steal_share"] = stealShare();
    r.context["cpu_over_wall"] = cpuSeconds() / wall;
}

namespace {

// --- JSON output -----------------------------------------------------------

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::map<std::string, Metric>& metrics)
{
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        out << (first ? "" : ",") << jsonString(name) << ":{\"value\":"
            << jsonNumber(m.value) << ",\"unit\":" << jsonString(m.unit)
            << "}";
        first = false;
    }
    out << "}";
    return out.str();
}

template <typename Map>
std::string
flatJson(const Map& values)
{
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const auto& [name, v] : values) {
        out << (first ? "" : ",") << jsonString(name) << ":"
            << jsonNumber(static_cast<double>(v));
        first = false;
    }
    out << "}";
    return out.str();
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "<train_rm1_cold|train_rm5_hot|serve_mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--trace-out <file>]\n",
                 msg);
    return 2;
}

int
cpusAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

}  // namespace

}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options o;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            const std::string val = argv[i + 1];
            if (key == "--workload")
                o.workload = val;
            else if (key == "--seed")
                o.seed = std::stoull(val);
            else if (key == "--seconds")
                o.seconds = std::stod(val);
            else if (key == "--trace")
                o.trace = val == "1";
            else if (key == "--workdir")
                o.workdir = val;
            else if (key == "--trace-out")
                o.trace_path = val;
            else
                return usage(("unknown option " + key).c_str());
        }
    } catch (const std::logic_error&) {  // stoull/stod rejected a value
        return usage("invalid number");
    }
    if (o.workload.empty() || o.workdir.empty() || o.seconds <= 0)
        return usage("missing or invalid options");
    presto::setQuietLogging(true);
    std::filesystem::create_directories(o.workdir);

    Report r;
    if (o.workload == "train_rm1_cold")
        runTrainRm1Cold(o, r);
    else if (o.workload == "train_rm5_hot")
        runTrainRm5Hot(o, r);
    else if (o.workload == "serve_mixed")
        runServeMixed(o, r);
    else
        return usage(("unknown workload " + o.workload).c_str());
    r.end_to_end["peak_rss_mib"] = Metric{peakRssMib(), "MiB"};

    // Thread budget: the declared roles and the peak observed during
    // the timed phase (every role plus the trainer) must fit nproc.
    const int nproc = cpusAvailable();
    int declared = 0;
    for (const auto& [role, count] : r.threads)
        declared += count;
    r.context["nproc"] = nproc;
    r.check(declared <= nproc, "thread roles (" + std::to_string(declared) +
                                   ") exceed nproc (" +
                                   std::to_string(nproc) + ")");
    const int observed = static_cast<int>(r.context["max_threads"]);
    r.check(observed <= nproc, "observed " + std::to_string(observed) +
                                   " threads, more than nproc");

    if (o.trace && !o.trace_path.empty() &&
        !Tracer::instance().writeChromeTrace(o.trace_path))
        r.fail("could not write the trace file " + o.trace_path);

    utsname un{};
    uname(&un);
    std::ostringstream errors;
    for (size_t i = 0; i < r.errors.size(); ++i)
        errors << (i ? "," : "") << jsonString(r.errors[i]);
    std::printf(
        "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"end_to_end\":%s,\"per_layer\":%s,\"counts\":%s,\"threads\":%s,"
        "\"context\":%s,\"build\":{\"simd\":%s,\"crc32c_hw\":%s,"
        "\"kernel\":%s,\"compiler\":%s},\"errors\":[%s]}\n",
        r.failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed),
        metricsJson(r.end_to_end).c_str(), metricsJson(r.per_layer).c_str(),
        flatJson(r.counts).c_str(), flatJson(r.threads).c_str(),
        flatJson(r.context).c_str(),
        jsonString(presto::simdLevelName(presto::activeSimdLevel())).c_str(),
        presto::crc32cHardwareActive() ? "true" : "false",
        jsonString(std::string(un.release)).c_str(),
        jsonString(__VERSION__).c_str(), errors.str().c_str());
    return 0;
}
