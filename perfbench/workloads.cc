/**
 * @file
 * The three benchmark workloads. Each one sets its dataset up through the
 * system's public API (several times, for a steady setup_s), runs a
 * closed-loop timed phase, checks every delivered batch against a
 * single-threaded oracle, and — in the traced run — replays its timed
 * phase with spans and then walks its whole dataset serially through the
 * per-layer calls its own path uses.
 */
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "columnar/columnar_file.h"
#include "common/batch_arena.h"
#include "core/managers.h"
#include "core/partition_store.h"
#include "datagen/generator.h"
#include "datagen/rm_config.h"
#include "io/async_reader.h"
#include "io/io_ring.h"
#include "models/calibration.h"
#include "ops/plan.h"
#include "ops/preprocessor.h"
#include "service/dataset_catalog.h"
#include "service/ingest_service.h"
#include "store/segment_store.h"
#include "trace.h"

namespace perfbench {

using namespace presto;
namespace fs = std::filesystem;

namespace {

// --- Workload shapes -------------------------------------------------------
//
// Encoding dominates set-up (about 30 us per RM1 row and 1 ms per RM5 row
// with the full codec menu), so the datasets are sized for three set-ups
// per run. Every epoch still has enough partitions that the pipeline
// refill at an epoch boundary stays beyond the p90 wait.

constexpr size_t kRm1Rows = 4096;        ///< RM1 rows per partition
constexpr size_t kRm1ColdPartitions = 24;
constexpr size_t kRm5Rows = 512;         ///< RM5 rows per partition
constexpr size_t kRm5HotPartitions = 6;
constexpr size_t kServePartitions = 8;   ///< per epoch of the served dataset
constexpr size_t kServeShards = 1;
constexpr size_t kServeRows = 2048;      ///< served rows per partition
constexpr size_t kStreamRows = 1024;     ///< rows per published partition
constexpr size_t kStreamPartitions = 2;
constexpr size_t kStreamRetain = 2;
constexpr size_t kQueueCapacity = 4;     ///< trainer-facing queue bound
constexpr int64_t kPublishPeriodNs = 1'000'000'000;
constexpr double kWarmupSeconds = 2;  ///< untimed lead-in of every phase

// Thread roles (the benchmark fails a run whose peak exceeds nproc).
constexpr int kRm1ManagerWorkers = 2;  ///< 1 fetcher + 1 transformer
constexpr int kRm1RingWorkers = 1;
constexpr int kRm5ManagerWorkers = 3;  ///< fetch-heavy split of 3
constexpr int kServiceWorkers = 2;

RmConfig
configFor(int rm, size_t rows)
{
    RmConfig cfg = rmConfig(rm);
    cfg.batch_size = rows;
    return cfg;
}

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Generator options of input stream @p stream under run seed @p seed. */
GeneratorOptions
generatorFor(uint64_t seed, uint64_t stream)
{
    GeneratorOptions g;
    g.seed = splitmix(seed * 8 + stream);
    return g;
}

std::string
freshDir(const std::string& path)
{
    fs::remove_all(path);
    fs::create_directories(path);
    return path;
}

/** Median of a small sample (0 when empty). */
double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** One per-layer metric of this workload's own path. Layers it bypasses
    are not set here; run.py reports them as 0. */
void
setLayer(Report& r, const std::string& name, double value,
         const std::string& unit)
{
    r.per_layer[name] = Metric{value, unit};
}

/** Wall time of one set-up made by @p fn, appended to @p samples. */
template <typename Fn>
auto
timeSetup(std::vector<double>& samples, Fn&& fn)
{
    const int64_t t0 = nowNs();
    auto got = fn();
    samples.push_back((nowNs() - t0) / 1e9);
    return got;
}

/**
 * setup_s of an untraced run. The set-up that fed the timed phase is the
 * first sample; @p again makes the other kSetups - 1 after the timed
 * phase, each discarded. Set-up is single-threaded and CPU-bound (wall
 * equals CPU time), and the host only ever slows it down, in windows of
 * seconds; so the samples span the whole run and setup_s is the fastest.
 */
template <typename Fn>
void
finishSetups(const Options& o, std::vector<double>& samples, Report& r,
             Fn&& again)
{
    if (o.trace)
        return;
    for (int k = 1; k < kSetups; ++k) {
        const Status st = again(k);
        if (!st.ok()) {
            r.fail("set-up: " + st.toString());
            return;
        }
    }
    r.end_to_end["setup_s"] =
        Metric{*std::min_element(samples.begin(), samples.end()), "s"};
    for (size_t k = 0; k < samples.size(); ++k)
        r.context["setup_s." + std::to_string(k)] = samples[k];
}

/** Calibrated Extract share of one partition's CPU work — the split the
    CpuWorkerModel and the staged pipeline derive from measured rates. */
double
calibratedExtractShare(const RmConfig& cfg)
{
    const TransformWork w = TransformWork::expected(cfg);
    const double fetch = w.raw_values * cal::kMeasuredSimdDecodeSecPerValue;
    const double transform = w.output_values * cal::kMeasuredFusedSecPerValue;
    return fetch / (fetch + transform);
}

/** Oracle: single-threaded generate -> Transform of each partition id. */
std::map<uint64_t, uint64_t>
oracleDigests(const RawDataGenerator& gen, const std::vector<uint64_t>& ids,
              uint64_t* raw_bytes = nullptr)
{
    const Preprocessor pre(gen.config());
    std::map<uint64_t, uint64_t> out;
    for (uint64_t id : ids) {
        const RowBatch raw = gen.generatePartition(id);
        if (raw_bytes != nullptr)
            *raw_bytes += raw.byteSize();
        out[id] = batchDigest(pre.preprocess(raw));
    }
    return out;
}

std::vector<uint64_t>
iota(size_t n)
{
    std::vector<uint64_t> ids(n);
    for (size_t i = 0; i < n; ++i)
        ids[i] = i;
    return ids;
}

/** Digests of the batches one manager epoch delivered. */
struct EpochLog {
    std::vector<uint64_t> digests;
    bool finished = false;  ///< the manager reported the epoch drained
};

/**
 * Check a manager run epoch by epoch: every delivered batch matches the
 * oracle digest of a distinct partition of its epoch, and every
 * finished epoch delivered each partition exactly once.
 */
void
checkEpochs(const std::vector<EpochLog>& epochs,
            const std::map<uint64_t, uint64_t>& expected, Report& r)
{
    std::map<uint64_t, size_t> want;  // digest -> partitions carrying it
    for (const auto& [id, d] : expected)
        ++want[d];
    for (size_t e = 0; e < epochs.size(); ++e) {
        std::map<uint64_t, size_t> seen;
        for (uint64_t d : epochs[e].digests) {
            const size_t n = ++seen[d];
            auto it = want.find(d);
            r.check(it != want.end() && n <= it->second,
                    "epoch " + std::to_string(e) +
                        ": batch matches no undelivered partition");
        }
        if (epochs[e].finished &&
            epochs[e].digests.size() != expected.size()) {
            r.fail("epoch " + std::to_string(e) + " delivered " +
                   std::to_string(epochs[e].digests.size()) + " of " +
                   std::to_string(expected.size()) + " partitions");
        }
    }
}

/** Per-layer helpers over the walk's span self times. */
struct WalkTotals {
    std::map<std::string, double> self_s;  ///< by span name

    double
    selfS(const std::string& name) const
    {
        auto it = self_s.find(name);
        return it == self_s.end() ? 0 : it->second;
    }
    double
    usPerRow(const std::string& name, uint64_t rows) const
    {
        return rows == 0 ? 0 : selfS(name) * 1e6 / static_cast<double>(rows);
    }
};

/**
 * Traced-run bookkeeping: the untraced half, the traced half, the walk,
 * and the coverage of the driver thread's root spans over the latter two.
 */
struct TraceWindows {
    int64_t walk_begin = 0;
    int64_t walk_end = 0;

    /** trace.coverage and trace.overhead from both timed halves. */
    void
    finish(const TimedPhase& untraced, const TimedPhase& traced, Report& r)
    {
        const auto spans = Tracer::instance().spans();
        const uint32_t tid = Tracer::instance().threadId();
        const double timed_s = traced.wallSeconds();
        const double walk_s = (walk_end - walk_begin) / 1e9;
        const double cov =
            (rootCoverage(spans, tid, traced.beginNs(), traced.endNs()) *
                 timed_s +
             rootCoverage(spans, tid, walk_begin, walk_end) * walk_s) /
            std::max(1e-9, timed_s + walk_s);
        setLayer(r, "trace.coverage", cov, "ratio");
        const double rate_off = untraced.rows() / untraced.wallSeconds();
        const double rate_on = traced.rows() / traced.wallSeconds();
        setLayer(r, "trace.overhead", rate_on > 0 ? rate_off / rate_on : 0,
                 "ratio");
        r.context["untraced_rows_per_s"] = rate_off;
        r.context["traced_rows_per_s"] = rate_on;
    }
};

/** Record the untraced phase's end-to-end metrics, or in a traced run
    only its context (the traced run reports per-layer metrics), and the
    peak thread count over both phases. */
void
reportTimed(const Options& o, const TimedPhase& untraced,
            const TimedPhase& traced, Report& r)
{
    r.context["peak_rss_timed_mib"] = peakRssMib();
    if (!o.trace) {
        untraced.reportEndToEnd(r);
    } else {
        Report scratch;
        untraced.reportEndToEnd(scratch);
        for (const auto& [name, m] : scratch.end_to_end)
            r.context["untraced." + name] = m.value;
        for (const auto& [name, v] : scratch.context)
            r.context["untraced." + name] = v;
    }
    r.context["max_threads"] =
        std::max(untraced.maxThreads(), traced.maxThreads());
}

/**
 * One closed-loop trainer over PreprocessManager epochs: a fresh manager
 * streams the whole dataset each epoch (the manager is single-use), the
 * trainer pulls until the deadline, digests every batch and recycles it.
 */
void
runManagerPhase(const RmConfig& cfg, PartitionStore& parts, size_t n,
                int workers, IoRing* ring, double seconds, TimedPhase& phase,
                std::vector<EpochLog>& epochs)
{
    phase.begin();
    const int64_t deadline =
        phase.beginNs() + static_cast<int64_t>(seconds * 1e9);
    std::unique_ptr<PreprocessManager> mgr;
    for (bool done = false; !done;) {
        {
            ScopedSpan span("core.epoch_start");
            mgr.reset();
            mgr = std::make_unique<PreprocessManager>(
                cfg, parts, PreprocessMode::kPreSto, workers,
                kQueueCapacity, /*prefetch=*/true, nullptr, ring);
            mgr->start(n);
        }
        epochs.emplace_back();
        for (;;) {
            const int64_t t0 = nowNs();
            std::unique_ptr<MiniBatch> mb;
            {
                ScopedSpan span("core.next_batch");
                mb = mgr->nextBatch();
            }
            if (mb == nullptr) {
                epochs.back().finished = true;
                break;
            }
            const int64_t t1 = nowNs();
            phase.delivered(mb->batch_size, t1 - t0);
            {
                ScopedSpan span("bench.check", mb->batch_size);
                epochs.back().digests.push_back(batchDigest(*mb));
            }
            {
                ScopedSpan span("core.recycle");
                mgr->recycle(std::move(mb));
            }
            phase.sampleThreads();
            if (nowNs() >= deadline) {
                done = true;
                break;
            }
        }
    }
    phase.end();
    mgr.reset();
}

/**
 * Warm up, then run the timed phase once (untraced) or as untraced +
 * traced halves. The warm-up's batches are checked like all others but
 * not timed: it lets caches, allocator pools and the first publishes
 * settle before the clock starts.
 */
template <typename Fn>
void
timedPhases(const Options& o, TimedPhase& untraced, TimedPhase& traced,
            Fn&& run)
{
    TimedPhase warmup;
    run(kWarmupSeconds, warmup);
    if (!o.trace) {
        run(o.seconds, untraced);
        return;
    }
    run(o.seconds / 2, untraced);
    Tracer::instance().setEnabled(true);
    run(o.seconds / 2, traced);
}

/**
 * Submit every planned page frame of one segment file through @p ring
 * with a @p depth-deep window and reap the completions — the io layer
 * on its own, without decode.
 */
Status
ringReadPages(IoRing& ring, uint32_t consumer, int fd, uint64_t stream,
              const std::vector<PageReadPlan>& plans, size_t depth)
{
    std::vector<std::vector<uint8_t>> slots(depth);
    std::vector<size_t> free_slots;
    for (size_t s = 0; s < depth; ++s)
        free_slots.push_back(s);
    size_t next = 0;
    size_t in_flight = 0;
    Status result;
    while (next < plans.size() || in_flight > 0) {
        while (in_flight < depth && next < plans.size()) {
            const size_t s = free_slots.back();
            free_slots.pop_back();
            slots[s].resize(plans[next].frame_bytes);
            IoRequest req;
            req.fd = fd;
            req.length = plans[next].frame_bytes;
            req.offset = plans[next].offset;
            req.dest = slots[s].data();
            req.stream_id = stream;
            req.user_data = s;
            ring.submit(consumer, req);
            ++next;
            ++in_flight;
        }
        const IoCompletion c = ring.waitCompletion(consumer);
        if (!c.status.ok() && result.ok())
            result = c.status;
        free_slots.push_back(static_cast<size_t>(c.user_data));
        --in_flight;
    }
    return result;
}

// --- train_rm1_cold --------------------------------------------------------

/** One set-up of the cold dataset: committed, closed, recovered. */
struct ColdDataset {
    std::unique_ptr<SegmentStore> store;
    std::unique_ptr<PartitionStore> parts;
    uint64_t raw_bytes = 0;
    uint64_t stored_bytes = 0;
    uint64_t durable_ops = 0;
    uint64_t pages = 0;
};

StatusOr<ColdDataset>
setUpCold(const RawDataGenerator& gen, size_t n, const std::string& dir)
{
    ColdDataset ds;
    SegmentStoreOptions so;
    so.directory = dir;
    {
        auto store = SegmentStore::open(so);
        if (!store.ok())
            return store.status();
        const ColumnarFileWriter writer;
        for (uint64_t p = 0; p < n; ++p) {
            const RowBatch raw = gen.generatePartition(p);
            ds.raw_bytes += raw.byteSize();
            const std::vector<uint8_t> psf = writer.write(raw, p);
            ds.stored_bytes += psf.size();
            auto sid = (*store)->appendEncoded(psf, p);
            if (!sid.ok())
                return sid.status();
        }
        ds.durable_ops = (*store)->durableOps();
    }
    RecoveryReport report;
    auto store = SegmentStore::open(so, &report);
    if (!store.ok())
        return store.status();
    if (report.live_segments != n || !report.quarantined.empty())
        return Status::corruption("recovery lost committed segments");
    ds.store = std::move(store).value();
    for (const SegmentInfo& info : ds.store->listSegments())
        ds.pages += info.meta.plans.size();
    ds.parts = std::make_unique<PartitionStore>(gen);
    ds.parts->enablePersistence(ds.store.get());
    return ds;
}

}  // namespace

void
runTrainRm1Cold(const Options& o, Report& r)
{
    const RmConfig cfg = configFor(1, kRm1Rows);
    const RawDataGenerator gen(cfg, generatorFor(o.seed, 0));
    const size_t n = kRm1ColdPartitions;
    r.threads["manager_workers"] = kRm1ManagerWorkers;
    r.threads["ring_workers"] = kRm1RingWorkers;
    r.threads["trainer"] = 1;

    std::vector<double> setup_s;
    auto setUp = [&](int k) {
        const std::string dir =
            freshDir(o.workdir + "/cold-" + std::to_string(k));
        return timeSetup(setup_s, [&] { return setUpCold(gen, n, dir); });
    };
    auto got = setUp(0);
    if (!got.ok()) {
        r.fail("set-up: " + got.status().toString());
        return;
    }
    ColdDataset ds = std::move(got).value();

    IoRingOptions ro;
    ro.workers = kRm1RingWorkers;
    auto ring = std::make_unique<IoRing>(ro);
    r.context["peak_rss_setup_mib"] = peakRssMib();
    TimedPhase untraced;
    TimedPhase traced;
    std::vector<EpochLog> epochs;
    timedPhases(o, untraced, traced, [&](double s, TimedPhase& phase) {
        runManagerPhase(cfg, *ds.parts, n, kRm1ManagerWorkers, ring.get(),
                        s, phase, epochs);
    });
    const IoRingStats ring_stats = ring->statsSnapshot();
    ring.reset();  // its worker must not outlive the timed phase
    reportTimed(o, untraced, traced, r);
    r.end_to_end["stored_ratio"] =
        Metric{static_cast<double>(ds.stored_bytes) / ds.raw_bytes, "ratio"};
    r.counts["stored_bytes"] = ds.stored_bytes;
    r.counts["pages"] = ds.pages;
    r.counts["durable_ops"] = ds.durable_ops;

    const auto expected = oracleDigests(gen, iota(n));
    checkEpochs(epochs, expected, r);
    r.check(ring_stats.failed == 0, "ring requests failed");
    r.context["epochs"] = static_cast<double>(epochs.size());

    if (o.trace) {
        // Serial walk of the whole dataset through the per-layer calls
        // of this workload's path: generate, encode, durable append, the
        // ring on its own, the store's cold read (ring + decode), decode
        // from memory, and the Transform.
        const std::string dir = freshDir(o.workdir + "/walk");
        SegmentStoreOptions so;
        so.directory = dir;
        auto store = SegmentStore::open(so);
        if (!store.ok()) {
            r.fail("walk store: " + store.status().toString());
            return;
        }
        IoRing probe_ring(ro);
        const uint32_t probe = probe_ring.registerConsumer();
        IoRing read_ring(ro);
        AsyncPartitionReader async(read_ring);
        const ColumnarFileWriter writer;
        ColumnarFileReader reader;
        const Preprocessor pre(cfg);
        BatchArena arena;
        MiniBatch mb;
        RowBatch cold;
        RowBatch warm;
        uint64_t rows = 0;
        const uint64_t ops0 = (*store)->durableOps();
        // The walk window is the loop; every call in it is spanned.
        TraceWindows tw;
        tw.walk_begin = nowNs();
        for (uint64_t p = 0; p < n; ++p) {
            RowBatch raw;
            {
                ScopedSpan span("datagen.generate", cfg.batch_size);
                raw = gen.generatePartition(p);
            }
            std::vector<uint8_t> psf;
            {
                ScopedSpan span("columnar.encode", cfg.batch_size);
                psf = writer.write(raw, p);
            }
            auto sid = [&] {
                ScopedSpan span("store.append", cfg.batch_size);
                return (*store)->appendEncoded(psf, p);
            }();
            if (!sid.ok()) {
                r.fail("walk append: " + sid.status().toString());
                return;
            }
            auto info = [&] {
                ScopedSpan span("store.lookup");
                return (*store)->segmentForPartition(p);
            }();
            if (!info.ok()) {
                r.fail("walk lookup: " + info.status().toString());
                return;
            }
            {
                ScopedSpan span("io.ring", cfg.batch_size);
                const int fd = ::open(
                    (*store)->segmentPath(info->meta).c_str(), O_RDONLY);
                Status st =
                    fd < 0 ? Status::unavailable("cannot open segment file")
                           : ringReadPages(probe_ring, probe, fd, p,
                                           info->meta.plans,
                                           AsyncReadOptions{}.queue_depth);
                if (fd >= 0)
                    ::close(fd);
                r.check(st.ok(), "walk ring read: " + st.toString());
            }
            {
                ScopedSpan span("store.read", cfg.batch_size);
                Status st = (*store)->readSegment(*sid, async, cold);
                r.check(st.ok(), "walk cold read: " + st.toString());
            }
            {
                ScopedSpan span("columnar.decode", cfg.batch_size);
                Status st = reader.open(psf);
                if (st.ok())
                    st = reader.readAllInto(warm);
                r.check(st.ok(), "walk decode: " + st.toString());
            }
            {
                ScopedSpan span("ops.transform", cfg.batch_size);
                pre.preprocessInto(cold, mb, arena);
            }
            {
                ScopedSpan span("bench.check", cfg.batch_size);
                r.check(batchDigest(mb) == expected.at(p),
                        "walk batch differs from the oracle");
            }
            rows += cfg.batch_size;
        }
        const uint64_t durable = (*store)->durableOps() - ops0;
        tw.walk_end = nowNs();
        const IoRingStats read_stats = read_ring.statsSnapshot();
        r.counts["ring_requests"] = read_stats.submitted;

        WalkTotals t{selfSeconds(Tracer::instance().spans())};
        const double fetch = t.selfS("store.read");
        const double transform = t.selfS("ops.transform");
        setLayer(r, "datagen.generate_us_per_row",
                 t.usPerRow("datagen.generate", rows), "us");
        setLayer(r, "columnar.encode_us_per_row",
                 t.usPerRow("columnar.encode", rows), "us");
        setLayer(r, "columnar.decode_us_per_row",
                 t.usPerRow("columnar.decode", rows), "us");
        setLayer(r, "columnar.stored_bytes_per_row",
                 static_cast<double>(ds.stored_bytes) / (n * cfg.batch_size),
                 "B/row");
        setLayer(r, "columnar.pages_per_partition",
                 static_cast<double>(ds.pages) / n, "count");
        setLayer(r, "io.ring_us_per_row", t.usPerRow("io.ring", rows), "us");
        setLayer(r, "io.requests_per_partition",
                 static_cast<double>(read_stats.submitted) / n, "count");
        setLayer(r, "io.mean_queue_depth", ring_stats.queue_depth.mean(),
                 "count");
        setLayer(r, "store.read_us_per_row", t.usPerRow("store.read", rows),
                 "us");
        setLayer(r, "store.append_ms_per_segment",
                 t.selfS("store.append") * 1e3 / n, "ms");
        setLayer(r, "store.durable_ops_per_segment",
                 static_cast<double>(durable) / n, "count");
        setLayer(r, "ops.transform_us_per_row",
                 t.usPerRow("ops.transform", rows), "us");
        setLayer(r, "core.fetch_share", fetch / (fetch + transform), "ratio");
        setLayer(r, "core.parallel_speedup",
                 (traced.rows() / traced.wallSeconds()) /
                     (rows / (fetch + transform)), "ratio");
        setLayer(r, "model.cpu_extract_share", calibratedExtractShare(cfg),
                 "ratio");
        tw.finish(untraced, traced, r);
    }
    finishSetups(o, setup_s, r, [&](int k) {
        ds.parts.reset();  // release the previous set-up first
        ds.store.reset();
        return setUp(k).status();
    });
}

// --- train_rm5_hot ---------------------------------------------------------

void
runTrainRm5Hot(const Options& o, Report& r)
{
    const RmConfig cfg = configFor(5, kRm5Rows);
    const RawDataGenerator gen(cfg, generatorFor(o.seed, 1));
    const size_t n = kRm5HotPartitions;
    r.threads["manager_workers"] = kRm5ManagerWorkers;
    r.threads["trainer"] = 1;

    // Set-up: every partition generated and encoded into PartitionStore
    // memory by the store itself; nothing touches a device afterwards.
    std::vector<double> setup_s;
    auto setUp = [&] {
        return timeSetup(setup_s, [&] {
            auto store = std::make_unique<PartitionStore>(gen);
            for (uint64_t p = 0; p < n; ++p)
                store->partition(p);
            return store;
        });
    };
    std::unique_ptr<PartitionStore> parts = setUp();
    uint64_t stored_bytes = 0;
    for (uint64_t p = 0; p < n; ++p)
        stored_bytes += parts->partitionBytes(p);

    r.context["peak_rss_setup_mib"] = peakRssMib();
    TimedPhase untraced;
    TimedPhase traced;
    std::vector<EpochLog> epochs;
    timedPhases(o, untraced, traced, [&](double s, TimedPhase& phase) {
        runManagerPhase(cfg, *parts, n, kRm5ManagerWorkers, nullptr, s,
                        phase, epochs);
    });
    reportTimed(o, untraced, traced, r);
    uint64_t raw_bytes = 0;
    const auto expected = oracleDigests(gen, iota(n), &raw_bytes);
    checkEpochs(epochs, expected, r);
    r.end_to_end["stored_ratio"] =
        Metric{static_cast<double>(stored_bytes) / raw_bytes, "ratio"};
    r.counts["stored_bytes"] = stored_bytes;
    r.context["epochs"] = static_cast<double>(epochs.size());
    r.check(parts->hotTierHits() + parts->coldFetches() == 0,
            "hot workload fetched through the tiered path");

    uint64_t pages = 0;
    if (o.trace) {
        const ColumnarFileWriter writer;
        ColumnarFileReader reader;
        const Preprocessor pre(cfg);
        BatchArena arena;
        MiniBatch mb;
        RowBatch decoded;
        std::vector<PageReadPlan> plans;
        uint64_t rows = 0;
        // The walk window is the loop; every call in it is spanned.
        TraceWindows tw;
        tw.walk_begin = nowNs();
        for (uint64_t p = 0; p < n; ++p) {
            RowBatch raw;
            {
                ScopedSpan span("datagen.generate", cfg.batch_size);
                raw = gen.generatePartition(p);
            }
            std::vector<uint8_t> psf;
            {
                ScopedSpan span("columnar.encode", cfg.batch_size);
                psf = writer.write(raw, p);
            }
            const std::vector<uint8_t>& resident = [&]() -> auto& {
                ScopedSpan span("core.partition", cfg.batch_size);
                return parts->partition(p);
            }();
            {
                ScopedSpan span("bench.check", cfg.batch_size);
                r.check(psf == resident, "re-encoding differs from the store");
            }
            {
                ScopedSpan span("columnar.decode", cfg.batch_size);
                Status st = reader.open(resident);
                if (st.ok())
                    st = reader.readAllInto(decoded);
                r.check(st.ok(), "walk decode: " + st.toString());
            }
            {
                ScopedSpan span("columnar.plan_pages", cfg.batch_size);
                if (reader.planPageReads(plans).ok())
                    pages += plans.size();
            }
            {
                ScopedSpan span("ops.transform", cfg.batch_size);
                pre.preprocessInto(decoded, mb, arena);
            }
            {
                ScopedSpan span("bench.check", cfg.batch_size);
                r.check(batchDigest(mb) == expected.at(p),
                        "walk batch differs from the oracle");
            }
            rows += cfg.batch_size;
        }
        tw.walk_end = nowNs();
        r.counts["pages"] = pages;
        WalkTotals t{selfSeconds(Tracer::instance().spans())};
        const double fetch = t.selfS("columnar.decode");
        const double transform = t.selfS("ops.transform");
        setLayer(r, "datagen.generate_us_per_row",
                 t.usPerRow("datagen.generate", rows), "us");
        setLayer(r, "columnar.encode_us_per_row",
                 t.usPerRow("columnar.encode", rows), "us");
        setLayer(r, "columnar.decode_us_per_row",
                 t.usPerRow("columnar.decode", rows), "us");
        setLayer(r, "columnar.stored_bytes_per_row",
                 static_cast<double>(stored_bytes) / (n * cfg.batch_size),
                 "B/row");
        setLayer(r, "columnar.pages_per_partition",
                 static_cast<double>(pages) / n, "count");
        setLayer(r, "ops.transform_us_per_row",
                 t.usPerRow("ops.transform", rows), "us");
        setLayer(r, "core.fetch_share", fetch / (fetch + transform), "ratio");
        setLayer(r, "core.parallel_speedup",
                 (traced.rows() / traced.wallSeconds()) /
                     (rows / (fetch + transform)), "ratio");
        setLayer(r, "model.cpu_extract_share", calibratedExtractShare(cfg),
                 "ratio");
        tw.finish(untraced, traced, r);
    }
    finishSetups(o, setup_s, r, [&](int) {
        parts.reset();  // release the previous set-up first
        parts = setUp();
        return Status();
    });
}

// --- serve_mixed -----------------------------------------------------------

namespace {

constexpr const char* kServed = "served";
constexpr const char* kWaitTenant = "hot";  ///< whose waits are the metric
constexpr const char* kStream = "stream";

/** One set-up of the service's catalog: the served dataset with a cold
    (pinned) and a hot (head) epoch, and the streamed dataset's first
    epoch. Members are destroyed bottom-up: catalog before stores. */
struct ServeSetup {
    std::vector<std::unique_ptr<SegmentStore>> stores;
    std::unique_ptr<DatasetCatalog> catalog;
};

StatusOr<std::unique_ptr<SegmentStore>>
openStore(const std::string& dir)
{
    SegmentStoreOptions so;
    so.directory = freshDir(dir);
    return SegmentStore::open(so);
}

DatasetSpec
servedSpec(uint64_t seed)
{
    DatasetSpec spec;
    spec.name = kServed;
    spec.config = configFor(1, kServeRows);
    spec.generator = generatorFor(seed, 2);
    spec.partitions_per_epoch = kServePartitions;
    // A one-byte cache keeps only the latest fetch: the pinned cold
    // epoch then streams off disk while the head lives in the hot tier.
    spec.cache_budget_bytes = 1;
    spec.hot_tier_bytes = 256ull << 20;
    return spec;
}

DatasetSpec
streamSpec(uint64_t seed)
{
    DatasetSpec spec;
    spec.name = kStream;
    spec.config = configFor(1, kStreamRows);
    spec.generator = generatorFor(seed, 3);
    spec.partitions_per_epoch = kStreamPartitions;
    spec.retain_epochs = kStreamRetain;
    return spec;
}

StatusOr<ServeSetup>
setUpServe(const Options& o, const std::string& dir)
{
    ServeSetup s;
    std::vector<SegmentStore*> served;
    for (size_t i = 0; i <= kServeShards; ++i) {
        auto store = openStore(dir + "/shard-" + std::to_string(i));
        if (!store.ok())
            return store.status();
        s.stores.push_back(std::move(store).value());
        if (i < kServeShards)
            served.push_back(s.stores.back().get());
    }
    s.catalog = std::make_unique<DatasetCatalog>();
    if (Status st = s.catalog->registerDataset(servedSpec(o.seed), served);
        !st.ok())
        return st;
    for (int e = 0; e < 2; ++e) {
        if (auto ep = s.catalog->publishEpoch(kServed); !ep.ok())
            return ep.status();
    }
    if (Status st = s.catalog->registerDataset(
            streamSpec(o.seed), {s.stores.back().get()});
        !st.ok())
        return st;
    if (auto ep = s.catalog->publishEpoch(kStream); !ep.ok())
        return ep.status();
    return s;
}

/** One publish + retention pass of the paced publisher. */
struct PublishRecord {
    double late_ms = 0;
    double publish_ms = 0;
    double retention_ms = 0;
    bool ok = true;
    std::string error;
};

/**
 * Paced publisher: one publish of the streamed dataset plus one
 * retention pass per period, on its own thread, due times fixed in
 * advance so a slow pass shows up as lateness instead of drift.
 */
class Publisher
{
  public:
    Publisher(DatasetCatalog& catalog) : catalog_(catalog) {}
    ~Publisher() { stop(); }
    Publisher(const Publisher&) = delete;
    Publisher& operator=(const Publisher&) = delete;

    void
    start()
    {
        stop_ = false;
        thread_ = std::thread([this] { loop(); });
    }

    void
    stop()
    {
        {
            std::scoped_lock lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    /** Records so far (call after stop()). */
    const std::vector<PublishRecord>& records() const { return records_; }

  private:
    void
    loop()
    {
        const int64_t origin = nowNs();
        for (int64_t k = 1;; ++k) {
            const int64_t due = origin + k * kPublishPeriodNs;
            {
                std::unique_lock lock(mu_);
                const auto wait = std::chrono::nanoseconds(due - nowNs());
                if (cv_.wait_for(lock, wait, [this] { return stop_; }))
                    return;
            }
            PublishRecord rec;
            const int64_t t0 = nowNs();
            rec.late_ms = (t0 - due) / 1e6;
            {
                ScopedSpan span("service.publish");
                auto ep = catalog_.publishEpoch(kStream);
                if (!ep.ok()) {
                    rec.ok = false;
                    rec.error = ep.status().toString();
                }
            }
            const int64_t t1 = nowNs();
            {
                ScopedSpan span("service.retention");
                auto rep = catalog_.applyRetention(kStream);
                if (!rep.ok() && rec.ok) {
                    rec.ok = false;
                    rec.error = rep.status().toString();
                }
            }
            const int64_t t2 = nowNs();
            rec.publish_ms = (t1 - t0) / 1e6;
            rec.retention_ms = (t2 - t1) / 1e6;
            std::scoped_lock lock(mu_);
            records_.push_back(rec);
        }
    }

    DatasetCatalog& catalog_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;                   // guarded by mu_
    std::vector<PublishRecord> records_;  // guarded by mu_ while running
    std::thread thread_;
};

/** A delivered batch as the trainer saw it. */
struct Delivery {
    uint64_t session = 0;
    uint64_t epoch = 0;
    uint64_t index = 0;
    uint64_t digest = 0;
};

/**
 * The serve driver: one trainer thread pulls for every tenant in a fixed
 * weight-proportional cycle, so each tenant's share of pulls — and of
 * wait samples — is the same in every run. Every pull is one wait sample.
 */
void
runServePhase(IngestService& svc,
              const std::vector<std::pair<uint64_t, std::string>>& cycle,
              double seconds, TimedPhase& phase,
              std::vector<Delivery>& deliveries, Report& r)
{
    phase.begin();
    const int64_t deadline =
        phase.beginNs() + static_cast<int64_t>(seconds * 1e9);
    while (nowNs() < deadline) {
        for (const auto& [sid, tenant] : cycle) {
            const int64_t t0 = nowNs();
            auto got = [&] {
                ScopedSpan span("service.next_batch");
                return svc.nextBatch(sid);
            }();
            const int64_t t1 = nowNs();
            if (!got.ok()) {
                r.check(false, "nextBatch: " + got.status().toString());
                continue;
            }
            phase.delivered(got->batch->batch_size, t1 - t0, tenant);
            ScopedSpan span("bench.check", got->batch->batch_size);
            deliveries.push_back({sid, got->epoch, got->partition_index,
                                  batchDigest(*got->batch)});
        }
        phase.sampleThreads();
    }
    phase.end();
}

}  // namespace

void
runServeMixed(const Options& o, Report& r)
{
    r.threads["service_workers"] = kServiceWorkers;
    r.threads["trainer"] = 1;
    r.threads["publisher"] = 1;

    std::vector<double> setup_s;
    auto setUp = [&](int k) {
        const std::string dir = o.workdir + "/serve-" + std::to_string(k);
        return timeSetup(setup_s, [&] { return setUpServe(o, dir); });
    };
    auto got = setUp(0);
    if (!got.ok()) {
        r.fail("set-up: " + got.status().toString());
        return;
    }
    ServeSetup setup = std::move(got).value();
    DatasetCatalog& catalog = *setup.catalog;
    const DatasetSpec spec = servedSpec(o.seed);
    const RawDataGenerator gen(spec.config, spec.generator);

    r.context["peak_rss_setup_mib"] = peakRssMib();
    // The trainer waits on the hot tenant: it is pulled twice per cycle
    // and has one production in flight, while the bulk and cold queues
    // stay full (their quantiles are in the context).
    TimedPhase untraced(kWaitTenant);
    TimedPhase traced(kWaitTenant);
    std::vector<Delivery> deliveries;
    std::vector<PublishRecord> publishes;
    std::vector<SessionStats> sessions;
    {
        ServiceOptions so;
        so.workers = kServiceWorkers;
        IngestService svc(catalog, so);
        TenantSpec hot;
        hot.name = kWaitTenant;
        hot.dataset = kServed;
        hot.weight = 2;
        hot.queue_capacity = kQueueCapacity;
        TenantSpec bulk = hot;
        bulk.name = "bulk";
        bulk.weight = 1;
        TenantSpec cold = bulk;
        cold.name = "cold";
        cold.epoch = 1;
        auto hot_id = svc.openSession(hot);
        auto bulk_id = svc.openSession(bulk);
        auto cold_id = svc.openSession(cold);
        if (!hot_id.ok() || !bulk_id.ok() || !cold_id.ok()) {
            r.fail("open session failed");
            return;
        }
        const std::vector<std::pair<uint64_t, std::string>> cycle = {
            {*hot_id, hot.name},
            {*hot_id, hot.name},
            {*bulk_id, bulk.name},
            {*cold_id, cold.name}};
        Publisher publisher(catalog);
        publisher.start();
        timedPhases(o, untraced, traced, [&](double s, TimedPhase& phase) {
            runServePhase(svc, cycle, s, phase, deliveries, r);
        });
        publisher.stop();
        publishes = publisher.records();
        sessions = svc.allSessionStats();
    }
    reportTimed(o, untraced, traced, r);

    // Oracle over both served epochs, keyed by storage partition id.
    std::vector<uint64_t> ids;
    for (uint64_t e = 1; e <= 2; ++e) {
        for (uint64_t i = 0; i < kServePartitions; ++i)
            ids.push_back(epochPartitionId(e, i));
    }
    uint64_t raw_bytes = 0;
    const auto expected = oracleDigests(gen, ids, &raw_bytes);
    std::map<uint64_t, uint64_t> next_index;  // session -> expected index
    for (const Delivery& d : deliveries) {
        const uint64_t want = next_index[d.session]++ % kServePartitions;
        auto it = expected.find(epochPartitionId(d.epoch, d.index));
        r.check(d.index == want && it != expected.end() &&
                    it->second == d.digest,
                "served batch (epoch " + std::to_string(d.epoch) +
                    ", partition " + std::to_string(d.index) +
                    ") differs from the oracle or arrived out of order");
    }
    uint64_t hot_hits = 0;
    uint64_t cold_fetches = 0;
    size_t max_occupancy = 0;
    for (const SessionStats& s : sessions) {
        hot_hits += s.hot_tier_hits;
        cold_fetches += s.cold_fetches;
        max_occupancy = std::max(max_occupancy, s.max_queue_occupancy);
        r.check(s.max_queue_occupancy <= s.queue_capacity,
                "session queue exceeded its capacity");
    }
    std::vector<double> late_ms;
    std::vector<double> publish_ms;
    std::vector<double> retention_ms;
    for (const PublishRecord& p : publishes) {
        r.check(p.ok, "publish: " + p.error);
        late_ms.push_back(p.late_ms);
        publish_ms.push_back(p.publish_ms);
        retention_ms.push_back(p.retention_ms);
    }
    r.check(!publishes.empty(), "the paced publisher never ran");
    auto head = catalog.headEpoch(kStream);
    auto live = catalog.liveEpochs(kStream);
    r.check(head.ok() && *head == publishes.size() + 1,
            "stream head does not match the publishes made");
    r.check(head.ok() && live.ok() &&
                *live == std::min<uint64_t>(kStreamRetain, *head),
            "retention kept the wrong number of epochs");

    // Stored ratio of the served dataset (both epochs, exact bytes).
    uint64_t stored_bytes = 0;
    uint64_t pages = 0;
    for (size_t s = 0; s < kServeShards; ++s) {
        for (const SegmentInfo& info : setup.stores[s]->listSegments()) {
            stored_bytes += info.meta.byte_size;
            pages += info.meta.plans.size();
        }
    }
    r.end_to_end["stored_ratio"] =
        Metric{static_cast<double>(stored_bytes) / raw_bytes, "ratio"};
    r.counts["stored_bytes"] = stored_bytes;
    r.counts["pages"] = pages;
    r.context["publishes"] = static_cast<double>(publishes.size());

    if (o.trace) {
        auto hot_reader = catalog.pin(kServed);
        auto cold_reader = catalog.pin(kServed, 1);
        auto scratch = openStore(o.workdir + "/walk");
        if (!hot_reader.ok() || !cold_reader.ok() || !scratch.ok()) {
            r.fail("walk: pin or scratch store failed");
            return;
        }
        const RmConfig& cfg = spec.config;
        const ColumnarFileWriter writer;
        const PlanExecutor executor(TransformPlan::standard(cfg),
                                    gen.schema());
        ColumnarFileReader reader;
        RowBatch decoded;
        uint64_t rows = 0;
        uint64_t hot_rows = 0;
        uint64_t cold_rows = 0;
        uint64_t walk_hot_hits = 0;
        uint64_t walk_cold = 0;
        const uint64_t ops0 = (*scratch)->durableOps();
        // The walk window is the loop; every call in it is spanned.
        TraceWindows tw;
        tw.walk_begin = nowNs();
        for (const EpochReader* er : {&*hot_reader, &*cold_reader}) {
            const bool is_hot = er == &*hot_reader;
            for (size_t i = 0; i < er->numPartitions(); ++i) {
                const uint64_t pid = er->partitionId(i);
                if (is_hot) {
                    // The write path of a publish, layer by layer.
                    RowBatch raw;
                    {
                        ScopedSpan span("datagen.generate", cfg.batch_size);
                        raw = gen.generatePartition(pid);
                    }
                    std::vector<uint8_t> psf;
                    {
                        ScopedSpan span("columnar.encode", cfg.batch_size);
                        psf = writer.write(raw, pid);
                    }
                    ScopedSpan span("store.append", cfg.batch_size);
                    auto sid = (*scratch)->appendEncoded(psf, pid);
                    r.check(sid.ok(), "walk append failed");
                }
                bool hit = false;
                auto bytes = [&] {
                    ScopedSpan span(is_hot ? "core.fetch_hot"
                                           : "core.fetch_cold",
                                    cfg.batch_size);
                    return er->fetchEncoded(i, 0, &hit);
                }();
                if (!bytes.ok()) {
                    r.fail("walk fetch: " + bytes.status().toString());
                    return;
                }
                (is_hot ? hot_rows : cold_rows) += cfg.batch_size;
                walk_hot_hits += hit ? 1 : 0;
                walk_cold += hit ? 0 : 1;
                if (!is_hot) {
                    SegmentStore& shard = *setup.stores[er->shardOf(i)];
                    auto info = [&] {
                        ScopedSpan span("store.lookup");
                        return shard.segmentForPartition(pid);
                    }();
                    auto disk = [&] {
                        ScopedSpan span("store.read_raw", cfg.batch_size);
                        return info.ok() ? shard.readSegmentRaw(
                                               info->meta.segment_id)
                                         : StatusOr<std::vector<uint8_t>>(
                                               info.status());
                    }();
                    ScopedSpan span("bench.check", cfg.batch_size);
                    r.check(disk.ok() && *disk == *bytes,
                            "raw segment read differs from the fetch");
                }
                {
                    ScopedSpan span("columnar.decode", cfg.batch_size);
                    Status st = reader.open(*bytes);
                    if (st.ok())
                        st = reader.readAllInto(decoded);
                    r.check(st.ok(), "walk decode: " + st.toString());
                }
                MiniBatch mb;
                {
                    ScopedSpan span("ops.executor", cfg.batch_size);
                    mb = executor.run(decoded);
                }
                {
                    ScopedSpan span("bench.check", cfg.batch_size);
                    r.check(batchDigest(mb) == expected.at(pid),
                            "walk batch differs from the oracle");
                }
                rows += cfg.batch_size;
            }
        }
        const uint64_t durable = (*scratch)->durableOps() - ops0;
        tw.walk_end = nowNs();
        r.counts["walk_hot_hits"] = walk_hot_hits;
        r.counts["walk_cold_fetches"] = walk_cold;
        r.counts["durable_ops"] = durable;

        WalkTotals t{selfSeconds(Tracer::instance().spans())};
        const double fetch = t.selfS("core.fetch_hot") +
                             t.selfS("core.fetch_cold") +
                             t.selfS("columnar.decode");
        const double transform = t.selfS("ops.executor");
        setLayer(r, "datagen.generate_us_per_row",
                 t.usPerRow("datagen.generate", hot_rows), "us");
        setLayer(r, "columnar.encode_us_per_row",
                 t.usPerRow("columnar.encode", hot_rows), "us");
        setLayer(r, "columnar.decode_us_per_row",
                 t.usPerRow("columnar.decode", rows), "us");
        setLayer(r, "columnar.stored_bytes_per_row",
                 static_cast<double>(stored_bytes) /
                     (2 * kServePartitions * cfg.batch_size), "B/row");
        setLayer(r, "columnar.pages_per_partition",
                 static_cast<double>(pages) / (2 * kServePartitions), "count");
        setLayer(r, "store.read_raw_us_per_row",
                 t.usPerRow("store.read_raw", cold_rows), "us");
        setLayer(r, "store.append_ms_per_segment",
                 t.selfS("store.append") * 1e3 / kServePartitions, "ms");
        setLayer(r, "store.durable_ops_per_segment",
                 static_cast<double>(durable) / kServePartitions, "count");
        setLayer(r, "ops.executor_us_per_row",
                 t.usPerRow("ops.executor", rows), "us");
        setLayer(r, "core.fetch_hot_us_per_row",
                 t.usPerRow("core.fetch_hot", hot_rows), "us");
        setLayer(r, "core.fetch_cold_us_per_row",
                 t.usPerRow("core.fetch_cold", cold_rows), "us");
        setLayer(r, "core.fetches",
                 static_cast<double>(hot_hits + cold_fetches), "count");
        setLayer(r, "core.hot_hit_ratio",
                 static_cast<double>(hot_hits) /
                     std::max<uint64_t>(1, hot_hits + cold_fetches), "ratio");
        setLayer(r, "core.fetch_share", fetch / (fetch + transform), "ratio");
        setLayer(r, "core.parallel_speedup",
                 (traced.rows() / traced.wallSeconds()) /
                     (rows / (fetch + transform)), "ratio");
        setLayer(r, "model.cpu_extract_share",
                 calibratedExtractShare(cfg), "ratio");
        setLayer(r, "service.publish_ms", median(publish_ms), "ms");
        setLayer(r, "service.retention_ms", median(retention_ms), "ms");
        setLayer(r, "service.publish_late_ms", median(late_ms), "ms");
        setLayer(r, "service.max_queue_occupancy",
                 static_cast<double>(max_occupancy), "count");
        tw.finish(untraced, traced, r);
    }
    finishSetups(o, setup_s, r, [&](int k) {
        setup.catalog.reset();  // release the previous set-up first
        setup.stores.clear();
        return setUp(k).status();
    });
}

}  // namespace perfbench
