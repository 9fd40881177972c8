#include "core/managers.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/rng.h"
#include "io/async_reader.h"
#include "models/calibration.h"
#include "models/cpu_model.h"
#include "models/gpu_model.h"
#include "models/isp_model.h"

namespace presto {

namespace {

/**
 * Fetch-stage share of one partition's measured cost. Extract decodes
 * w.raw_values at the vectorized page-decode rate while Transform
 * retires w.output_values through the fused op-chain VM; both rates are
 * measured on this host (models/calibration.h, provenance
 * BENCH_decode.json / BENCH_fused.json), so the staged-pipeline split
 * tracks the real kernels instead of assuming the stages cost the same.
 */
double
measuredFetchShare(const RmConfig& config)
{
    const TransformWork w = TransformWork::expected(config);
    const double fetch =
        w.raw_values * cal::kMeasuredSimdDecodeSecPerValue;
    const double transform =
        w.output_values * cal::kMeasuredFusedSecPerValue;
    return fetch / (fetch + transform);
}

}  // namespace

PreprocessManager::PreprocessManager(const RmConfig& config,
                                     PartitionStore& store,
                                     PreprocessMode mode, int num_workers,
                                     size_t queue_capacity, bool prefetch,
                                     ThreadPool* decode_pool,
                                     IoRing* io_ring)
    : config_(config), store_(store), mode_(mode), preprocessor_(config),
      queue_capacity_(queue_capacity), num_workers_(num_workers),
      prefetch_(prefetch), decode_pool_(decode_pool), io_ring_(io_ring),
      fetch_share_(measuredFetchShare(config))
{
    PRESTO_CHECK(num_workers_ >= 1, "need at least one worker");
    PRESTO_CHECK(queue_capacity_ >= 1, "queue capacity must be positive");
    // Prefetch window: one decoded partition per worker plus the
    // fetchers' lead, sized from the same measured split (a fetch-heavy
    // workload earns a deeper window because its transformers drain
    // slower relative to the fetchers filling it).
    decoded_capacity_ = std::max<size_t>(
        2, static_cast<size_t>(
               std::ceil(num_workers_ * (1.0 + fetch_share_))));
    // Reserve the pools at their bounds so the steady state stays
    // allocation-free: at most one extraction per fetcher is published;
    // every shell is either in the window or held by a worker; a batch
    // is queued, held by a transformer, or held by the trainer.
    const size_t workers = static_cast<size_t>(num_workers_);
    extracting_.reserve(workers);
    free_shells_.reserve(decoded_capacity_ + workers);
    free_batches_.reserve(queue_capacity_ + workers + 1);
}

PreprocessManager::~PreprocessManager()
{
    {
        std::unique_lock lock(mu_);
        stopping_ = true;
    }
    queue_not_full_.notify_all();
    queue_not_empty_.notify_all();
    decoded_not_full_.notify_all();
    decoded_not_empty_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
PreprocessManager::start(size_t total_batches)
{
    PRESTO_CHECK(workers_.empty(), "manager already started");
    total_batches_ = total_batches;
    if (!prefetch_) {
        workers_.reserve(num_workers_);
        for (int w = 0; w < num_workers_; ++w)
            workers_.emplace_back([this] { workerLoop(); });
        return;
    }
    // Staged pipeline: dedicated fetchers decode partition N+1 while
    // transform workers run partition N. The budget splits in
    // proportion to the measured per-partition stage costs (see
    // measuredFetchShare) instead of a static half/half: a decode-heavy
    // workload (long sparse rows) earns more fetchers, a transform-heavy
    // one more transformers. A single-worker budget still gets one
    // thread per stage — that is the minimal double buffer.
    int fetchers =
        static_cast<int>(std::lround(num_workers_ * fetch_share_));
    fetchers = std::clamp(fetchers, 1, std::max(1, num_workers_ - 1));
    const int transformers = std::max(1, num_workers_ - fetchers);
    inform("staged pipeline (", config_.name, "): ", fetchers,
           " fetch + ", transformers,
           " transform workers, measured fetch share ",
           static_cast<int>(std::lround(fetch_share_ * 100)),
           "%, prefetch window ", decoded_capacity_);
    active_fetchers_ = fetchers;
    workers_.reserve(static_cast<size_t>(fetchers + transformers));
    for (int w = 0; w < fetchers; ++w)
        workers_.emplace_back([this] { fetchLoop(); });
    for (int w = 0; w < transformers; ++w)
        workers_.emplace_back([this] { transformLoop(); });
}

bool
PreprocessManager::claimPartition(uint64_t& id)
{
    std::unique_lock lock(mu_);
    if (next_partition_ >= total_batches_ || stopping_)
        return false;
    id = next_partition_++;
    return true;
}

namespace {

/** Fetch+decode attempts before a partition is declared unrecoverable. */
constexpr uint64_t kMaxFetchAttempts = 16;

/**
 * Page chunks per worker of one staged extraction: enough that the
 * chunk claimed last is short next to the partition (little tail where
 * the fetcher waits on a helper), few enough that claiming stays a
 * handful of lock round trips per partition.
 */
constexpr size_t kChunksPerWorker = 4;

/** Cut @p plans into at most @p max_chunks contiguous runs of about
    equal frame bytes; @p ends gets one past each run's last plan. */
void
cutChunks(const std::vector<PageReadPlan>& plans, size_t max_chunks,
          std::vector<size_t>& ends)
{
    ends.clear();
    uint64_t total = 0;
    for (const PageReadPlan& plan : plans)
        total += plan.frame_bytes;
    uint64_t acc = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
        acc += plans[i].frame_bytes;
        if (i + 1 == plans.size() ||
            acc * max_chunks >= total * (ends.size() + 1))
            ends.push_back(i + 1);
    }
}

}  // namespace

bool
PreprocessManager::claimChunkLocked(Extraction& ex, size_t& chunk)
{
    if (ex.next_chunk >= ex.chunk_ends.size())
        return false;
    chunk = ex.next_chunk++;
    ++ex.running;
    if (ex.next_chunk == ex.chunk_ends.size())
        std::erase(extracting_, &ex);
    return true;
}

void
PreprocessManager::runChunk(std::unique_lock<std::mutex>& lock,
                            Extraction& ex, size_t chunk)
{
    lock.unlock();
    // planPageReads() scanned every frame inside ex.data, so the
    // subspans are in bounds.
    Status st;
    const size_t begin = chunk == 0 ? 0 : ex.chunk_ends[chunk - 1];
    for (size_t i = begin; i < ex.chunk_ends[chunk] && st.ok(); ++i) {
        const PageReadPlan& plan = ex.plans[i];
        st = ex.reader->completePage(
            plan, ex.data.subspan(plan.offset, plan.frame_bytes),
            *ex.batch);
    }
    lock.lock();
    --ex.running;
    if (!st.ok() && ex.status.ok()) {
        // Cancel the chunks nobody claimed: the partition is refetched.
        ex.status = std::move(st);
        if (ex.next_chunk < ex.chunk_ends.size()) {
            ex.next_chunk = ex.chunk_ends.size();
            std::erase(extracting_, &ex);
        }
    }
    if (ex.running == 0)
        ex.idle.notify_one();
}

Status
PreprocessManager::extract(std::span<const uint8_t> encoded,
                           ColumnarFileReader& reader, Extraction& ex,
                           RowBatch& out)
{
    // The reader's plan/complete/finish split, run in place over the
    // resident bytes: plan every page frame, size the output, then
    // decode the pages chunk by chunk. The fetcher decodes chunks
    // itself; in the staged pipeline the chunks are also published so
    // idle transformers decode them alongside.
    PRESTO_RETURN_IF_ERROR(reader.open(encoded));
    PRESTO_RETURN_IF_ERROR(reader.planPageReads(ex.plans));
    PRESTO_RETURN_IF_ERROR(reader.beginReadInto(out));
    ex.reader = &reader;
    ex.data = encoded;
    ex.batch = &out;
    cutChunks(ex.plans,
              prefetch_ ? kChunksPerWorker *
                              static_cast<size_t>(num_workers_)
                        : 1,
              ex.chunk_ends);
    const bool shared = ex.chunk_ends.size() > 1;

    std::unique_lock lock(mu_);
    ex.next_chunk = 0;
    ex.running = 0;
    ex.status = Status::okStatus();
    if (shared) {
        extracting_.push_back(&ex);
        decoded_not_empty_.notify_all();
    }
    size_t chunk = 0;
    while (claimChunkLocked(ex, chunk))
        runChunk(lock, ex, chunk);
    // Helpers still hold chunks that point into @p encoded and @p out:
    // wait for them even when the manager is stopping.
    ex.idle.wait(lock, [&ex] { return ex.running == 0; });
    Status st = std::move(ex.status);
    lock.unlock();
    PRESTO_RETURN_IF_ERROR(st);
    return reader.finishReadInto(out);
}

void
PreprocessManager::fetchDecode(uint64_t id, ColumnarFileReader& reader,
                               Extraction& ex, DecodedPartition& dp)
{
    // Extract: fetch the encoded partition from the (local) SSD and
    // decode it. In Disagg mode the encoded bytes crossed the
    // datacenter network first; in PreSto mode they moved SSD->FPGA
    // over the device-internal P2P path. Under fault injection a
    // fetch can fail transiently (retried) or deliver bit-flipped
    // bytes — caught by the PSF page CRCs (in whichever chunk holds
    // the page) and answered by re-fetching the partition.
    dp.raw_bytes = 0;
    dp.bytes_touched = 0;
    dp.transient_errors = 0;
    dp.corrupt_refetches = 0;
    if (!store_.faultInjectionEnabled()) {
        const auto& encoded = store_.partition(id);
        const Status st = extract(encoded, reader, ex, dp.batch);
        PRESTO_CHECK(st.ok(), "partition ", id, " unreadable: ",
                     st.toString());
        dp.raw_bytes = encoded.size();
        dp.bytes_touched = reader.bytesTouched();
        return;
    }
    bool recovered = false;
    for (uint64_t attempt = 0; attempt < kMaxFetchAttempts; ++attempt) {
        auto fetched = store_.fetchPartition(id, attempt);
        if (!fetched.ok()) {
            PRESTO_CHECK(fetched.status().code() ==
                             StatusCode::kUnavailable,
                         "partition ", id, " unreadable: ",
                         fetched.status().toString());
            ++dp.transient_errors;
            continue;
        }
        const Status st = extract(*fetched, reader, ex, dp.batch);
        if (!st.ok()) {
            PRESTO_CHECK(st.code() == StatusCode::kCorruption,
                         "partition ", id, " unreadable: ", st.toString());
            ++dp.corrupt_refetches;
            continue;
        }
        dp.raw_bytes = fetched->size();
        dp.bytes_touched = reader.bytesTouched();
        recovered = true;
        break;
    }
    PRESTO_CHECK(recovered, "partition ", id, " unrecoverable after ",
                 kMaxFetchAttempts, " fetch attempts");
}

void
PreprocessManager::fetchDecodeAsync(uint64_t id,
                                    AsyncPartitionReader& reader,
                                    DecodedPartition& dp)
{
    // Extract over the ring: page frames of the partition stream
    // through the IoRing and decode as they complete, so decode of
    // page k overlaps the modeled storage latency of the pages behind
    // it. Faults act on individual in-flight reads — transient errors
    // and timeouts retry inside the ring with backoff, and a CRC-caught
    // bit flip re-reads just that page instead of refetching the whole
    // partition as the blocking path does.
    //
    // With persistence enabled the partition lives in the on-disk
    // segment store, and every page frame arrives through a real
    // pread issued by the ring's device workers — the cold-read path —
    // with identical retry and CRC semantics.
    SegmentStore* segments = store_.segmentStore();
    if (segments != nullptr) {
        auto sid = store_.persistPartition(id);
        PRESTO_CHECK(sid.ok(), "partition ", id,
                     " not persistable: ", sid.status().toString());
        Status st = segments->readSegment(*sid, reader, dp.batch);
        PRESTO_CHECK(st.ok(), "segment ", *sid, " of partition ", id,
                     " unreadable: ", st.toString());
        const AsyncReadStats& rs = reader.lastReadStats();
        dp.raw_bytes = reader.reader().totalDataBytes();
        dp.bytes_touched = reader.reader().bytesTouched();
        dp.transient_errors = rs.device_retries;
        dp.corrupt_refetches = rs.corrupt_page_rereads;
        return;
    }
    const auto& encoded = store_.partition(id);
    Status st = reader.read(encoded, id, dp.batch);
    PRESTO_CHECK(st.ok(), "partition ", id,
                 " unrecoverable over async ring: ", st.toString());
    const AsyncReadStats& rs = reader.lastReadStats();
    dp.raw_bytes = encoded.size();
    dp.bytes_touched = reader.reader().bytesTouched();
    dp.transient_errors = rs.device_retries;
    dp.corrupt_refetches = rs.corrupt_page_rereads;
}

std::unique_ptr<MiniBatch>
PreprocessManager::takeRecycledBatch()
{
    std::unique_lock lock(mu_);
    if (free_batches_.empty())
        return nullptr;
    auto mb = std::move(free_batches_.back());
    free_batches_.pop_back();
    return mb;
}

void
PreprocessManager::transformAndDeliver(DecodedPartition& dp,
                                       BatchArena& arena)
{
    // Transform: the full operator pipeline, into a recycled batch.
    auto mb = takeRecycledBatch();
    if (mb == nullptr)
        mb = std::make_unique<MiniBatch>();
    preprocessor_.preprocessInto(dp.batch, *mb, arena);
    const uint64_t tensor_bytes = mb->byteSize();

    std::unique_lock lock(mu_);
    queue_not_full_.wait(lock, [this] {
        return queue_.size() < queue_capacity_ || stopping_;
    });
    if (stopping_)
        return;
    if (mode_ == PreprocessMode::kDisaggCpu) {
        stats_.raw_bytes_over_network += dp.raw_bytes;
    } else {
        stats_.raw_bytes_p2p += dp.raw_bytes;
    }
    stats_.tensor_bytes_over_network += tensor_bytes;
    stats_.columnar_bytes_touched += dp.bytes_touched;
    stats_.transient_read_errors += dp.transient_errors;
    stats_.corrupt_partition_refetches += dp.corrupt_refetches;
    queue_.push_back(std::move(mb));
    lock.unlock();
    queue_not_empty_.notify_one();
}

void
PreprocessManager::workerLoop()
{
    // Unstaged (seed) schedule: each worker alternates Extract and
    // Transform, but with the device-style persistent decode buffers.
    ColumnarFileReader reader;
    Extraction ex;
    std::unique_ptr<AsyncPartitionReader> async;
    if (io_ring_ != nullptr) {
        async = std::make_unique<AsyncPartitionReader>(*io_ring_);
        async->setDecodePool(decode_pool_);
    }
    BatchArena arena;
    DecodedPartition dp;
    for (;;) {
        uint64_t pid = 0;
        if (!claimPartition(pid))
            return;
        if (async != nullptr)
            fetchDecodeAsync(pid, *async, dp);
        else
            fetchDecode(pid, reader, ex, dp);
        transformAndDeliver(dp, arena);
    }
}

void
PreprocessManager::fetchLoop()
{
    ColumnarFileReader reader;
    Extraction ex;
    std::unique_ptr<AsyncPartitionReader> async;
    if (io_ring_ != nullptr) {
        async = std::make_unique<AsyncPartitionReader>(*io_ring_);
        async->setDecodePool(decode_pool_);
    }
    uint64_t pid = 0;
    while (claimPartition(pid)) {
        std::unique_ptr<DecodedPartition> dp;
        {
            std::unique_lock lock(mu_);
            if (!free_shells_.empty()) {
                dp = std::move(free_shells_.back());
                free_shells_.pop_back();
            }
        }
        if (dp == nullptr)
            dp = std::make_unique<DecodedPartition>();
        if (async != nullptr)
            fetchDecodeAsync(pid, *async, *dp);
        else
            fetchDecode(pid, reader, ex, *dp);

        bool stopped = false;
        {
            std::unique_lock lock(mu_);
            decoded_not_full_.wait(lock, [this] {
                return decoded_.size() < decoded_capacity_ || stopping_;
            });
            stopped = stopping_;
            if (!stopped)
                decoded_.push_back(std::move(dp));
        }
        if (stopped)
            break;
        decoded_not_empty_.notify_one();
    }
    {
        std::unique_lock lock(mu_);
        --active_fetchers_;
    }
    // Wake every transformer so the last ones observe the drained queue.
    decoded_not_empty_.notify_all();
}

void
PreprocessManager::transformLoop()
{
    BatchArena arena;
    for (;;) {
        std::unique_ptr<DecodedPartition> dp;
        {
            std::unique_lock lock(mu_);
            decoded_not_empty_.wait(lock, [this] {
                return !decoded_.empty() || !extracting_.empty() ||
                       active_fetchers_ == 0 || stopping_;
            });
            if (stopping_)
                return;
            if (decoded_.empty()) {
                if (extracting_.empty())
                    return;  // all fetchers finished, queue drained
                // Nothing to transform: help decode the oldest
                // partition in extraction instead of blocking. A
                // published extraction always has an unclaimed chunk.
                Extraction& ex = *extracting_.front();
                size_t chunk = 0;
                claimChunkLocked(ex, chunk);
                runChunk(lock, ex, chunk);
                continue;
            }
            dp = std::move(decoded_.front());
            decoded_.pop_front();
        }
        decoded_not_full_.notify_one();
        transformAndDeliver(*dp, arena);
        std::unique_lock lock(mu_);
        free_shells_.push_back(std::move(dp));
    }
}

void
PreprocessManager::recycle(std::unique_ptr<MiniBatch> mb)
{
    if (mb == nullptr)
        return;
    std::unique_lock lock(mu_);
    free_batches_.push_back(std::move(mb));
}

std::unique_ptr<MiniBatch>
PreprocessManager::nextBatch()
{
    std::unique_lock lock(mu_);
    if (delivered_ >= total_batches_)
        return nullptr;
    queue_not_empty_.wait(lock, [this] {
        return !queue_.empty() || stopping_;
    });
    if (queue_.empty())
        return nullptr;
    auto mb = std::move(queue_.front());
    queue_.pop_front();
    ++delivered_;
    ++stats_.batches_delivered;
    lock.unlock();
    queue_not_full_.notify_one();
    return mb;
}

TrainManager::TrainManager(const RmConfig& config, PartitionStore& store,
                           PreprocessMode mode)
    : config_(config), store_(store), mode_(mode)
{
}

double
TrainManager::measuredTrainingThroughput() const
{
    // Figure 9 step 2: stress-test the GPU with dummy mini-batches. With
    // no physical GPU, the calibrated A100 model plays that role.
    return GpuTrainModel(config_).maxThroughput();
}

RunStats
TrainManager::train(size_t total_batches, int worker_override)
{
    // T/P rule: workers = ceil(T / P).
    const double demand = measuredTrainingThroughput();
    double per_worker = 0;
    if (mode_ == PreprocessMode::kDisaggCpu) {
        per_worker = CpuWorkerModel(config_).throughputPerCore();
    } else {
        per_worker =
            IspDeviceModel(IspParams::smartSsd(), config_).throughput();
    }
    provisioned_workers_ = worker_override > 0
                               ? worker_override
                               : static_cast<int>(
                                     std::ceil(demand / per_worker));
    // The functional path runs on this host: cap the real thread count.
    const int threads = std::clamp(provisioned_workers_, 1, 4);

    const auto wall_start = std::chrono::steady_clock::now();
    PreprocessManager manager(config_, store_, mode_, threads);
    manager.start(total_batches);

    checksum_ = 0;
    for (;;) {
        auto mb = manager.nextBatch();
        if (mb == nullptr)
            break;
        PRESTO_CHECK(mb->consistent(), "train manager got a bad batch");
        // "Training": fold a structural checksum so replays can assert
        // byte-identical delivery.
        uint64_t crc = crc32c(mb->dense.data(),
                              mb->dense.size() * sizeof(float));
        for (const auto& jag : mb->sparse) {
            crc = crc32c(jag.values.data(),
                         jag.values.size() * sizeof(int64_t), crc);
        }
        checksum_ ^= mix64(crc + mb->batch_size);
        // Hand the tensors back so the next partition reuses them.
        manager.recycle(std::move(mb));
    }

    RunStats stats = manager.stats();
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return stats;
}

}  // namespace presto
