/**
 * @file
 * Tests for the PreSto core: provisioner, partition store, the
 * functional train/preprocess managers, and the DES training pipeline.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/fleet.h"
#include "core/managers.h"
#include "core/partition_store.h"
#include "core/provisioner.h"
#include "core/training_pipeline.h"
#include "models/calibration.h"

namespace presto {
namespace {

RmConfig
tinyConfig()
{
    RmConfig cfg = rmConfig(2);
    cfg.batch_size = 96;
    cfg.num_dense = 5;
    cfg.num_sparse = 3;
    cfg.num_generated = 2;
    return cfg;
}

// --- Provisioner --------------------------------------------------------------

TEST(ProvisionerTest, WorkersIsCeilOfDemandOverThroughput)
{
    for (const auto& cfg : allRmConfigs()) {
        Provisioner prov(cfg);
        const Provision p = prov.provisionCpu(8);
        EXPECT_EQ(p.workers,
                  static_cast<int>(std::ceil(p.demand_batches_per_sec /
                                             p.per_worker_throughput)));
        EXPECT_GE(p.workers, 1);
        EXPECT_GE(p.workers * p.per_worker_throughput,
                  p.demand_batches_per_sec);
    }
}

TEST(ProvisionerTest, DemandScalesWithGpus)
{
    Provisioner prov(rmConfig(3));
    EXPECT_DOUBLE_EQ(prov.trainingDemand(8), 8 * prov.trainingDemand(1));
    EXPECT_GE(prov.provisionCpu(8).workers,
              prov.provisionCpu(1).workers);
}

TEST(ProvisionerTest, IspNeedsFarFewerWorkersThanCpu)
{
    for (const auto& cfg : allRmConfigs()) {
        Provisioner prov(cfg);
        const Provision cpu = prov.provisionCpu(8);
        const Provision isp = prov.provisionIsp(8, IspParams::smartSsd());
        EXPECT_LT(isp.workers * 10, cpu.workers) << cfg.name;
    }
}

TEST(ProvisionerTest, DeploymentsCarryCostAndPower)
{
    Provisioner prov(rmConfig(5));
    const Provision isp = prov.provisionIsp(8, IspParams::smartSsd());
    EXPECT_DOUBLE_EQ(isp.deployment.power_watts,
                     isp.workers * cal::kSmartSsdWatts);
    EXPECT_DOUBLE_EQ(isp.deployment.capex_dollars,
                     isp.workers * cal::kSmartSsdDollars);
}

TEST(ProvisionerDeathTest, ZeroGpusPanics)
{
    Provisioner prov(rmConfig(1));
    EXPECT_DEATH(prov.trainingDemand(0), "at least one GPU");
}

// --- PartitionStore --------------------------------------------------------------

TEST(PartitionStoreTest, MaterializesLazily)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    EXPECT_EQ(store.materializedCount(), 0u);
    (void)store.partition(3);
    EXPECT_EQ(store.materializedCount(), 1u);
    (void)store.partition(3);
    EXPECT_EQ(store.materializedCount(), 1u);  // cached
}

TEST(PartitionStoreTest, DeterministicBytes)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen_a(cfg), gen_b(cfg);
    PartitionStore a(gen_a), b(gen_b);
    EXPECT_EQ(a.partition(5), b.partition(5));
    EXPECT_EQ(a.partitionBytes(5), b.partitionBytes(5));
}

TEST(PartitionStoreTest, PartitionsAreValidPsfFiles)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(store.partition(2)).ok());
    EXPECT_EQ(reader.footer().partition_id, 2u);
    EXPECT_EQ(reader.footer().num_rows, cfg.batch_size);
}

// --- Managers (functional end-to-end) ----------------------------------------------

TEST(ManagersTest, DeliversAllBatches)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    TrainManager trainer(cfg, store, PreprocessMode::kPreSto);
    const RunStats stats = trainer.train(4, /*worker_override=*/2);
    EXPECT_EQ(stats.batches_delivered, 4u);
    EXPECT_EQ(store.materializedCount(), 4u);
}

TEST(ManagersTest, ByteAccountingMatchesMode)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);

    PartitionStore store_a(gen);
    TrainManager disagg(cfg, store_a, PreprocessMode::kDisaggCpu);
    const RunStats d = disagg.train(3, 1);
    EXPECT_GT(d.raw_bytes_over_network, 0u);
    EXPECT_EQ(d.raw_bytes_p2p, 0u);

    PartitionStore store_b(gen);
    TrainManager presto(cfg, store_b, PreprocessMode::kPreSto);
    const RunStats p = presto.train(3, 1);
    EXPECT_EQ(p.raw_bytes_over_network, 0u);
    EXPECT_GT(p.raw_bytes_p2p, 0u);

    // Same partitions -> same raw byte volume, just a different path.
    EXPECT_EQ(d.raw_bytes_over_network, p.raw_bytes_p2p);
    EXPECT_EQ(d.tensor_bytes_over_network, p.tensor_bytes_over_network);
}

TEST(ManagersTest, ModesProduceIdenticalTensors)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);

    PartitionStore store_a(gen);
    TrainManager a(cfg, store_a, PreprocessMode::kDisaggCpu);
    (void)a.train(3, 2);

    PartitionStore store_b(gen);
    TrainManager b(cfg, store_b, PreprocessMode::kPreSto);
    (void)b.train(3, 2);

    EXPECT_EQ(a.deliveredChecksum(), b.deliveredChecksum());
    EXPECT_NE(a.deliveredChecksum(), 0u);
}

TEST(ManagersTest, ChecksumIndependentOfWorkerCount)
{
    // XOR-folded checksums are order-independent, so parallel delivery
    // must not change the result.
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore s1(gen), s2(gen);
    TrainManager one(cfg, s1, PreprocessMode::kPreSto);
    TrainManager four(cfg, s2, PreprocessMode::kPreSto);
    (void)one.train(5, 1);
    (void)four.train(5, 4);
    EXPECT_EQ(one.deliveredChecksum(), four.deliveredChecksum());
}

TEST(ManagersTest, TpRuleProvisionsWorkers)
{
    const RmConfig& cfg = rmConfig(5);
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    TrainManager trainer(cfg, store, PreprocessMode::kDisaggCpu);
    EXPECT_GT(trainer.measuredTrainingThroughput(), 0);
    (void)trainer.train(1);
    // ceil(T / P): one GPU's demand for RM5 needs ~40 CPU workers.
    EXPECT_GT(trainer.provisionedWorkers(), 20);
    EXPECT_LT(trainer.provisionedWorkers(), 80);
}

TEST(ManagersTest, ColumnarBytesTouchedCoversWholeFiles)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    TrainManager trainer(cfg, store, PreprocessMode::kPreSto);
    const RunStats stats = trainer.train(2, 1);
    // readAll touches every page plus footer: within a few % of the raw
    // file bytes.
    EXPECT_GE(stats.columnar_bytes_touched, stats.raw_bytes_p2p * 95 / 100);
}

TEST(PreprocessManagerDeathTest, BadArgsPanic)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    EXPECT_DEATH(PreprocessManager(cfg, store, PreprocessMode::kPreSto, 0),
                 "at least one worker");
    EXPECT_DEATH(
        PreprocessManager(cfg, store, PreprocessMode::kPreSto, 1, 0),
        "capacity");
}

TEST(ManagersTest, StressManyBatchesSmallQueue)
{
    // Backpressure correctness under real threads: a tiny queue and
    // more workers than queue slots must still deliver every batch
    // exactly once.
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    PreprocessManager manager(cfg, store, PreprocessMode::kPreSto,
                              /*num_workers=*/4, /*queue_capacity=*/2);
    manager.start(24);
    size_t delivered = 0;
    while (auto mb = manager.nextBatch()) {
        EXPECT_TRUE(mb->consistent());
        ++delivered;
    }
    EXPECT_EQ(delivered, 24u);
    EXPECT_EQ(manager.stats().batches_delivered, 24u);
    EXPECT_EQ(store.materializedCount(), 24u);
}

class PipelinePerRm : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelinePerRm, IspBackendInvariants)
{
    PipelineOptions opts;
    opts.backend = PreprocBackend::kIsp;
    opts.isp_params = IspParams::smartSsd();
    opts.num_workers = 2;
    opts.batches_to_train = 96;
    const PipelineResult r =
        TrainingPipeline(rmConfig(GetParam()), opts).run();
    EXPECT_EQ(r.batches_trained, 96u);
    EXPECT_GT(r.sim_seconds, 0);
    EXPECT_LE(r.gpu_utilization, 1.0 + 1e-9);
    EXPECT_GE(r.preproc_throughput, r.train_throughput * 0.999);
    EXPECT_LE(r.train_throughput, r.gpu_max_throughput * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Rms, PipelinePerRm, ::testing::Range(1, 6));

// --- FleetModel -----------------------------------------------------------------------

TEST(FleetModelTest, AggregatesAcrossJobs)
{
    FleetModel fleet({{5, 8}, {5, 8}});
    const FleetSummary one = FleetModel({{5, 8}}).evaluate(
        FleetSystem::kDisaggCpu);
    const FleetSummary two = fleet.evaluate(FleetSystem::kDisaggCpu);
    EXPECT_EQ(two.total_workers, 2 * one.total_workers);
    EXPECT_DOUBLE_EQ(two.total_power_watts, 2 * one.total_power_watts);
    EXPECT_DOUBLE_EQ(two.raw_in_bytes_per_sec,
                     2 * one.raw_in_bytes_per_sec);
}

TEST(FleetModelTest, PrestoHasNoRawInTraffic)
{
    FleetModel fleet({{1, 8}, {3, 8}, {5, 16}});
    const FleetSummary presto =
        fleet.evaluate(FleetSystem::kPrestoSmartSsd);
    EXPECT_DOUBLE_EQ(presto.raw_in_bytes_per_sec, 0.0);
    EXPECT_GT(presto.tensors_out_bytes_per_sec, 0.0);
    const FleetSummary disagg = fleet.evaluate(FleetSystem::kDisaggCpu);
    EXPECT_GT(disagg.raw_in_bytes_per_sec, 0.0);
    // Tensors-out is identical: the same batches reach the trainers.
    EXPECT_DOUBLE_EQ(presto.tensors_out_bytes_per_sec,
                     disagg.tensors_out_bytes_per_sec);
}

TEST(FleetModelTest, NetworkReliefAboveOne)
{
    FleetModel fleet({{2, 8}, {4, 8}, {5, 8}});
    EXPECT_GT(fleet.networkReliefFactor(), 1.5);
}

TEST(FleetModelTest, PrestoCheaperAndCooler)
{
    FleetModel fleet({{1, 8}, {2, 8}, {3, 8}, {4, 8}, {5, 8}});
    const FleetSummary d = fleet.evaluate(FleetSystem::kDisaggCpu);
    const FleetSummary p = fleet.evaluate(FleetSystem::kPrestoSmartSsd);
    EXPECT_LT(p.total_cost_dollars * 3, d.total_cost_dollars);
    EXPECT_LT(p.total_power_watts * 8, d.total_power_watts);
    EXPECT_DOUBLE_EQ(p.total_demand_batches_per_sec,
                     d.total_demand_batches_per_sec);
}

TEST(FleetModelDeathTest, BadJobsPanic)
{
    EXPECT_DEATH(FleetModel({}), "at least one job");
    EXPECT_DEATH(FleetModel({{9, 8}}), "bad RM id");
    EXPECT_DEATH(FleetModel({{1, 0}}), "at least one GPU");
}

// --- TrainingPipeline (DES) ----------------------------------------------------------

TEST(TrainingPipelineTest, UndersuppliedGpuMatchesPreprocThroughput)
{
    PipelineOptions opts;
    opts.backend = PreprocBackend::kColocatedCpu;
    opts.num_workers = 4;
    opts.batches_to_train = 128;
    TrainingPipeline pipeline(rmConfig(5), opts);
    const PipelineResult r = pipeline.run();
    EXPECT_EQ(r.batches_trained, 128u);
    // Preprocessing-bound: training throughput ~= preproc throughput,
    // far below the GPU's demand.
    EXPECT_NEAR(r.train_throughput, r.preproc_throughput,
                r.preproc_throughput * 0.05);
    EXPECT_LT(r.gpu_utilization, 0.10);
}

TEST(TrainingPipelineTest, OversuppliedGpuSaturates)
{
    PipelineOptions opts;
    opts.backend = PreprocBackend::kIsp;
    opts.isp_params = IspParams::smartSsd();
    opts.num_workers = 16;  // >> 1 GPU demand for RM1
    opts.batches_to_train = 256;
    TrainingPipeline pipeline(rmConfig(1), opts);
    const PipelineResult r = pipeline.run();
    EXPECT_GT(r.gpu_utilization, 0.95);
    EXPECT_NEAR(r.train_throughput, r.gpu_max_throughput,
                r.gpu_max_throughput * 0.05);
    EXPECT_GT(r.max_stalled_producers, 0u);  // backpressure engaged
}

TEST(TrainingPipelineTest, ThroughputScalesWithWorkers)
{
    auto run = [](int workers) {
        PipelineOptions opts;
        opts.backend = PreprocBackend::kDisaggCpu;
        opts.num_workers = workers;
        // Long enough to amortize the pipeline-fill transient.
        opts.batches_to_train = 512;
        return TrainingPipeline(rmConfig(5), opts).run();
    };
    const double t1 = run(1).train_throughput;
    const double t8 = run(8).train_throughput;
    EXPECT_NEAR(t8 / t1, 8.0, 0.5);
}

TEST(TrainingPipelineTest, DisaggWorkerSlowerThanIspDevice)
{
    PipelineOptions cpu_opts;
    cpu_opts.backend = PreprocBackend::kDisaggCpu;
    PipelineOptions isp_opts;
    isp_opts.backend = PreprocBackend::kIsp;
    isp_opts.isp_params = IspParams::smartSsd();
    const RmConfig& cfg = rmConfig(5);
    EXPECT_GT(TrainingPipeline(cfg, cpu_opts).workerPeriodSeconds(),
              TrainingPipeline(cfg, isp_opts).workerPeriodSeconds() * 20);
}

TEST(TrainingPipelineTest, DeterministicAcrossRuns)
{
    PipelineOptions opts;
    opts.backend = PreprocBackend::kDisaggCpu;
    opts.num_workers = 3;
    opts.batches_to_train = 64;
    const PipelineResult a = TrainingPipeline(rmConfig(2), opts).run();
    const PipelineResult b = TrainingPipeline(rmConfig(2), opts).run();
    EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_DOUBLE_EQ(a.gpu_utilization, b.gpu_utilization);
}

TEST(TrainingPipelineTest, ConservationOfBatches)
{
    PipelineOptions opts;
    opts.backend = PreprocBackend::kDisaggCpu;
    opts.num_workers = 2;
    opts.batches_to_train = 32;
    const PipelineResult r = TrainingPipeline(rmConfig(1), opts).run();
    EXPECT_EQ(r.batches_trained, 32u);
    // Producers may have preprocessed a few extra batches into the queue.
    EXPECT_GE(r.preproc_throughput, r.train_throughput);
}

TEST(TrainingPipelineDeathTest, BadOptionsPanic)
{
    PipelineOptions opts;
    opts.num_workers = 0;
    EXPECT_DEATH(TrainingPipeline(rmConfig(1), opts), "worker");
}

}  // namespace
}  // namespace presto
