/**
 * @file
 * Functional emulation of the PreSto accelerator datapath (Figure 10):
 * a Decoder unit, per-feature Generation and Normalization processing
 * elements with double buffering, and a conversion/DMA-out stage —
 * executed in software over real encoded partitions.
 *
 * The emulator's outputs are bit-identical to the plain Preprocessor
 * path (verified in tests); its value is (a) validating that the
 * microarchitecture's dataflow computes the right thing and (b)
 * producing per-unit work counters that cross-check the analytical
 * TransformWork model priced by models/isp_model.
 *
 * The datapath executes the same compiled bytecode program as the CPU
 * path (ops/opvm.h), streamed through the PEs in double-buffered
 * kPeBufferValues chunks — the PE's fused pipeline is exactly a fused
 * op chain, so emulation and CPU execution share one lowering.
 */
#ifndef PRESTO_CORE_ISP_EMULATOR_H_
#define PRESTO_CORE_ISP_EMULATOR_H_

#include <cstdint>
#include <span>

#include "columnar/columnar_file.h"
#include "common/batch_arena.h"
#include "common/status.h"
#include "datagen/rm_config.h"
#include "ops/preprocessor.h"
#include "tabular/minibatch.h"
#include "tabular/row_batch.h"

namespace presto {

/** Per-unit activity counters of one emulated batch. */
struct IspUnitCounters {
    uint64_t p2p_bytes = 0;          ///< SSD -> FPGA transfer
    uint64_t decoded_values = 0;     ///< Decoder unit output
    uint64_t bucketize_values = 0;   ///< Generation unit input values
    uint64_t bucketize_levels = 0;   ///< total search levels executed
    uint64_t hash_values = 0;        ///< SigridHash unit values
    uint64_t log_values = 0;         ///< Log unit values
    uint64_t convert_values = 0;     ///< conversion/DMA-out scalars
    uint64_t buffer_swaps = 0;       ///< double-buffer flips observed
    uint32_t feature_units_used = 0; ///< distinct PEs engaged
};

/**
 * Emulates one SmartSSD's FPGA processing a single encoded partition.
 *
 * An emulator instance models one device: it owns its decode and
 * transform buffers (the FPGA's DRAM), which are reused across
 * process() calls so steady-state batches allocate nothing. Not
 * thread-safe; use one instance per device/worker.
 */
class IspEmulator
{
  public:
    /**
     * @param config Workload (selects the transform plan).
     * @param num_feature_units PEs available for inter-feature
     *        parallelism (features are assigned round-robin).
     * @param decode_pool Optional thread pool for page-parallel decode
     *        (models the Decoder unit working on independent pages
     *        concurrently). nullptr keeps decode serial. The pool may
     *        be shared by several emulators and must outlive them.
     */
    explicit IspEmulator(const RmConfig& config, int num_feature_units = 8,
                         ThreadPool* decode_pool = nullptr);

    /**
     * Run the datapath over one encoded PSF partition (as stored on the
     * device's local SSD). Corruption-safe: page CRC32C mismatches,
     * framing damage, and schema/workload disagreements surface as
     * kCorruption so the caller can re-fetch the partition from a
     * replica instead of crashing the device.
     */
    StatusOr<MiniBatch> process(std::span<const uint8_t> encoded_partition);

    /**
     * Buffer-reusing form of process(): writes into @p out, whose
     * tensors are recycled across calls. Identical output and counters.
     */
    Status processInto(std::span<const uint8_t> encoded_partition,
                       MiniBatch& out);

    /** Counters of the most recent process() call. */
    const IspUnitCounters& counters() const { return counters_; }

    const RmConfig& config() const { return config_; }

  private:
    RmConfig config_;
    int num_feature_units_;
    Preprocessor reference_plan_;  ///< owns the compiled standard program
    IspUnitCounters counters_;
    // Device DRAM stand-ins, reused across partitions.
    ColumnarFileReader reader_;
    RowBatch raw_;
    std::vector<char> unit_used_;  ///< per-PE engagement scratch
};

}  // namespace presto

#endif  // PRESTO_CORE_ISP_EMULATOR_H_
