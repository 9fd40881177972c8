/**
 * @file
 * Per-worker handle for the preprocessing hot path.
 *
 * Every worker loop owns one BatchArena and passes it to each
 * Transform call (Preprocessor::preprocessInto, CompiledProgram::run).
 * The fused op-chain VM needs no per-batch scratch: values stream
 * register-to-register into the MiniBatch, and its hoisted per-op
 * constants live in per-thread scratch (ops/opvm_internal.h). So the
 * arena only counts the batches served through it.
 *
 * Thread safety: an arena belongs to one worker.
 */
#ifndef PRESTO_COMMON_BATCH_ARENA_H_
#define PRESTO_COMMON_BATCH_ARENA_H_

#include <cstddef>

namespace presto {

class BatchArena
{
  public:
    BatchArena() = default;
    BatchArena(const BatchArena&) = delete;
    BatchArena& operator=(const BatchArena&) = delete;

    /** Account one batch completed. */
    void noteBatch() { ++batches_; }

    /** Batches served (noteBatch calls). */
    size_t batches() const { return batches_; }

  private:
    size_t batches_ = 0;
};

}  // namespace presto

#endif  // PRESTO_COMMON_BATCH_ARENA_H_
