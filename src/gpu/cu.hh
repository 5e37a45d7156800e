/**
 * @file
 * Compute-unit model: a set of wavefronts each executing its
 * workload stream in order — compute for N cycles, then a coalesced
 * 64B memory op through the CU's L1 and the shared L2. Wavefronts
 * are independent (latency hiding comes from their concurrency, as
 * on a real CU); a blocked wavefront costs nothing to its siblings.
 */

#ifndef KILLI_GPU_CU_HH
#define KILLI_GPU_CU_HH

#include <functional>

#include "cache/l1cache.hh"
#include "cache/l2cache.hh"
#include "gpu/workload.hh"
#include "sim/event_queue.hh"

namespace killi
{

class ComputeUnit
{
  public:
    /**
     * @param on_wf_done invoked once per wavefront completion (the
     *        GpuSystem counts down to end-of-kernel)
     */
    ComputeUnit(unsigned cu_id, EventQueue &eq, L1Cache &l1,
                L2Cache &l2, const Workload &workload,
                Cycle l1_latency, std::function<void()> on_wf_done);

    /** Launch all wavefronts at the current tick. */
    void start();

    /** Instructions retired so far (compute + memory). */
    std::uint64_t instructions() const { return instrCount; }

  private:
    void step(unsigned wf, std::uint64_t idx);

    unsigned cuId;
    EventQueue &eq;
    L1Cache &l1;
    L2Cache &l2;
    const Workload &workload;
    Cycle l1Latency;
    std::function<void()> onWfDone;
    std::uint64_t instrCount = 0;
};

} // namespace killi

#endif // KILLI_GPU_CU_HH
