/**
 * @file
 * Cycle-approximate model of the Dysta hardware scheduler block
 * (Sec. 5.2, Fig. 10): bounded request FIFOs, model-information LUTs,
 * the shared reconfigurable compute unit in FP16/FP32, and the
 * zero-count monitor interface.
 *
 * Functionally it mirrors the software DystaScheduler's dynamic level
 * — the unit tests check decision agreement — but every estimate runs
 * through the quantized datapath and every decision is charged
 * cycles, so the scheduling overhead of Table 6 can be measured
 * rather than assumed. When more requests are in flight than the
 * FIFO depth, the excess waits in a host-side queue and is
 * back-filled in arrival order as slots retire, which is how the
 * paper sizes the FIFOs against the accelerator's capacity.
 *
 * What lives pre-rounded into the datapath precision, as in the RTL:
 *  - the LUTs, written once at construction: per model-pattern pair,
 *    1/T_isol, the slack cap (slackCapFactor x T_isol) and the
 *    remaining-latency column estRemaining(l) for l = 0..layers
 *    (Fig. 10's latency LUT);
 *  - the FIFO tag of each request: its gamma (a compute-unit output)
 *    and its LUT address;
 *  - registers: eta, the slack floor, the penalty cap, and 1/|Q|
 *    latched once per decision.
 * A decision therefore reads no LUT per candidate: it walks the ready
 * set and feeds each resident request's tag, its two live time deltas
 * and the registers to ComputeUnit::scoreQuantized().
 */

#ifndef DYSTA_HW_HW_SCHEDULER_HH
#define DYSTA_HW_HW_SCHEDULER_HH

#include <deque>

#include "hw/compute_unit.hh"
#include "hw/fifo.hh"
#include "hw/lut.hh"
#include "sched/scheduler.hh"
#include "sched/slot_table.hh"

namespace dysta {

/** Hardware-scheduler build parameters. */
struct HwSchedulerConfig
{
    /** Request FIFO depth (Table 6 instantiates 64). */
    size_t fifoDepth = 64;
    /** Datapath precision (optimized design: FP16). */
    HwPrecision precision = HwPrecision::FP16;
    /** Scheduler clock (paper: 200 MHz). */
    double clockHz = 200e6;
    /** Dynamic-score weight eta (as in DystaConfig). */
    double eta = 0.05;
    /** Slack clamp floor (comparator in the score datapath). */
    double slackFloor = 0.0;
    /** Slack cap in units of estimated isolated latency. */
    double slackCapFactor = 10.0;
    /** Cap on the normalized waiting time in the penalty term. */
    double penaltyCap = 2.0;
    /** Model-pattern LUT capacity. */
    size_t lutCapacity = 32;
};

/** Hardware implementation of Dysta's dynamic level. */
class DystaHwScheduler : public Scheduler
{
  public:
    /**
     * @param lut    offline model information (software level output)
     * @param models architectures, for the shape LUT entries
     */
    DystaHwScheduler(const ModelInfoLut& lut,
                     const std::vector<ModelDesc>& models,
                     HwSchedulerConfig config = {});

    std::string name() const override { return "Dysta-HW"; }

    void reset() override;
    void onArrival(const Request& req, double now) override;
    void onLayerComplete(const Request& req, double now,
                         double monitored_sparsity) override;
    void onComplete(const Request& req, double now) override;
    size_t selectNext(const std::vector<const Request*>& ready,
                      double now) override;
    /** selectNext over the engine's ready set, without a view copy. */
    Request* pickNext(const std::vector<Request*>& ready,
                      double now) override;

    /** Cycles spent in the compute unit plus scan logic so far. */
    uint64_t totalCycles() const { return schedCycles; }
    /** Scheduler invocations so far. */
    uint64_t decisions() const { return decisionCount; }
    /** Mean decision latency in cycles. */
    double avgDecisionCycles() const;
    /** Mean decision latency in seconds at the configured clock. */
    double avgDecisionSeconds() const;
    /** Peak occupancy seen by the request FIFO. */
    size_t fifoPeakOccupancy() const { return tagFifo.peakOccupancy(); }

  private:
    /** Per model-pattern entry cached in the hardware LUTs. */
    struct LutEntry
    {
        /** Reciprocal average isolated latency (penalty term), rounded. */
        float recipIsolation = 0.0f;
        /** Slack cap, slackCapFactor x average latency, rounded. */
        float slackCap = 0.0f;
        /**
         * Rounded average latency still ahead when the next layer is
         * l, for l in 0..layers (the last word is 0).
         */
        std::vector<float> remaining;
        /** Per-layer reciprocal average density (coefficient mode). */
        std::vector<double> recipAvgDensity;
        /** Per-layer monitored-output shapes (zero-count divisor). */
        std::vector<uint64_t> shape;
    };

    /** Per-request hardware state: the request's FIFO tag. */
    struct HwRequestState
    {
        /** Sparsity coefficient, a compute-unit output (so rounded). */
        float gamma = 1.0f;
        /** LUT entry of the request's model-pattern pair. */
        const LutEntry* entry = nullptr;
        /** In the request FIFO (false: host-side overflow queue). */
        bool resident = false;
        /** Host-queue position (hostPopped-based) while not resident. */
        size_t hostTicket = 0;
    };

    HwSchedulerConfig cfg;
    const ModelInfoLut* swLut;
    ComputeUnit cu;
    HwLut<LutEntry> modelLut;
    Fifo<int> tagFifo;
    SlotTable<HwRequestState> state;
    /**
     * Arrival-ordered overflow. A request that leaves before it is
     * back-filled leaves a nullptr behind, found through its ticket.
     */
    std::deque<const Request*> hostQueue;
    /** Entries ever popped off the host queue's front. */
    size_t hostPopped = 0;

    /** Score-mode registers, rounded once at construction. */
    float etaReg, slackFloorReg, penaltyCapReg;

    uint64_t schedCycles = 0;
    uint64_t decisionCount = 0;

    void backfill();

    /** The decision: first minimum score over resident candidates. */
    template <typename RequestPtr>
    size_t pick(const std::vector<RequestPtr>& ready, double now);
};

} // namespace dysta

#endif // DYSTA_HW_HW_SCHEDULER_HH
