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
 */

#ifndef DYSTA_HW_HW_SCHEDULER_HH
#define DYSTA_HW_HW_SCHEDULER_HH

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
    /** Static-score weight beta (software level). */
    double beta = 0.5;
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
        const ModelInfo* info = nullptr;
        /** Reciprocal average isolated latency (penalty term). */
        double recipIsolation = 0.0;
        /** Per-layer reciprocal average density (coefficient mode). */
        std::vector<double> recipAvgDensity;
        /** Per-layer monitored-output shapes (zero-count divisor). */
        std::vector<uint64_t> shape;
    };

    /** Per-resident-request hardware state. */
    struct HwRequestState
    {
        double gamma = 1.0;
        double staticScore = 0.0;
        /** In the request FIFO (false: host-side overflow queue). */
        bool resident = false;
    };

    HwSchedulerConfig cfg;
    const ModelInfoLut* swLut;
    ComputeUnit cu;
    HwLut<LutEntry> modelLut;
    Fifo<int> tagFifo;
    SlotTable<HwRequestState> state;
    std::vector<const Request*> hostQueue; ///< arrival-ordered overflow

    uint64_t schedCycles = 0;
    uint64_t decisionCount = 0;

    void backfill();
};

} // namespace dysta

#endif // DYSTA_HW_HW_SCHEDULER_HH
