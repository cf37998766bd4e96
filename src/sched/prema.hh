/**
 * @file
 * PREMA (Choi & Rhu, HPCA'20) re-derived for the time-shared setting.
 *
 * Each waiting task accumulates tokens proportionally to its priority
 * and its normalized waiting time (estimated slowdown). At every
 * scheduling point the candidate set is the tasks whose token count
 * reaches the current threshold; the shortest estimated job among the
 * candidates runs next. Following the paper's Sec. 6.1 modification,
 * the criterion is Token_i >= Threshold (not >), so the policy
 * degrades gracefully to SJF at the start when all tokens are zero.
 *
 * Tokens drift with wall-clock time at per-request rates, so the
 * ordering can flip between engine callbacks — a statically keyed
 * heap cannot hold it (see sim/ready_queue.hh). Instead the policy
 * keeps a dense cache of per-request score inputs (isolated and
 * remaining estimates, re-keyed lazily as layers complete), making
 * each decision two tight O(1)-per-candidate passes with no hash or
 * LUT lookups.
 */

#ifndef DYSTA_SCHED_PREMA_HH
#define DYSTA_SCHED_PREMA_HH

#include "sched/scheduler.hh"
#include "sched/slot_table.hh"

namespace dysta {

/** PREMA token-based preemptive policy. */
class PremaScheduler : public Scheduler
{
  public:
    explicit PremaScheduler(const ModelInfoLut& lut)
        : Scheduler(std::make_unique<LutEstimator>(lut))
    {
    }

    std::string name() const override { return "PREMA"; }

    void reset() override;
    void onArrival(const Request& req, double now) override;
    void onLayerComplete(const Request& req, double now,
                         double monitored_sparsity) override;
    void onComplete(const Request& req, double now) override;

    size_t selectNext(const std::vector<const Request*>& ready,
                      double now) override;

    Request* pickNext(const std::vector<Request*>& ready,
                      double now) override;

  private:
    /** Cached score inputs of one queued request. */
    struct Entry
    {
        const Request* req;
        /**
         * All requests share the base priority — the benchmark has
         * no user-assigned priority classes, as in the paper's
         * setup.
         */
        double priority = 1.0;
        double isol = 0.0;      ///< max(estimated isolated, eps)
        double remaining = 0.0; ///< estimated remaining (lazy re-key)
        /**
         * Admission order, the explicit tie-break: completions
         * swap-erase the dense cache (O(1)), so storage order is
         * not admission order and ties must compare seq to match
         * the legacy first-in-queue-order scan.
         */
        int64_t seq = 0;
    };

    std::vector<Entry> order;   ///< dense cache (unordered)
    SlotTable<size_t> position; ///< request -> index in order
    int64_t nextSeq = 0;

    Entry& entryOf(const Request& req);
    double tokenOf(const Entry& e, double now) const;
};

} // namespace dysta

#endif // DYSTA_SCHED_PREMA_HH
