/**
 * @file
 * The reconfigurable compute unit of the Dysta hardware scheduler
 * (Sec. 5.2.2, Fig. 11). One shared datapath of two adders, two
 * subtractors and three multipliers is multiplexed between two
 * dataflows:
 *
 *  (a) sparsity-coefficient mode: gamma from the zero count, the
 *      pre-computed reciprocal of the layer shape, and the cached
 *      reciprocal of the profile-average density (divisions folded
 *      into multiplications, per the paper's optimization);
 *  (b) score mode: score = remain + eta * (slack + penalty), with the
 *      normalized-isolation and queue-size divisions likewise folded
 *      into reciprocal multiplications.
 *
 * All arithmetic is performed in the configured precision (FP16 in
 * the optimized design); cycle counts model a pipelined unit with
 * initiation interval 1 and one cycle per arithmetic stage.
 *
 * Score mode has one datapath, scoreQuantized(). Its constant
 * operands arrive already rounded into the datapath precision, as
 * they sit in hardware: eta, the slack floor and the penalty cap in
 * registers, 1/|Q| latched once per decision, and gamma, the
 * remaining-latency column, 1/T_isol and the slack cap in the LUTs
 * and FIFO tags (see DystaHwScheduler). Only the live time deltas
 * ddl - now and the waiting time are rounded on entry. score() takes
 * raw operands: it rounds every one and calls the same datapath.
 */

#ifndef DYSTA_HW_COMPUTE_UNIT_HH
#define DYSTA_HW_COMPUTE_UNIT_HH

#include <algorithm>
#include <cstdint>

#include "util/fp16.hh"

namespace dysta {

/** Arithmetic precision of the scheduler datapath. */
enum class HwPrecision
{
    FP32,
    FP16,
};

/** Result of one compute-unit invocation. */
struct CuResult
{
    double value = 0.0;
    uint64_t cycles = 0;
};

/** Shared reconfigurable compute unit. */
class ComputeUnit
{
  public:
    explicit ComputeUnit(HwPrecision precision = HwPrecision::FP16);

    HwPrecision precision() const { return prec; }

    /**
     * Round a value into the datapath precision, as writing it to a
     * register or LUT word does. Idempotent, so a value rounded once
     * may be fed to scoreQuantized() any number of times.
     */
    float
    quantize(float v) const
    {
        return prec == HwPrecision::FP16 ? roundToHalf(v) : v;
    }

    /** As above for a binary64 input, which enters through binary32. */
    float quantize(double v) const { return quantize(static_cast<float>(v)); }

    /**
     * Mode (a): sparsity coefficient.
     * density   = (shape - num_zeros) * recip_shape
     * gamma     = density * recip_avg_density
     */
    CuResult sparsityCoeff(uint64_t num_zeros, uint64_t shape,
                           double recip_avg_density);

    /**
     * Mode (b): request score.
     * remain  = gamma * avg_remaining
     * slack   = clamp(ddl_minus_now - remain, slack_floor, slack_cap)
     *           (the time difference is formed on the controller's
     *           integer cycle counter; the clamps are comparators)
     * penalty = min(wait * recip_isolation, penalty_cap) * recip_queue
     * score   = remain + eta * (slack + penalty)
     *
     * Rounds every operand, then runs scoreQuantized().
     */
    CuResult score(double gamma, double avg_remaining,
                   double ddl_minus_now, double wait,
                   double recip_isolation, double recip_queue,
                   double eta, double slack_floor, double slack_cap,
                   double penalty_cap);

    /**
     * Mode (b) on pre-rounded operands: the score datapath itself.
     * Every operand except `ddl_minus_now` and `wait` must already
     * be quantize()d; each of the seven arithmetic results is rounded
     * in issue order. Charges 9 cycles (7 ops plus the two clamp
     * comparators) and returns the score.
     *
     * The ops run in binary32, which is exact to the binary64 form
     * of the same chain: binary64 keeps more than 2 x 24 + 2 bits, so
     * rounding a binary64 sum or product of two binary32 values to
     * binary32 gives the binary32 op's own result.
     */
    float
    scoreQuantized(float gamma, float avg_remaining,
                   double ddl_minus_now, double wait,
                   float recip_isolation, float recip_queue, float eta,
                   float slack_floor, float slack_cap, float penalty_cap)
    {
        float rem = quantize(gamma * avg_remaining);
        float slack = quantize(quantize(ddl_minus_now) - rem);
        slack = std::clamp(slack, slack_floor, slack_cap);
        float norm_wait = quantize(quantize(wait) * recip_isolation);
        norm_wait = std::min(norm_wait, penalty_cap);
        float penalty = quantize(norm_wait * recip_queue);
        float urgency = quantize(slack + penalty);
        float weighted = quantize(eta * urgency);
        cycles += 9;
        ops += 7;
        return quantize(rem + weighted);
    }

    /** Total cycles spent since construction/reset. */
    uint64_t totalCycles() const { return cycles; }
    /** Total arithmetic operations issued. */
    uint64_t totalOps() const { return ops; }

    void resetCounters();

  private:
    HwPrecision prec;
    uint64_t cycles = 0;
    uint64_t ops = 0;

    /** Issue one arithmetic op (cycle + counter bookkeeping). */
    double emit(double v);
};

} // namespace dysta

#endif // DYSTA_HW_COMPUTE_UNIT_HH
