#include "hw/compute_unit.hh"

#include <algorithm>
#include <cmath>

namespace dysta {

ComputeUnit::ComputeUnit(HwPrecision precision)
    : prec(precision)
{
}

double
ComputeUnit::emit(double v)
{
    ++cycles;
    ++ops;
    return quantize(v);
}

CuResult
ComputeUnit::sparsityCoeff(uint64_t num_zeros, uint64_t shape,
                           double recip_avg_density)
{
    // nnz = shape - num_zeros: integer subtract in the monitor.
    uint64_t nnz = shape - std::min(num_zeros, shape);
    ++cycles;

    // The layer-shape division folds into a multiplication by a
    // pre-computed reciprocal (Sec. 5.2.2). Zero counts exceed the
    // FP16 dynamic range, so this multiply runs in the monitor's
    // integer domain against a Q0.32 fixed-point reciprocal; only
    // the resulting fraction enters the floating datapath.
    double recip_q032 =
        std::floor(4294967296.0 / static_cast<double>(shape) + 0.5) /
        4294967296.0;
    double density =
        quantize(static_cast<double>(nnz) * recip_q032);
    ++cycles;
    ++ops;

    double gamma = emit(density * quantize(recip_avg_density));
    return {gamma, 3};
}

CuResult
ComputeUnit::score(double gamma, double avg_remaining,
                   double ddl_minus_now, double wait,
                   double recip_isolation, double recip_queue,
                   double eta, double slack_floor, double slack_cap,
                   double penalty_cap)
{
    float value = scoreQuantized(
        quantize(gamma), quantize(avg_remaining), ddl_minus_now, wait,
        quantize(recip_isolation), quantize(recip_queue), quantize(eta),
        quantize(slack_floor), quantize(slack_cap),
        quantize(penalty_cap));
    return {value, 9};
}

void
ComputeUnit::resetCounters()
{
    cycles = 0;
    ops = 0;
}

} // namespace dysta
