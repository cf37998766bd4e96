/**
 * @file
 * Exact digests of simulated cell results, and the committed golden
 * files they are checked against.
 *
 * A digest is a JSON object holding everything a cell simulated — the
 * full Metrics (estimator probes, resilience and batching blocks
 * included), the calendar event count, decisions and preemptions.
 * JsonWriter prints numbers with round-trip precision, so two digests
 * are equal exactly when the simulated results are bit-identical, and
 * diffReports names the first field that drifted.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <string>

#include "exp/sweep.hh"
#include "util/json.hh"

namespace perfbench {

/** Grid coordinates of a sweep cell, e.g. "attnn@30/poisson/FCFS/s42". */
std::string cellLabel(const dysta::SweepCell& cell);

/** Write the digest of one cell into the open object of `w`. */
void writeDigest(dysta::JsonWriter& w, const dysta::SweepCell& cell,
                 const dysta::SweepCellResult& result);

/** The digest of one cell as a parsed JSON object. */
dysta::JsonValue digestCell(const dysta::SweepCell& cell,
                            const dysta::SweepCellResult& result);

/**
 * The first difference between two digests ("field: want vs got"),
 * or "" when they are identical.
 */
std::string firstDifference(const dysta::JsonValue& want,
                            const dysta::JsonValue& got);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
