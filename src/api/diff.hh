/**
 * @file
 * Report comparison modulo metadata (`sdysta --diff a.json b.json`).
 *
 * Two runs of the same experiment should produce bit-identical
 * reports — the determinism guarantee CI leans on — except for the
 * "meta" section, which deliberately carries run-specific context
 * (command line, jobs, wall-clock phase timings).
 * diffReports() walks two parsed report documents, skips the
 * top-level "meta" object, and records every divergence as a
 * readable path-labelled line ("scenarios[0].rows[3].antt: 1.25 vs
 * 1.5"), so a regression points at the exact grid cell and metric
 * that moved.
 */

#ifndef DYSTA_API_DIFF_HH
#define DYSTA_API_DIFF_HH

#include <string>
#include <vector>

#include "util/json.hh"

namespace dysta {

/** Outcome of comparing two report documents. */
struct ReportDiff
{
    /** Path-labelled divergences, in document order. */
    std::vector<std::string> differences;

    bool identical() const { return differences.empty(); }
};

/**
 * Compare two parsed reports modulo the top-level "meta" object.
 * Scalars compare exactly (numbers by value, so 1 == 1.0); object
 * members compare by key including order, because the Reporter
 * always emits a fixed order and a reordering would signal a schema
 * change worth flagging.
 */
ReportDiff diffReports(const JsonValue& a, const JsonValue& b);

/**
 * Load, compare and print the delta between two report files.
 * @return process exit code: 0 when identical modulo metadata,
 *         1 when the reports differ
 */
int runReportDiff(const std::string& path_a,
                  const std::string& path_b);

} // namespace dysta

#endif // DYSTA_API_DIFF_HH
