/**
 * @file
 * Unified experiment reporting.
 *
 * Every bench binary used to hand-roll its BENCH_*.json with fprintf
 * string concatenation and its own ad-hoc ASCII tables. Reporter is
 * the one place experiment output is assembled:
 *
 *  - scalar headline fields ("deterministic": true, speedups, ...),
 *  - any number of executed scenarios (spec + averaged result rows),
 *  - run metadata (jobs, wall-clock timings, command line) kept in a
 *    separate "meta" object so two reports of the same experiment
 *    can be compared modulo metadata (the CI bit-identity check).
 *
 * JSON goes through util/json.hh, so scenario names, fleet specs and
 * policy parameters are escaped correctly no matter what they
 * contain. printScenarioTable() renders the long-format result
 * table of one scenario: one row per averaged grid point, with the columns
 * of single-valued axes elided. writeCsv() writes the same rows in
 * long format for spreadsheet/pandas consumption, estimator-probe
 * columns flattened to est_<name>_bias / est_<name>_rmse.
 */

#ifndef DYSTA_API_REPORT_HH
#define DYSTA_API_REPORT_HH

#include <string>
#include <vector>

#include "api/scenario.hh"

namespace dysta {

/** Collects one experiment's output; writes JSON and ASCII tables. */
class Reporter
{
  public:
    /** @param tool report producer, e.g. "sdysta" or a bench name */
    explicit Reporter(std::string tool);

    // --- run metadata (excluded from result comparisons) -------------
    void meta(const std::string& key, const std::string& value);
    void meta(const std::string& key, int value);
    void meta(const std::string& key, double value);

    // --- headline scalars --------------------------------------------
    void scalar(const std::string& key, double value);
    void scalar(const std::string& key, int64_t value);
    void scalar(const std::string& key, bool value);
    void scalar(const std::string& key, const std::string& value);

    // --- scenario results --------------------------------------------
    void add(const ScenarioResult& result);

    const std::vector<ScenarioResult>& scenarios() const
    {
        return runs;
    }

    /** The full report document. */
    std::string json() const;

    /** Write json() to `path`; fatal() on I/O errors. */
    void writeJson(const std::string& path) const;

    /**
     * Write every scenario's rows as one long-format CSV: scenario
     * and axis columns, all Metrics fields, and one bias/rmse column
     * pair per estimator probe. fatal() on I/O errors.
     */
    void writeCsv(const std::string& path) const;


  private:
    struct Value
    {
        enum class Kind : int { Str, Num, Int, Bool } kind;
        std::string str;
        double num = 0.0;
        int64_t integer = 0;
        bool boolean = false;
    };

    std::string tool;
    std::vector<std::pair<std::string, Value>> metaFields;
    std::vector<std::pair<std::string, Value>> scalars;
    std::vector<ScenarioResult> runs;
};

/** Print one scenario's long-format result table. */
void printScenarioTable(const ScenarioResult& result);

class Telemetry;

/**
 * Print the telemetry summary of one recorded run: event totals,
 * the per-node utilization/queue table, and per-probe estimator
 * accuracy.
 * @param node_names one display name per node ("node<i>" fallback)
 * @param makespan   run length used for utilization (runEnd() when 0)
 */
void printTelemetrySummary(const Telemetry& telemetry,
                           const std::vector<std::string>& node_names,
                           double makespan = 0.0);

} // namespace dysta

#endif // DYSTA_API_REPORT_HH
