/**
 * @file
 * The policy registry: string specs to constructed policies.
 *
 * Every experiment axis that used to be an if/else ladder — which
 * scheduler, which dispatcher, which estimator, which arrival
 * process — is a named factory here, so scenario files, CLI flags
 * and programmatic callers all construct policies from one compact
 * spec grammar:
 *
 *     name                        e.g.  "Dysta"
 *     name:key=val,key=val        e.g.  "dysta:eta=0.1,beta=0.25"
 *                                       "work-stealing:ratio=4"
 *                                       "mmpp:burst=8,base_dwell=5"
 *
 * Name lookup is case-insensitive ("dysta" == "Dysta"); parameter
 * keys are exact. Unknown names are fatal() errors that list every
 * valid name; unknown or malformed parameters are fatal() errors
 * that list the keys the factory consumed.
 *
 * Extensibility: user code registers additional policies on
 * PolicyRegistry::global() (see examples/custom_scheduler.cpp), and
 * they immediately work everywhere a spec string is accepted —
 * scenario files, SweepCells, the sdysta CLI.
 */

#ifndef DYSTA_API_REGISTRY_HH
#define DYSTA_API_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workload/arrival.hh"
#include "workload/workload.hh"

namespace dysta {

struct BenchContext;
class Scheduler;
class Dispatcher;
class LatencyEstimator;
class FailureProcess;
struct WorkStealingConfig;

/** Parsed "name:key=val,..." spec. */
struct PolicySpec
{
    std::string name;
    /** Parameters in spec order (duplicates rejected at parse). */
    std::vector<std::pair<std::string, std::string>> params;
};

/**
 * Split a spec string at the first ':' and parse the parameter list.
 * fatal() on empty names, empty keys or duplicate keys.
 */
PolicySpec parsePolicySpec(const std::string& spec);

/**
 * Typed accessor over a spec's parameters handed to factories. Each
 * get*() marks its key consumed; after construction the registry
 * rejects any unconsumed key, so a misspelled parameter can never be
 * silently ignored.
 */
class PolicyParams
{
  public:
    explicit PolicyParams(const PolicySpec& spec);

    bool has(const std::string& key) const;

    double getDouble(const std::string& key, double fallback);
    int getInt(const std::string& key, int fallback);
    bool getBool(const std::string& key, bool fallback);
    std::string getString(const std::string& key,
                          const std::string& fallback);

    /** Keys the factory never consumed (spec order). */
    std::vector<std::string> unconsumed() const;

    /** Keys consumed so far — the factory's valid-parameter list. */
    std::vector<std::string> consumed() const;

    /**
     * fatal() naming the first unconsumed key and the consumed ones,
     * prefixed by `grammar` — the check of the sub-spec parsers
     * (batcher, retry, hedge, brown-out).
     */
    void rejectUnconsumed(const std::string& grammar) const;

    /**
     * The raw key/value list in spec order — for factories that
     * defer construction and must rebuild a PolicyParams later
     * (registerArrivalProcess).
     */
    const std::vector<std::pair<std::string, std::string>>&
    raw() const
    {
        return params;
    }

    const std::string& specName() const { return name; }

  private:
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;
    std::vector<bool> used;
    std::vector<std::string> known; ///< consumed keys, lookup order

    const std::string* lookup(const std::string& key);
};

/**
 * Context handed to dispatcher factories. `stealBase` is the
 * programmatic WorkStealingConfig the caller provided (defaults when
 * none); spec parameters override its fields.
 */
struct DispatcherArgs
{
    const BenchContext& ctx;
    const WorkStealingConfig& stealBase;
};

/** Factory signatures. */
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(
    const BenchContext&, WorkloadKind, PolicyParams&)>;
using DispatcherFactory = std::function<std::unique_ptr<Dispatcher>(
    const DispatcherArgs&, PolicyParams&)>;
using EstimatorFactory =
    std::function<std::unique_ptr<LatencyEstimator>(const BenchContext&,
                                                    PolicyParams&)>;
/** Arrival factories fill an ArrivalConfig from the spec params. */
using ArrivalFactory = std::function<ArrivalConfig(PolicyParams&)>;
/**
 * User arrival-process factory (registerArrivalProcess): constructs
 * the ArrivalProcess itself from the workload's base rate and the
 * spec parameters, giving user processes the same factory parity as
 * custom schedulers and dispatchers. Invoked once per generated
 * workload; must be pure construction (thread-safe under sweeps).
 */
using ArrivalProcessFactory =
    std::function<std::unique_ptr<ArrivalProcess>(double rate,
                                                  PolicyParams&)>;
/**
 * Failure-process factory (chaos engine): pure construction from
 * spec parameters — the process is armed per run via reset(), so one
 * spec can serve many sweep cells (each cell constructs its own
 * instance; construction must be thread-safe).
 */
using FailureFactory =
    std::function<std::unique_ptr<FailureProcess>(PolicyParams&)>;

/** One registry row (for --list-policies and the README table). */
struct PolicyInfo
{
    std::string name;
    std::string params; ///< "eta, beta, ..." or "" for none
    std::string description;
};

/** Registry of constructible policies, keyed case-insensitively. */
class PolicyRegistry
{
  public:
    /** A registry preloaded with every built-in policy. */
    PolicyRegistry();

    /**
     * The process-wide registry all spec strings resolve through.
     * Register custom policies here before running scenarios;
     * registration is not thread-safe and must happen before any
     * concurrent sweep starts.
     */
    static PolicyRegistry& global();

    // --- registration ------------------------------------------------
    /**
     * fatal() on duplicate names (case-insensitive). `params` is the
     * human-readable parameter list for the policy tables ("" for
     * parameterless policies).
     */
    void registerScheduler(const std::string& name,
                           const std::string& params,
                           const std::string& description,
                           SchedulerFactory factory);
    void registerDispatcher(const std::string& name,
                            const std::string& params,
                            const std::string& description,
                            DispatcherFactory factory);
    void registerEstimator(const std::string& name,
                           const std::string& params,
                           const std::string& description,
                           EstimatorFactory factory);
    void registerArrival(const std::string& name,
                         const std::string& params,
                         const std::string& description,
                         ArrivalFactory factory);
    /**
     * Register a user ArrivalProcess constructible from spec strings
     * ("myprocess:key=val") everywhere arrivals are specified —
     * scenario files, WorkloadConfigs, the sdysta CLI. The factory
     * is probe-invoked once at spec-parse time (rate 1.0) to
     * validate its parameters eagerly; real construction happens per
     * generated workload with that workload's base rate.
     */
    void registerArrivalProcess(const std::string& name,
                                const std::string& params,
                                const std::string& description,
                                ArrivalProcessFactory factory);
    void registerFailureProcess(const std::string& name,
                                const std::string& params,
                                const std::string& description,
                                FailureFactory factory);

    // --- construction ------------------------------------------------
    /**
     * Construct from a spec string. fatal() on unknown names (the
     * error lists all valid names) and on unknown/malformed
     * parameters.
     */
    std::unique_ptr<Scheduler>
    makeScheduler(const std::string& spec, const BenchContext& ctx,
                  WorkloadKind kind = WorkloadKind::MultiAttNN) const;

    std::unique_ptr<Dispatcher>
    makeDispatcher(const std::string& spec,
                   const BenchContext& ctx) const;

    /**
     * Like makeDispatcher, but with a caller-provided base
     * WorkStealingConfig that spec parameters override — the
     * programmatic ClusterRunConfig::stealing path.
     */
    std::unique_ptr<Dispatcher>
    makeDispatcher(const std::string& spec, const BenchContext& ctx,
                   const WorkStealingConfig& steal_base) const;

    std::unique_ptr<LatencyEstimator>
    makeEstimator(const std::string& spec,
                  const BenchContext& ctx) const;

    /** Parse an arrival spec ("poisson", "mmpp:burst=8", ...). */
    ArrivalConfig makeArrival(const std::string& spec) const;

    /** Construct a fault injector ("mtbf:up=exp@3600,down=exp@60"). */
    std::unique_ptr<FailureProcess>
    makeFailureProcess(const std::string& spec) const;

    // --- introspection -----------------------------------------------
    bool hasScheduler(const std::string& name) const;

    /**
     * Validate just the policy *name* of a spec — fatal(), listing
     * the valid names, when it is not registered. Used to reject a
     * bad scenario before the (expensive) Phase-1 profile runs;
     * parameters are still validated at construction.
     */
    void requireScheduler(const std::string& spec) const;
    void requireDispatcher(const std::string& spec) const;
    void requireEstimator(const std::string& spec) const;

    /** Canonical names, registration order. */
    std::vector<std::string> schedulerNames() const;
    std::vector<std::string> dispatcherNames() const;

    /** Rows for --list-policies, grouped kind by kind. */
    std::vector<PolicyInfo> schedulerTable() const;
    std::vector<PolicyInfo> dispatcherTable() const;
    std::vector<PolicyInfo> estimatorTable() const;
    std::vector<PolicyInfo> arrivalTable() const;
    std::vector<PolicyInfo> failureProcessTable() const;

  private:
    template <typename Factory> struct Entry
    {
        std::string name; ///< canonical capitalization
        std::string params;
        std::string description;
        Factory factory;
    };

    std::vector<Entry<SchedulerFactory>> schedulers;
    std::vector<Entry<DispatcherFactory>> dispatchers;
    std::vector<Entry<EstimatorFactory>> estimators;
    std::vector<Entry<ArrivalFactory>> arrivals;
    std::vector<Entry<FailureFactory>> failures;

    void registerBuiltins();
};

} // namespace dysta

#endif // DYSTA_API_REGISTRY_HH
