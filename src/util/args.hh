/**
 * @file
 * Shared command-line parsing for the bench binaries, examples and
 * the sdysta CLI.
 *
 * Every bench main used to scan argv by hand with the argInt /
 * argDouble / argStr helpers, which silently ignored unknown flags —
 * a typo like `--request 50` ran the full-size default workload
 * without a word. ArgParser replaces that: flags are declared once
 * with a default and a help line, `--help` prints a generated usage
 * page, and any flag that was not declared is a hard fatal() error
 * listing the valid flags.
 *
 * Usage:
 *     ArgParser args("bench_chaos", "chaos-engine benchmark");
 *     args.addInt("--requests", 1000, "requests per workload");
 *     args.addJobs();
 *     args.addTraceCache();
 *     args.parse(argc, argv);
 *     int requests = args.getInt("--requests");
 *
 * Values are accepted as "--flag value" or "--flag=value".
 */

#ifndef DYSTA_UTIL_ARGS_HH
#define DYSTA_UTIL_ARGS_HH

#include <string>
#include <vector>

namespace dysta {

/** Declarative argv parser with --help and unknown-flag errors. */
class ArgParser
{
  public:
    ArgParser(std::string prog, std::string summary);

    // --- declaration -------------------------------------------------
    void addInt(const std::string& flag, int fallback,
                const std::string& help);
    void addDouble(const std::string& flag, double fallback,
                   const std::string& help);
    void addString(const std::string& flag,
                   const std::string& fallback,
                   const std::string& help);
    /** 0/1/true/false-valued flag (takes a value, like the rest). */
    void addBool(const std::string& flag, bool fallback,
                 const std::string& help);
    /** Value-less switch; getBool() is true iff it was supplied. */
    void addSwitch(const std::string& flag, const std::string& help);

    /** The shared `--jobs N` flag (default: hardware concurrency). */
    void addJobs();
    /** The shared `--trace-cache DIR` flag (default: no cache). */
    void addTraceCache();

    /**
     * Declare a positional argument, in declaration order. Optional
     * positionals must come after all required ones.
     */
    void addPositional(const std::string& name,
                       const std::string& help, bool required = true);

    // --- parsing -----------------------------------------------------
    /**
     * Parse argv. `--help`/`-h` prints usage() and exit(0)s;
     * undeclared flags, missing values, malformed numbers and
     * missing required positionals are fatal() errors naming the
     * valid flags.
     */
    void parse(int argc, char** argv);

    // --- access (after parse) ----------------------------------------
    int getInt(const std::string& flag) const;
    double getDouble(const std::string& flag) const;
    const std::string& getString(const std::string& flag) const;
    bool getBool(const std::string& flag) const;

    /** Whether the user supplied the flag (vs the default). */
    bool given(const std::string& flag) const;

    /** Positional value by name ("" when an optional one is absent). */
    const std::string& positional(const std::string& name) const;

    /** The generated --help text. */
    std::string usage() const;

  private:
    enum class Kind : int { Int, Double, String, Bool, Switch };

    struct Flag
    {
        std::string name;
        Kind kind = Kind::String;
        std::string help;
        std::string value;   ///< current value, textual
        std::string fallback;
        bool supplied = false;
    };

    struct Positional
    {
        std::string name;
        std::string help;
        bool required = true;
        std::string value;
        bool supplied = false;
    };

    std::string prog;
    std::string summary;
    std::vector<Flag> flags;
    std::vector<Positional> positionals;

    void declare(const std::string& flag, Kind kind,
                 const std::string& fallback,
                 const std::string& help);
    const Flag& find(const std::string& flag, Kind kind) const;
    [[noreturn]] void unknownFlag(const std::string& flag) const;
};

} // namespace dysta

#endif // DYSTA_UTIL_ARGS_HH
