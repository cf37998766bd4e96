/**
 * @file
 * Status and error reporting helpers in the gem5 idiom.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for unrecoverable user/configuration errors and
 * exits cleanly; warn()/inform() report non-fatal conditions.
 */

#ifndef DYSTA_UTIL_LOGGING_HH
#define DYSTA_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace dysta {

/**
 * Thrown by fatal() instead of exiting when setFatalThrows(true) is
 * active. Lets the fuzz harnesses (tests/fuzz/) and tooling treat
 * rejected user input as a recoverable outcome while panic() — an
 * internal invariant violation — still aborts.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Route fatal() through a FatalError throw instead of exit(1).
 * Process-wide; intended for fuzz/test drivers only. Returns the
 * previous setting.
 */
bool setFatalThrows(bool enable);

/**
 * "a, b, c" ("(none)" when empty) — the error-message convention for
 * listing valid alternatives next to a rejected input.
 */
std::string joinComma(const std::vector<std::string>& items);

/** Report an internal invariant violation and abort. */
[[noreturn]] void panic(const std::string& msg);

/** Report an unrecoverable user-facing error and exit(1). */
[[noreturn]] void fatal(const std::string& msg);

/** Report a suspicious but survivable condition. */
void warn(const std::string& msg);

/** Report simulation status to the user. */
void inform(const std::string& msg);

/*
 * Message contract of panicIf/fatalIf. The condition is evaluated in
 * every build type; no check is compiled out under NDEBUG. A
 * string-literal message binds to the `const char*` overload and costs
 * nothing until the check fails: the std::string is built inside
 * panic()/fatal() only then. A composed message ("..." + key) is built
 * by the caller before the call, pass or fail, so on a per-event,
 * per-request or per-lookup path write `if (cond) fatal(<message>)`
 * (or panic) instead, with the same text.
 */

/**
 * Assert a condition that must hold regardless of user input.
 * Kept active in release builds because the simulators rely on it for
 * model-consistency checks.
 */
inline void
panicIf(bool cond, const char* msg)
{
    if (cond)
        panic(msg);
}

inline void
panicIf(bool cond, const std::string& msg)
{
    if (cond)
        panic(msg);
}

/** Assert a user-facing precondition (bad configuration etc.). */
inline void
fatalIf(bool cond, const char* msg)
{
    if (cond)
        fatal(msg);
}

inline void
fatalIf(bool cond, const std::string& msg)
{
    if (cond)
        fatal(msg);
}

} // namespace dysta

#endif // DYSTA_UTIL_LOGGING_HH
