/**
 * @file
 * Strict text <-> number conversions shared by every input grammar
 * (ArgParser flags, scenario files, policy-spec parameters).
 *
 * "Strict" means the whole token must convert: trailing junk,
 * overflow (ERANGE / out of int range) and — for the unsigned
 * variant — any sign character all fail. Each grammar formats its
 * own error message; these helpers only decide validity, so the
 * accepted number syntax cannot drift between grammars.
 */

#ifndef DYSTA_UTIL_PARSE_HH
#define DYSTA_UTIL_PARSE_HH

#include <cstdint>
#include <string>

namespace dysta {

/** Whole-token int in [INT_MIN, INT_MAX]; false on any defect. */
bool tryParseInt(const std::string& text, int& out);

/** Whole-token finite-or-inf/nan double; false on any defect. */
bool tryParseDouble(const std::string& text, double& out);

/** Whole-token unsigned 64-bit value; signs are rejected. */
bool tryParseU64(const std::string& text, uint64_t& out);

/** kBoolSpellings — one token set for every grammar. */
bool tryParseBool(const std::string& text, bool& out);

/** The tokens tryParseBool() accepts, as error messages name them. */
inline constexpr const char* kBoolSpellings = "0/1/true/false/yes/no/on/off";

/**
 * Shortest decimal form of `v` that strtod parses back bit-exactly;
 * integral values in range print plain ("30", not "3e+01"). The
 * serialization convention of scenario files and flag defaults.
 */
std::string shortestDouble(double v);

} // namespace dysta

#endif // DYSTA_UTIL_PARSE_HH
