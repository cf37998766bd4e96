#include "api/diff.hh"

#include <cstdio>

#include "util/logging.hh"

namespace dysta {

namespace {

/** Short value rendering for difference lines. */
std::string
describe(const JsonValue& v)
{
    switch (v.kind) {
    case JsonValue::Kind::Null:
        return "null";
    case JsonValue::Kind::Bool:
        return v.boolean ? "true" : "false";
    case JsonValue::Kind::Number:
        return jsonNumber(v.number);
    case JsonValue::Kind::String:
        return "\"" + v.str + "\"";
    case JsonValue::Kind::Array:
        return "array[" + std::to_string(v.items.size()) + "]";
    case JsonValue::Kind::Object:
        return "object{" + std::to_string(v.members.size()) + "}";
    }
    return "?";
}

void
diffValues(const JsonValue& a, const JsonValue& b,
           const std::string& path, ReportDiff& out)
{
    if (a.kind != b.kind) {
        out.differences.push_back(path + ": " + toString(a.kind) +
                                  " vs " + toString(b.kind));
        return;
    }
    switch (a.kind) {
    case JsonValue::Kind::Null:
        return;
    case JsonValue::Kind::Bool:
    case JsonValue::Kind::Number:
    case JsonValue::Kind::String:
        if (a.boolean != b.boolean || a.number != b.number ||
            a.str != b.str)
            out.differences.push_back(path + ": " + describe(a) +
                                      " vs " + describe(b));
        return;
    case JsonValue::Kind::Array: {
        if (a.items.size() != b.items.size()) {
            out.differences.push_back(
                path + ": " + std::to_string(a.items.size()) +
                " vs " + std::to_string(b.items.size()) +
                " elements");
            return;
        }
        for (size_t i = 0; i < a.items.size(); ++i)
            diffValues(a.items[i], b.items[i],
                       path + "[" + std::to_string(i) + "]", out);
        return;
    }
    case JsonValue::Kind::Object: {
        if (a.members.size() != b.members.size()) {
            out.differences.push_back(
                path + ": " + std::to_string(a.members.size()) +
                " vs " + std::to_string(b.members.size()) +
                " members");
            return;
        }
        for (size_t i = 0; i < a.members.size(); ++i) {
            const auto& [ka, va] = a.members[i];
            const auto& [kb, vb] = b.members[i];
            std::string child =
                path.empty() ? ka : path + "." + ka;
            if (ka != kb) {
                out.differences.push_back(child + ": member \"" +
                                          ka + "\" vs \"" + kb +
                                          "\"");
                continue;
            }
            diffValues(va, vb, child, out);
        }
        return;
    }
    }
}

/**
 * Copy of `doc` with the provenance members dropped: the top-level
 * "meta" object and each scenario's serialized "spec". The diff
 * compares *results*; two runs that produced identical rows compare
 * equal even when their specs differ in execution-model knobs
 * (streaming on/off, metrics kind, CLI overrides).
 */
JsonValue
stripMeta(const JsonValue& doc)
{
    if (!doc.isObject())
        return doc;
    JsonValue out = doc;
    out.members.clear();
    for (const auto& [key, value] : doc.members) {
        if (key == "meta")
            continue;
        if (key == "scenarios" && value.kind ==
                                      JsonValue::Kind::Array) {
            JsonValue scenarios = value;
            for (JsonValue& scenario : scenarios.items) {
                if (!scenario.isObject())
                    continue;
                JsonValue stripped = scenario;
                stripped.members.clear();
                for (const auto& [k, v] : scenario.members)
                    if (k != "spec")
                        stripped.members.emplace_back(k, v);
                scenario = std::move(stripped);
            }
            out.members.emplace_back(key, std::move(scenarios));
            continue;
        }
        out.members.emplace_back(key, value);
    }
    return out;
}

} // namespace

ReportDiff
diffReports(const JsonValue& a, const JsonValue& b)
{
    ReportDiff out;
    diffValues(stripMeta(a), stripMeta(b), "", out);
    return out;
}

int
runReportDiff(const std::string& path_a, const std::string& path_b)
{
    JsonValue a = parseJsonFile(path_a);
    JsonValue b = parseJsonFile(path_b);
    ReportDiff diff = diffReports(a, b);
    if (diff.identical()) {
        // detlint-allow(stdout-print): the --diff verdict is the
        // sdysta CLI's primary output for this subcommand
        std::printf("reports identical modulo metadata (%s, %s)\n",
                    path_a.c_str(), path_b.c_str());
        return 0;
    }
    // detlint-allow(stdout-print): --diff verdict, see above
    std::printf("%zu difference%s between %s and %s:\n",
                diff.differences.size(),
                diff.differences.size() == 1 ? "" : "s",
                path_a.c_str(), path_b.c_str());
    for (const std::string& line : diff.differences)
        std::printf("  %s\n", line.c_str()); // detlint-allow(stdout-print): --diff verdict, see above
    return 1;
}

} // namespace dysta
