#include "util/args.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"
#include "util/parse.hh"
#include "util/thread_pool.hh"

namespace dysta {

namespace {

bool
looksLikeFlag(const std::string& arg)
{
    return arg.size() >= 3 && arg[0] == '-' && arg[1] == '-';
}

int
parseIntValue(const std::string& flag, const std::string& text)
{
    int v = 0;
    fatalIf(!tryParseInt(text, v),
            "ArgParser: " + flag + " expects an integer, got '" +
                text + "'");
    return v;
}

double
parseDoubleValue(const std::string& flag, const std::string& text)
{
    double v = 0.0;
    fatalIf(!tryParseDouble(text, v),
            "ArgParser: " + flag + " expects a number, got '" + text +
                "'");
    return v;
}

bool
parseBoolValue(const std::string& flag, const std::string& text)
{
    bool v = false;
    fatalIf(!tryParseBool(text, v),
            "ArgParser: " + flag + " expects " + kBoolSpellings +
                ", got '" + text + "'");
    return v;
}

} // namespace

ArgParser::ArgParser(std::string prog_name, std::string summary_text)
    : prog(std::move(prog_name)), summary(std::move(summary_text))
{
}

void
ArgParser::declare(const std::string& flag, Kind kind,
                   const std::string& fallback, const std::string& help)
{
    fatalIf(!looksLikeFlag(flag),
            "ArgParser: flag '" + flag + "' must start with --");
    for (const Flag& f : flags)
        fatalIf(f.name == flag,
                "ArgParser: duplicate flag '" + flag + "'");
    Flag f;
    f.name = flag;
    f.kind = kind;
    f.help = help;
    f.value = fallback;
    f.fallback = fallback;
    flags.push_back(std::move(f));
}

void
ArgParser::addInt(const std::string& flag, int fallback,
                  const std::string& help)
{
    declare(flag, Kind::Int, std::to_string(fallback), help);
}

void
ArgParser::addDouble(const std::string& flag, double fallback,
                     const std::string& help)
{
    // Exact textual form: the default must survive the text round
    // trip bit-identically, like any user-supplied value.
    declare(flag, Kind::Double, shortestDouble(fallback), help);
}

void
ArgParser::addString(const std::string& flag,
                     const std::string& fallback,
                     const std::string& help)
{
    declare(flag, Kind::String, fallback, help);
}

void
ArgParser::addBool(const std::string& flag, bool fallback,
                   const std::string& help)
{
    declare(flag, Kind::Bool, fallback ? "1" : "0", help);
}

void
ArgParser::addSwitch(const std::string& flag, const std::string& help)
{
    declare(flag, Kind::Switch, "0", help);
}

void
ArgParser::addJobs()
{
    addInt("--jobs",
           static_cast<int>(ThreadPool::defaultConcurrency()),
           "sweep worker threads (1 = serial)");
}

void
ArgParser::addPositional(const std::string& name,
                         const std::string& help, bool required)
{
    fatalIf(required && !positionals.empty() &&
                !positionals.back().required,
            "ArgParser: required positional '" + name +
                "' after an optional one");
    Positional p;
    p.name = name;
    p.help = help;
    p.required = required;
    positionals.push_back(std::move(p));
}

void
ArgParser::unknownFlag(const std::string& flag) const
{
    std::vector<std::string> known;
    for (const Flag& f : flags)
        known.push_back(f.name);
    fatal("ArgParser: " + prog + ": unknown flag '" + flag +
          "'; valid flags: " + joinComma(known) +
          " (--help for usage)");
}

void
ArgParser::parse(int argc, char** argv)
{
    size_t next_positional = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            // detlint-allow(stdout-print): --help text is contractually
            // stdout so `tool --help | less` works
            std::printf("%s", usage().c_str());
            std::exit(0);
        }
        if (!looksLikeFlag(arg)) {
            fatalIf(next_positional >= positionals.size(),
                    "ArgParser: " + prog +
                        ": unexpected argument '" + arg +
                        "' (--help for usage)");
            positionals[next_positional].value = arg;
            positionals[next_positional].supplied = true;
            ++next_positional;
            continue;
        }

        std::string name = arg;
        std::string value;
        bool inline_value = false;
        size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            inline_value = true;
        }

        Flag* flag = nullptr;
        for (Flag& f : flags) {
            if (f.name == name)
                flag = &f;
        }
        if (flag == nullptr)
            unknownFlag(name);

        if (flag->kind == Kind::Switch) {
            fatalIf(inline_value,
                    "ArgParser: " + name + " takes no value");
            value = "1";
        } else if (!inline_value) {
            fatalIf(i + 1 >= argc,
                    "ArgParser: " + name + " expects a value");
            value = argv[++i];
        }
        // Validate eagerly so a malformed value fails at the flag
        // that carries it, not at first use.
        switch (flag->kind) {
          case Kind::Int: parseIntValue(name, value); break;
          case Kind::Double: parseDoubleValue(name, value); break;
          case Kind::Bool: parseBoolValue(name, value); break;
          case Kind::String:
          case Kind::Switch:
            break;
        }
        flag->value = value;
        flag->supplied = true;
    }

    for (const Positional& p : positionals)
        fatalIf(p.required && !p.supplied,
                "ArgParser: " + prog + ": missing required argument <" +
                    p.name + "> (--help for usage)");
}

const ArgParser::Flag&
ArgParser::find(const std::string& flag, Kind kind) const
{
    for (const Flag& f : flags) {
        if (f.name == flag) {
            panicIf(f.kind != kind,
                    "ArgParser: type-mismatched access to " + flag);
            return f;
        }
    }
    panic("ArgParser: access to undeclared flag " + flag);
}

int
ArgParser::getInt(const std::string& flag) const
{
    const Flag& f = find(flag, Kind::Int);
    return parseIntValue(flag, f.value);
}

double
ArgParser::getDouble(const std::string& flag) const
{
    const Flag& f = find(flag, Kind::Double);
    return parseDoubleValue(flag, f.value);
}

const std::string&
ArgParser::getString(const std::string& flag) const
{
    return find(flag, Kind::String).value;
}

bool
ArgParser::getBool(const std::string& flag) const
{
    for (const Flag& f : flags) {
        if (f.name == flag) {
            panicIf(f.kind != Kind::Bool && f.kind != Kind::Switch,
                    "ArgParser: type-mismatched access to " + flag);
            return parseBoolValue(flag, f.value);
        }
    }
    panic("ArgParser: access to undeclared flag " + flag);
}

bool
ArgParser::given(const std::string& flag) const
{
    for (const Flag& f : flags) {
        if (f.name == flag)
            return f.supplied;
    }
    panic("ArgParser: given() on undeclared flag " + flag);
}

const std::string&
ArgParser::positional(const std::string& name) const
{
    for (const Positional& p : positionals) {
        if (p.name == name)
            return p.value;
    }
    panic("ArgParser: undeclared positional " + name);
}

std::string
ArgParser::usage() const
{
    std::string text = "usage: " + prog;
    for (const Positional& p : positionals)
        text += p.required ? " <" + p.name + ">"
                           : " [" + p.name + "]";
    if (!flags.empty())
        text += " [flags]";
    text += "\n\n" + summary + "\n";
    if (!positionals.empty()) {
        text += "\narguments:\n";
        for (const Positional& p : positionals)
            text += "  " + p.name + "  " + p.help + "\n";
    }
    if (!flags.empty()) {
        text += "\nflags:\n";
        size_t width = 0;
        for (const Flag& f : flags)
            width = std::max(width, f.name.size());
        for (const Flag& f : flags) {
            text += "  " + f.name +
                    std::string(width - f.name.size() + 2, ' ') +
                    f.help;
            if (!f.fallback.empty() && f.kind != Kind::Switch)
                text += " [default: " + f.fallback + "]";
            text += "\n";
        }
    }
    text += "  --help  print this message\n";
    return text;
}

} // namespace dysta
