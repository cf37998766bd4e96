#include "util/csv.hh"

#include <cstdio>

#include "util/logging.hh"

namespace dysta {

CsvWriter::CsvWriter(const std::string& path)
    : out(path)
{
    fatalIf(!out.is_open(), "CsvWriter: cannot open " + path);
}

std::string
CsvWriter::escape(const std::string& field)
{
    bool needs_quote = field.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quote)
        return field;
    std::string quoted = "\"";
    for (char c : field) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

void
CsvWriter::writeRow(const std::vector<std::string>& fields)
{
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out << ',';
        out << escape(fields[i]);
    }
    out << '\n';
}

void
CsvWriter::writeRow(const std::vector<double>& fields)
{
    char buf[40];
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out << ',';
        std::snprintf(buf, sizeof(buf), "%.17g", fields[i]);
        out << buf;
    }
    out << '\n';
}

void
CsvWriter::close()
{
    if (out.is_open())
        out.close();
}

} // namespace dysta
