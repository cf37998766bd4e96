#include "util/csv.hh"

#include <cstdio>
#include <cstdlib>

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

double
CsvTable::cell(size_t row, size_t col) const
{
    fatalIf(row >= rows.size(), "CsvTable: row out of range");
    fatalIf(col >= rows[row].size(), "CsvTable: col out of range");
    const std::string& s = rows[row][col];
    char* end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str())
        fatal("CsvTable: non-numeric cell '" + s + "'");
    return v;
}

std::vector<std::string>
parseCsvLine(const std::string& line)
{
    std::vector<std::string> fields;
    std::string cur;
    bool in_quotes = false;
    for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                cur += c;
            }
        } else if (c == '"') {
            in_quotes = true;
        } else if (c == ',') {
            fields.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    fields.push_back(cur);
    return fields;
}

CsvTable
readCsv(const std::string& path)
{
    std::ifstream in(path);
    fatalIf(!in.is_open(), "readCsv: cannot open " + path);
    CsvTable table;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        table.rows.push_back(parseCsvLine(line));
    }
    return table;
}

} // namespace dysta
