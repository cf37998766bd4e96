/**
 * @file
 * Minimal CSV writer for report CSV twins and bench series exported
 * for external plotting.
 */

#ifndef DYSTA_UTIL_CSV_HH
#define DYSTA_UTIL_CSV_HH

#include <fstream>
#include <string>
#include <vector>

namespace dysta {

/** Streaming CSV writer; fields are escaped only when necessary. */
class CsvWriter
{
  public:
    /** Open the target file for writing; fatal() on failure. */
    explicit CsvWriter(const std::string& path);

    /** Write one row of raw string fields. */
    void writeRow(const std::vector<std::string>& fields);

    /** Write one row of doubles with full round-trip precision. */
    void writeRow(const std::vector<double>& fields);

    /** Flush and close early (also done by the destructor). */
    void close();

  private:
    std::ofstream out;

    static std::string escape(const std::string& field);
};

} // namespace dysta

#endif // DYSTA_UTIL_CSV_HH
