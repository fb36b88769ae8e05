#include "trace/io.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace e2e {
namespace {

constexpr const char* kHeader =
    "request_id,user_id,session_id,url_id,page_type,arrival_ms,"
    "external_delay_ms,server_delay_ms,time_on_site_sec";

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, ',')) fields.push_back(field);
  return fields;
}

// Parses the whole of `field` as a T. std::from_chars takes no sign on an
// unsigned T and reports a value outside T's range, so "-1", a url_id past
// 2^32 − 1, "12abc" and an empty field all throw, naming the column.
template <typename T>
T ParseField(const std::string& field, const char* column) {
  T value{};
  const char* const end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(std::string(column) + " '" + field +
                                "' is not a valid number");
  }
  return value;
}

// A finite double field; `non_negative` also rejects values below zero.
double ParseFinite(const std::string& field, const char* column,
                   bool non_negative) {
  const double value = ParseField<double>(field, column);
  if (!std::isfinite(value) || (non_negative && value < 0.0)) {
    throw std::invalid_argument(std::string(column) + " '" + field +
                                "' is out of range");
  }
  return value;
}

}  // namespace

void WriteTraceCsv(const Trace& trace, std::ostream& out) {
  // Full round-trip precision for the double fields.
  out.precision(17);
  out << kHeader << '\n';
  for (const auto& r : trace.records) {
    out << r.request_id << ',' << r.user_id << ',' << r.session_id << ','
        << r.url_id << ',' << Index(r.page_type) << ',' << r.arrival_ms << ','
        << r.external_delay_ms << ',' << r.server_delay_ms << ','
        << r.time_on_site_sec << '\n';
  }
}

void WriteTraceCsvFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("WriteTraceCsvFile: cannot open " + path);
  WriteTraceCsv(trace, out);
  if (!out) throw std::runtime_error("WriteTraceCsvFile: write failed");
}

Trace ReadTraceCsv(std::istream& in) {
  Trace trace;
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    throw std::runtime_error("ReadTraceCsv: missing or unexpected header");
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = SplitCsvLine(line);
    if (fields.size() != 9) {
      throw std::runtime_error("ReadTraceCsv: bad field count at line " +
                               std::to_string(line_no));
    }
    try {
      TraceRecord r;
      r.request_id = ParseField<RequestId>(fields[0], "request_id");
      r.user_id = ParseField<UserId>(fields[1], "user_id");
      r.session_id = ParseField<std::uint64_t>(fields[2], "session_id");
      r.url_id = ParseField<std::uint32_t>(fields[3], "url_id");
      r.page_type = PageTypeFromIndex(ParseField<int>(fields[4], "page_type"));
      r.arrival_ms = ParseFinite(fields[5], "arrival_ms",
                                 /*non_negative=*/false);
      r.external_delay_ms = ParseFinite(fields[6], "external_delay_ms",
                                        /*non_negative=*/true);
      r.server_delay_ms = ParseFinite(fields[7], "server_delay_ms",
                                      /*non_negative=*/true);
      r.time_on_site_sec = ParseFinite(fields[8], "time_on_site_sec",
                                       /*non_negative=*/true);
      trace.records.push_back(r);
    } catch (const std::exception& e) {
      throw std::runtime_error("ReadTraceCsv: parse error at line " +
                               std::to_string(line_no) + ": " + e.what());
    }
  }
  return trace;
}

Trace ReadTraceCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ReadTraceCsvFile: cannot open " + path);
  return ReadTraceCsv(in);
}

}  // namespace e2e
