// The traced run's span recorder.  Spans are opened only by benchmark code
// around calls into the libraries' public functions, so the program itself
// is measured from outside.  Each span keeps its name ("layer.what"), the
// recording thread, start, duration, parent (the span open on the same
// thread when it started) and a request id.  Records live in per-thread
// buffers sized up front; collect() merges them after the threads are done.
//
// A span with no parent is a measured operation.  self_time_table() charges
// each span's self time (its duration minus its children's) to its name;
// an operation's own self time is the part no inner span covers, reported
// as the "(uncovered)" row.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

void enable(bool on);
/// Request id stamped on the spans this thread opens from now on.
void set_request(std::uint64_t id) noexcept;

class Span {
 public:
  /// `name` must outlive the trace (a string literal).
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_ = -1;
};

struct Record {
  const char* name = "";
  std::uint32_t tid = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int32_t parent = -1;  ///< index into the same thread's records
  std::int32_t index = 0;    ///< this record's index in its thread
};

/// Every thread's records, grouped by thread, in recording order.
std::vector<Record> collect();
void reset();

/// Write the records as Chrome trace-event JSON ("ph":"X" complete
/// events, microsecond timestamps).  Returns false when the file cannot
/// be written.
bool write_chrome(const std::string& path, const std::vector<Record>& records);

struct Row {
  std::string name;
  double self_s = 0.0;
  std::uint64_t calls = 0;
};

struct Table {
  std::vector<Row> rows;          ///< inner spans, by self time, descending
  double measured_s = 0.0;        ///< summed duration of the operations
  double uncovered_s = 0.0;       ///< operation time no inner span covers
  /// Lowest inner-span coverage over the operation kinds (by name).
  double min_coverage = 1.0;
  std::string least_covered;
  std::size_t spans = 0;
  bool nested = true;             ///< every child lies inside its parent
};

Table self_time_table(const std::vector<Record>& records);
std::string render(const Table& table);

/// Durations, in seconds, of every span called `name`.
std::vector<double> durations(const std::vector<Record>& records, const std::string& name);

/// Self time charged to `name` in `table` (0 when absent).
double self_seconds(const Table& table, const std::string& name);

}  // namespace perfbench::trace
