#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace perfbench::trace {

namespace {

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<Record> records;
  std::vector<std::int32_t> open;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu
const auto g_epoch = std::chrono::steady_clock::now();

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_request = 0;

Buffer& local_buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    buffer->records.reserve(1 << 16);
    buffer->open.reserve(64);
    std::lock_guard<std::mutex> lock(g_mu);
    buffer->tid = static_cast<std::uint32_t>(g_buffers.size());
    t_buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              g_epoch)
      .count();
}

std::string json_escape(const char* s) {
  std::string out;
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
void set_request(std::uint64_t id) noexcept { t_request = id; }

Span::Span(const char* name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Buffer& buffer = local_buffer();
  Record record;
  record.name = name;
  record.tid = buffer.tid;
  record.request = t_request;
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  record.index = static_cast<std::int32_t>(buffer.records.size());
  index_ = record.index;
  buffer.records.push_back(record);
  buffer.open.push_back(index_);
  buffer.records.back().start_ns = now_ns();
}

Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  Buffer& buffer = *t_buffer;
  Record& record = buffer.records[static_cast<std::size_t>(index_)];
  record.dur_ns = end - record.start_ns;
  buffer.open.pop_back();
}

std::vector<Record> collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Record> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->records.begin(), buffer->records.end());
  }
  return all;
}

void reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_buffers) buffer->records.clear();
}

bool write_chrome(const std::string& path, const std::vector<Record>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const std::string name = json_escape(r.name);
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%d,\"parent\":%d,\"request\":%llu}}%s\n",
                 name.c_str(), layer.c_str(), r.tid, static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.dur_ns) / 1e3, r.index, r.parent,
                 static_cast<unsigned long long>(r.request), i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Table self_time_table(const std::vector<Record>& records) {
  Table table;
  table.spans = records.size();
  // Records arrive grouped by thread; index them per thread.
  std::map<std::uint32_t, std::vector<const Record*>> by_thread;
  for (const Record& r : records) by_thread[r.tid].push_back(&r);

  std::map<std::string, Row> rows;
  std::map<std::string, std::pair<double, double>> op_cover;  // name → (covered, total)
  for (const auto& [tid, thread] : by_thread) {
    std::vector<std::int64_t> child_ns(thread.size(), 0);
    for (const Record* r : thread) {
      if (r->parent < 0) continue;
      const Record* p = thread[static_cast<std::size_t>(r->parent)];
      child_ns[static_cast<std::size_t>(r->parent)] += r->dur_ns;
      if (r->start_ns < p->start_ns || r->start_ns + r->dur_ns > p->start_ns + p->dur_ns) {
        table.nested = false;
      }
    }
    for (const Record* r : thread) {
      const double self = static_cast<double>(r->dur_ns - child_ns[r->index]) / 1e9;
      const double total = static_cast<double>(r->dur_ns) / 1e9;
      if (r->parent < 0) {
        table.measured_s += total;
        table.uncovered_s += self;
        auto& cover = op_cover[r->name];
        cover.first += total - self;
        cover.second += total;
        continue;
      }
      Row& row = rows[r->name];
      row.name = r->name;
      row.self_s += self;
      ++row.calls;
    }
  }
  for (auto& [name, row] : rows) table.rows.push_back(row);
  std::sort(table.rows.begin(), table.rows.end(),
            [](const Row& a, const Row& b) { return a.self_s > b.self_s; });
  for (const auto& [name, cover] : op_cover) {
    const double ratio = cover.second > 0.0 ? cover.first / cover.second : 1.0;
    if (ratio < table.min_coverage) {
      table.min_coverage = ratio;
      table.least_covered = name;
    }
  }
  return table;
}

std::string render(const Table& table) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof line, "  %-28s %12s %8s %10s\n", "layer span", "self ms", "share",
                "calls");
  out << line;
  const double total = table.measured_s > 0.0 ? table.measured_s : 1.0;
  for (const Row& row : table.rows) {
    std::snprintf(line, sizeof line, "  %-28s %12.3f %7.2f%% %10llu\n", row.name.c_str(),
                  row.self_s * 1e3, 100.0 * row.self_s / total,
                  static_cast<unsigned long long>(row.calls));
    out << line;
  }
  std::snprintf(line, sizeof line, "  %-28s %12.3f %7.2f%%\n", "(uncovered)",
                table.uncovered_s * 1e3, 100.0 * table.uncovered_s / total);
  out << line;
  std::snprintf(line, sizeof line,
                "  spans %zu, nested %s, measured %.3f ms, lowest coverage %.2f%% (%s)\n",
                table.spans, table.nested ? "yes" : "NO", table.measured_s * 1e3,
                100.0 * table.min_coverage, table.least_covered.c_str());
  out << line;
  return out.str();
}

std::vector<double> durations(const std::vector<Record>& records, const std::string& name) {
  std::vector<double> out;
  for (const Record& r : records) {
    if (name == r.name) out.push_back(static_cast<double>(r.dur_ns) / 1e9);
  }
  return out;
}

double self_seconds(const Table& table, const std::string& name) {
  for (const Row& row : table.rows) {
    if (row.name == name) return row.self_s;
  }
  return 0.0;
}

}  // namespace perfbench::trace
