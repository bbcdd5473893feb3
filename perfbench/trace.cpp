#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

double rusage_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double process_cpu_s() { return rusage_s(RUSAGE_SELF); }
double thread_cpu_s() { return rusage_s(RUSAGE_THREAD); }

Tracer::Scope::Scope(Tracer& tracer, std::string name, int parent, int run,
                     int rank, unsigned threads, bool thread_cpu)
    : tracer_(tracer), thread_cpu_(thread_cpu) {
  if (!tracer_.enabled()) return;
  span_.name = std::move(name);
  span_.id = tracer_.next_id_.fetch_add(1);
  span_.parent = parent;
  span_.run = run;
  span_.rank = rank;
  span_.threads = threads;
  span_.cpu = thread_cpu_ ? thread_cpu_s() : process_cpu_s();
  span_.start = now_s();
}

Tracer::Scope::~Scope() {
  if (span_.id < 0) return;
  span_.end = now_s();
  span_.cpu = (thread_cpu_ ? thread_cpu_s() : process_cpu_s()) - span_.cpu;
  tracer_.add(std::move(span_));
}

void Tracer::add(Span s) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out = spans_;
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

std::map<std::string, LayerTotal> layer_totals(
    const std::vector<Span>& spans) {
  std::map<std::string, LayerTotal> out;
  // name -> run -> rank -> seconds
  std::map<std::string, std::map<int, std::map<int, double>>> per_rank;
  for (const Span& s : spans) {
    const double wall = s.end - s.start;
    LayerTotal& t = out[s.name];
    t.cpu_s += s.cpu;
    t.wall_threads_s += wall * s.threads;
    t.wall_s += wall;
    t.work += s.work;
    per_rank[s.name][s.run][s.rank] += wall;
  }
  for (const auto& [name, runs] : per_rank)
    for (const auto& [run, ranks] : runs) {
      double mx = 0.0;
      for (const auto& [rank, secs] : ranks) mx = std::max(mx, secs);
      out[name].blocking_s += mx;
    }
  return out;
}

double top_level_seconds(const std::vector<Span>& spans) {
  double sum = 0.0;
  for (const Span& s : spans)
    if (s.parent < 0) sum += s.end - s.start;
  return sum;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"ts\":"
        << static_cast<long long>(s.start * 1e6)
        << ",\"dur\":" << static_cast<long long>((s.end - s.start) * 1e6)
        << ",\"pid\":" << s.run << ",\"tid\":" << s.rank
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << ",\"cpu_s\":" << s.cpu << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  if (!out) throw std::runtime_error("short write of trace file " + path);
}

}  // namespace perfbench
