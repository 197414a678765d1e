#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>

namespace damperf {

int Tracer::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = seconds_since(origin_);
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
  // Spans nest strictly (SpanScope is RAII), so `id` is the innermost one.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::count(int id, std::string key, double value) {
  spans_[static_cast<std::size_t>(id)].counts.emplace_back(std::move(key),
                                                           value);
}

std::vector<double> Tracer::seconds_of(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.seconds());
  }
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] += span.seconds();
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& totals = out[spans_[i].name];
    ++totals.spans;
    totals.total_s += spans_[i].seconds();
    totals.self_s += spans_[i].seconds() - child_s[i];
  }
  return out;
}

bool Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  const std::map<std::string, Totals> by_name = totals();
  std::fprintf(stderr, "trace %-36s %7s %12s %12s\n", "span", "count",
               "total_s", "self_s");
  for (const auto& [name, t] : by_name) {
    std::fprintf(stderr, "trace %-36s %7zu %12.6f %12.6f\n", name.c_str(),
                 t.spans, t.total_s, t.self_s);
  }

  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(9);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << span.name << "\", \"parent\": " << span.parent
        << ", \"start_s\": " << span.start_s << ", \"end_s\": " << span.end_s
        << ", \"counts\": {";
    for (std::size_t c = 0; c < span.counts.size(); ++c) {
      out << (c == 0 ? "" : ", ") << '"' << span.counts[c].first
          << "\": " << span.counts[c].second;
    }
    out << "}}";
  }
  out << "\n], \"totals\": {";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    out << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"spans\": "
        << t.spans << ", \"total_s\": " << t.total_s
        << ", \"self_s\": " << t.self_s << "}";
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

}  // namespace damperf
