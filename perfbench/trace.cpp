// Tracer: spans around the benchmark's calls into each layer, kept in memory
// and written once at exit as Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing).
#include <cstdio>

#include "bench.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kFleet: return "fleet";
    case Layer::kServe: return "serve";
    case Layer::kUpdate: return "update";
    case Layer::kCore: return "core";
    case Layer::kGraph: return "graph";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, Layer layer)
    : tracer_(tracer), start_(Clock::now()) {
  if (!tracer_.enabled_) return;
  const std::int32_t parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  index_ = static_cast<std::int32_t>(tracer_.spans_.size());
  tracer_.spans_.push_back(Span{name, layer, tracer_.op_, parent, start_, start_});
  tracer_.open_.push_back(index_);
}

double Tracer::Scope::End() {
  if (ms_ >= 0.0) return ms_;
  const Clock::time_point end = Clock::now();
  ms_ = MsBetween(start_, end);
  if (index_ >= 0) {
    tracer_.spans_[static_cast<std::size_t>(index_)].end = end;
    tracer_.open_.pop_back();
  }
  return ms_;
}

void Tracer::Count(const char* name, double value) {
  if (enabled_) counters_.push_back(Counter{name, op_, Clock::now(), value});
}

std::vector<double> Tracer::SelfMsByLayer() const {
  std::vector<double> self(static_cast<std::size_t>(Layer::kCount), 0.0);
  for (const Span& span : spans_) {
    const double ms = MsBetween(span.start, span.end);
    self[static_cast<std::size_t>(span.layer)] += ms;
    if (span.parent >= 0) {
      const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
      self[static_cast<std::size_t>(parent.layer)] -= ms;
    }
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const auto us = [this](Clock::time_point t) {
    return MsBetween(origin_, t) * 1e3;
  };
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%zu,\"parent\":%d}}",
                 first ? "" : ",\n", span.name, LayerName(span.layer),
                 us(span.start), us(span.end) - us(span.start),
                 static_cast<unsigned long long>(span.op), i, span.parent);
    first = false;
  }
  for (const Counter& counter : counters_) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"args\":{\"value\":%.17g,\"op\":%llu}}",
                 first ? "" : ",\n", counter.name, us(counter.at),
                 counter.value, static_cast<unsigned long long>(counter.op));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
