// In-memory span tracing for the traced benchmark build. Spans are recorded
// from the benchmark's own files around calls into the program's layers;
// nothing inside the program is instrumented. In the untraced build every
// type here compiles to nothing.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Span names: the layer boundaries the benchmark records.
enum class SpanName : std::uint16_t {
  pass,            // one run_fleet call (batch workloads)
  probe,           // one probe, replicating atlas::run_probe
  scenario,        // atlas::Scenario construction
  pipeline,        // core::LocalizationPipeline::run
  daemon_run,      // one tenant run over HTTP: submit .. records
  http_submit,     // POST /v1/fleets
  http_verdicts,   // GET .../verdicts, followed to its end
  http_status,     // GET /v1/fleets/{id}
  http_records,    // GET .../records
  http_metrics,    // GET /metrics
  count_,
};

const char* span_label(SpanName name);

#ifdef PERFBENCH_TRACED

/// Records [construction, destruction) as one span. The parent is the
/// innermost open span on the same thread; `trace_id` groups the spans of
/// one probe or request (0 inherits the parent's).
class TraceSpan {
 public:
  explicit TraceSpan(SpanName name, std::uint32_t trace_id = 0);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::int32_t index_;
};

/// Heap allocations made by the calling thread so far (operator new hook).
std::uint64_t allocations();

#else

class TraceSpan {
 public:
  explicit TraceSpan(SpanName, std::uint32_t = 0) {}
};

#endif

}  // namespace perfbench
