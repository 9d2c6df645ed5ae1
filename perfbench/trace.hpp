// In-memory span recorder for the benchmark's traced run. Spans wrap the
// benchmark's calls into each layer (workload build, every execute call,
// every layer replay); nothing inside the simulator is instrumented. Spans
// stay in memory until the run ends and are then written once as Chrome
// Trace Event JSON, which Perfetto (ui.perfetto.dev) and chrome://tracing
// open as is.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit SpanRecorder(std::string run_id) : run_id_(std::move(run_id)) {}

  // Opens a span whose parent is the innermost span still open.
  std::size_t begin(std::string name) {
    spans_.push_back(Span{std::move(name), now_ns(), 0,
                          open_.empty() ? kNoParent : open_.back()});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void end(std::size_t id) {
    spans_[id].end_ns = now_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  std::size_t size() const noexcept { return spans_.size(); }

  // Writes every span as a complete ("X") event; ts/dur are microseconds
  // from the recorder's construction. Returns false if the file could not
  // be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%lld,\"run\":\"%s\"}}",
                   i == 0 ? "" : ",", s.name.c_str(), layer.c_str(),
                   static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   run_id_.c_str());
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::size_t parent;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::string run_id_;
  std::int64_t origin_ns_ = now_ns();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// Opens a span for the enclosing scope; a null recorder records nothing,
// which is how the untraced run shares the traced run's code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name) : recorder_(recorder) {
    if (recorder_ != nullptr) id_ = recorder_->begin(std::move(name));
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t id_ = 0;
};

}  // namespace perfbench
