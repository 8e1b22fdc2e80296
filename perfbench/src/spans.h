// In-memory span recorder for the traced run.
//
// A span is (id, parent, thread, name, start, end) with steady-clock
// nanosecond timestamps.  Each thread appends to its own buffer, so
// recording takes no lock after a thread's first span; the buffers are
// only read by write_csv() once the traced work has ended.
// Names must be string literals (the recorder keeps the pointer).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t thread = 0;  ///< recorder-local thread slot
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Keeps at most `capacity` spans in total; later ones are counted in
  /// dropped() instead of stored.
  explicit SpanRecorder(std::size_t capacity = std::size_t{4} << 20);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Reserves an id for a span whose children are recorded before it ends.
  std::uint64_t open_id();

  /// Records a finished span under a new id and returns the id.
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent = 0);

  /// Records a finished span under an id from open_id().
  void record_with_id(std::uint64_t id, const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t parent = 0);

  std::size_t size() const;
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Writes "id,parent,thread,name,start_ns,end_ns" rows; returns false on
  /// an I/O error.  Call only once the recording threads are done.
  bool write_csv(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t slot = 0;
    std::uint64_t next_local = 1;
    std::vector<Span> spans;
  };
  Buffer& local_buffer();

  const std::uint64_t generation_;
  const std::size_t capacity_;
  std::atomic<std::size_t> stored_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;  ///< guards buffers_ (the list, not the spans)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench
