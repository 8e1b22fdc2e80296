#include "spans.h"

#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_generation{1};

// The buffer this thread last used, tagged with the recorder generation it
// belongs to: a stale entry from a destroyed recorder never matches.
struct ThreadCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

constexpr int kSlotShift = 40;

}  // namespace

SpanRecorder::SpanRecorder(std::size_t capacity)
    : generation_(g_next_generation.fetch_add(1)), capacity_(capacity) {}

SpanRecorder::Buffer& SpanRecorder::local_buffer() {
  if (t_cache.generation == generation_) {
    return *static_cast<Buffer*>(t_cache.buffer);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_unique<Buffer>();
  buffer->slot = static_cast<std::uint32_t>(buffers_.size());
  buffer->spans.reserve(1024);
  buffers_.push_back(std::move(buffer));
  t_cache = {generation_, buffers_.back().get()};
  return *buffers_.back();
}

std::uint64_t SpanRecorder::open_id() {
  Buffer& buffer = local_buffer();
  return (static_cast<std::uint64_t>(buffer.slot + 1) << kSlotShift) |
         buffer.next_local++;
}

std::uint64_t SpanRecorder::record(const char* name, std::int64_t start_ns,
                                   std::int64_t end_ns, std::uint64_t parent) {
  const std::uint64_t id = open_id();
  record_with_id(id, name, start_ns, end_ns, parent);
  return id;
}

void SpanRecorder::record_with_id(std::uint64_t id, const char* name,
                                  std::int64_t start_ns, std::int64_t end_ns,
                                  std::uint64_t parent) {
  if (stored_.fetch_add(1, std::memory_order_relaxed) >= capacity_) {
    stored_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Buffer& buffer = local_buffer();
  buffer.spans.push_back({id, parent, buffer.slot, name, start_ns, end_ns});
}

std::size_t SpanRecorder::size() const {
  return stored_.load(std::memory_order_relaxed);
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  bool ok = std::fputs("id,parent,thread,name,start_ns,end_ns\n", file) >= 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      ok = ok && std::fprintf(file, "%llu,%llu,%u,%s,%lld,%lld\n",
                              static_cast<unsigned long long>(span.id),
                              static_cast<unsigned long long>(span.parent),
                              span.thread, span.name,
                              static_cast<long long>(span.start_ns),
                              static_cast<long long>(span.end_ns)) > 0;
    }
  }
  return std::fclose(file) == 0 && ok;
}

}  // namespace perfbench
