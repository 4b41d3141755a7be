#include "storage/buffer_pool.h"

#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace x3 {

namespace {

// Process-wide mirrors of the per-pool stats (DESIGN.md §9): the
// struct counters stay the per-instance test surface, these feed the
// exported registry.
Counter& PoolHitsCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_storage_pool_hits_total", "Buffer-pool page hits");
  return *c;
}
Counter& PoolMissesCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_storage_pool_misses_total", "Buffer-pool page misses");
  return *c;
}
Counter& PoolEvictionsCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_storage_pool_evictions_total", "Buffer-pool frame evictions");
  return *c;
}
Counter& PoolWritebacksCounter() {
  static Counter* c = MetricRegistry::Global().GetCounter(
      "x3_storage_pool_writebacks_total",
      "Dirty pages written back by the buffer pool");
  return *c;
}

}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    other.pool_ = nullptr;
  }
  return *this;
}

const Page& PageHandle::page() const {
  X3_CHECK(pool_ != nullptr);
  return pool_->PinnedPage(frame_);
}

Page& PageHandle::MutablePage() {
  X3_CHECK(pool_ != nullptr);
  pool_->MarkDirty(frame_);
  return pool_->PinnedPage(frame_);
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(PageFile* file, size_t capacity)
    : file_(file),
      capacity_(capacity == 0 ? 1 : capacity),
      frames_(capacity_),
      // new Page[] (not make_unique, which zeroes): an unwritten payload
      // stays unbacked until its frame is first used.
      pages_(new Page[capacity_]) {}

BufferPool::~BufferPool() {
  Status s = FlushAll();
  if (!s.ok()) {
    X3_LOG(Error) << "BufferPool flush on destruction failed: " << s;
  }
}

Result<PageHandle> BufferPool::Fetch(PageId id) {
  MutexLock lock(&mu_);
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    ++stats_.hits;
    PoolHitsCounter().Increment();
    size_t frame = it->second;
    Frame& f = frames_[frame];
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    ++f.pin_count;
    return PageHandle(this, frame, id);
  }
  ++stats_.misses;
  PoolMissesCounter().Increment();
  X3_ASSIGN_OR_RETURN(size_t frame, GrabFrame());
  Frame& f = frames_[frame];
  Status s = file_->ReadPage(id, &pages_[frame]);
  if (!s.ok()) {
    free_frames_.push_back(frame);
    return s;
  }
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.in_lru = false;
  page_table_[id] = frame;
  return PageHandle(this, frame, id);
}

Result<PageHandle> BufferPool::New() {
  // Allocate under mu_ too: every PageFile call the pool makes is
  // serialized by this lock, which is what makes the underlying file
  // safe to share between concurrent workers.
  MutexLock lock(&mu_);
  X3_ASSIGN_OR_RETURN(PageId id, file_->AllocatePage());
  X3_ASSIGN_OR_RETURN(size_t frame, GrabFrame());
  Frame& f = frames_[frame];
  pages_[frame].Zero();
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = true;
  f.in_lru = false;
  page_table_[id] = frame;
  return PageHandle(this, frame, id);
}

Status BufferPool::FlushAll() {
  MutexLock lock(&mu_);
  for (size_t i = 0; i < used_; ++i) {
    Frame& f = frames_[i];
    if (f.page_id != kInvalidPageId && f.dirty) {
      X3_RETURN_IF_ERROR(file_->WritePage(f.page_id, pages_[i]));
      f.dirty = false;
      ++stats_.dirty_writebacks;
      PoolWritebacksCounter().Increment();
    }
  }
  return file_->Flush();
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

size_t BufferPool::frames_used() const {
  MutexLock lock(&mu_);
  return used_;
}

void BufferPool::Unpin(size_t frame) {
  MutexLock lock(&mu_);
  Frame& f = frames_[frame];
  X3_CHECK(f.pin_count > 0) << "unpin of unpinned frame";
  if (--f.pin_count == 0) {
    f.lru_pos = lru_.insert(lru_.end(), frame);
    f.in_lru = true;
  }
}

void BufferPool::MarkDirty(size_t frame) {
  MutexLock lock(&mu_);
  frames_[frame].dirty = true;
}

Result<size_t> BufferPool::GrabFrame() {
  mu_.AssertHeld();
  if (!free_frames_.empty()) {
    size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  if (used_ < capacity_) return used_++;
  if (lru_.empty()) {
    return Status::ResourceExhausted(StringPrintf(
        "buffer pool of %zu frames fully pinned", capacity_));
  }
  size_t frame = lru_.front();
  lru_.pop_front();
  Frame& f = frames_[frame];
  f.in_lru = false;
  ++stats_.evictions;
  PoolEvictionsCounter().Increment();
  if (f.dirty) {
    X3_RETURN_IF_ERROR(file_->WritePage(f.page_id, pages_[frame]));
    ++stats_.dirty_writebacks;
    PoolWritebacksCounter().Increment();
    f.dirty = false;
  }
  page_table_.erase(f.page_id);
  f.page_id = kInvalidPageId;
  return frame;
}

}  // namespace x3
