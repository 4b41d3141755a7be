#ifndef X3_STORAGE_BUFFER_POOL_H_
#define X3_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "storage/page_file.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace x3 {

class BufferPool;

/// Pin on a buffered page. While alive, the frame cannot be evicted.
/// Obtained from BufferPool::Fetch/New; unpins on destruction.
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle() { Release(); }

  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return page_id_; }

  /// Read access to the page contents.
  const Page& page() const;

  /// Write access; marks the frame dirty.
  Page& MutablePage();

  /// Unpins early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, size_t frame, PageId page_id)
      : pool_(pool), frame_(frame), page_id_(page_id) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
};

/// Counters describing buffer pool traffic.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
};

/// A fixed-capacity LRU buffer pool over a single PageFile.
///
/// This is the memory model the paper's substrate (TIMBER with a 512 MB
/// pool over 8 KB pages) imposes on the cube algorithms: all base-data
/// and intermediate-file access goes through here, so page hit/miss
/// counts give a machine-independent I/O cost alongside wall-clock time.
///
/// Thread safety: the page table, LRU list, free list and stats are
/// guarded by `mu_` (rank lock_rank::kBufferPool), so Fetch/New/
/// FlushAll and handle release may be called from concurrent workers.
/// Page *payload* access via a PageHandle deliberately bypasses the
/// lock: a pinned frame is never evicted or reused, `pages_` is never
/// reallocated after construction, and writers of the same page must
/// coordinate among themselves (same rule as before the pool was
/// lock-protected). Frame payloads are never written before their
/// frame is first handed out, so the operating system backs only the
/// frames a pool has used: a large pool that holds few pages costs few
/// resident bytes and no set-up time. Disk I/O for misses/evictions
/// currently happens with `mu_` held — acceptable at the engine's
/// stage-granular concurrency; a future serving layer would split the
/// lock. See
/// docs/STATIC_ANALYSIS.md §7 for the annotation macros and the full
/// lock-rank table.
class BufferPool {
 public:
  /// Creates a pool of `capacity` frames over `file` (not owned; must
  /// outlive the pool).
  BufferPool(PageFile* file, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches page `id`, reading from disk on miss. Fails with
  /// ResourceExhausted when every frame is pinned.
  Result<PageHandle> Fetch(PageId id) X3_EXCLUDES(mu_);

  /// Allocates a fresh page in the file and returns it pinned (zeroed,
  /// dirty).
  Result<PageHandle> New() X3_EXCLUDES(mu_);

  /// Writes back all dirty frames.
  Status FlushAll() X3_EXCLUDES(mu_);

  size_t capacity() const { return capacity_; }
  /// Frames handed out at least once (<= capacity()); the payloads of
  /// the others have never been written.
  size_t frames_used() const X3_EXCLUDES(mu_);
  /// Snapshot of the traffic counters (by value: the counters are
  /// guarded, a reference would escape the lock).
  BufferPoolStats stats() const X3_EXCLUDES(mu_);
  PageFile* file() { return file_; }

 private:
  friend class PageHandle;

  /// Bookkeeping of one frame; its payload is pages_[frame].
  struct Frame {
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    /// Position in lru_ when unpinned; lru_.end() otherwise.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  void Unpin(size_t frame) X3_EXCLUDES(mu_);
  void MarkDirty(size_t frame) X3_EXCLUDES(mu_);
  /// Finds a frame for a new resident page: a never-used frame first,
  /// evicting only once every frame has been used.
  Result<size_t> GrabFrame() X3_REQUIRES(mu_);
  /// Payload of a pinned frame. Outside the analysis on purpose: pin
  /// protection (not mu_) is what makes the access safe — see the
  /// class comment.
  Page& PinnedPage(size_t frame) X3_NO_THREAD_SAFETY_ANALYSIS {
    return pages_[frame];
  }

  PageFile* file_;
  size_t capacity_;
  mutable Mutex mu_{lock_rank::kBufferPool};
  std::vector<Frame> frames_ X3_GUARDED_BY(mu_);
  /// Frame payloads, default-initialized (left unwritten) and allocated
  /// once in the constructor: PinnedPage indexes them without the lock
  /// under pin protection.
  std::unique_ptr<Page[]> pages_;
  /// Used frames that hold no page.
  std::vector<size_t> free_frames_ X3_GUARDED_BY(mu_);
  /// Frames [used_, capacity_) have never been handed out.
  size_t used_ X3_GUARDED_BY(mu_) = 0;
  std::unordered_map<PageId, size_t> page_table_ X3_GUARDED_BY(mu_);
  /// Unpinned frames, least recently used first.
  std::list<size_t> lru_ X3_GUARDED_BY(mu_);
  BufferPoolStats stats_ X3_GUARDED_BY(mu_);
};

}  // namespace x3

#endif  // X3_STORAGE_BUFFER_POOL_H_
