#include "gat/storage/async_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "gat/common/check.h"
#include "gat/common/notification.h"
#include "gat/index/snapshot_format.h"

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/syscall.h>

#include <linux/io_uring.h>
#endif

// io_uring via raw syscalls needs: the syscall numbers (glibc headers),
// the uapi structs, and IORING_OP_READ (kernel headers >= 5.6, matching
// the first kernel where the plain-fd READ opcode exists). Anything
// less and the pread pool is the only backend compiled in.
#if defined(__linux__) && defined(__NR_io_uring_setup) && \
    defined(__NR_io_uring_enter) && defined(IORING_OP_READ)
#define GAT_HAVE_IO_URING 1
#else
#define GAT_HAVE_IO_URING 0
#endif

namespace gat {
namespace {

using snapshot_format::Crc32;

uint32_t ClampPow2(uint32_t v, uint32_t lo, uint32_t hi) {
  return std::bit_ceil(std::clamp(v, lo, hi));
}

}  // namespace

const char* IoBackendName(IoBackend backend) {
  switch (backend) {
    case IoBackend::kThreadPool:
      return "pread-pool";
    case IoBackend::kIoUring:
      return "io_uring";
  }
  return "unknown";
}

bool ProbeIoUring() {
#if GAT_HAVE_IO_URING
  // One setup attempt per process: ENOSYS (old kernel) and EPERM/EACCES
  // (seccomp'd container) are both permanent answers for our lifetime.
  static const bool available = [] {
    struct io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const long fd = syscall(__NR_io_uring_setup, 4, &params);
    if (fd < 0) return false;
    close(static_cast<int>(fd));
    return true;
  }();
  return available;
#else
  return false;
#endif
}

// --------------------------------------------------------------------------
// AsyncBlockIo — io_uring backend
// --------------------------------------------------------------------------

#if GAT_HAVE_IO_URING

/// The mmap'd ring state, liburing-free. Pointers into the shared rings
/// follow the kernel's published offsets; head/tail crossings use the
/// acquire/release protocol the uring ABI specifies (kernel releases CQ
/// tail, we release SQ tail).
struct AsyncBlockIo::UringState {
  int ring_fd = -1;
  struct io_uring_params params;

  uint8_t* sq_ring = nullptr;
  size_t sq_ring_bytes = 0;
  uint8_t* cq_ring = nullptr;  // aliases sq_ring under SINGLE_MMAP
  size_t cq_ring_bytes = 0;
  struct io_uring_sqe* sqes = nullptr;
  size_t sqes_bytes = 0;

  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_mask = nullptr;
  unsigned* sq_array = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned* cq_mask = nullptr;
  struct io_uring_cqe* cqes = nullptr;

  UringState() { std::memset(&params, 0, sizeof(params)); }
};

bool AsyncBlockIo::SetupUring(uint32_t queue_depth) {
  auto state = std::make_unique<UringState>();
  const long fd =
      syscall(__NR_io_uring_setup, queue_depth, &state->params);
  if (fd < 0) return false;
  state->ring_fd = static_cast<int>(fd);

  const struct io_uring_params& p = state->params;
  size_t sq_bytes = p.sq_off.array + p.sq_entries * sizeof(unsigned);
  size_t cq_bytes = p.cq_off.cqes + p.cq_entries * sizeof(struct io_uring_cqe);
  const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) sq_bytes = cq_bytes = std::max(sq_bytes, cq_bytes);

  void* sq =
      mmap(nullptr, sq_bytes, PROT_READ | PROT_WRITE,
           MAP_SHARED | MAP_POPULATE, state->ring_fd, IORING_OFF_SQ_RING);
  if (sq == MAP_FAILED) {
    close(state->ring_fd);
    return false;
  }
  state->sq_ring = static_cast<uint8_t*>(sq);
  state->sq_ring_bytes = sq_bytes;

  if (single_mmap) {
    state->cq_ring = state->sq_ring;
    state->cq_ring_bytes = 0;  // no separate mapping to unmap
  } else {
    void* cq =
        mmap(nullptr, cq_bytes, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, state->ring_fd, IORING_OFF_CQ_RING);
    if (cq == MAP_FAILED) {
      munmap(state->sq_ring, state->sq_ring_bytes);
      close(state->ring_fd);
      return false;
    }
    state->cq_ring = static_cast<uint8_t*>(cq);
    state->cq_ring_bytes = cq_bytes;
  }

  state->sqes_bytes = p.sq_entries * sizeof(struct io_uring_sqe);
  void* sqes =
      mmap(nullptr, state->sqes_bytes, PROT_READ | PROT_WRITE,
           MAP_SHARED | MAP_POPULATE, state->ring_fd, IORING_OFF_SQES);
  if (sqes == MAP_FAILED) {
    if (state->cq_ring_bytes != 0) munmap(state->cq_ring, state->cq_ring_bytes);
    munmap(state->sq_ring, state->sq_ring_bytes);
    close(state->ring_fd);
    return false;
  }
  state->sqes = static_cast<struct io_uring_sqe*>(sqes);

  auto at = [](uint8_t* base, uint32_t off) {
    return reinterpret_cast<unsigned*>(base + off);
  };
  state->sq_head = at(state->sq_ring, p.sq_off.head);
  state->sq_tail = at(state->sq_ring, p.sq_off.tail);
  state->sq_mask = at(state->sq_ring, p.sq_off.ring_mask);
  state->sq_array = at(state->sq_ring, p.sq_off.array);
  state->cq_head = at(state->cq_ring, p.cq_off.head);
  state->cq_tail = at(state->cq_ring, p.cq_off.tail);
  state->cq_mask = at(state->cq_ring, p.cq_off.ring_mask);
  state->cqes =
      reinterpret_cast<struct io_uring_cqe*>(state->cq_ring + p.cq_off.cqes);

  uring_ = std::move(state);
  return true;
}

void AsyncBlockIo::TeardownUring() {
  if (uring_ == nullptr) return;
  munmap(uring_->sqes, uring_->sqes_bytes);
  if (uring_->cq_ring_bytes != 0) {
    munmap(uring_->cq_ring, uring_->cq_ring_bytes);
  }
  munmap(uring_->sq_ring, uring_->sq_ring_bytes);
  close(uring_->ring_fd);
  uring_.reset();
}

void AsyncBlockIo::UringSubmitLocked(Request* request) {
  UringState& u = *uring_;
  unsigned tail = __atomic_load_n(u.sq_tail, __ATOMIC_RELAXED);
  // The in-flight bound keeps outstanding requests <= sq_entries and the
  // kernel consumes entries during io_uring_enter (no SQPOLL), so the
  // ring cannot be full here; the loop is pure defense.
  while (tail - __atomic_load_n(u.sq_head, __ATOMIC_ACQUIRE) >=
         u.params.sq_entries) {
    syscall(__NR_io_uring_enter, u.ring_fd, 0, 0, 0, nullptr, 0);
  }
  const unsigned idx = tail & *u.sq_mask;
  struct io_uring_sqe* sqe = &u.sqes[idx];
  std::memset(sqe, 0, sizeof(*sqe));
  if (request != nullptr) {
    sqe->opcode = IORING_OP_READ;
    sqe->fd = request->fd;
    sqe->off = request->offset + request->progress;
    sqe->addr = reinterpret_cast<uint64_t>(
        static_cast<char*>(request->buf) + request->progress);
    sqe->len = request->len - request->progress;
    sqe->user_data = reinterpret_cast<uint64_t>(request);
  } else {
    // Shutdown sentinel: a NOP whose user_data 0 tells the reaper to
    // exit. Only ever submitted after Drain(), so it is the final CQE.
    sqe->opcode = IORING_OP_NOP;
    sqe->user_data = 0;
  }
  u.sq_array[idx] = idx;
  __atomic_store_n(u.sq_tail, tail + 1, __ATOMIC_RELEASE);
  for (;;) {
    const long ret =
        syscall(__NR_io_uring_enter, u.ring_fd, 1, 0, 0, nullptr, 0);
    if (ret >= 0) break;
    GAT_CHECK(errno == EINTR || errno == EAGAIN || errno == EBUSY);
  }
}

void AsyncBlockIo::UringReaperLoop() {
  UringState& u = *uring_;
  for (;;) {
    const unsigned head = __atomic_load_n(u.cq_head, __ATOMIC_RELAXED);
    if (head == __atomic_load_n(u.cq_tail, __ATOMIC_ACQUIRE)) {
      const long ret = syscall(__NR_io_uring_enter, u.ring_fd, 0, 1,
                               IORING_ENTER_GETEVENTS, nullptr, 0);
      GAT_CHECK(ret >= 0 || errno == EINTR || errno == EAGAIN ||
                errno == EBUSY);
      continue;
    }
    const struct io_uring_cqe* cqe = &u.cqes[head & *u.cq_mask];
    const uint64_t user_data = cqe->user_data;
    const int32_t res = cqe->res;
    __atomic_store_n(u.cq_head, head + 1, __ATOMIC_RELEASE);
    if (user_data == 0) return;  // shutdown sentinel
    Request* request = reinterpret_cast<Request*>(user_data);
    const uint32_t wanted = request->len - request->progress;
    if (res > 0 && static_cast<uint32_t>(res) < wanted) {
      // Short read (buffered files may return early): continue where it
      // stopped. The in-flight slot stays held across the continuation.
      request->progress += static_cast<uint32_t>(res);
      std::lock_guard<std::mutex> lock(submit_mu_);
      UringSubmitLocked(request);
      continue;
    }
    const int64_t result =
        res < 0 ? res
                : static_cast<int64_t>(request->progress) + res;
    Complete(request, result);
  }
}

#else  // !GAT_HAVE_IO_URING

struct AsyncBlockIo::UringState {};

bool AsyncBlockIo::SetupUring(uint32_t) { return false; }
void AsyncBlockIo::TeardownUring() {}
void AsyncBlockIo::UringSubmitLocked(Request*) {}
void AsyncBlockIo::UringReaperLoop() {}

#endif  // GAT_HAVE_IO_URING

// --------------------------------------------------------------------------
// AsyncBlockIo — shared core + pread pool backend
// --------------------------------------------------------------------------

AsyncBlockIo::AsyncBlockIo(const AsyncIoOptions& options) {
  queue_depth_ = ClampPow2(options.queue_depth, 4, 512);

  bool want_uring = options.allow_io_uring;
  if (const char* env = std::getenv("GAT_IO_BACKEND")) {
    if (std::strcmp(env, "pool") == 0) {
      want_uring = false;
    } else if (std::strcmp(env, "uring") == 0) {
      want_uring = true;
    }
  }

  if (want_uring && ProbeIoUring() && SetupUring(queue_depth_)) {
    backend_ = IoBackend::kIoUring;
    reaper_ = std::thread([this] { UringReaperLoop(); });
    return;
  }

  backend_ = IoBackend::kThreadPool;
  const uint32_t workers = std::clamp<uint32_t>(options.workers, 1, 16);
  pool_workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    pool_workers_.emplace_back([this] { PoolWorkerLoop(); });
  }
}

AsyncBlockIo::~AsyncBlockIo() {
  Drain();
  if (backend_ == IoBackend::kIoUring) {
    {
      std::lock_guard<std::mutex> lock(submit_mu_);
      UringSubmitLocked(nullptr);  // NOP sentinel — the final CQE
    }
    reaper_.join();
    TeardownUring();
  } else {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      pool_stop_ = true;
    }
    pool_cv_.notify_all();
    for (std::thread& worker : pool_workers_) worker.join();
  }
}

void AsyncBlockIo::SubmitRead(int fd, uint64_t offset, void* buf, uint32_t len,
                              std::function<void(int64_t)> done) {
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] { return inflight_ < queue_depth_; });
    ++inflight_;
  }
  reads_submitted_.fetch_add(1, std::memory_order_relaxed);
  Request* request = new Request{fd, offset, buf, len, std::move(done)};
  if (backend_ == IoBackend::kIoUring) {
    std::lock_guard<std::mutex> lock(submit_mu_);
    UringSubmitLocked(request);
  } else {
    // Wake under the lock: once the request is visible a worker can
    // complete it and a concurrent Drain() + destructor can run.
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_queue_.push_back(request);
    pool_cv_.notify_one();
  }
}

void AsyncBlockIo::Complete(Request* request, int64_t result) {
  // Run the callback before releasing the in-flight slot: once Drain()
  // observes zero, every completion callback has finished — the property
  // AsyncDiskTier's drain-then-Unregister destructor depends on.
  std::function<void(int64_t)> done = std::move(request->done);
  delete request;
  done(result);
  reads_completed_.fetch_add(1, std::memory_order_relaxed);
  // Wake under the lock: a Drain() that sees zero may return the moment
  // the lock is released. Only the destructor's worker/reaper join keeps
  // inflight_cv_ alive past that point; the wake must not rely on it.
  std::lock_guard<std::mutex> lock(inflight_mu_);
  --inflight_;
  inflight_cv_.notify_all();
}

void AsyncBlockIo::PoolWorkerLoop() {
  for (;;) {
    Request* request = nullptr;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock,
                    [this] { return pool_stop_ || !pool_queue_.empty(); });
      if (pool_queue_.empty()) return;  // stop requested, queue drained
      request = pool_queue_.front();
      pool_queue_.pop_front();
    }
    int64_t result = 0;
    for (;;) {
      const ssize_t n = pread(
          request->fd, static_cast<char*>(request->buf) + request->progress,
          request->len - request->progress,
          static_cast<off_t>(request->offset + request->progress));
      if (n < 0) {
        if (errno == EINTR) continue;
        result = -static_cast<int64_t>(errno);
        break;
      }
      request->progress += static_cast<uint32_t>(n);
      if (n == 0 || request->progress == request->len) {
        result = request->progress;  // full, or EOF-truncated total
        break;
      }
    }
    Complete(request, result);
  }
}

void AsyncBlockIo::Drain() {
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

// --------------------------------------------------------------------------
// AsyncDiskTier
// --------------------------------------------------------------------------

/// One batch of cold-block reads in flight. `remaining` is pre-charged
/// with the full entry count before any submission, so the finalizer can
/// only be the genuinely last completion.
struct AsyncDiskTier::BlockGroup {
  struct Entry {
    uint64_t block = 0;
    void* buf = nullptr;
    uint32_t len = 0;
    int64_t result = 0;
  };
  std::vector<Entry> entries;
  std::atomic<size_t> remaining{0};
  std::function<void()> done;
  bool prefetch = false;
};

AsyncDiskTier::AsyncDiskTier(const MappedFile* file, const std::string& path,
                             BlockCache* cache,
                             std::vector<uint32_t> block_crcs,
                             const AsyncIoOptions& io_options)
    : file_(file),
      cache_(cache),
      token_(cache->RegisterFile()),
      block_crcs_(std::move(block_crcs)),
      io_(io_options) {
  fd_ = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  GAT_CHECK(fd_ >= 0);
#ifdef O_DIRECT
  // O_DIRECT wants device-aligned offsets/lengths/buffers; only worth a
  // descriptor when whole cache blocks satisfy that. tmpfs and some
  // filesystems refuse the flag outright (EINVAL) — then direct_fd_
  // stays -1 and every read goes buffered, same results, no O_DIRECT.
  if (cache_->block_bytes() % 4096 == 0) {
    direct_fd_ = open(path.c_str(), O_RDONLY | O_CLOEXEC | O_DIRECT);
  }
#endif
}

AsyncDiskTier::~AsyncDiskTier() {
  // Drain before Unregister: a still-flying completion publishes through
  // a live token or not at all — never into a recycled file id.
  io_.Drain();
  cache_->Unregister(token_);
  if (direct_fd_ >= 0) close(direct_fd_);
  close(fd_);
}

void AsyncDiskTier::Fetch(uint64_t offset, uint64_t bytes,
                          DiskAccessCounter* counter) const {
  // Identical logical accounting to SimulatedDiskTier / MappedDiskTier:
  // nullptr = reuse, no charge; one RecordRead per charged fetch; then
  // per-block hit/read bookkeeping in block order.
  if (counter == nullptr) return;
  counter->RecordRead();
  if (bytes == 0) return;
  GAT_DCHECK(offset + bytes <= file_->size());
  const uint32_t bs = cache_->block_bytes();
  const uint64_t first = offset / bs;
  const uint64_t last = (offset + bytes - 1) / bs;
  std::vector<uint64_t> cold;
  for (uint64_t b = first; b <= last; ++b) {
    if (cache_->Touch(token_, b)) {
      counter->RecordBlockHit();
    } else {
      counter->RecordBlockRead();
      cold.push_back(b);
    }
  }
  if (cold.empty()) return;
  // A demand miss that was not staged ahead of time blocks this worker
  // until the reads land — the stall the staging path exists to avoid,
  // and the metric that proves it did.
  worker_stalls_.fetch_add(1, std::memory_order_relaxed);
  stalled_blocks_.fetch_add(cold.size(), std::memory_order_relaxed);
  ReadBlocksBlocking(std::move(cold), /*prefetch=*/false);
}

void AsyncDiskTier::Prefetch(uint64_t offset, uint64_t bytes) const {
  if (bytes == 0) return;
  GAT_DCHECK(offset + bytes <= file_->size());
  const uint32_t bs = cache_->block_bytes();
  const uint64_t first = offset / bs;
  const uint64_t last = (offset + bytes - 1) / bs;
  std::vector<uint64_t> cold;
  for (uint64_t b = first; b <= last; ++b) {
    if (!cache_->Warm(token_, b)) cold.push_back(b);
  }
  ReadBlocksBlocking(std::move(cold), /*prefetch=*/true);
}

size_t AsyncDiskTier::StageExtents(
    std::span<const std::pair<uint64_t, uint64_t>> extents,
    std::function<void()> ready) const {
  const uint32_t bs = cache_->block_bytes();
  std::vector<uint64_t> blocks;
  for (const auto& [offset, bytes] : extents) {
    if (bytes == 0) continue;
    GAT_DCHECK(offset + bytes <= file_->size());
    const uint64_t first = offset / bs;
    const uint64_t last = (offset + bytes - 1) / bs;
    for (uint64_t b = first; b <= last; ++b) blocks.push_back(b);
  }
  // Dedup before touching the cache: overlapping extents would otherwise
  // warm (and possibly read) the same block twice.
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  std::vector<uint64_t> cold;
  for (uint64_t b : blocks) {
    if (!cache_->Warm(token_, b)) cold.push_back(b);
  }
  if (cold.empty()) {
    ready();
    return 0;
  }
  const size_t staged = cold.size();
  staged_blocks_.fetch_add(staged, std::memory_order_relaxed);
  SubmitBlockReads(std::move(cold), std::move(ready), /*prefetch=*/true);
  return staged;
}

void AsyncDiskTier::SubmitBlockReads(std::vector<uint64_t> blocks,
                                     std::function<void()> done,
                                     bool prefetch) const {
  if (blocks.empty()) {
    done();
    return;
  }
  auto* group = new BlockGroup;
  group->done = std::move(done);
  group->prefetch = prefetch;
  group->entries.reserve(blocks.size());
  const uint32_t bs = cache_->block_bytes();
  for (uint64_t b : blocks) {
    GAT_CHECK(b < block_crcs_.size());
    const uint64_t start = b * static_cast<uint64_t>(bs);
    const uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(bs, static_cast<uint64_t>(file_->size()) - start));
    const bool direct = direct_fd_ >= 0 && len % 4096 == 0;
    void* buf = direct ? std::aligned_alloc(4096, len) : std::malloc(len);
    GAT_CHECK(buf != nullptr);
    group->entries.push_back({b, buf, len, 0});
  }
  // Pre-charge the countdown before any submission: early completions
  // can then never see remaining hit zero while later entries are still
  // being submitted. The count is hoisted because the moment the last
  // SubmitRead returns, the final completion may finalize and delete
  // the group on the I/O thread — `group` is unusable after that call.
  const size_t count = group->entries.size();
  group->remaining.store(count, std::memory_order_relaxed);
  for (size_t i = 0; i < count; ++i) {
    BlockGroup::Entry& e = group->entries[i];
    const uint64_t start = e.block * static_cast<uint64_t>(bs);
    const bool direct = direct_fd_ >= 0 && e.len % 4096 == 0;
    io_.SubmitRead(direct ? direct_fd_ : fd_, start, e.buf, e.len,
                   [this, group, i](int64_t result) {
                     group->entries[i].result = result;
                     if (group->remaining.fetch_sub(
                             1, std::memory_order_acq_rel) == 1) {
                       FinalizeGroup(group);
                     }
                   });
  }
}

void AsyncDiskTier::FinalizeGroup(BlockGroup* group) const {
  // Verify-then-publish, in block order regardless of completion order:
  // residency becomes visible only after the bytes passed the map-time
  // checksum, and the cache's recency order is a deterministic function
  // of the logical access sequence — the property the committed t1
  // bench counters gate across backends.
  for (const BlockGroup::Entry& e : group->entries) {
    GAT_CHECK(e.result == static_cast<int64_t>(e.len));
    GAT_CHECK(Crc32(static_cast<const char*>(e.buf), e.len) ==
              block_crcs_[e.block]);
    cache_->Publish(token_, e.block, group->prefetch);
    std::free(e.buf);
  }
  async_reads_.fetch_add(group->entries.size(), std::memory_order_relaxed);
  std::function<void()> done = std::move(group->done);
  delete group;
  done();
}

void AsyncDiskTier::ReadBlocksBlocking(std::vector<uint64_t> blocks,
                                       bool prefetch) const {
  if (blocks.empty()) return;
  // The event lives in this frame and the completion signals it from the
  // I/O thread. Notification wakes us under its lock, so the signal can
  // never land after we returned and reused the frame.
  Notification done;
  SubmitBlockReads(std::move(blocks), [&done] { done.Notify(); }, prefetch);
  done.Wait();
}

AsyncTierStats AsyncDiskTier::stats() const {
  AsyncTierStats s;
  s.worker_stalls = worker_stalls_.load(std::memory_order_relaxed);
  s.stalled_blocks = stalled_blocks_.load(std::memory_order_relaxed);
  s.staged_blocks = staged_blocks_.load(std::memory_order_relaxed);
  s.async_reads = async_reads_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gat
