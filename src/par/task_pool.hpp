// Work-stealing parallel substrate shared by construction, verification and
// the bench suite.
//
// TaskPool owns N-1 worker threads plus the calling thread (N participants
// total).  A parallel region partitions an index range into chunks; every
// participant owns a Chase–Lev-style deque seeded with a contiguous block
// of chunks, pops work from its own bottom and steals from other deques'
// tops when it runs dry.  Regions are synchronous: run_chunks returns only
// after every chunk executed and every worker parked again, so callers may
// treat the body like a loop body that happened to run on several threads.
//
// Determinism contract: the pool never decides *what* is computed, only
// *where*.  Chunk boundaries depend solely on (range, grain), never on the
// thread count or the steal pattern, so a body that writes results indexed
// by chunk or element — and a caller that merges per-worker scratch in a
// fixed order — produces bit-identical output for every thread count,
// including the serial threads=1 collapse (which runs the body inline with
// no atomics at all).  parallel_reduce folds chunk partials in ascending
// chunk order for the same reason.
//
// Sizing: TaskPool::global() reads HYPERPATH_THREADS (falling back to
// hardware_concurrency) once on first use; set_global_threads() (the CLI
// --threads flag) replaces the pool.  threads=1 means "no worker threads,
// run everything inline" — the pure serial path.
//
// Errors: a body exception does not tear down the pool.  Every participant
// records its lowest-chunk exception; after the region the exception of the
// overall lowest throwing chunk is rethrown on the caller, so error
// selection is as deterministic as the body itself (the set of throwing
// chunks is a function of the input, not of the schedule).
//
// Observability: each region brackets itself in an obs::Profiler span
// ("par/region") on the calling thread.  Region, task and steal totals and
// per-worker busy time are read from stats().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hyperpath::par {

class TaskPool {
 public:
  /// Hard cap on participants.
  static constexpr int kMaxThreads = 64;

  /// N participants: the calling thread plus N-1 workers.  threads <= 0
  /// resolves via resolve_threads(0) (HYPERPATH_THREADS, then hardware).
  explicit TaskPool(int threads = 0);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int threads() const { return threads_; }

  /// Executes body(chunk, worker) for every chunk in [0, num_chunks), with
  /// worker in [0, threads()) identifying the executing participant (0 is
  /// always the caller in the serial and single-chunk collapses).  Blocks
  /// until all chunks ran; rethrows the lowest throwing chunk's exception.
  /// Reentrant calls from inside a region run inline on the current thread
  /// with worker = 0, so per-worker scratch must be allocated per call, not
  /// per pool.
  void run_chunks(std::size_t num_chunks,
                  const std::function<void(std::size_t, int)>& body);

  /// Lifetime totals (monotone; read while quiescent for exact values).
  struct Stats {
    std::uint64_t regions = 0;
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    std::vector<double> busy_seconds;  // per participant
  };
  Stats stats() const;

  /// requested > 0 → clamped to [1, kMaxThreads]; otherwise the
  /// HYPERPATH_THREADS environment variable, and failing that
  /// hardware_concurrency() (at least 1).
  static int resolve_threads(int requested);

  /// The process-wide pool (created on first use).
  static TaskPool& global();

 private:
  // Chase–Lev deque over chunk ids.  The owner fills it while the pool is
  // quiescent (before workers are released into the region), pops from the
  // bottom during the region; thieves steal from the top.  All cross-thread
  // ops are seq_cst — regions are coarse enough that deque traffic is not
  // the bottleneck, and seq_cst keeps the classic algorithm's correctness
  // argument (and TSan's happens-before model) exact.
  struct Deque {
    std::vector<std::uint64_t> buf;  // capacity: power of two
    std::uint64_t mask = 0;
    std::atomic<std::int64_t> top{0};
    std::atomic<std::int64_t> bottom{0};

    void reset(std::size_t capacity);
    void fill_push(std::uint64_t v);  // quiescent fill only
    bool pop(std::uint64_t* out);     // owner
    bool steal(std::uint64_t* out);   // thieves
  };

  struct Participant {
    Deque deque;
    std::uint64_t steals = 0;
    double busy_seconds = 0;
    std::size_t err_chunk = SIZE_MAX;
    std::exception_ptr err;
  };

  void worker_loop(int index);
  void participate(int index);
  void execute(std::uint64_t chunk, int worker);

  int threads_ = 1;
  // Fixed array, not a vector: Participant holds atomics and is neither
  // movable nor copyable.
  std::unique_ptr<Participant[]> parts_;
  std::vector<std::thread> workers_;

  // Region handoff: workers park on cv_start_ between regions.
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  std::uint64_t round_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  const std::function<void(std::size_t, int)>* body_ = nullptr;
  std::atomic<std::size_t> remaining_{0};

  // Lifetime stats.  Atomic because the serial-collapse path of run_chunks
  // can execute reentrantly on several workers of an enclosing region.
  std::atomic<std::uint64_t> stat_regions_{0};
  std::atomic<std::uint64_t> stat_tasks_{0};
  std::atomic<std::uint64_t> stat_steals_{0};
};

/// Replaces the global pool with one of `threads` participants (resolved
/// via TaskPool::resolve_threads).  Must not be called while a region is
/// running.  Also records the new size as RunMetadata's effective thread
/// count.
void set_global_threads(int threads);

/// The global pool's participant count (creates the pool on first use).
int global_threads();

/// Thread-local pool override: within a PoolScope, current_pool() (and so
/// parallel_for / parallel_reduce and everything built on them) uses the
/// given pool instead of the global one.  This is how tests and benches
/// drive library-internal parallelism at a specific thread count without
/// threading a pool argument through every construction API.
TaskPool& current_pool();
class PoolScope {
 public:
  explicit PoolScope(TaskPool& pool);
  ~PoolScope();
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  TaskPool* prev_;
};

/// Number of grain-sized chunks covering [0, total).
inline std::size_t chunk_count(std::size_t total, std::size_t grain) {
  if (grain == 0) grain = 1;
  return (total + grain - 1) / grain;
}

/// A grain that yields ~16 chunks per participant (enough slack for
/// stealing to balance uneven chunks) without dropping below min_grain
/// items per task.
std::size_t suggested_grain(std::size_t total, std::size_t min_grain = 64);

/// Runs body(chunk_index, lo, hi, worker) over the grain-decomposition of
/// [begin, end) on current_pool().  Chunk boundaries depend only on
/// (begin, end, grain).
void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t, int)>&
        body);

/// Runs body(lo, hi) over grain-sized sub-ranges of [begin, end).
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Maps each chunk of [begin, end) to a partial result and folds the
/// partials in ascending chunk order: reduce(reduce(identity, part_0),
/// part_1)... — deterministic for any thread count, including
/// non-commutative folds.
template <typename T, typename Map, typename Reduce>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T identity, Map&& map, Reduce&& reduce) {
  const std::size_t n = chunk_count(end - begin, grain);
  if (n == 0) return identity;
  std::vector<T> partial(n, identity);
  parallel_for_chunks(begin, end, grain,
                      [&](std::size_t chunk, std::size_t lo, std::size_t hi,
                          int) { partial[chunk] = map(lo, hi); });
  T acc = std::move(identity);
  for (std::size_t c = 0; c < n; ++c) {
    acc = reduce(std::move(acc), std::move(partial[c]));
  }
  return acc;
}

}  // namespace hyperpath::par
