#include "comm/async_executor.hpp"

#include <vector>

#include "common/error.hpp"
#include "linalg/threading.hpp"
#include "obs/trace.hpp"

namespace dkfac::comm {

namespace {
size_t eager_bytes_from(size_t capacity_bytes, size_t eager_bytes) {
  size_t eager = eager_bytes == 0 ? capacity_bytes / 4 : eager_bytes;
  if (eager < 1) eager = 1;
  return eager < capacity_bytes ? eager : capacity_bytes;
}
}  // namespace

AsyncExecutor::AsyncExecutor(Communicator& comm, size_t capacity_bytes,
                             size_t eager_bytes)
    : comm_(comm),
      capacity_bytes_(capacity_bytes),
      eager_bytes_(eager_bytes_from(capacity_bytes_, eager_bytes)),
      fusion_(comm, capacity_bytes) {
  DKFAC_CHECK(capacity_bytes_ >= sizeof(float))
      << "async executor buffer too small";
  worker_ = std::thread([this] { worker_loop(); });
}

AsyncExecutor::~AsyncExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_one();
  worker_.join();
}

void AsyncExecutor::submit(const BufferView& view, ReduceOp op) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(Item{view, op, /*flush=*/false, ++next_ticket_});
    ++stats_.submitted;
  }
  work_ready_.notify_one();
}

void AsyncExecutor::wait() {
  // The span is this wait's clock: its duration is the per-rank
  // wait_seconds the overlap metrics split collective time by.
  DKFAC_TRACE_SCOPE_NAMED(wait_span, "comm.async.wait");
  std::unique_lock<std::mutex> lock(mutex_);
  const uint64_t ticket = ++next_ticket_;
  queue_.push_back(Item{{}, ReduceOp::kSum, /*flush=*/true, ticket});
  work_ready_.notify_one();
  ticket_done_.wait(lock, [&] { return completed_ticket_ >= ticket; });
  wait_span.close();
  stats_.wait_seconds += wait_span.seconds();
  if (error_) {
    const std::exception_ptr error = error_;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

bool AsyncExecutor::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_ticket_ < next_ticket_;
}

AsyncExecutor::Stats AsyncExecutor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void AsyncExecutor::execute_batch(std::vector<Item>& batch,
                                  size_t& batch_bytes) {
  if (batch.empty()) return;
  bool failed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    failed = error_ != nullptr;
  }
  if (!failed) {
    try {
      for (const Item& item : batch) fusion_.add(item.view);
      // The span times the fused collective: its duration is the
      // per-rank comm_seconds (see wait()).
      DKFAC_TRACE_SCOPE_NAMED(flush_span, "comm.async.flush");
      if (flush_span.active()) {
        flush_span.set_arg("bytes", batch_bytes);
        flush_span.set_arg("tensors", batch.size());
      }
      fusion_.execute(batch.front().op);
      flush_span.close();
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.comm_seconds += flush_span.seconds();
      ++stats_.batches;
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    completed_ticket_ = batch.back().ticket;
  }
  ticket_done_.notify_all();
  batch.clear();
  batch_bytes = 0;
}

void AsyncExecutor::worker_loop() {
  obs::Tracer::set_thread_name("comm.worker");
  // This worker runs concurrently with the submitting thread's OMP team: any
  // linalg kernel reached from here (codec folds, backend reductions) must
  // not open a second team on top of it.
  linalg::SerialKernelScope serial_kernels;
  // The batch under construction. Boundaries depend only on the submission
  // sequence (capacity, op change, flush), never on queue timing, so every
  // rank cuts identical batches — the cross-rank collective-matching
  // invariant rendezvous communicators depend on.
  std::vector<Item> batch;
  size_t batch_bytes = 0;

  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop requested and fully drained
      item = queue_.front();
      queue_.pop_front();
    }

    if (item.flush) {
      execute_batch(batch, batch_bytes);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        completed_ticket_ = item.ticket;
      }
      ticket_done_.notify_all();
      continue;
    }

    if (!batch.empty() &&
        (item.op != batch.front().op ||
         item.view.precision() != batch.front().view.precision() ||
         batch_bytes + item.view.size_bytes() > capacity_bytes_)) {
      execute_batch(batch, batch_bytes);
    }
    batch_bytes += item.view.size_bytes();
    batch.push_back(item);
    // Launch at the eager threshold: a ready batch sitting in the queue
    // is overlap thrown away.
    if (batch_bytes >= eager_bytes_) {
      execute_batch(batch, batch_bytes);
    }
  }

  // Shutdown with work still batched: finish it so destruction never loses
  // submitted reductions (symmetric across ranks — every peer drains the
  // same tail).
  execute_batch(batch, batch_bytes);
}

}  // namespace dkfac::comm
