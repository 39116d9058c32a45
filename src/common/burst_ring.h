// BurstRing: the one thread handoff in this library.
//
// A single producer hands whole bursts to a single consumer through a
// fixed number of preallocated slots, in order. It models the
// shared-memory channel of the paper's OVS deployment (Section VII): the
// datapath fills a burst of flow ids, the user-space HeavyKeeper applies
// it. Every threaded stage uses it: serve's parse -> apply ingest, the
// per-shard rings of threaded `Sharded:` and the OVS pipelines.
//
// Back-pressure: nobody spins. A side sleeps on its condition variable
// only when its side of the ring is full or empty (a notify with no
// sleeper makes no system call). A producer that found the ring full is
// woken once `refill` slots are free. Half the ring batches the wakes of a
// producer that does nothing else (serve's parse stage, the OVS
// datapath): waking them at every freed slot cost caida-window ~4% of
// its ingest rate, now and then collapsed a run to a quarter of it, and
// cost Figure 34's sketch pipelines 3-14%. One slot bounds how long a
// producer that also answers queries (threaded Sharded's InsertBatch
// caller) stays blocked: at half a ring, zipf-sharded's query_p50_us rose
// ~30%.
//
// `published_` and `released_` are free-running counters under mu_; their
// difference is the number of slots in flight. Slot contents are written
// and read outside mu_: the lock taken to publish or release a slot orders
// them, so whatever the consumer did before Release() (a sketch update,
// say) is visible to a producer that has since acquired that lock.
#ifndef HK_COMMON_BURST_RING_H_
#define HK_COMMON_BURST_RING_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace hk {

template <typename Slot>
class BurstRing {
 public:
  // `slots` >= 2, 1 <= `refill` <= `slots`. `prepare` runs once on every
  // slot before any thread uses the ring: reserve the burst buffers there,
  // so neither side allocates on its normal path.
  BurstRing(size_t slots, size_t refill, const std::function<void(Slot&)>& prepare = nullptr)
      : slots_(slots), wake_in_flight_(slots - refill) {
    if (slots < 2 || refill < 1 || refill > slots) {
      throw std::invalid_argument("BurstRing: needs two slots or more and 1 <= refill <= slots");
    }
    if (prepare) {
      for (Slot& slot : slots_) {
        prepare(slot);
      }
    }
  }

  BurstRing(const BurstRing&) = delete;
  BurstRing& operator=(const BurstRing&) = delete;

  // Producer. A free slot to fill, or nullptr once the consumer has
  // Close()d the ring. Sleeps on a full ring until `refill` slots are free.
  Slot* AcquireFree() {
    std::unique_lock<std::mutex> lock(mu_);
    if (published_ - released_ == slots_.size()) {
      free_cv_.wait(lock, [&] { return closed_ || published_ - released_ <= wake_in_flight_; });
    }
    return closed_ ? nullptr : &slots_[published_ % slots_.size()];
  }

  // Producer. Hands the slot AcquireFree() returned to the consumer and
  // returns the number of slots now in flight, this one included.
  size_t Publish() {
    size_t in_flight;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++published_;
      in_flight = published_ - released_;
    }
    full_cv_.notify_one();
    return in_flight;
  }

  // Producer. No more slots: the consumer drains what was published, then
  // AcquireFull() returns nullptr for good.
  void Finish() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      finished_ = true;
    }
    full_cv_.notify_one();
  }

  // Producer (or whoever the producer's thread model admits). Returns once
  // every published slot has been released, so the consumer's work on them
  // is visible to the caller. It shares free_cv_ with AcquireFree(), which
  // is why Release() and Close() wake every sleeper there.
  void WaitDrained() {
    std::unique_lock<std::mutex> lock(mu_);
    free_cv_.wait(lock, [&] { return closed_ || published_ == released_; });
  }

  // Consumer. The oldest published, unreleased slot. nullptr when there is
  // none to take: for good once Finish() was called and every slot was
  // released (Done() then reads true), or for this call only when Wake()
  // cut the wait short.
  const Slot* AcquireFull() {
    std::unique_lock<std::mutex> lock(mu_);
    full_cv_.wait(lock, [&] { return published_ != released_ || finished_ || woken_; });
    woken_ = false;
    return published_ == released_ ? nullptr : &slots_[released_ % slots_.size()];
  }

  // Consumer. Returns the slot AcquireFull() gave out to the producer.
  void Release() {
    bool refilled;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++released_;
      refilled = published_ - released_ <= wake_in_flight_;
    }
    if (refilled) {
      free_cv_.notify_all();
    }
  }

  // Consumer. It is leaving: wake the producer and refuse it slots.
  void Close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    free_cv_.notify_all();
  }

  // Any thread. Makes the consumer's pending or next AcquireFull() return
  // at once, nullptr if no slot is waiting, so an idle consumer can answer
  // a request posted outside the ring.
  void Wake() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      woken_ = true;
    }
    full_cv_.notify_one();
  }

  // Consumer. True once Finish() was called and every published slot has
  // been released.
  bool Done() {
    const std::lock_guard<std::mutex> lock(mu_);
    return finished_ && published_ == released_;
  }

 private:
  std::vector<Slot> slots_;
  const size_t wake_in_flight_;  // slots - refill
  std::mutex mu_;
  std::condition_variable free_cv_;  // the producer waits for a free slot or the drain
  std::condition_variable full_cv_;  // the consumer waits for a slot or a wake
  uint64_t published_ = 0;
  uint64_t released_ = 0;
  bool finished_ = false;
  bool closed_ = false;
  bool woken_ = false;
};

}  // namespace hk

#endif  // HK_COMMON_BURST_RING_H_
