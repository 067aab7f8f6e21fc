#include "storage/single_flight.hpp"

namespace adr {

void Flight::complete(const std::optional<Chunk>& chunk) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    chunk_ = chunk;
    done_ = true;
  }
  published_.notify_all();
}

void Flight::fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error_ = std::move(error);
    done_ = true;
  }
  published_.notify_all();
}

std::optional<Chunk> Flight::wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  published_.wait(lock, [this] { return done_; });
  if (error_) std::rethrow_exception(error_);
  return chunk_;
}

std::shared_ptr<Flight> FlightTable::find(ChunkId id) const {
  auto it = flights_.find(id);
  return it == flights_.end() ? nullptr : it->second;
}

std::shared_ptr<Flight> FlightTable::start(ChunkId id) {
  auto flight = std::make_shared<Flight>();
  flights_[id] = flight;
  return flight;
}

void FlightTable::invalidate(ChunkId id) {
  auto it = flights_.find(id);
  if (it == flights_.end()) return;
  it->second->stale = true;
  flights_.erase(it);
}

void FlightTable::finish(ChunkId id, const Flight& flight) {
  auto it = flights_.find(id);
  if (it != flights_.end() && it->second.get() == &flight) flights_.erase(it);
}

}  // namespace adr
