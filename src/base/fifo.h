// Fifo: a first-in first-out queue that keeps its capacity.
//
// std::deque allocates a block every few pushes and frees one every few
// pops, so a queue that churns at a steady depth — the executive's service
// and outgoing queues, a channel's message queue — keeps the allocator busy
// forever. Fifo is a ring over a power-of-two vector: it grows to the
// deepest depth it has seen and then never allocates again. Unused slots
// hold default-constructed values; pop_front and erase reset the slot they
// vacate, so a removed element's resources are released at once, as with a
// deque.

#ifndef AURAGEN_SRC_BASE_FIFO_H_
#define AURAGEN_SRC_BASE_FIFO_H_

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "src/base/check.h"

namespace auragen {

template <typename T>
class Fifo {
  template <typename Q, typename V>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = V*;
    using reference = V&;

    Iter() = default;
    Iter(Q* q, size_t i) : q_(q), i_(i) {}
    V& operator*() const { return q_->at(i_); }
    V* operator->() const { return &q_->at(i_); }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.i_ == b.i_; }

   private:
    friend class Fifo;
    Q* q_ = nullptr;
    size_t i_ = 0;  // position from the front
  };

 public:
  using iterator = Iter<Fifo, T>;
  using const_iterator = Iter<const Fifo, const T>;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return at(0); }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  // Appends a default-valued element and returns it for the caller to
  // fill in place (a Task moves straight into its slot, once).
  T& emplace_back() {
    if (size_ == slots_.size()) {
      Grow();
    }
    T& slot = slots_[Slot(size_)];
    ++size_;
    return slot;
  }
  void push_back(T&& v) { emplace_back() = std::move(v); }
  void push_back(const T& v) { emplace_back() = v; }

  // Puts an element back at the front (a lane returning a frame its failed
  // line never delivered).
  void push_front(T&& v) {
    if (size_ == slots_.size()) {
      Grow();
    }
    head_ = (head_ + slots_.size() - 1) & (slots_.size() - 1);
    slots_[head_] = std::move(v);
    ++size_;
  }

  void pop_front() {
    AURAGEN_CHECK(size_ != 0) << "pop_front of an empty Fifo";
    slots_[head_] = T();
    head_ = Slot(1);
    --size_;
  }

  // Removes one element, shifting the ones behind it forward (O(distance
  // to the back); the front, where the queues erase most, is O(1)).
  // Returns the iterator to the element that followed it.
  iterator erase(iterator it) {
    if (it.i_ == 0) {
      pop_front();
      return it;
    }
    for (size_t i = it.i_; i + 1 < size_; ++i) {
      at(i) = std::move(at(i + 1));
    }
    at(size_ - 1) = T();
    --size_;
    return it;
  }

  // Drops every element; the capacity stays.
  void clear() {
    while (size_ != 0) {
      pop_front();
    }
    head_ = 0;
  }

 private:
  size_t Slot(size_t i) const { return (head_ + i) & (slots_.size() - 1); }
  T& at(size_t i) {
    AURAGEN_CHECK(i < size_) << "Fifo index" << i << "past size" << size_;
    return slots_[Slot(i)];
  }
  const T& at(size_t i) const {
    AURAGEN_CHECK(i < size_) << "Fifo index" << i << "past size" << size_;
    return slots_[Slot(i)];
  }

  void Grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[Slot(i)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_BASE_FIFO_H_
