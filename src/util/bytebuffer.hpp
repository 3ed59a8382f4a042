#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace jungle::util {

/// Append-only binary writer used for all wire messages in the stack
/// (channels, IPL messages, MPI payloads). The byte size of a buffer is what
/// the simulated network charges for, so every protocol message goes through
/// here.
///
/// The writer is scatter-gather aware: besides plain appends it can
///  - reserve a fixed-size *prefix* at construction (frame headers that a
///    transport patches in later without re-copying the payload),
///  - record *borrowed* spans (`put_span_view`) that are only copied once,
///    at `take()` time, straight into the final wire buffer, and
///  - splice another writer's segments (`append`) without copying a byte.
/// This is what lets the RPC layer frame bulk arrays with exactly one copy
/// between the kernel's memory and the wire.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Reserve `prefix` zeroed bytes at the very start of the buffer. They are
  /// part of size() and take(); fill them with patch().
  explicit ByteWriter(std::size_t prefix) : prefix_(prefix) {
    tail_.resize(prefix, 0);
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    const auto* raw = reinterpret_cast<const std::uint8_t*>(&value);
    tail_.insert(tail_.end(), raw, raw + sizeof(T));
  }

  void put_string(const std::string& text) {
    put<std::uint32_t>(static_cast<std::uint32_t>(text.size()));
    tail_.insert(tail_.end(), text.begin(), text.end());
  }

  /// Raw bytes, no count prefix (error texts, opaque relayed frames).
  void put_bytes(std::span<const std::uint8_t> bytes) {
    tail_.insert(tail_.end(), bytes.begin(), bytes.end());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(std::span<const T> values) {
    put<std::uint64_t>(values.size());
    const auto* raw = reinterpret_cast<const std::uint8_t*>(values.data());
    tail_.insert(tail_.end(), raw, raw + values.size_bytes());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& values) {
    put_span(std::span<const T>(values));
  }

  /// Frame `values` *by reference*: the bytes are not copied now but at
  /// take() time, directly into the gathered wire buffer. The span must stay
  /// valid (and unmodified) until then — fine for worker replies that are
  /// serialized and handed to the transport within one scheduling turn.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span_view(std::span<const T> values) {
    put<std::uint64_t>(values.size());
    if (values.empty()) return;
    seal_tail();
    Segment view;
    view.view = std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(values.data()),
        values.size_bytes());
    sealed_bytes_ += view.view.size();
    segments_.push_back(view);
  }

  /// Splice all of `other`'s content after this writer's content. Owned
  /// storage is moved, borrowed views stay borrowed: no payload bytes are
  /// copied. `other` is left empty.
  void append(ByteWriter&& other) {
    seal_tail();
    for (auto& segment : other.segments_) {
      sealed_bytes_ +=
          segment.owned.empty() ? segment.view.size() : segment.owned.size();
      segments_.push_back(std::move(segment));
    }
    if (!other.tail_.empty()) {
      sealed_bytes_ += other.tail_.size();
      segments_.push_back(Segment{std::move(other.tail_), {}});
    }
    other.segments_.clear();
    other.tail_.clear();
    other.sealed_bytes_ = 0;
  }

  /// Overwrite bytes inside the reserved prefix (frame id, function, flags).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void patch(std::size_t offset, const T& value) {
    if (offset + sizeof(T) > prefix_) {
      throw WireError("patch outside the reserved frame prefix");
    }
    std::vector<std::uint8_t>& first =
        segments_.empty() ? tail_ : segments_.front().owned;
    std::memcpy(first.data() + offset, &value, sizeof(T));
  }

  std::size_t prefix() const noexcept { return prefix_; }

  std::size_t size() const noexcept { return sealed_bytes_ + tail_.size(); }

  /// Materialize the wire buffer. Single-segment writers (the common case:
  /// header prefix + inline puts) are moved out without any copy.
  std::vector<std::uint8_t> take() && {
    if (segments_.empty()) return std::move(tail_);
    std::vector<std::uint8_t> gathered;
    gathered.reserve(size());
    for (const Segment& segment : segments_) {
      if (segment.owned.empty()) {
        gathered.insert(gathered.end(), segment.view.begin(),
                        segment.view.end());
      } else {
        gathered.insert(gathered.end(), segment.owned.begin(),
                        segment.owned.end());
      }
    }
    gathered.insert(gathered.end(), tail_.begin(), tail_.end());
    return gathered;
  }

 private:
  /// One sealed stretch of the message: owned bytes, or a borrowed view.
  struct Segment {
    std::vector<std::uint8_t> owned;
    std::span<const std::uint8_t> view;
  };

  void seal_tail() {
    if (tail_.empty()) return;
    sealed_bytes_ += tail_.size();
    segments_.push_back(Segment{std::move(tail_), {}});
    tail_.clear();
  }

  std::vector<Segment> segments_;
  std::vector<std::uint8_t> tail_;
  std::size_t sealed_bytes_ = 0;
  std::size_t prefix_ = 0;
};

/// Sequential reader over a received buffer. Throws WireError on underrun so
/// malformed frames surface as errors rather than garbage reads. A reader
/// can start at an offset into the buffer (a transport that parsed the frame
/// header hands the rest to the payload consumer without copying it out).
class ByteReader {
 public:
  explicit ByteReader(std::vector<std::uint8_t> bytes, std::size_t start = 0)
      : bytes_(std::move(bytes)), cursor_(start) {
    if (cursor_ > bytes_.size()) {
      throw WireError("reader offset beyond buffer");
    }
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, bytes_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  std::string get_string() {
    auto length = get<std::uint32_t>();
    require(length);
    std::string text(reinterpret_cast<const char*>(bytes_.data() + cursor_),
                     length);
    cursor_ += length;
    return text;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    std::size_t count = checked_count<T>();
    std::vector<T> values(count);
    // An empty vector's data() may be null, and memcpy with a null pointer
    // is undefined even for zero bytes.
    if (count != 0) {
      std::memcpy(values.data(), bytes_.data() + cursor_, count * sizeof(T));
    }
    cursor_ += count * sizeof(T);
    return values;
  }

  /// Zero-copy read of a framed array: a view straight into the receive
  /// buffer, valid for this reader's lifetime. The protocol must keep array
  /// payloads aligned for T (our RPC frames use fixed 8-byte headers and
  /// 8-byte-multiple fields ahead of spans); a misaligned read is a protocol
  /// bug and throws.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::span<const T> get_span() {
    std::size_t count = checked_count<T>();
    const std::uint8_t* data = bytes_.data() + cursor_;
    if (reinterpret_cast<std::uintptr_t>(data) % alignof(T) != 0) {
      throw WireError("misaligned span read at offset " +
                      std::to_string(cursor_));
    }
    cursor_ += count * sizeof(T);
    return std::span<const T>(reinterpret_cast<const T*>(data), count);
  }

  std::size_t cursor() const noexcept { return cursor_; }
  std::size_t remaining() const noexcept { return bytes_.size() - cursor_; }
  bool exhausted() const noexcept { return remaining() == 0; }

  /// Give the underlying buffer back (e.g. to re-seat a reader at the
  /// payload offset in another owner). The reader must not be used after.
  std::vector<std::uint8_t> release() && { return std::move(bytes_); }

 private:
  void require(std::size_t needed) const {
    if (bytes_.size() - cursor_ < needed) {
      throw WireError("buffer underrun: need " + std::to_string(needed) +
                      " bytes, have " + std::to_string(remaining()));
    }
  }

  /// Read an array count and validate it against the remaining bytes
  /// *before* multiplying — a corrupt 2^61-ish count must surface as a
  /// WireError, not wrap `count * sizeof(T)` past the underrun check.
  template <typename T>
  std::size_t checked_count() {
    auto count = get<std::uint64_t>();
    if (count > remaining() / sizeof(T)) {
      throw WireError("buffer underrun: array of " + std::to_string(count) +
                      " x " + std::to_string(sizeof(T)) + " bytes, have " +
                      std::to_string(remaining()));
    }
    return static_cast<std::size_t>(count);
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace jungle::util
