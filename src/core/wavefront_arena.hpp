// A pool allocator for core::Wavefront: recycles wavefront buffers across
// scores and across align() calls instead of churning one heap allocation
// (three vectors) per score.
//
// The arena is deliberately not thread-safe: each worker thread owns its
// own arena (SwBackend keys one persistent WfaAligner — and therefore one
// arena — per parallel_for worker). Trace addresses are unaffected: the
// synthetic trace_base consumed by the CPU cache model is assigned by the
// aligner's bump pointer, never derived from the real allocation.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/wavefront.hpp"

namespace wfasic::core {

class WavefrontArena {
 public:
  /// Returns a wavefront for [lo, hi], reusing a recycled buffer when one
  /// is available and wide enough. A recycled buffer is not filled
  /// (Wavefront::reset_unfilled): the caller writes every cell of [lo, hi]
  /// before reading it. One too narrow is freed for a fresh, exactly sized
  /// wavefront: growing it in place would reserve up to twice the width,
  /// and with traceback every wavefront of an alignment is live at once,
  /// so that spare capacity would raise peak RSS.
  [[nodiscard]] std::unique_ptr<Wavefront> acquire(diag_t lo, diag_t hi) {
    if (!free_.empty()) {
      std::unique_ptr<Wavefront> wf = std::move(free_.back());
      free_.pop_back();
      if (wf->capacity() >= static_cast<std::size_t>(hi - lo + 1)) {
        wf->reset_unfilled(lo, hi);
        return wf;
      }
    }
    return std::make_unique<Wavefront>(lo, hi);
  }

  /// Returns a wavefront to the pool. Null pointers are accepted and
  /// ignored so callers can release slots unconditionally.
  void release(std::unique_ptr<Wavefront> wf) {
    if (wf != nullptr) free_.push_back(std::move(wf));
  }

  [[nodiscard]] std::size_t pooled() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<Wavefront>> free_;
};

}  // namespace wfasic::core
