#include "pfs/layout.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tunio::pfs {

StripeLayout::StripeLayout(Bytes stripe_size, unsigned stripe_count,
                           unsigned ost_offset, unsigned total_osts)
    : stripe_size_(stripe_size),
      stripe_count_(stripe_count),
      ost_offset_(ost_offset),
      total_osts_(total_osts) {
  TUNIO_CHECK_MSG(stripe_size_ > 0, "stripe size must be positive");
  TUNIO_CHECK_MSG(stripe_count_ > 0, "stripe count must be positive");
  TUNIO_CHECK_MSG(total_osts_ > 0, "OST pool must be non-empty");
  stripe_count_ = std::min(stripe_count_, total_osts_);
}

unsigned StripeLayout::ost_for(Bytes offset) const {
  const Bytes stripe_index = offset / stripe_size_;
  const auto within = static_cast<unsigned>(stripe_index % stripe_count_);
  return (ost_offset_ + within) % total_osts_;
}

Bytes StripeLayout::object_offset_for(Bytes offset) const {
  const Bytes stripe_index = offset / stripe_size_;
  const Bytes round = stripe_index / stripe_count_;
  return round * stripe_size_ + offset % stripe_size_;
}

std::vector<StripeExtent> StripeLayout::split(Bytes offset,
                                              Bytes length) const {
  std::vector<StripeExtent> pieces;
  Bytes cursor = offset;
  Bytes remaining = length;
  while (remaining > 0) {
    const Bytes piece_len =
        std::min(remaining, stripe_size_ - cursor % stripe_size_);
    const StripeExtent piece{ost_for(cursor), object_offset_for(cursor),
                             cursor, piece_len};
    if (!pieces.empty() && pieces.back().ost == piece.ost &&
        pieces.back().object_offset + pieces.back().length ==
            piece.object_offset) {
      pieces.back().length += piece_len;
    } else {
      pieces.push_back(piece);
    }
    cursor += piece_len;
    remaining -= piece_len;
  }
  return pieces;
}

}  // namespace tunio::pfs
