// File striping layout, mirroring Lustre's RAID-0 object layout.
//
// A file is striped round-robin across `stripe_count` OSTs in units of
// `stripe_size` bytes (Lustre's `striping_factor` and `striping_unit`
// tunables). `StripeLayout::split` decomposes a byte extent of the file
// into the per-OST object extents it touches — the exact mapping Lustre
// clients perform before issuing RPCs to storage servers.
//
// The simulator does not call `split` per request:
// `PfsSimulator::serve_pieces` walks the same pieces, dividing once per
// request and then stepping OST and object offset by addition, with whole
// stripes in runs on consecutive OSTs. `split` stays the readable
// statement of the mapping, and the tests diff the simulator against a
// per-extent reference built on it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace tunio::pfs {

/// One contiguous piece of a file extent that lands on a single OST.
struct StripeExtent {
  unsigned ost = 0;           ///< absolute OST index serving this piece
  Bytes object_offset = 0;    ///< offset within that OST's backing object
  Bytes file_offset = 0;      ///< offset within the file
  Bytes length = 0;
};

class StripeLayout {
 public:
  /// `ost_offset` is the index of the first OST used by this file (Lustre
  /// spreads file start OSTs to balance load); `total_osts` is the pool.
  StripeLayout(Bytes stripe_size, unsigned stripe_count, unsigned ost_offset,
               unsigned total_osts);

  Bytes stripe_size() const { return stripe_size_; }
  unsigned stripe_count() const { return stripe_count_; }
  unsigned ost_offset() const { return ost_offset_; }

  /// Decomposes the file extent [offset, offset+length) into per-OST
  /// pieces, in ascending file-offset order. Adjacent pieces on the same
  /// OST (possible when stripe_count == 1) are coalesced.
  std::vector<StripeExtent> split(Bytes offset, Bytes length) const;

  /// The OST serving a given file offset.
  unsigned ost_for(Bytes offset) const;

  /// Offset within the OST object backing a given file offset.
  Bytes object_offset_for(Bytes offset) const;

 private:
  Bytes stripe_size_;
  unsigned stripe_count_;
  unsigned ost_offset_;
  unsigned total_osts_;
};

}  // namespace tunio::pfs
