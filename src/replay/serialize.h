// Slot-store framing: the replay-store sections of a CHS2 learner
// checkpoint (core/checkpoint.cpp). Both of Chameleon's memories are slot
// stores — the short-term store is one, the long-term store one per class —
// so this one framing and its one decoder carry every stored latent.
// Persisting the dual memories is what lets a session survive eviction or a
// device reboot without re-forgetting everything the buffers protected.
//
// The frame is written with util/bytes.h's put_* and read through its
// bounds-latched Reader, like every other stored format. The decoder reads
// untrusted bytes. It returns false on malformed or truncated input, on a
// rank above Shape::kMaxRank, on dims whose element count would overflow or
// exceed 2^32, and on rows or labels the target store was not built to
// hold.
#pragma once

#include <cstddef>
#include <cstdint>

#include "replay/buffer.h"
#include "tensor/workspace.h"
#include "util/bytes.h"

namespace cham::replay {

// The latents live in one contiguous slab with a single shared row shape,
// so the payload is ONE range append of count * row_numel floats straight
// out of the slab — no per-slot tensor walk. Round-trips bit-exactly; the
// store's slot order, keys, labels, capacity and stream counter are all
// preserved. The loader accepts only a framed capacity equal to the target
// store's own, a row shape equal to `row_shape` (an empty frame may also
// carry none), a stream counter no smaller than the count, and labels in
// [label_begin, label_end).
void save_slot_store_q(const SlotStore& store, ws::ByteBuf& out);
bool load_slot_store_q(SlotStore& store, util::Reader& r,
                       const Shape& row_shape, int64_t label_begin,
                       int64_t label_end);
// The length of save_slot_store_q's frame for `store`.
std::size_t slot_store_bytes(const SlotStore& store);

}  // namespace cham::replay
