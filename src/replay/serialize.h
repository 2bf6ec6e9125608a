// Learner-state sample and slot framing: the replay-store sections of a
// CHS2 learner checkpoint (core/checkpoint.cpp). Persisting the dual
// memories is what lets a session survive eviction or a device reboot
// without re-forgetting everything the buffers protected.
//
// The decoders read untrusted bytes. They return false on malformed or
// truncated input, on a rank above Shape::kMaxRank, and on dims whose
// element count would overflow or exceed 2^32.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "replay/buffer.h"

namespace cham::replay {

// Flat sample lists (count-prefixed): the long-term store contents. Per
// sample the key, label, presence flags, then each present latent/logits
// payload preceded by a quant::Precision byte. The writer always tags
// kFp32 and the loader rejects any other tag. (Reduced-precision replay
// storage lives in the learner's buffer_precision, not in checkpoints.)
// Order is preserved exactly, which the bit-identical session-restore
// contract in src/serve/ depends on.
bool save_samples_q(const std::vector<ReplaySample>& samples,
                    std::ostream& os);
bool load_samples_q(std::vector<ReplaySample>& samples, std::istream& is);

// Slab-backed slot stores (version-3 framing). The ST latents live in one
// contiguous slab with a single shared row shape, so the payload is ONE
// range write of count * row_numel floats straight out of the slab — no
// per-slot tensor walk. Round-trips bit-exactly; the store's slot order,
// keys, labels, capacity and stream counter are all preserved. The loader
// accepts only a framed capacity equal to the target store's own.
bool save_slot_store_q(const SlotStore& store, std::ostream& os);
bool load_slot_store_q(SlotStore& store, std::istream& is);

}  // namespace cham::replay
