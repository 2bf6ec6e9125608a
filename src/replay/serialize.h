// Replay-state serialisation: persist the dual memories across device
// reboots. An edge deployment that loses its replay buffers on power-cycle
// re-forgets everything the buffers protected, so checkpointing the stores
// (tiny: KBs to a few MB) is part of making the paper's system practical.
//
// Binary format: magic/version header, sample count, then per sample the
// key, label, latent shape + payload and optional logits payload.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "quant/quantize.h"
#include "replay/buffer.h"

namespace cham::replay {

// Streams. Return false on malformed input or I/O failure; on failure the
// buffer is left in a valid (possibly partially loaded, then cleared)
// state.
bool save_buffer(const ReplayBuffer& buffer, std::ostream& os);
bool load_buffer(ReplayBuffer& buffer, std::istream& is);

// File convenience wrappers.
bool save_buffer_file(const ReplayBuffer& buffer, const std::string& path);
bool load_buffer_file(ReplayBuffer& buffer, const std::string& path);

// Single samples (shared by the buffer functions; exposed for the
// long-term store, which manages its own per-class slots).
bool save_sample(const ReplaySample& sample, std::ostream& os);
bool load_sample(ReplaySample& sample, std::istream& is);

// Flat sample lists (count-prefixed). Used for the long-term store contents
// and the staged LT burst inside learner-state checkpoints; order is
// preserved exactly, which the bit-identical session-restore contract in
// src/serve/ depends on.
bool save_samples(const std::vector<ReplaySample>& samples, std::ostream& os);
bool load_samples(std::vector<ReplaySample>& samples, std::istream& is);

// Precision-tagged variants, the framing of CHS2 learner blobs
// (core/checkpoint.cpp): every latent/logits payload is preceded by a
// quant::Precision byte. The writers always tag kFp32 and write the same
// payload bytes as the untagged functions, so blobs round-trip bit-exactly;
// the loaders reject any other tag. (Reduced-precision replay storage lives
// in the learner's buffer_precision, not in checkpoints.)
bool save_samples_q(const std::vector<ReplaySample>& samples,
                    std::ostream& os);
bool load_samples_q(std::vector<ReplaySample>& samples, std::istream& is);

// Slab-backed slot stores (version-3 framing). The ST latents live in one
// contiguous slab with a single shared row shape, so the payload is ONE
// range write of count * row_numel floats straight out of the slab — no
// per-slot tensor walk. Round-trips bit-exactly; the store's slot order,
// keys, labels, capacity and stream counter are all preserved.
bool save_slot_store_q(const SlotStore& store, std::ostream& os);
bool load_slot_store_q(SlotStore& store, std::istream& is);

}  // namespace cham::replay
