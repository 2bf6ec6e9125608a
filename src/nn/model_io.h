// Binary parameter serialisation. Used to cache the pretrained backbone so
// every benchmark does not repeat pretraining. The format (CHAMNN01) stores
// Param tensors in pipeline order plus BatchNorm running statistics. Every
// form is encoded with util/bytes.h into a ws::ByteBuf and decoded through
// its bounds-latched util::Reader.
#pragma once

#include <cstddef>
#include <string>

#include "nn/sequential.h"
#include "tensor/workspace.h"
#include "util/bytes.h"

namespace cham::nn {

// Returns false on I/O failure or architecture mismatch.
bool save_params(const Sequential& net, const std::string& path);
bool load_params(Sequential& net, const std::string& path);

// The same format in memory: the file variants write and read exactly these
// bytes, and Experiment hashes them to name the head template.
void save_params(const Sequential& net, ws::ByteBuf& out);
bool load_params(Sequential& net, util::Reader& r);

// Template-relative form, the head section of a learner blob
// (core/checkpoint.h): a u64 tensor count, then per tensor its u64 numel and
// the byte-mask encoding (tensor/byte_mask.h) of its bytes XOR the same
// tensor of `base`, the pretrained template `net` was cloned from. A null
// base encodes against zeros. `base` must have net's architecture; the save
// returns false if it does not.
bool save_params_relative(const Sequential& net, const Sequential* base,
                          ws::ByteBuf& out);
// The longest save_params_relative output for `net`.
std::size_t params_relative_bound(const Sequential& net);
// Decodes that form from data[0, n) into `net`. Returns the bytes consumed,
// or 0 on an architecture mismatch or malformed input (net's tensors are
// then unspecified).
std::size_t load_params_relative(Sequential& net, const Sequential* base,
                                 const char* data, std::size_t n);

}  // namespace cham::nn
