#include "nn/model_io.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <vector>

#include "nn/layers.h"
#include "tensor/byte_mask.h"
#include "util/bytes.h"

namespace cham::nn {
namespace {

constexpr uint64_t kMagic = 0x4348414D4E4E3031ull;  // "CHAMNN01"

// Collects every tensor that must round-trip: parameter values plus BN
// running statistics, in pipeline order.
std::vector<Tensor*> state_tensors(Sequential& net) {
  std::vector<Tensor*> out;
  for (int64_t i = 0; i < net.size(); ++i) {
    Layer& l = net.layer(i);
    for (Param* p : l.params()) out.push_back(&p->value);
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&l)) {
      out.push_back(&bn->mutable_running_mean());
      out.push_back(&bn->mutable_running_var());
    }
  }
  return out;
}

// save_params_relative encodes this many tensor bytes at a time into a
// stack buffer, then writes them: a multiple of the codec's block, so the
// output is the same as one encode of the whole tensor.
constexpr std::size_t kEncodeChunk = 256 * bytemask::kBlockBytes;

}  // namespace

bool save_params_relative(const Sequential& net, const Sequential* base,
                          std::ostream& os) {
  const auto tensors = state_tensors(const_cast<Sequential&>(net));
  std::vector<Tensor*> bases;
  if (base != nullptr) {
    bases = state_tensors(const_cast<Sequential&>(*base));
    if (bases.size() != tensors.size()) return false;
  }
  const uint64_t count = tensors.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  std::array<char, bytemask::encoded_bound(kEncodeChunk)> stage;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const Tensor& t = *tensors[i];
    const uint64_t numel = static_cast<uint64_t>(t.numel());
    if (base != nullptr && bases[i]->numel() != t.numel()) return false;
    os.write(reinterpret_cast<const char*>(&numel), sizeof(numel));
    const auto* cur = reinterpret_cast<const char*>(t.data());
    const char* ref =
        base != nullptr ? reinterpret_cast<const char*>(bases[i]->data())
                        : nullptr;
    const std::size_t bytes = numel * sizeof(float);
    for (std::size_t at = 0; at < bytes; at += kEncodeChunk) {
      const std::size_t w = bytemask::encode(
          cur + at, ref != nullptr ? ref + at : nullptr,
          std::min(kEncodeChunk, bytes - at), stage.data());
      os.write(stage.data(), static_cast<std::streamsize>(w));
    }
  }
  return os.good();
}

std::size_t params_relative_bound(const Sequential& net) {
  std::size_t n = sizeof(uint64_t);
  for (const Tensor* t : state_tensors(const_cast<Sequential&>(net))) {
    n += sizeof(uint64_t) +
         bytemask::encoded_bound(static_cast<std::size_t>(t->numel()) *
                                 sizeof(float));
  }
  return n;
}

std::size_t load_params_relative(Sequential& net, const Sequential* base,
                                 const char* data, std::size_t n) {
  const auto tensors = state_tensors(net);
  std::vector<Tensor*> bases;
  if (base != nullptr) {
    bases = state_tensors(const_cast<Sequential&>(*base));
    if (bases.size() != tensors.size()) return 0;
  }
  util::Reader r(data, n);
  if (r.u64() != tensors.size()) return 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    Tensor& t = *tensors[i];
    if (r.u64() != static_cast<uint64_t>(t.numel()) || !r.ok() ||
        (base != nullptr && bases[i]->numel() != t.numel())) {
      return 0;
    }
    const std::size_t used = bytemask::decode(
        data + r.off, r.left(),
        base != nullptr ? bases[i]->data() : nullptr,
        static_cast<std::size_t>(t.numel()) * sizeof(float), t.data());
    if (used == bytemask::kMalformed) return 0;
    r.off += used;
  }
  return r.ok() ? r.off : 0;
}

bool save_params(const Sequential& net, std::ostream& os) {
  auto tensors = state_tensors(const_cast<Sequential&>(net));
  os.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  const uint64_t count = tensors.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (Tensor* t : tensors) {
    const uint64_t n = static_cast<uint64_t>(t->numel());
    os.write(reinterpret_cast<const char*>(&n), sizeof(n));
    os.write(reinterpret_cast<const char*>(t->data()),
             static_cast<std::streamsize>(n * sizeof(float)));
  }
  return os.good();
}

bool load_params(Sequential& net, std::istream& is) {
  auto tensors = state_tensors(net);
  uint64_t magic = 0, count = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!is.good() || magic != kMagic || count != tensors.size()) return false;
  for (Tensor* t : tensors) {
    uint64_t n = 0;
    is.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!is.good() || n != static_cast<uint64_t>(t->numel())) return false;
    is.read(reinterpret_cast<char*>(t->data()),
            static_cast<std::streamsize>(n * sizeof(float)));
  }
  return is.good();
}

bool save_params(const Sequential& net, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  return f && save_params(net, f);
}

bool load_params(Sequential& net, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return f && load_params(net, f);
}

}  // namespace cham::nn
