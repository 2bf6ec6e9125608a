#include "nn/model_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

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
// stack buffer, then appends them: a multiple of the codec's block, so the
// output is the same as one encode of the whole tensor.
constexpr std::size_t kEncodeChunk = 256 * bytemask::kBlockBytes;

}  // namespace

bool save_params_relative(const Sequential& net, const Sequential* base,
                          ws::ByteBuf& out) {
  const auto tensors = state_tensors(const_cast<Sequential&>(net));
  std::vector<Tensor*> bases;
  if (base != nullptr) {
    bases = state_tensors(const_cast<Sequential&>(*base));
    if (bases.size() != tensors.size()) return false;
  }
  util::put_u64(out, tensors.size());
  std::array<char, bytemask::encoded_bound(kEncodeChunk)> stage;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const Tensor& t = *tensors[i];
    const uint64_t numel = static_cast<uint64_t>(t.numel());
    if (base != nullptr && bases[i]->numel() != t.numel()) return false;
    util::put_u64(out, numel);
    const auto* cur = reinterpret_cast<const char*>(t.data());
    const char* ref =
        base != nullptr ? reinterpret_cast<const char*>(bases[i]->data())
                        : nullptr;
    const std::size_t bytes = numel * sizeof(float);
    for (std::size_t at = 0; at < bytes; at += kEncodeChunk) {
      const std::size_t w = bytemask::encode(
          cur + at, ref != nullptr ? ref + at : nullptr,
          std::min(kEncodeChunk, bytes - at), stage.data());
      util::put_bytes(out, stage.data(), w);
    }
  }
  return true;
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

void save_params(const Sequential& net, ws::ByteBuf& out) {
  const auto tensors = state_tensors(const_cast<Sequential&>(net));
  util::put_u64(out, kMagic);
  util::put_u64(out, tensors.size());
  for (const Tensor* t : tensors) {
    const auto n = static_cast<uint64_t>(t->numel());
    util::put_u64(out, n);
    util::put_bytes(out, t->data(), n * sizeof(float));
  }
}

bool load_params(Sequential& net, util::Reader& r) {
  const auto tensors = state_tensors(net);
  if (r.u64() != kMagic || r.u64() != tensors.size() || !r.ok()) return false;
  for (Tensor* t : tensors) {
    const auto n = static_cast<uint64_t>(t->numel());
    if (r.u64() != n || !r.bytes(t->data(), n * sizeof(float))) return false;
  }
  return true;
}

bool save_params(const Sequential& net, const std::string& path) {
  ws::ByteBuf bytes;
  save_params(net, bytes);
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return f.good();
}

bool load_params(Sequential& net, const std::string& path) {
  // Decoded from a read-only mapping of the file. A heap copy of the whole
  // file would be one multi-MB malloc and free, which raises glibc's
  // dynamic mmap threshold for the rest of the process, so the workspace
  // pool's large blocks would come from the brk heap instead of their own
  // mappings (1.5-2.3 MiB more peak RSS in perfbench's resident workloads).
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  void* map = MAP_FAILED;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                 MAP_PRIVATE, fd, 0);
  }
  ::close(fd);
  if (map == MAP_FAILED) return false;
  util::Reader r(map, static_cast<std::size_t>(st.st_size));
  const bool ok = load_params(net, r);
  ::munmap(map, static_cast<std::size_t>(st.st_size));
  return ok;
}

}  // namespace cham::nn
