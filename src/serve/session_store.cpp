#include "serve/session_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/check.h"

namespace cham::serve {
namespace fs = std::filesystem;

namespace {

// session_<id>.chk — the id is rendered in decimal so `ls` output sorts
// usefully and the name parses back without ambiguity.
constexpr const char* kPrefix = "session_";
constexpr const char* kSuffix = ".chk";
constexpr const char* kDeltaSuffix = ".delta";

bool has_suffix(const std::string& name, const std::string& suffix) {
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), std::string::npos,
                      suffix) == 0;
}

}  // namespace

SessionStore::SessionStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  CHAM_CHECK(!ec, "SessionStore: cannot create directory " + dir_ + ": " +
                      ec.message());
}

std::string SessionStore::path_for(uint64_t session_id) const {
  return dir_ + "/" + kPrefix + std::to_string(session_id) + kSuffix;
}

std::string SessionStore::delta_path_for(uint64_t session_id) const {
  return dir_ + "/" + kPrefix + std::to_string(session_id) + kDeltaSuffix;
}

bool SessionStore::write_atomic(const std::string& path, const char* data,
                                std::size_t n) {
  // Write to a temp name then rename: a crash (or a failed write) mid-blob
  // must never leave a truncated file where a valid (older) one used to
  // be. The write path is raw fds, not ofstream: buffered streams surface
  // a disk-full error only at close(), after this function would already
  // have decided the write looked fine.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return false;
  bool ok = true;
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(w);
  }
  // fsync before the rename: the bytes must be durable before the name
  // flips, or a crash can install a well-named but empty blob.
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Best-effort directory fsync so the rename itself survives a crash.
  const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

bool SessionStore::read_file(const std::string& path,
                             core::ByteBuf& out) const {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return false;
  const std::streamsize n = is.tellg();
  if (n < 0) return false;
  is.seekg(0);
  out.resize(static_cast<std::size_t>(n));
  is.read(out.data(), n);
  return is.good() || n == 0;
}

bool SessionStore::put_full(uint64_t session_id, const char* data,
                            std::size_t n) {
  util::MutexLock lock(mu_);
  if (!write_atomic(path_for(session_id), data, n)) return false;
  // Unlink the delta AFTER the new full blob is installed: a crash in
  // between leaves a stale delta whose base hash mismatches, which load()
  // detects and ignores. The reverse order could lose the newest state.
  std::error_code ec;
  fs::remove(delta_path_for(session_id), ec);
  bytes_written_ += static_cast<int64_t>(n);
  return true;
}

bool SessionStore::put_delta(uint64_t session_id, const char* data,
                             std::size_t n) {
  util::MutexLock lock(mu_);
  std::error_code ec;
  if (!fs::exists(path_for(session_id), ec)) return false;  // no base blob
  if (!write_atomic(delta_path_for(session_id), data, n)) return false;
  bytes_written_ += static_cast<int64_t>(n);
  return true;
}

bool SessionStore::get_blob(uint64_t session_id, core::ByteBuf& out) const {
  util::MutexLock lock(mu_);
  return read_file(path_for(session_id), out);
}

bool SessionStore::get_delta(uint64_t session_id, core::ByteBuf& out) const {
  util::MutexLock lock(mu_);
  return read_file(delta_path_for(session_id), out);
}

bool SessionStore::has_delta(uint64_t session_id) const {
  util::MutexLock lock(mu_);
  std::error_code ec;
  return fs::exists(delta_path_for(session_id), ec);
}

bool SessionStore::save(uint64_t session_id,
                        const core::ChameleonLearner& learner) {
  core::ByteBuf blob;
  {
    core::ByteBufWriter os(blob);
    if (!learner.save_state(os)) return false;
  }
  return put_full(session_id, blob.data(), blob.size());
}

bool SessionStore::load(uint64_t session_id,
                        core::ChameleonLearner& learner) {
  core::ByteBuf base, delta;
  {
    util::MutexLock lock(mu_);
    if (!read_file(path_for(session_id), base)) return false;
    if (read_file(delta_path_for(session_id), delta)) {
      core::DeltaHeader h;
      if (!core::read_delta_header(delta.data(), delta.size(), h)) {
        return false;  // delta present but unparseable: refuse to guess
      }
      if (h.base_len == base.size() &&
          h.base_hash == core::blob_hash(base.data(), base.size())) {
        // The newest state needs op replay through a dispatcher; plain
        // readers must only see compacted stores.
        return false;
      }
      // Stale delta (base hash mismatch): a crash between a full-blob
      // rename and the delta unlink. The base is the newer state; serve it.
    }
    bytes_read_ += static_cast<int64_t>(base.size());
  }
  core::ByteBufReader is(base.data(), base.size());
  return learner.load_state(is);
}

bool SessionStore::contains(uint64_t session_id) const {
  util::MutexLock lock(mu_);
  std::error_code ec;
  return fs::exists(path_for(session_id), ec);
}

bool SessionStore::erase(uint64_t session_id) {
  util::MutexLock lock(mu_);
  std::error_code ec;
  fs::remove(delta_path_for(session_id), ec);
  return fs::remove(path_for(session_id), ec);
}

void SessionStore::clear() {
  util::MutexLock lock(mu_);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kPrefix, 0) == 0 &&
        (has_suffix(name, kSuffix) || has_suffix(name, kDeltaSuffix))) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
}

std::vector<uint64_t> SessionStore::session_ids() const {
  util::MutexLock lock(mu_);
  std::vector<uint64_t> ids;
  std::error_code ec;
  const std::string suffix = kSuffix;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kPrefix, 0) != 0 || !has_suffix(name, suffix)) continue;
    const std::string digits = name.substr(
        std::string(kPrefix).size(),
        name.size() - std::string(kPrefix).size() - suffix.size());
    uint64_t id = 0;
    bool numeric = !digits.empty();
    for (char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      id = id * 10 + static_cast<uint64_t>(c - '0');
    }
    if (numeric) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

int64_t SessionStore::size() const {
  return static_cast<int64_t>(session_ids().size());
}

int64_t SessionStore::bytes_written() const {
  util::MutexLock lock(mu_);
  return bytes_written_;
}

int64_t SessionStore::bytes_read() const {
  util::MutexLock lock(mu_);
  return bytes_read_;
}

}  // namespace cham::serve
