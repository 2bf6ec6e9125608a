#include "serve/session_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

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
  // cham-lint: begin(store_mu)
  if (!write_atomic(path_for(session_id), data, n)) return false;
  // Unlink the delta AFTER the new full blob is installed: a crash in
  // between leaves a stale delta whose base hash mismatches, which load()
  // detects and ignores. The reverse order could lose the newest state.
  std::error_code ec;
  fs::remove(delta_path_for(session_id), ec);
  bytes_written_ += static_cast<int64_t>(n);
  return true;
  // cham-lint: end(store_mu)
}

bool SessionStore::put_delta(uint64_t session_id, const char* data,
                             std::size_t n) {
  util::MutexLock lock(mu_);
  // cham-lint: begin(store_mu)
  std::error_code ec;
  if (!fs::exists(path_for(session_id), ec)) return false;  // no base blob
  if (!write_atomic(delta_path_for(session_id), data, n)) return false;
  bytes_written_ += static_cast<int64_t>(n);
  return true;
  // cham-lint: end(store_mu)
}

bool SessionStore::get_blob(uint64_t session_id, core::ByteBuf& out) const {
  util::MutexLock lock(mu_);
  // cham-lint: begin(store_mu)
  return read_file(path_for(session_id), out);
  // cham-lint: end(store_mu)
}

bool SessionStore::load(uint64_t session_id, core::ChameleonLearner& learner,
                        LoadInfo* info) {
  core::ByteBuf base, delta;
  bool has_delta = false;
  {
    util::MutexLock lock(mu_);
    // cham-lint: begin(store_mu)
    if (!read_file(path_for(session_id), base)) return false;
    has_delta = read_file(delta_path_for(session_id), delta);
    // cham-lint: end(store_mu)
  }
  // Everything below runs with mu_ released: the pair is a consistent
  // snapshot in memory now, and a replay of up to
  // WriteBehind::kMaxReplayOps observes must not serialise other sessions'
  // writes and restores.
  core::DeltaHeader h;
  if (has_delta && !core::read_delta_header(delta.data(), delta.size(), h)) {
    return false;  // delta present but unparseable: refuse to guess
  }
  // A stale delta (base hash mismatch) is a crash between a full-blob
  // rename and the delta unlink: the base is the newer state.
  const bool live = has_delta && h.base_len == base.size() &&
                    h.base_hash == core::blob_hash(base.data(), base.size());
  std::vector<data::ServeOp> ops;
  if (live && !core::read_op_log(delta.data(), delta.size(), ops)) {
    return false;
  }
  util::Reader r(base.data(), base.size());
  if (!learner.load_state(r)) return false;
  if (live) {
    // The repo-wide determinism contract makes the replay reproduce the
    // evicted state byte for byte; the target hash proves it. Predict ops
    // (frames written before the log carried observes only) are
    // state-pure and skipped.
    for (const auto& op : ops) {
      if (!op.predict) learner.observe(op.batch);
    }
    core::ByteBuf replayed;
    if (!learner.save_state(replayed)) return false;
    if (replayed.size() != h.next_len ||
        core::blob_hash(replayed.data(), replayed.size()) != h.next_hash) {
      return false;
    }
  }
  if (info) {
    info->replayed_ops = live ? static_cast<int64_t>(ops.size()) : 0;
    info->applied_delta = live;
  }
  return true;
}

bool SessionStore::contains(uint64_t session_id) const {
  util::MutexLock lock(mu_);
  // cham-lint: begin(store_mu)
  std::error_code ec;
  return fs::exists(path_for(session_id), ec);
  // cham-lint: end(store_mu)
}

void SessionStore::clear() {
  util::MutexLock lock(mu_);
  // cham-lint: begin(store_mu)
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kPrefix, 0) == 0 &&
        (has_suffix(name, kSuffix) || has_suffix(name, kDeltaSuffix))) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
  // cham-lint: end(store_mu)
}

int64_t SessionStore::bytes_written() const {
  util::MutexLock lock(mu_);
  // cham-lint: begin(store_mu)
  return bytes_written_;
  // cham-lint: end(store_mu)
}

}  // namespace cham::serve
