// Per-process scratch paths under /tmp.
//
// Tests and the serving examples keep stores, sockets and files under
// /tmp. A fixed name collides when two test binaries run at once (say the
// suites of two build trees on one machine): one run's clear() deletes the
// other's store, and a second bind() on one socket path fails. tmp_path
// puts every name in a directory named after the process id, created on
// first use and removed with everything in it when the process exits
// normally, so concurrent processes never share a path and runs leave
// nothing behind.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace cham::util {

// "/tmp/cham_<pid>/<name>". Keep `name` short where the result is a Unix
// socket path: sun_path holds 108 bytes, terminator included.
inline std::string tmp_path(const std::string& name) {
  struct Dir {
    std::string path = "/tmp/cham_" + std::to_string(::getpid());
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;  // best effort: never throw at exit
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path + "/" + name;
}

}  // namespace cham::util
