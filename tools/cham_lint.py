#!/usr/bin/env python3
"""Repo-specific lint rules for the Chameleon C++ tree.

These rules encode invariants that clang-tidy cannot express because they
are about *this* codebase's contracts:

  modulo-sampling     `next_u64() % n` is modulo-biased for non-power-of-two
                      n; use Rng::uniform_int (Lemire rejection) instead.
  raw-assert          `assert(` outside src/util/check.h. Plain assert is
                      compiled out in Release, so contract violations pass
                      silently exactly where they matter; use CHAM_CHECK /
                      CHAM_DCHECK (static_assert is fine).
  naked-new           `new` / `delete` expressions in src/. Storage is
                      std::vector / std::unique_ptr everywhere; a naked new
                      is either a leak or a double-free waiting to happen.
  std-rand            std::rand / srand / rand(). Non-deterministic across
                      libcs; every random draw must flow through cham::Rng
                      so seeded runs stay bit-identical.
  rng-in-parallel-for Calls into Rng from a parallel_for body. Worker
                      execution order is nondeterministic, so any Rng use
                      inside the body breaks the bit-identity contract
                      (CHAM_THREADS=1 vs N must match byte-for-byte). Draw
                      before the loop, index into the draws inside it.
  alloc-in-parallel-for
                      Tensor construction or std::vector declaration/growth
                      (push_back, resize, ...) inside a parallel_for body.
                      Per-iteration allocation on the hot path serialises
                      workers on the allocator lock and defeats the
                      steady-state zero-alloc contract; take scratch from
                      the per-thread arena (ws::ArenaScope) or hoist the
                      buffer out of the loop.
  blocking-in-dispatch
                      Blocking I/O (file streams, fopen, std::filesystem,
                      sleep) or heap allocation inside a scheduler dispatch
                      critical section — the code between
                      `// cham-lint: begin(dispatch)` and
                      `// cham-lint: end(dispatch)` markers. These regions
                      run under a shard queue mutex in the serving runtime
                      (src/serve/session_manager.cpp); anything slow there
                      stalls admission for every session on the shard.
                      Checkpoint I/O belongs outside the markers, after the
                      request has been popped and the lock released.
  io-in-sessions-mu   Filesystem/stream calls or checkpoint (de)serialisation
                      inside a sessions_mu_ critical section — the code
                      between `// cham-lint: begin(sessions_mu)` and
                      `// cham-lint: end(sessions_mu)` markers. sessions_mu_
                      is the serving runtime's GLOBAL residency lock; a
                      save_state or disk write held under it stalls
                      admission, restore and eviction on EVERY shard (the
                      seed's 63ms save_ms_max was exactly this bug).
                      Eviction must unlink under the lock and serialise /
                      flush with it released (see serve/write_behind.h).
  learner-in-store-mu Learner restore or replay calls (load_state,
                      save_state, observe, predict, read_op_log) inside a
                      SessionStore::mu_ critical section — between
                      `// cham-lint: begin(store_mu)` and
                      `// cham-lint: end(store_mu)` markers. The store lock
                      serialises every disk read and write of every session;
                      SessionStore::load reads the blob/delta pair under it
                      and restores and replays (up to 64 observes) with it
                      released, so two shards restoring from disk never
                      queue behind one another's replay.
  blocking-in-batch-plan
                      Blocking I/O, checkpoint (de)serialisation, heap
                      allocation via make_unique/make_shared, or any learner
                      dispatch / eviction call inside a batch-plan critical
                      section — between `// cham-lint: begin(batch_plan)`
                      and `// cham-lint: end(batch_plan)` markers. Plan
                      formation (BatchPlanner::take_eligible) runs under a
                      shard queue mutex and may only MOVE queued requests
                      between vectors; evaluating a head, acquiring or
                      materialising a session, or serialising state there
                      stalls admission for every session on the shard. Plan
                      execution (dispatch_plan) belongs outside the markers
                      with the queue lock released.
  raw-mutex           Bare std::mutex / lock_guard / unique_lock /
                      condition_variable (and friends) in src/ outside
                      util/sync.h. Concurrency goes through the annotated
                      cham::util wrappers (Mutex / MutexLock / CondVar) so
                      Clang's thread-safety analysis sees every lock; a raw
                      std primitive is invisible to it.
  naked-cv-wait       A condition-variable wait(lock) with no predicate.
                      Spurious wakeups and lost-notify races make a naked
                      wait return without its condition holding; every wait
                      must be the predicate form wait(lock, pred)
                      (zero-argument waits, e.g. std::future::wait(), are
                      fine; so are wait_for / wait_until).
  syscall-in-net-lock Blocking syscalls (read/write/poll/accept/send/recv
                      and friends) or other blocking calls inside a
                      connection-mutex critical section — the code between
                      `// cham-lint: begin(net_mu)` and
                      `// cham-lint: end(net_mu)` markers. The socket
                      front-end (src/net/server.cpp) holds a connection's
                      mutex only to move frames between queues; a syscall
                      held under it stalls the dispatching thread running a
                      completion hook (or the whole I/O thread) behind a
                      peer's socket buffer. Syscalls belong
                      outside the markers, on buffers the lock no longer
                      protects.
  store-in-wb-mu      A SessionStore call (`store_.` / `store_->` or
                      `SessionStore`) inside a WriteBehind::mu_ critical
                      section — between `// cham-lint: begin(wb_mu)` and
                      `// cham-lint: end(wb_mu)` markers. WriteBehind::mu_
                      is a leaf that every restore lookup (newest_blob) and
                      every eviction hand-off (submit) on every shard takes;
                      a disk write under it stalls them all behind an
                      fsync. The IO thread's flush_one, with mu_ released,
                      is the only caller of SessionStore::put_*; cache
                      pressure queues a flush instead of writing.
  parallel-for-grain  A parallel_for( call under src/ without an explicit
                      grain argument. The default grain of 1 wakes the
                      thread pool for any range of two or more items, however
                      little work they hold; a kernel states how many items
                      make a chunk worth a dispatch (work_grain() in
                      tensor/thread_pool.h sizes it from the per-item work).
  unguarded-shared-member
                      A write to a `name_` member inside a
                      `// cham-lint: begin(...)` / `end(...)` marker region
                      whose declaration (this file or the sibling header)
                      does not carry CHAM_GUARDED_BY. Marker regions are
                      lock-held critical sections; a member mutated there is
                      shared state and must be declared guarded, or the
                      thread-safety analysis cannot check its other uses.

  unregistered-test   A tests/test_*.cpp that no `cham_test(<name> ...)` line
                      of tests/CMakeLists.txt registers (a registration
                      inside an if() block counts; one in a # comment does
                      not). An unregistered test file is never compiled, so
                      its tests silently stop running. Reported on line 1.
  test-only-header    A src/**/*.h that no file under src/ (other than its
                      own .cpp), bench/, examples/ or perfbench/src/
                      #includes. Tests alone do not count: a mechanism only
                      its own tests reach is dead weight that still has to
                      be read, built and kept passing. Include paths are
                      resolved against src/ and against the including
                      file's directory; the header must exist on disk (the
                      rule is about the tree). Reported on line 1.

Suppression: append `// cham-lint: allow(<rule>)` to the offending line.

Usage: cham_lint.py [--list-rules] [paths...]   (default path: src/)
Exit status: 0 clean, 1 violations found, 2 usage error.
"""

import os
import re
import sys

RULES = {
    "modulo-sampling": "next_u64() % n is modulo-biased; use Rng::uniform_int",
    "raw-assert": "assert() outside util/check.h; use CHAM_CHECK / CHAM_DCHECK",
    "naked-new": "naked new/delete in src/; use std::vector / std::unique_ptr",
    "std-rand": "std::rand is non-deterministic; use the seeded cham::Rng",
    "rng-in-parallel-for": "Rng call inside a parallel_for body breaks "
    "bit-identity across thread counts",
    "alloc-in-parallel-for": "allocation inside a parallel_for body; use "
    "ws::ArenaScope scratch or hoist the buffer",
    "blocking-in-dispatch": "blocking I/O or heap allocation inside a "
    "dispatch critical section (runs under a shard queue mutex)",
    "io-in-sessions-mu": "filesystem/stream or checkpoint serialisation call "
    "inside a sessions_mu_ critical section (stalls every shard); unlink "
    "under the lock, serialise/flush with it released",
    "learner-in-store-mu": "learner restore/replay call inside a "
    "SessionStore::mu_ critical section (serialises every shard's disk "
    "restores); read the files under the lock, replay with it released",
    "blocking-in-batch-plan": "blocking I/O, serialisation, heap allocation "
    "or learner dispatch inside a batch-plan critical section (runs under a "
    "shard queue mutex; plan formation may only move queued requests)",
    "raw-mutex": "bare std synchronisation primitive in src/; use the "
    "annotated cham::util::Mutex / MutexLock / CondVar (util/sync.h)",
    "naked-cv-wait": "condition-variable wait without a predicate; use "
    "wait(lock, pred) so spurious wakeups re-check the condition",
    "syscall-in-net-lock": "blocking syscall inside a net_mu critical "
    "section (the socket front-end holds connection mutexes only to move "
    "frames between queues); do socket I/O with the lock released",
    "store-in-wb-mu": "SessionStore call inside a WriteBehind::mu_ "
    "critical section (every shard's restore lookup and eviction hand-off "
    "waits on it); queue the write for the IO thread's flush_one instead",
    "unguarded-shared-member": "member written inside a lock-held marker "
    "region but not declared CHAM_GUARDED_BY; annotate the declaration so "
    "the thread-safety analysis can check it",
    "parallel-for-grain": "parallel_for without an explicit grain wakes the "
    "pool for any 2-item range; pass a work-proportional grain "
    "(work_grain() in tensor/thread_pool.h)",
    "unregistered-test": "tests/test_*.cpp not registered by a cham_test() "
    "line in tests/CMakeLists.txt; it is never compiled or run",
    "test-only-header": "src/ header #included by no file under src/ (other "
    "than its own .cpp), bench/, examples/ or perfbench/src/; only tests "
    "reach it, so delete it with its tests",
}

CXX_EXTENSIONS = (".cc", ".cpp", ".cxx", ".h", ".hpp")

ALLOW_RE = re.compile(r"cham-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

MODULO_RE = re.compile(r"next_u64\s*\(\s*\)\s*%")
ASSERT_RE = re.compile(r"(?<![_A-Za-z0-9])assert\s*\(")
NEW_RE = re.compile(r"(?<![_A-Za-z0-9])new\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"(?<![_A-Za-z0-9])delete\s*(\[\s*\])?\s*[A-Za-z_(*]")
RAND_RE = re.compile(r"(?:std\s*::\s*)?(?<![_A-Za-z0-9.])s?rand\s*\(")
RNG_USE_RE = re.compile(
    r"(?<![_A-Za-z0-9])(Rng|rng_?|next_u64|next_float|next_double|"
    r"uniform_int|sample_weighted)(?![A-Za-z0-9])"
)
PARALLEL_FOR_RE = re.compile(r"(?<![_A-Za-z0-9])parallel_for\s*\(")
# Tensor temporaries / declarations with ctor args, vector declarations, and
# the growing vector member calls. `const Tensor&` parameters don't match
# (no paren/brace follows the name).
ALLOC_RE = re.compile(
    r"(?<![_A-Za-z0-9])Tensor\s*[({]"
    r"|(?<![_A-Za-z0-9])Tensor\s+[A-Za-z_]\w*\s*[({]"
    r"|(?:std\s*::\s*)?vector\s*<"
    r"|(?:\.|->)\s*(?:push_back|emplace_back|resize|reserve|assign)\s*\("
)
# Marked regions are delimited by marker comments; markers live in
# comments so they are matched on the raw source, while the rules below run
# on the stripped code. Region kinds: `dispatch` (shard queue mutex),
# `sessions_mu` (global residency lock), `store_mu` (SessionStore file
# lock), `batch_plan` (shard queue mutex during plan formation), `net_mu`
# (a connection's mutex) and `wb_mu` (WriteBehind::mu_).
DISPATCH_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(dispatch\)")
DISPATCH_END_RE = re.compile(r"cham-lint:\s*end\(dispatch\)")
SESSIONS_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(sessions_mu\)")
SESSIONS_END_RE = re.compile(r"cham-lint:\s*end\(sessions_mu\)")
STORE_MU_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(store_mu\)")
STORE_MU_END_RE = re.compile(r"cham-lint:\s*end\(store_mu\)")
BATCH_PLAN_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(batch_plan\)")
BATCH_PLAN_END_RE = re.compile(r"cham-lint:\s*end\(batch_plan\)")
NET_MU_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(net_mu\)")
NET_MU_END_RE = re.compile(r"cham-lint:\s*end\(net_mu\)")
WB_MU_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(wb_mu\)")
WB_MU_END_RE = re.compile(r"cham-lint:\s*end\(wb_mu\)")
# Any call into the SessionStore: through the WriteBehind member, or any
# use of the type itself (a constructed store, a qualified static).
STORE_CALL_RE = re.compile(
    r"(?<![_A-Za-z0-9])store_\s*(?:\.|->)"
    r"|(?<![_A-Za-z0-9])SessionStore(?![_A-Za-z0-9])"
)
# Blocking I/O syscalls (optionally `::`-qualified). Derived names like
# read_header / fwrite do not match (identifier-char guards on both sides).
SYSCALL_RE = re.compile(
    r"(?<![_A-Za-z0-9:])(?:::\s*)?"
    r"(?:read|write|pread|pwrite|readv|writev|recv|recvmsg|recvfrom|"
    r"send|sendmsg|sendto|poll|ppoll|epoll_wait|epoll_pwait|select|pselect|"
    r"accept4?|connect|fsync|fdatasync)\s*\("
)
# Test sources and their registrations in tests/CMakeLists.txt.
TEST_SOURCE_RE = re.compile(r"^test_\w+\.cpp$")
CHAM_TEST_RE = re.compile(r"^\s*cham_test\(\s*(\w+)", re.M)
# `#include "path"` at the start of a line (block-commented includes are not
# worth the parse; a line comment never starts with #).
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)
# Directories, relative to the repo root, whose includes keep a src/ header
# alive. tests/ is deliberately absent.
HEADER_USER_DIRS = ("src", "bench", "examples",
                    os.path.join("perfbench", "src"))
# Learner dispatch / residency calls: a batch-plan region may only move
# queued requests, never evaluate, admit, or evict.
PLAN_DISPATCH_RE = re.compile(
    r"(?<![_A-Za-z0-9])(?:acquire_session|materialize_session|dispatch_plan|"
    r"dispatch_timed|snapshot_and_submit|unlink_victim)\s*\("
    r"|(?:\.|->)\s*(?:predict|predict_batch|observe|eval_batch)\s*\("
)
# Learner restore / replay work: must run with SessionStore::mu_ released.
STORE_LEARNER_RE = re.compile(
    r"(?:\.|->)\s*(?:load_state|save_state|observe|predict)\s*\("
    r"|(?<![_A-Za-z0-9])read_op_log\s*\("
)
BLOCKING_RE = re.compile(
    r"(?<![_A-Za-z0-9])(?:i|o)?fstream(?![A-Za-z0-9])"
    r"|(?<![_A-Za-z0-9])f(?:open|close|read|write|printf|flush)\s*\("
    r"|(?:std\s*::\s*)?filesystem\s*::"
    r"|(?<![_A-Za-z0-9])sleep_(?:for|until)\s*\("
    r"|(?<![_A-Za-z0-9])system\s*\("
)
DISPATCH_ALLOC_RE = re.compile(
    r"(?<![_A-Za-z0-9])make_(?:unique|shared)\s*<"
)
# Checkpoint (de)serialisation entry points: slow whole-state walks that
# must never run under the global residency lock.
SERIALIZE_RE = re.compile(
    r"(?:\.|->)\s*(?:save_state|load_state|save|load)\s*\("
    r"|(?:\.|->)\s*(?:put_full|put_delta|get_blob|get_delta)\s*\("
    r"|(?<![_A-Za-z0-9])(?:encode_op_log|read_op_log)\s*\("
)
# Raw std synchronisation primitives (with or without the std:: prefix —
# `using std::mutex` would otherwise dodge the rule). The annotated wrappers
# in util/sync.h are the only sanctioned spelling in src/.
RAW_MUTEX_RE = re.compile(
    r"(?<![_A-Za-z0-9])(?:std\s*::\s*)?"
    r"(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)"
    r"(?![_A-Za-z0-9])"
)
# `.wait(` / `->wait(` — wait_for / wait_until do not match (the char after
# `wait` must be `(`). The argument count decides the verdict.
CV_WAIT_RE = re.compile(r"(?:\.|->)\s*wait\s*\(")
# Any marker region, regardless of tag: `// cham-lint: begin(<tag>)`.
REGION_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(([A-Za-z_][\w]*)\)")
REGION_END_RE = re.compile(r"cham-lint:\s*end\(([A-Za-z_][\w]*)\)")
# Declarations annotated guarded: `Type name_ CHAM_GUARDED_BY(mu)`.
GUARDED_DECL_RE = re.compile(r"(\w+_)\s+CHAM_GUARDED_BY\s*\(")
# Writes to trailing-underscore members: prefix/postfix ++/--, compound
# assignment, plain assignment (also through one [subscript]). Comparison
# operators (==, <=, !=, ...) do not match.
MEMBER_WRITE_RES = (
    re.compile(r"(?:\+\+|--)\s*(\w+_)(?![\w])"),
    re.compile(r"(?<![\w])(\w+_)\s*(?:\+\+|--)"),
    re.compile(r"(?<![\w])(\w+_)\s*(?:\[[^\]]*\]\s*)?"
               r"(?:[+\-*/%&|^]=(?!=)|<<=|>>=|=(?!=))"),
)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line structure.

    Replaces stripped characters with spaces so offsets and line numbers of
    the surviving code are unchanged. Good enough for lint purposes; raw
    string literals are treated as plain strings (no R"()" parsing).
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = " "
                    if text[i + 1] != "\n":
                        out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def call_extent(code, open_paren):
    """Return the index one past the `)` matching code[open_paren] == '('."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def top_level_args(inner):
    """Number of comma-separated top-level arguments in a call's inner text."""
    if not inner.strip():
        return 0
    depth, commas = 0, 0
    for ch in inner:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            commas += 1
    return commas + 1


def registered_tests(cmake_path):
    """Target names of the cham_test() calls in a CMakeLists.txt (empty if
    the file is missing). # comments are stripped first."""
    try:
        with open(cmake_path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError:
        return set()
    text = re.sub(r"#[^\n]*", "", text)
    return set(CHAM_TEST_RE.findall(text))


_INCLUDERS = {}  # repo root -> {header realpath: set of includer realpaths}


def header_includers(root):
    """Map each header included from HEADER_USER_DIRS under `root` to the
    files that include it. Include paths resolve against root/src and the
    including file's directory. Cached per root."""
    if root in _INCLUDERS:
        return _INCLUDERS[root]
    src = os.path.join(root, "src")
    index = {}
    for sub in HEADER_USER_DIRS:
        top = os.path.join(root, sub)
        if not os.path.isdir(top):
            continue
        for f in iter_files([top]):
            with open(f, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
            here = os.path.realpath(f)
            for inc in INCLUDE_RE.findall(text):
                for base in (os.path.dirname(f), src):
                    target = os.path.realpath(os.path.join(base, inc))
                    index.setdefault(target, set()).add(here)
    _INCLUDERS[root] = index
    return index


def is_test_only_header(path):
    """True for an existing <root>/src/**/*.h that nothing outside tests/
    includes, its own .cpp excepted. <root> is the parent of the `src`
    directory nearest the file."""
    if not path.endswith(".h") or not os.path.isfile(path):
        return False
    header = os.path.realpath(path)
    parts = header.split(os.sep)
    if "src" not in parts[:-1]:
        return False
    src_index = len(parts) - 2 - parts[-2::-1].index("src")
    root = os.sep.join(parts[:src_index]) or os.sep
    own_cpp = os.path.splitext(header)[0] + ".cpp"
    return not (header_includers(root).get(header, set()) - {own_cpp})


def lint_file(path, raw):
    code = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    code_lines = code.splitlines()
    allowed = {}  # line number -> set of suppressed rules
    for lineno, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            allowed[lineno] = {r.strip() for r in m.group(1).split(",")}

    in_src = "src" + os.sep in path or path.startswith("src/")
    is_check_header = path.replace(os.sep, "/").endswith("util/check.h")
    is_sync_header = path.replace(os.sep, "/").endswith("util/sync.h")

    violations = []

    def report(lineno, rule):
        if rule in allowed.get(lineno, ()):
            return
        violations.append((path, lineno, rule, RULES[rule]))

    for lineno, line in enumerate(code_lines, start=1):
        if MODULO_RE.search(line):
            report(lineno, "modulo-sampling")
        if RAND_RE.search(line):
            report(lineno, "std-rand")
        if in_src and not is_check_header and ASSERT_RE.search(line):
            report(lineno, "raw-assert")
        if in_src and (NEW_RE.search(line) or DELETE_RE.search(line)):
            report(lineno, "naked-new")
        if in_src and not is_sync_header and RAW_MUTEX_RE.search(line):
            report(lineno, "raw-mutex")

    # Rule checks inside marked critical sections. An unmatched begin(...)
    # extends to end of file (better to over-flag a malformed region than to
    # silently skip it).
    def check_region(begin_re, end_re, rule, bad):
        inside = False
        for lineno, raw_line in enumerate(raw_lines, start=1):
            if begin_re.search(raw_line):
                inside = True
                continue
            if end_re.search(raw_line):
                inside = False
                continue
            if not inside or lineno > len(code_lines):
                continue
            if bad(code_lines[lineno - 1]):
                report(lineno, rule)

    # Dispatch sections run under a shard queue mutex: no blocking I/O, no
    # heap allocation.
    check_region(
        DISPATCH_BEGIN_RE, DISPATCH_END_RE, "blocking-in-dispatch",
        lambda line: bool(BLOCKING_RE.search(line) or ALLOC_RE.search(line) or
                          DISPATCH_ALLOC_RE.search(line) or
                          NEW_RE.search(line)))
    # sessions_mu_ sections hold the global residency lock: no filesystem /
    # stream traffic and no whole-state (de)serialisation. (Container growth
    # is fine here — these regions bookkeep the session map.)
    check_region(
        SESSIONS_BEGIN_RE, SESSIONS_END_RE, "io-in-sessions-mu",
        lambda line: bool(BLOCKING_RE.search(line) or
                          SERIALIZE_RE.search(line)))
    # store_mu sections hold the SessionStore's file lock: file I/O only,
    # no learner restore or op-log replay.
    check_region(
        STORE_MU_BEGIN_RE, STORE_MU_END_RE, "learner-in-store-mu",
        lambda line: bool(STORE_LEARNER_RE.search(line)))
    # batch_plan sections run under a shard queue mutex while the planner
    # selects coalescible predicts: no blocking I/O, no (de)serialisation,
    # no make_unique/make_shared, and no learner dispatch of any kind.
    # (Container moves are fine — selecting IS moving requests.)
    check_region(
        BATCH_PLAN_BEGIN_RE, BATCH_PLAN_END_RE, "blocking-in-batch-plan",
        lambda line: bool(BLOCKING_RE.search(line) or
                          SERIALIZE_RE.search(line) or
                          DISPATCH_ALLOC_RE.search(line) or
                          PLAN_DISPATCH_RE.search(line)))
    # net_mu sections hold a connection's mutex purely to move frames
    # between queues: no socket syscalls, no file/stream I/O, no sleeps.
    # (cv waits are the sanctioned blocking — flow control needs them.)
    check_region(
        NET_MU_BEGIN_RE, NET_MU_END_RE, "syscall-in-net-lock",
        lambda line: bool(SYSCALL_RE.search(line) or
                          BLOCKING_RE.search(line)))
    # wb_mu sections hold WriteBehind::mu_, a leaf every shard's restore
    # lookup and eviction hand-off takes: no SessionStore call at all.
    check_region(
        WB_MU_BEGIN_RE, WB_MU_END_RE, "store-in-wb-mu",
        lambda line: bool(STORE_CALL_RE.search(line)))

    # Condition-variable waits must pass a predicate: exactly one top-level
    # argument (just the lock) is the lost-wakeup-prone form. Zero arguments
    # (std::future::wait()) and two (lock + predicate) are fine.
    for m in CV_WAIT_RE.finditer(code):
        open_paren = code.index("(", m.end() - 1)
        end = call_extent(code, open_paren)
        if top_level_args(code[open_paren + 1:end - 1]) == 1:
            report(code.count("\n", 0, m.start()) + 1, "naked-cv-wait")

    # Writes to `name_` members inside ANY marker region must be declared
    # CHAM_GUARDED_BY — in this file or the sibling header (members of a
    # .cpp's class are declared in its .h).
    guarded = set(GUARDED_DECL_RE.findall(code))
    root, ext = os.path.splitext(path)
    if ext in (".cc", ".cpp", ".cxx"):
        for hext in (".h", ".hpp"):
            sibling = root + hext
            if os.path.isfile(sibling):
                with open(sibling, encoding="utf-8",
                          errors="replace") as fh:
                    guarded |= set(GUARDED_DECL_RE.findall(
                        strip_comments_and_strings(fh.read())))
    region_depth = 0
    for lineno, raw_line in enumerate(raw_lines, start=1):
        if REGION_BEGIN_RE.search(raw_line):
            region_depth += 1
            continue
        if REGION_END_RE.search(raw_line):
            region_depth = max(0, region_depth - 1)
            continue
        if region_depth == 0 or lineno > len(code_lines):
            continue
        for write_re in MEMBER_WRITE_RES:
            for w in write_re.finditer(code_lines[lineno - 1]):
                if w.group(1) not in guarded:
                    report(lineno, "unguarded-shared-member")

    # Rng use inside the lexical extent of a parallel_for(...) call. The body
    # is a lambda argument, so the balanced-paren extent of the call covers it.
    for m in PARALLEL_FOR_RE.finditer(code):
        open_paren = code.index("(", m.start())
        end = call_extent(code, open_paren)
        extent = code[open_paren:end]
        base_line = code.count("\n", 0, open_paren) + 1
        for use in RNG_USE_RE.finditer(extent):
            lineno = base_line + extent.count("\n", 0, use.start())
            report(lineno, "rng-in-parallel-for")
        for use in ALLOC_RE.finditer(extent):
            lineno = base_line + extent.count("\n", 0, use.start())
            report(lineno, "alloc-in-parallel-for")
        # (begin, end, body) with the grain left to its default of 1.
        if in_src and top_level_args(extent[1:-1]) == 3:
            report(base_line, "parallel-for-grain")

    # A tests/test_*.cpp must be registered, or it is never built.
    test_dir, base = os.path.split(path)
    if (os.path.basename(test_dir) == "tests" and TEST_SOURCE_RE.match(base)
            and base[:-len(".cpp")] not in registered_tests(
                os.path.join(test_dir, "CMakeLists.txt"))):
        report(1, "unregistered-test")

    # A src/ header must be reached by something other than tests.
    if is_test_only_header(path):
        report(1, "test-only-header")

    return violations


def iter_files(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
        elif os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs if not d.startswith("."))
                for f in sorted(files):
                    if f.endswith(CXX_EXTENSIONS):
                        yield os.path.join(root, f)
        else:
            print(f"cham_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)


def main(argv):
    args = argv[1:]
    if "--list-rules" in args:
        for name, desc in RULES.items():
            print(f"{name:20s} {desc}")
        return 0
    paths = args or ["src"]
    violations = []
    nfiles = 0
    for path in iter_files(paths):
        nfiles += 1
        with open(path, encoding="utf-8", errors="replace") as fh:
            violations.extend(lint_file(path, fh.read()))
    for path, lineno, rule, desc in violations:
        print(f"{path}:{lineno}: [{rule}] {desc}")
    if violations:
        print(f"cham_lint: {len(violations)} violation(s) in {nfiles} files",
              file=sys.stderr)
        return 1
    print(f"cham_lint: {nfiles} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
