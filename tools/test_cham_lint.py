#!/usr/bin/env python3
"""Self-tests for cham_lint.py — one positive and one negative case per
behaviour of the thread-safety rules (raw-mutex, naked-cv-wait,
unguarded-shared-member), of parallel-for-grain, of learner-in-store-mu,
of store-in-wb-mu, of unregistered-test and of test-only-header, plus
regression cases for the trickier matching (suppressions,
comments/strings, wait_for, nested regions, sibling-header guarded
declarations).

Run directly (python3 tools/test_cham_lint.py) or via run_static.sh.
Exit status: 0 all pass, 1 failures.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cham_lint  # noqa: E402

FAILURES = []


def check(name, cond):
    if cond:
        print(f"  ok   {name}")
    else:
        print(f"  FAIL {name}")
        FAILURES.append(name)


def rules_of(violations):
    return [rule for (_path, _line, rule, _desc) in violations]


def lint_src(source, path="src/serve/fake.cpp"):
    """Lint a source snippet as if it lived at `path` (no file needed)."""
    return cham_lint.lint_file(path, source)


def main():
    print("rule: raw-mutex")
    check("flags std::mutex member",
          rules_of(lint_src("std::mutex mu_;")) == ["raw-mutex"])
    check("flags std::lock_guard",
          "raw-mutex" in rules_of(
              lint_src("std::lock_guard<std::mutex> l(mu_);")))
    check("flags unqualified lock_guard (using-declaration dodge)",
          "raw-mutex" in rules_of(lint_src("lock_guard<mutex> l(mu_);")))
    check("flags std::condition_variable_any",
          "raw-mutex" in rules_of(lint_src("std::condition_variable_any cv;")))
    check("ignores util::Mutex wrapper",
          rules_of(lint_src("util::MutexLock lock(mu_);\n"
                            "mutable util::Mutex mu_;")) == [])
    check("ignores members whose NAME contains mutex",
          rules_of(lint_src("util::Mutex api_mutex_;\n"
                            "int job_mutex_count = 0;")) == [])
    check("exempt in util/sync.h",
          rules_of(lint_src("std::mutex mu_;", path="src/util/sync.h")) == [])
    check("not applied outside src/",
          rules_of(lint_src("std::mutex mu_;", path="tests/t.cpp")) == [])
    check("ignores mutex in comments and strings",
          rules_of(lint_src('// a std::mutex here\n'
                            'const char* s = "std::mutex";')) == [])
    check("suppressed by allow()",
          rules_of(lint_src(
              "std::mutex mu_;  // cham-lint: allow(raw-mutex)")) == [])

    print("rule: naked-cv-wait")
    check("flags one-argument wait(lock)",
          rules_of(lint_src("cv_.wait(lock);")) == ["naked-cv-wait"])
    check("allows predicate wait(lock, pred)",
          rules_of(lint_src(
              "cv_.wait(lock, [this]() CHAM_REQUIRES(mu_) {\n"
              "  return stop_ || !queue_.empty();\n"
              "});")) == [])
    check("allows zero-argument future.wait()",
          rules_of(lint_src("result.wait();")) == [])
    check("wait_for / wait_until unmatched",
          rules_of(lint_src(
              "cv_.wait_for(lock, 1s);\ncv_.wait_until(lock, tp);")) == [])
    check("comma inside lambda body is not an argument separator",
          rules_of(lint_src(
              "cv_.wait(lock, [&] { return f(a, b) || g(); });")) == [])
    check("multi-line single-argument wait still flagged",
          "naked-cv-wait" in rules_of(lint_src("cv_.wait(\n    lock);")))
    check("flags arrow-call wait",
          "naked-cv-wait" in rules_of(lint_src("cv->wait(lk);")))

    print("rule: unguarded-shared-member")
    guarded_hdr = "int64_t resident_ CHAM_GUARDED_BY(mu_) = 0;\n"
    region = ("// cham-lint: begin(sessions_mu)\n"
              "++resident_;\n"
              "// cham-lint: end(sessions_mu)\n")
    check("guarded member written in region is clean",
          rules_of(lint_src(guarded_hdr + region)) == [])
    check("unguarded write in region flagged",
          rules_of(lint_src(region)) == ["unguarded-shared-member"])
    check("write outside any region not flagged",
          rules_of(lint_src("++resident_;")) == [])
    check("assignment and compound forms flagged",
          rules_of(lint_src(
              "// cham-lint: begin(x)\n"
              "tick_ = 0;\n"
              "count_ += 2;\n"
              "// cham-lint: end(x)\n")) == ["unguarded-shared-member"] * 2)
    check("subscripted map write flagged",
          "unguarded-shared-member" in rules_of(lint_src(
              "// cham-lint: begin(x)\n"
              "op_stats_[id] = s;\n"
              "// cham-lint: end(x)\n")))
    check("comparison is not a write",
          rules_of(lint_src(
              "// cham-lint: begin(x)\n"
              "if (resident_ == 0 && tick_ <= 4) {}\n"
              "// cham-lint: end(x)\n")) == [])
    check("locals without trailing underscore ignored",
          rules_of(lint_src(
              "// cham-lint: begin(x)\n"
              "depth = 3;\nsession.in_use = true;\n"
              "// cham-lint: end(x)\n")) == [])
    check("any region tag participates (not just sessions_mu)",
          "unguarded-shared-member" in rules_of(lint_src(
              "// cham-lint: begin(dispatch)\n"
              "++in_flight_;\n"
              "// cham-lint: end(dispatch)\n")))

    # Sibling-header resolution needs real files on disk.
    with tempfile.TemporaryDirectory() as tmp:
        src_dir = os.path.join(tmp, "src")
        os.makedirs(src_dir)
        hdr = os.path.join(src_dir, "widget.h")
        cpp = os.path.join(src_dir, "widget.cpp")
        with open(hdr, "w") as fh:
            fh.write("int64_t resident_ CHAM_GUARDED_BY(mu_) = 0;\n")
        body = ("// cham-lint: begin(mu)\n"
                "++resident_;\n++other_;\n"
                "// cham-lint: end(mu)\n")
        with open(cpp, "w") as fh:
            fh.write(body)
        got = rules_of(cham_lint.lint_file(cpp, body))
        check("guarded declaration found in sibling header",
              got == ["unguarded-shared-member"])  # other_ only

    print("rule: blocking-in-batch-plan")
    check("flags learner dispatch inside batch_plan region",
          "blocking-in-batch-plan" in rules_of(lint_src(
              "// cham-lint: begin(batch_plan)\n"
              "learner->predict_batch(keys);\n"
              "// cham-lint: end(batch_plan)\n")))
    check("flags session acquisition inside batch_plan region",
          "blocking-in-batch-plan" in rules_of(lint_src(
              "// cham-lint: begin(batch_plan)\n"
              "auto* l = acquire_session(sid);\n"
              "// cham-lint: end(batch_plan)\n")))
    check("flags serialisation inside batch_plan region",
          "blocking-in-batch-plan" in rules_of(lint_src(
              "// cham-lint: begin(batch_plan)\n"
              "learner->save_state(os);\n"
              "// cham-lint: end(batch_plan)\n")))
    check("flags make_shared inside batch_plan region",
          "blocking-in-batch-plan" in rules_of(lint_src(
              "// cham-lint: begin(batch_plan)\n"
              "auto b = std::make_shared<core::ByteBuf>();\n"
              "// cham-lint: end(batch_plan)\n")))
    check("request moves between containers are clean",
          rules_of(lint_src(
              "// cham-lint: begin(batch_plan)\n"
              "planner_.take_eligible(shard.queue, eligible);\n"
              "eligible.push_back(std::move(r));\n"
              "// cham-lint: end(batch_plan)\n")) == [])
    check("dispatch outside the region is clean",
          rules_of(lint_src(
              "// cham-lint: begin(batch_plan)\n"
              "planner_.take_eligible(shard.queue, eligible);\n"
              "// cham-lint: end(batch_plan)\n"
              "dispatch_plan(planner_.finalize(std::move(eligible)), &s);\n"
              )) == [])
    check("suppressed by allow()",
          rules_of(lint_src(
              "// cham-lint: begin(batch_plan)\n"
              "l->predict(k);  // cham-lint: allow(blocking-in-batch-plan)\n"
              "// cham-lint: end(batch_plan)\n")) == [])

    print("rule: syscall-in-net-lock")
    check("flags write() inside net_mu region",
          "syscall-in-net-lock" in rules_of(lint_src(
              "// cham-lint: begin(net_mu)\n"
              "ssize_t n = write(c.fd, buf, len);\n"
              "// cham-lint: end(net_mu)\n")))
    check("flags ::-qualified recv inside net_mu region",
          "syscall-in-net-lock" in rules_of(lint_src(
              "// cham-lint: begin(net_mu)\n"
              "ssize_t n = ::recv(fd, p, n, 0);\n"
              "// cham-lint: end(net_mu)\n")))
    check("flags poll / accept inside net_mu region",
          rules_of(lint_src(
              "// cham-lint: begin(net_mu)\n"
              "poll(fds.data(), fds.size(), -1);\n"
              "int cfd = accept(listen_fd_, nullptr, nullptr);\n"
              "// cham-lint: end(net_mu)\n")) ==
          ["syscall-in-net-lock"] * 2)
    check("flags sleep_for inside net_mu region (BLOCKING_RE reuse)",
          "syscall-in-net-lock" in rules_of(lint_src(
              "// cham-lint: begin(net_mu)\n"
              "std::this_thread::sleep_for(1ms);\n"
              "// cham-lint: end(net_mu)\n")))
    check("queue moves inside the region are clean",
          rules_of(lint_src(
              "// cham-lint: begin(net_mu)\n"
              "c.outbox.push_back(std::move(frame));\n"
              "c.outbox_bytes += sz;\n"
              "// cham-lint: end(net_mu)\n")) == [])
    check("derived identifiers do not match (read_header, fwrite_count)",
          rules_of(lint_src(
              "// cham-lint: begin(net_mu)\n"
              "bool ok = read_header(p, n, h);\n"
              "fwrite_count += 1;\n"
              "// cham-lint: end(net_mu)\n")) == [])
    check("syscall outside the region is clean",
          rules_of(lint_src(
              "// cham-lint: begin(net_mu)\n"
              "c.outbox.pop_front();\n"
              "// cham-lint: end(net_mu)\n"
              "ssize_t n = write(c.fd, buf, len);\n")) == [])
    check("cv wait with predicate inside the region is clean",
          rules_of(lint_src(
              "// cham-lint: begin(net_mu)\n"
              "c.cv_space.wait(lock, [&]() CHAM_REQUIRES(c.mu) {\n"
              "  return c.closed || c.outbox_bytes + sz <= limit;\n"
              "});\n"
              "// cham-lint: end(net_mu)\n")) == [])
    check("suppressed by allow()",
          rules_of(lint_src(
              "// cham-lint: begin(net_mu)\n"
              "poll(f, 1, 0);  // cham-lint: allow(syscall-in-net-lock)\n"
              "// cham-lint: end(net_mu)\n")) == [])

    print("rule: parallel-for-grain")
    check("flags a parallel_for with the default grain",
          rules_of(lint_src(
              "parallel_for(0, n, [&](int64_t b, int64_t e) {\n"
              "  for (int64_t i = b; i < e; ++i) f(i, g(a, b));\n"
              "});\n")) == ["parallel-for-grain"])
    check("explicit grain is clean (commas in the body do not count)",
          rules_of(lint_src(
              "parallel_for(\n"
              "    0, n,\n"
              "    [&, k](int64_t b, int64_t e) { f(b, e, k); },\n"
              "    work_grain(k * k));\n")) == [])
    check("named body with grain is clean",
          rules_of(lint_src("parallel_for(0, batch, body, 4);")) == [])
    check("suppressed by allow()",
          rules_of(lint_src(
              "parallel_for(0, n, body);  "
              "// cham-lint: allow(parallel-for-grain)\n")) == [])
    check("not applied outside src/",
          rules_of(lint_src("parallel_for(0, n, body);",
                            path="tests/t.cpp")) == [])

    print("pre-existing rules still fire (no regression)")
    check("io-in-sessions-mu",
          "io-in-sessions-mu" in rules_of(lint_src(
              "// cham-lint: begin(sessions_mu)\n"
              "learner->save_state(os);\n"
              "// cham-lint: end(sessions_mu)\n")))
    # Every checkpoint (de)serialisation entry point is covered.
    for call in ("learner.load_state(is);", "store_.save(id, *l);",
                 "store_.load(id, *l);", "store_.put_full(id, p, n);",
                 "store_.put_delta(id, p, n);", "store_.get_blob(id, b);",
                 "store_.get_delta(id, b);", "core::encode_op_log(h, ops);",
                 "core::read_op_log(p, n, ops);"):
        check(f"io-in-sessions-mu covers {call}",
              "io-in-sessions-mu" in rules_of(lint_src(
                  "// cham-lint: begin(sessions_mu)\n"
                  f"{call}\n"
                  "// cham-lint: end(sessions_mu)\n")))
    check("modulo-sampling",
          "modulo-sampling" in rules_of(lint_src("x = rng.next_u64() % n;")))
    check("naked-new",
          "naked-new" in rules_of(lint_src("auto* p = new Foo();")))

    print("rule: learner-in-store-mu")
    check("flags a replay observe under the store lock",
          rules_of(lint_src(
              "// cham-lint: begin(store_mu)\n"
              "for (const auto& op : ops) learner.observe(op.batch);\n"
              "// cham-lint: end(store_mu)\n",
              path="src/serve/session_store.cpp")) == ["learner-in-store-mu"])
    check("clean: file reads under the lock, restore after it",
          rules_of(lint_src(
              "// cham-lint: begin(store_mu)\n"
              "if (!read_file(path_for(id), base)) return false;\n"
              "// cham-lint: end(store_mu)\n"
              "if (!core::read_op_log(d.data(), d.size(), ops)) return false;\n"
              "if (!learner.load_state(is)) return false;\n",
              path="src/serve/session_store.cpp")) == [])

    print("rule: store-in-wb-mu")
    check("flags a put_full under WriteBehind::mu_",
          rules_of(lint_src(
              "// cham-lint: begin(wb_mu)\n"
              "if (!store_.put_full(id, b->data(), b->size())) continue;\n"
              "// cham-lint: end(wb_mu)\n",
              path="src/serve/write_behind.cpp")) == ["store-in-wb-mu"])
    check("clean: queue under the lock, write with it released",
          rules_of(lint_src(
              "// cham-lint: begin(wb_mu)\n"
              "queue_full_locked(id, m);\n"
              "// cham-lint: end(wb_mu)\n"
              "const bool ok = store_.put_delta(id, f.data(), f.size());\n",
              path="src/serve/write_behind.cpp")) == [])

    print("rule: unregistered-test")
    with tempfile.TemporaryDirectory() as tmp:
        tests_dir = os.path.join(tmp, "tests")
        os.makedirs(tests_dir)
        cmake = os.path.join(tests_dir, "CMakeLists.txt")
        with open(cmake, "w") as fh:
            fh.write("cham_test(test_alpha cham_nn)\n"
                     "if(CHAM_SANITIZE STREQUAL \"thread\")\n"
                     "  cham_test(test_race cham_serve)\n"
                     "endif()\n"
                     "# cham_test(test_gamma cham_nn)\n"
                     "cham_test(test_beta_extra cham_nn)  # test_beta\n")

        def lint_test(name, body="TEST(A, B) {}\n", directory=tests_dir):
            return rules_of(cham_lint.lint_file(
                os.path.join(directory, name), body))

        check("registered test is clean", lint_test("test_alpha.cpp") == [])
        check("registration inside if() counts",
              lint_test("test_race.cpp") == [])
        check("flags a test no cham_test() names",
              lint_test("test_delta.cpp") == ["unregistered-test"])
        check("a registration in a # comment does not count",
              lint_test("test_gamma.cpp") == ["unregistered-test"])
        check("a longer registered name does not cover its prefix",
              lint_test("test_beta.cpp") == ["unregistered-test"])
        check("non-test sources in tests/ are exempt",
              lint_test("helpers.cpp") == [] and
              lint_test("test_util.h") == [])
        check("suppressed by allow() on line 1",
              lint_test("test_delta.cpp",
                        "// cham-lint: allow(unregistered-test)\n") == [])
        check("test_*.cpp outside a tests/ directory is exempt",
              lint_test("test_delta.cpp", directory=tmp) == [])
        os.remove(cmake)
        check("flags every test when tests/CMakeLists.txt is missing",
              lint_test("test_alpha.cpp") == ["unregistered-test"])

    print("rule: test-only-header")
    with tempfile.TemporaryDirectory() as tmp:
        def put(rel, body=""):
            full = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as fh:
                fh.write(body)
            return full

        headers = {name: put(f"src/core/{name}.h", "#pragma once\n")
                   for name in ("used", "bench_used", "example_used",
                                "perf_used", "relative", "tested",
                                "own_cpp_only", "commented", "suppressed",
                                "via_header")}
        put("src/core/user.cpp", '#include "core/used.h"\n'
            '#include "relative.h"\n')
        put("src/core/own_cpp_only.cpp", '#include "core/own_cpp_only.h"\n')
        put("src/core/via_header.cpp", '#include "core/via_header.h"\n')
        put("src/core/other.h", '#pragma once\n#include "core/via_header.h"\n')
        put("src/core/other_user.cpp", '#include "core/other.h"\n')
        put("src/core/notes.cpp", '// #include "core/commented.h"\n')
        put("bench/bench_x.cpp", '#include "core/bench_used.h"\n')
        put("examples/demo.cpp", '#  include "core/example_used.h"\n')
        put("perfbench/src/stack.cpp", '#include "core/perf_used.h"\n')
        put("tests/test_core.cpp", '#include "core/tested.h"\n'
            '#include "core/suppressed.h"\n')
        put("src/core/widget.cpp", "")

        def lint_header(name, body="#pragma once\n"):
            return rules_of(cham_lint.lint_file(headers[name], body))

        check("header included from src/ is clean", lint_header("used") == [])
        check("header included from bench/ is clean",
              lint_header("bench_used") == [])
        check("header included from examples/ is clean",
              lint_header("example_used") == [])
        check("header included from perfbench/src/ is clean",
              lint_header("perf_used") == [])
        check("include relative to the including file counts",
              lint_header("relative") == [])
        check("include from another (used) header counts",
              lint_header("via_header") == [])
        check("flags a header only tests/ include",
              lint_header("tested") == ["test-only-header"])
        check("its own .cpp does not count",
              lint_header("own_cpp_only") == ["test-only-header"])
        check("a commented-out include does not count",
              lint_header("commented") == ["test-only-header"])
        check("suppressed by allow() on line 1",
              lint_header("suppressed",
                          "// cham-lint: allow(test-only-header)\n") == [])
        check(".cpp files are exempt",
              rules_of(cham_lint.lint_file(
                  os.path.join(tmp, "src/core/widget.cpp"), "")) == [])
        check("a header path that does not exist is exempt",
              rules_of(cham_lint.lint_file(
                  os.path.join(tmp, "src/core/ghost.h"), "")) == [])
        check("a header outside any src/ directory is exempt",
              rules_of(cham_lint.lint_file(
                  put("include/loose.h", "#pragma once\n"),
                  "#pragma once\n")) == [])

    print("repo tree is clean under all rules")
    repo_src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    tree = []
    for f in cham_lint.iter_files([repo_src]):
        with open(f, encoding="utf-8", errors="replace") as fh:
            tree.extend(cham_lint.lint_file(f, fh.read()))
    for v in tree:
        print(f"    {v[0]}:{v[1]}: [{v[2]}]")
    check("src/ has zero violations", tree == [])
    repo_tests = os.path.join(os.path.dirname(repo_src), "tests")
    unregistered = []
    for f in cham_lint.iter_files([repo_tests]):
        with open(f, encoding="utf-8", errors="replace") as fh:
            unregistered.extend(v for v in cham_lint.lint_file(f, fh.read())
                                if v[2] == "unregistered-test")
    for v in unregistered:
        print(f"    {v[0]}:{v[1]}: [{v[2]}]")
    check("every tests/test_*.cpp is registered", unregistered == [])
    orphans = [f for f in cham_lint.iter_files([repo_src])
               if cham_lint.is_test_only_header(f)]
    for f in orphans:
        print(f"    {f}: [test-only-header]")
    check("no src/ header is reached only by tests", orphans == [])

    if FAILURES:
        print(f"test_cham_lint: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("test_cham_lint: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
