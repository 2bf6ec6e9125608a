#!/usr/bin/env python3
"""Self-tests for cham_lint.py — one positive and one negative case per
behaviour of the thread-safety rules (raw-mutex, naked-cv-wait,
unguarded-shared-member), plus regression cases for the trickier matching
(suppressions, comments/strings, wait_for, nested regions, sibling-header
guarded declarations).

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

    print("rule: hot-path-stacking")
    check("flags stack_latents inside hot_path region",
          "hot-path-stacking" in rules_of(lint_src(
              "// cham-lint: begin(hot_path)\n"
              "const Tensor x = data::stack_latents(rows);\n"
              "// cham-lint: end(hot_path)\n")))
    check("flags unqualified stack_latents call",
          "hot-path-stacking" in rules_of(lint_src(
              "// cham-lint: begin(hot_path)\n"
              "auto x = stack_latents(rows);\n"
              "// cham-lint: end(hot_path)\n")))
    check("stack_latents outside the region is clean",
          rules_of(lint_src(
              "const Tensor x = data::stack_latents(rows);\n"
              "// cham-lint: begin(hot_path)\n"
              "g_->forward_gather(gb, true);\n"
              "// cham-lint: end(hot_path)\n")) == [])
    check("identifier suffix does not match (my_stack_latents)",
          rules_of(lint_src(
              "// cham-lint: begin(hot_path)\n"
              "auto x = my_stack_latents(rows);\n"
              "// cham-lint: end(hot_path)\n")) == [])
    check("mention in a comment is clean",
          rules_of(lint_src(
              "// cham-lint: begin(hot_path)\n"
              "// replaced stack_latents(rows) with a GatherBatch\n"
              "// cham-lint: end(hot_path)\n")) == [])
    check("suppressed by allow()",
          rules_of(lint_src(
              "// cham-lint: begin(hot_path)\n"
              "auto x = stack_latents(r);  // cham-lint: allow(hot-path-stacking)\n"
              "// cham-lint: end(hot_path)\n")) == [])
    check("hot_path is not a lock region (member writes need no guard)",
          rules_of(lint_src(
              "// cham-lint: begin(hot_path)\n"
              "step_ += 1;\n"
              "staged_pos_ = 0;\n"
              "// cham-lint: end(hot_path)\n")) == [])

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

    print("pre-existing rules still fire (no regression)")
    check("io-in-sessions-mu",
          "io-in-sessions-mu" in rules_of(lint_src(
              "// cham-lint: begin(sessions_mu)\n"
              "learner->save_state(os);\n"
              "// cham-lint: end(sessions_mu)\n")))
    # Every checkpoint (de)serialisation entry point is covered.
    for call in ("learner.load_state(is);", "store_.save(id, *l);",
                 "store_.load(id, *l);", "save_checkpoint(*l, path);",
                 "load_checkpoint(*l, path);", "store_.put_full(id, p, n);",
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

    if FAILURES:
        print(f"test_cham_lint: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("test_cham_lint: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
