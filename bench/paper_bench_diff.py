#!/usr/bin/env python3
"""Byte-identity check of the paper benches between two builds.

Runs every table, figure and ablation bench (bench_t*, bench_f*, bench_a*)
from two CMake build trees of this repository, typically one of a parent
commit and one of a change, and compares their standard output and every
file they write.  The only lines allowed to differ are bench_f2_pareto_front's
timing lines (those containing "wall time" or "speedup") on its stdout.

  python3 bench/paper_bench_diff.py BUILD_A BUILD_B

Each bench runs with its default arguments from BUILD/bench/, two at a time,
in a fresh temporary working directory; the files it leaves there (e.g.
bench_f3_spar_sweep's fig3_preamplifier.s2p Touchstone export) are read
before the directory is removed.  Prints one verdict line per bench and a
unified diff for each mismatch.  Exit status: 0 when every bench matches,
1 on any output difference, 2 on a usage error or when a bench is missing
from either build, differs in name between the builds, or exits non-zero.
"""
import concurrent.futures
import difflib
import os
import re
import subprocess
import sys
import tempfile

BENCH_NAME = re.compile(r"bench_[tfa]\d+_\w+\Z")
TIMED_BENCH = "bench_f2_pareto_front"
TIMING_LINE = re.compile(r"wall time|speedup")
EXPECTED_COUNT = 13
JOBS = 2


def paper_benches(build):
    bench_dir = os.path.join(build, "bench")
    if not os.path.isdir(bench_dir):
        print("paper_bench_diff: no bench/ directory in " + build)
        sys.exit(2)
    return sorted(
        name for name in os.listdir(bench_dir)
        if BENCH_NAME.match(name)
        and os.access(os.path.join(bench_dir, name), os.X_OK))


def written_files(cwd):
    """{relative path: bytes} of every file under cwd."""
    files = {}
    for root, _, names in os.walk(cwd):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, cwd)] = f.read()
    return files


def run(build, name):
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [os.path.join(os.path.abspath(build), "bench", name)], cwd=cwd,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        files = written_files(cwd)
    return done.returncode, done.stdout, done.stderr, files


def comparable(name, stdout):
    lines = stdout.splitlines(keepends=True)
    if name == TIMED_BENCH:
        lines = [line for line in lines if not TIMING_LINE.search(line)]
    return lines


def file_lines(data):
    if data is None:
        return []
    return data.decode("utf-8", "backslashreplace").splitlines(keepends=True)


def differences(name, build_a, build_b, out_a, out_b, files_a, files_b):
    """Unified diffs of stdout and of each written file; empty if equal."""
    diffs = []
    a, b = comparable(name, out_a), comparable(name, out_b)
    if a != b:
        diffs.append(difflib.unified_diff(
            a, b, fromfile=os.path.join(build_a, "bench", name),
            tofile=os.path.join(build_b, "bench", name)))
    for path in sorted(set(files_a) | set(files_b)):
        data_a, data_b = files_a.get(path), files_b.get(path)
        if data_a == data_b:
            continue
        diffs.append(difflib.unified_diff(
            file_lines(data_a), file_lines(data_b),
            fromfile="%s: %s" % (build_a, path if data_a is not None
                                 else path + " (not written)"),
            tofile="%s: %s" % (build_b, path if data_b is not None
                               else path + " (not written)")))
    return diffs


def main():
    if len(sys.argv) != 3:
        print("usage: paper_bench_diff.py BUILD_A BUILD_B")
        return 2
    build_a, build_b = sys.argv[1:]

    names = paper_benches(build_a)
    names_b = paper_benches(build_b)
    if names != names_b or len(names) != EXPECTED_COUNT:
        print("paper_bench_diff: expected the same %d benches in both builds,"
              " found %s and %s" % (EXPECTED_COUNT, names, names_b))
        return 2

    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futures = {(build, name): pool.submit(run, build, name)
                   for name in names for build in (build_a, build_b)}
        status = 0
        for name in names:
            code_a, out_a, err_a, files_a = futures[(build_a, name)].result()
            code_b, out_b, err_b, files_b = futures[(build_b, name)].result()
            if code_a != 0 or code_b != 0:
                print("%s: FAILED (exit %d / %d)" % (name, code_a, code_b))
                sys.stdout.write(err_a[-2000:] + err_b[-2000:])
                status = 2
                continue
            diffs = differences(name, build_a, build_b, out_a, out_b,
                                files_a, files_b)
            if not diffs:
                print("%s: identical (%d stdout lines, %d files)"
                      % (name, len(comparable(name, out_a)), len(files_a)))
                continue
            print("%s: DIFFERS" % name)
            for diff in diffs:
                sys.stdout.writelines(diff)
            status = max(status, 1)
    print("paper_bench_diff: %s" % ("all %d benches identical" % len(names)
                                     if status == 0 else "MISMATCH"))
    return status


if __name__ == "__main__":
    sys.exit(main())
