#!/usr/bin/env python3
"""End-to-end benchmark of the ECM pipeline.

Builds the library and the e2ebench driver from source (Release, into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench under the
repository root), then runs one workload:

    python3 e2ebench/run.py --workload site-ingest --seed 1 --seconds 30 --trace 0

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1
prints every per-layer metric, span self times and the tracing overhead,
and writes the raw spans next to the build. The last stdout line is one
JSON object ({"correct", "attempted", "failed", "metrics"}); the exit
code is non-zero when the build fails or any output is wrong.

    python3 e2ebench/run.py --self-test

runs every workload at a tiny size, traced and untraced, and checks that
each metric BENCHMARK.json names is emitted, finite and in its unit.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "e2ebench")


def build(bdir):
    """Configures (once) and builds the driver; returns its path."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "e2ebench", "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("e2ebench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(bdir, "e2ebench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True,
                                 timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:12]


def run_driver(binary, args, capture):
    proc = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)
    return proc.returncode, (proc.stdout or "")


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            code, out = run_driver(binary, ["--workload", workload["name"],
                                            "--seconds", "1", "--trace",
                                            str(trace), "--tiny"], True)
            problems = []
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = None
                problems.append("last line is not JSON")
            if code != 0:
                problems.append("exit code %d" % code)
            if result is not None:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                if result.get("correct") is not True:
                    problems.append("correct is not true")
                metrics = result.get("metrics", {})
                for name, unit in want.items():
                    m = metrics.get(name)
                    if m is None:
                        problems.append("%s missing" % name)
                    elif not isinstance(m.get("value"), (int, float)) or \
                            not math.isfinite(m["value"]):
                        problems.append("%s not finite" % name)
                    elif m.get("unit") != unit:
                        problems.append("%s unit %s != %s" %
                                        (name, m.get("unit"), unit))
                extra = set(metrics) - set(want)
                if extra:
                    problems.append("unexpected %s" % sorted(extra))
            status = "PASS" if not problems else "FAIL " + "; ".join(problems)
            print("self-test %-12s trace=%d %s" % (workload["name"], trace,
                                                  status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (small window and trace)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    bdir = build_dir()
    binary = build(bdir)
    if args.self_test:
        return self_test(binary)

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace == 1:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    code, _ = run_driver(binary, cmd, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
