#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload solo-recover|wave|mix \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds `safetypind` (from the repository workspace) and the `perfbench`
binary (perfbench/Cargo.toml) in release mode, into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload against a freshly
provisioned daemon with the fleet shape and rates of
perfbench/config.json. `--smoke` uses the config's tiny `smoke` fleet.

Prints the binary's report; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
non-zero, without that line, if the build fails or any correctness
check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 seconds; the binary gets a little less.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds both binaries; returns their paths, or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "daemon", "Cargo.toml")):
        log(f"no repository sources under {ROOT}")
        return None
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(), CARGO_NET_OFFLINE="true")
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "safetypin-daemon",
         "--bin", "safetypind"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run cargo: {e}")
            return None
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return None
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "safetypind"), os.path.join(release, "perfbench")


def commit_id():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(base)
            if not {"out", "target"} & set(d[len(base):].split(os.sep))
            for f in files)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def knobs(cfg, smoke):
    """The binary's knobs, every one from config.json."""
    section = cfg["smoke"] if smoke else cfg
    fleet = section["fleet"]
    flags = [
        "--fleet", str(fleet["hsms"]), str(fleet["cluster"]), str(fleet["bfe_slots"]),
        "--provision-seed", str(fleet["provision_seed"]),
        "--setups", str(section["setups"]),
        "--readback", str(section["readback"]),
    ]
    named = {
        "recoveries_per_s": "--solo-per-s",
        "wave_size": "--wave-size",
        "cycles_per_s": "--wave-cycles-per-s",
        "save_per_s": "--mix-save-per-s",
        "recover_per_s": "--mix-recover-per-s",
    }
    for rates in section["workloads"].values():
        for key, value in rates.items():
            flags += [named[key], str(value)]
    return flags


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    result = json.loads(line)
    want = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    missing = [m["name"] for m in want if m["name"] not in got]
    extra = sorted(set(got) - {m["name"] for m in want})
    units = [m["name"] for m in want
             if m["name"] in got and got[m["name"]]["unit"] != m["unit"]]
    if missing or extra or units:
        log(f"result does not match BENCHMARK.json: missing {missing}, "
            f"unexpected {extra}, wrong units {units}")
        return False
    return set(result) == {"correct", "attempted", "failed", "metrics"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["solo-recover", "wave", "mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny fleet and rates from the config's smoke section")
    args = ap.parse_args()

    binaries = build()
    if binaries is None:
        return 1
    daemon, perfbench = binaries
    with open(os.path.join(HERE, "config.json")) as f:
        cfg = json.load(f)
    seconds = cfg["smoke"]["seconds"] if args.smoke else args.seconds
    out = os.path.join(HERE, "out")
    work = os.path.join(out, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [perfbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--daemon", daemon, "--work-dir", work, "--commit", commit_id(),
           "--spans", os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl")]
    cmd += knobs(cfg, args.smoke)
    # Own process group: a timeout takes the binary's daemons down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("".join(f"{l}\n" for l in lines if l.startswith("#")))
        log(f"perfbench failed (exit {proc.returncode})")
        return 1
    result = lines[-1]
    if not check_result(result, args.trace == 1):
        return 1
    for line in lines[:-1]:
        print(line)
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
