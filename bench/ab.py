#!/usr/bin/env python3
"""Paired CPU-time A/B comparison of two revisions on the perfbench workloads.

Builds `hqrun` and `hqserve` for each revision from `git archive <rev>` into
its own fresh directory (never from the live tree, so no build mixes
sources), then runs fixed-work command lines equivalent to three perfbench
workloads (see perfbench/README.md), four times per side per pair:
`paper_pairs` as its 12 hqrun runs (6 heterogeneous pairs x memsync off/on,
NA = NS = 16, naive FIFO; 192 apps), and `fleet_scale` and `fleet_chaos` as
one hqserve run each.

Both sides of a run start at the same time, each pinned to its own core,
so host load hits both sides alike and cancels in the ratio. The cores
swap on every run, so each side meets each core equally often. Other
tenants only ever add CPU time, and a slow core stays slow for seconds, so
each side keeps its least child CPU time (user + system) over the pair's
runs, each run's time being the sum over its commands. Each pair yields
head/base of those; the report is the median ratio with a bootstrap 95%
interval. Every command also compares the two sides' outputs (stdout and,
for fleet_chaos, the Prometheus export) and fails on any difference, so an
A/B run is also a zero-perturbation check. Each run also counts the apps
(paper_pairs) or arrived jobs (fleet) it ran against perfbench's batch.

Each run's peak RSS (ru_maxrss from the same wait4 call, the largest over
the run's commands) is reported too: the per-workload median of each side
over all its runs and the head/base
ratio of the medians. A child forked from this Python process starts with
its RSS, and ru_maxrss keeps that across exec, so no reading goes below
what this process held at the fork. Its own peak is printed as the floor:
a side whose median sits near the floor is bounded by it, not measured.

    python3 bench/ab.py --base HEAD~1 --head HEAD --pairs 16
    python3 bench/ab.py --aa HEAD --pairs 16          # noise floor
    python3 bench/ab.py --base A --head B --floor 0.02

A/A mode runs one build on both sides; its interval half-width is the
noise floor. With `--floor H` the verdict per workload is "faster" when the
interval's upper end is below 1 - H, "slower" when its lower end is above
1 + H, "not slower" when its upper end is at most 1 + H, and "unresolved"
otherwise. Builds are kept under --build-root, one directory per commit id;
a directory without a finished build is wiped and rebuilt. Exit status: 0
on success, 1 when outputs differ or an app or job count is off, 2 on a
usage or build error. The last line printed is one JSON object.
"""

import argparse
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHAOS_PLANS = [
    "crash-at-us=60000,seed=3",
    "flap-period-us=8000,flap-down-us=2000,flap-jitter=0.5,seed=5",
    "degrade-at-us=40000,degrade-copy-factor=3,seed=9",
    "sdc-kernel-rate=0.05,seed=7",
    "disabled", "disabled", "disabled", "disabled",
]

# Side-by-side runs per pair. Even, so each side meets each core equally.
RUNS = 4

HETERO_PAIRS = [("gaussian", "nn"), ("gaussian", "needle"),
                ("gaussian", "srad"), ("nn", "needle"), ("nn", "srad"),
                ("needle", "srad")]

TOOLS = ("hqrun", "hqserve")

# name -> (tool, one argument list per command, perfbench's count of the
# batch, the stdout pattern whose group 1 counts it per command)
WORKLOADS = {
    "paper_pairs": (
        "hqrun",
        [["--apps", f"{x},{y}", "--na", "16", "--ns", "16", "--order", "fifo"]
         + (["--memsync"] if memsync else [])
         for memsync in (False, True) for x, y in HETERO_PAIRS],
        192, rb"workload +\S+ x (\d+)"),
    "fleet_scale": (
        "hqserve",
        [["--devices", "64", "--placement", "least-loaded", "--window-ms",
          "50", "--mean-gap-us", "7"]],
        7048, rb"jobs: arrived=(\d+)"),
    "fleet_chaos": (
        "hqserve",
        [["--devices", "8", "--placement", "least-loaded", "--mean-gap-us",
          "30", "--window-ms", "100", "--streams", "8", "--max-inflight", "4",
          "--queue-cap", "48", "--deadline-us", "4000", "--steal",
          "--failover-budget", "2", "--hedge", "--integrity", "spotcheck",
          "--spotcheck-rate", "0.25", "--device-fault-plan-file", "{plans}",
          "--prom", "out.prom"]],
        3296, rb"jobs: arrived=(\d+)"),
}


def fail(message, status=2):
    print(f"ab.py: {message}", file=sys.stderr)
    sys.exit(status)


def commit_of(rev):
    out = subprocess.run(["git", "-C", REPO, "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"unknown revision '{rev}'")
    return out.stdout.strip()


def build(commit, root):
    """Returns {tool: binary} built from a fresh `git archive` of `commit`."""
    top = os.path.join(root, commit)
    binaries = {t: os.path.join(top, "build", "tools", t) for t in TOOLS}
    stamp = os.path.join(top, "built")
    if os.path.exists(stamp):
        return binaries
    shutil.rmtree(top, ignore_errors=True)
    src = os.path.join(top, "src")
    os.makedirs(src)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        fail(f"git archive {commit} failed")
    log_path = os.path.join(top, "build.log")
    print(f"building {commit[:12]} (log: {log_path})", flush=True)
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", src, "-B", os.path.join(top, "build"),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                     "-DHQ_BUILD_TESTS=OFF", "-DHQ_BUILD_BENCH=OFF",
                     "-DHQ_BUILD_EXAMPLES=OFF"],
                    ["cmake", "--build", os.path.join(top, "build"),
                     "-j", str(min(4, os.cpu_count() or 1)),
                     "--target", *TOOLS]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build of {commit[:12]} failed; see {log_path}")
    open(stamp, "w").close()
    return binaries


def run_side_by_side(binaries, args, cores, work):
    """Runs both builds at once, each pinned to its own core.

    Returns {side: (CPU seconds, peak RSS in MB, exit status,
    {output file: bytes})}.
    """
    procs = {}
    for side, core in zip(("base", "head"), cores):
        out_dir = os.path.join(work, side)
        os.makedirs(out_dir)
        with open(os.path.join(out_dir, "stdout"), "wb") as stdout:
            procs[side] = subprocess.Popen(
                [binaries[side]] + args, stdout=stdout,
                stderr=subprocess.STDOUT, cwd=out_dir,
                preexec_fn=lambda core=core: os.sched_setaffinity(0, {core}))
    result = {}
    for side, proc in procs.items():
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out_dir = os.path.join(work, side)
        files = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as f:
                files[name] = f.read()
        shutil.rmtree(out_dir)
        result[side] = (usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024, proc.returncode, files)
    return result


def median_interval(ratios, rng, resamples=4000):
    """Median and bootstrap 95% percentile interval of the median."""
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(resamples))
    return (statistics.median(ratios), medians[int(0.025 * resamples)],
            medians[int(0.975 * resamples) - 1])


def verdict(lo, hi, floor):
    if hi < 1 - floor:
        return "faster"
    if lo > 1 + floor:
        return "slower"
    if hi <= 1 + floor:
        return "not slower"
    return "unresolved"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="baseline revision")
    parser.add_argument("--head", help="revision under test")
    parser.add_argument("--aa", metavar="REV",
                        help="A/A mode: run REV against itself")
    parser.add_argument("--pairs", type=int, default=16)
    parser.add_argument("--floor", type=float, default=0.0,
                        help="A/A half-width the verdict must clear")
    parser.add_argument("--build-root",
                        default=os.path.join(tempfile.gettempdir(), "hq-ab"))
    args = parser.parse_args()

    if args.aa:
        if args.base or args.head:
            fail("--aa excludes --base/--head")
        base = head = commit_of(args.aa)
    elif args.base and args.head:
        base, head = commit_of(args.base), commit_of(args.head)
    else:
        fail("give --base and --head, or --aa")
    if args.pairs < 2:
        fail("--pairs must be at least 2")
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        fail("needs two usable cores")
    cores = cores[-2:]

    builds = {"base": build(base, args.build_root)}
    builds["head"] = build(head, args.build_root)

    work = tempfile.mkdtemp(prefix="hq-ab-run-")
    plans = os.path.join(work, "plans.txt")
    with open(plans, "w") as f:
        f.write("\n".join(CHAOS_PLANS) + "\n")

    ratios = {name: [] for name in WORKLOADS}
    rss = {name: {"base": [], "head": []} for name in WORKLOADS}
    problems = []
    for pair in range(args.pairs):
        for name, (tool, commands, expected, pattern) in WORKLOADS.items():
            sides_of = {side: builds[side][tool] for side in builds}
            best = {}
            for run in range(RUNS):
                pinned = cores if (pair + run) % 2 == 0 else cores[::-1]
                cpu = {"base": 0.0, "head": 0.0}
                peak = {"base": 0.0, "head": 0.0}
                count = 0
                for command in commands:
                    command = [a.replace("{plans}", plans) for a in command]
                    sides = run_side_by_side(sides_of, command, pinned, work)
                    for side, (seconds, rss_mb, status, _) in sides.items():
                        cpu[side] += seconds
                        peak[side] = max(peak[side], rss_mb)
                        if status != 0:
                            problems.append(f"{name} pair {pair}: {side} "
                                            f"exited {status}")
                    if sides["base"][3] != sides["head"][3]:
                        problems.append(f"{name} pair {pair}: outputs differ")
                    found = re.search(pattern,
                                      sides["head"][3].get("stdout", b""))
                    count += int(found.group(1)) if found else 0
                if count != expected:
                    problems.append(f"{name} pair {pair}: expected "
                                    f"{expected}, counted {count}")
                for side in cpu:
                    best[side] = min(cpu[side], best.get(side, cpu[side]))
                    rss[name][side].append(peak[side])
            ratios[name].append(best["head"] / best["base"])
            print(f"pair {pair} {name}: base {best['base']:.3f} s, head "
                  f"{best['head']:.3f} s, ratio {ratios[name][-1]:.4f}",
                  flush=True)
        if problems:
            break
    shutil.rmtree(work)
    rss_floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rng = random.Random(1)
    result = {"base": base, "head": head, "aa": bool(args.aa),
              "pairs": args.pairs, "floor": args.floor,
              "host_cpus": os.cpu_count(), "rss_floor_mb": rss_floor,
              "workloads": {}}
    for name in WORKLOADS:
        if len(ratios[name]) < 2:
            continue
        mid, lo, hi = median_interval(ratios[name], rng)
        base_rss = statistics.median(rss[name]["base"])
        head_rss = statistics.median(rss[name]["head"])
        result["workloads"][name] = {
            "median_ratio": mid, "ci95": [lo, hi],
            "half_width": (hi - lo) / 2, "verdict": verdict(lo, hi, args.floor),
            "peak_rss_mb": {"base": base_rss, "head": head_rss,
                            "ratio": head_rss / base_rss}}
        print(f"{name}: head/base CPU time {mid:.4f} "
              f"[{lo:.4f}, {hi:.4f}] over {len(ratios[name])} pairs: "
              f"{result['workloads'][name]['verdict']}")
        print(f"{name}: peak RSS median base {base_rss:.2f} MB, head "
              f"{head_rss:.2f} MB, head/base {head_rss / base_rss:.4f} "
              f"(floor {rss_floor:.2f} MB)")
    result["problems"] = problems
    for p in problems:
        print(f"FAIL {p}")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
