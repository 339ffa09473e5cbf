"""The statistics behind benchmark/run.sh: run the BENCHMARK.json command,
collect the result lines, print tables. Run from the root of a checkout."""

import functools
import json
import math
import statistics
import subprocess
import sys
import time

SPEC = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

# The driver's arithmetic: 4 + 22 runs per workload and two builds, within
# 3420 s; the issue wants a tenth of that to spare.
DRIVER_RUNS = 4 + 22 * len(WORKLOADS)
DRIVER_CAP_S = 3420

# Per-layer metrics that two runs on one seed must reproduce exactly:
# counts of work done and simulated values, never host time.
EXACT = [
    "sim.traverse_calls", "sim.traverse_concurrent_calls", "sim.oracle_evals",
    "sim.l1_misses", "sim.l2_misses", "sim.invalidations", "sim.writebacks",
    "net.message_calls", "net.concurrent_message_calls",
    "core.platform_calls", "core.candidates_scored",
    "core.t1_cache_size_s", "core.t1_shared_caches_s", "core.t1_memory_overhead_s",
    "core.t1_communication_s", "core.t1_false_sharing_s",
    "core.detect_accuracy", "core.sharing_accuracy", "core.padding_accuracy",
    "tune.evaluations", "tune.parity",
    "registry.bytes_per_req", "registry.requests", "registry.busy_rejects",
    "registry.advice_memo_hit_frac", "registry.profile_cache_hit_frac",
    "harness.slots",
]


def run(workload, seed, trace):
    """One run through the exact BENCHMARK.json command: (result, wall seconds)."""
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result, wall


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(xs):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def nearest_rank(q):
    """The ceil(q*n)-th smallest, as the benchmark computes it."""
    return lambda xs: sorted(xs)[max(math.ceil(q * len(xs)), 1) - 1]


# Ways to summarise one slot's times across the rounds of a run.
SUMMARIES = [
    ("min", min), ("p10", nearest_rank(0.10)), ("p25", nearest_rank(0.25)),
    ("median", nearest_rank(0.50)), ("p75", nearest_rank(0.75)), ("mean", statistics.mean),
]


def slot_log(workload, seed):
    """The slot times the benchmark logged for an untraced run."""
    return json.load(open(f"{bench_run_dir()}/slots-{workload}-seed{seed}-trace0.json"))


@functools.lru_cache(maxsize=None)
def bench_run_dir():
    metadata = subprocess.run(
        ["cargo", "metadata", "--offline", "--no-deps", "--format-version", "1",
         "--manifest-path", "benchmark/Cargo.toml"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(metadata.stdout)["target_directory"] + "/release/bench-run"


def once(seed):
    report = {"seed": seed, "runs": []}
    tables = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, wall = run(workload, seed, trace)
            report["runs"].append({"workload": workload, "trace": trace, "wall_s": wall, "result": result})
            for name, metric in result["metrics"].items():
                tables.setdefault(name, {"unit": metric["unit"]})[workload] = metric["value"]
    print(f"{'metric':<42}{'unit':<8}" + "".join(f"{w:>18}" for w in WORKLOADS))
    for name, row in tables.items():
        cells = "".join(f"{row.get(w, 0):>18.6g}" for w in WORKLOADS)
        print(f"{name:<42}{row['unit']:<8}{cells}")
    walls = [r["wall_s"] for r in report["runs"]]
    print(f"\nwall: {sum(walls):.0f} s for {len(walls)} runs, longest {max(walls):.1f} s")
    out = f"{bench_run_dir()}/report-seed{seed}.json"
    json.dump(report, open(out, "w"), indent=1)
    print(f"report: {out}")


def spread_mode():
    started = time.monotonic()
    # The first run builds; time it apart.
    build_start = time.monotonic()
    subprocess.run(SPEC["command"] + ["--describe"], stdout=subprocess.DEVNULL, check=True)
    build_s = time.monotonic() - build_start
    print(f"build: {build_s:.0f} s", flush=True)

    failures = []
    walls = []
    sets = {}
    for label, seeds in (("A", range(11, 21)), ("B", range(21, 31))):
        for workload in WORKLOADS:
            rows = []
            for seed in seeds:
                result, wall = run(workload, seed, 0)
                walls.append(wall)
                rows.append(values(result))
            sets[(label, workload)] = rows
            json.dump({f"{l}/{w}": r for (l, w), r in sets.items()},
                      open(f"{bench_run_dir()}/spread-values.json", "w"), indent=1)
            print(f"set {label} {workload}: done, {sum(walls):.0f} s so far", flush=True)

    print(f"\n{'workload':<18}{'metric':<14}{'median A':>12}{'spread A':>10}{'median B':>12}{'spread B':>10}{'shift B/A':>11}{'bound':>7}")
    for workload in WORKLOADS:
        for name, bound in BOUNDS.items():
            a = [row[name] for row in sets[("A", workload)]]
            b = [row[name] for row in sets[("B", workload)]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            shift = med_b / med_a - 1  # every end-to-end metric is lower-is-better
            print(f"{workload:<18}{name:<14}{med_a:>12.4f}{spread(a):>10.3f}{med_b:>12.4f}{spread(b):>10.3f}{shift:>+11.3f}{bound:>7.2f}")
            if name != "setup_s":
                for label, xs in (("A", a), ("B", b)):
                    if spread(xs) > bound:
                        failures.append(f"{workload} {name}: spread {spread(xs):.3f} of set {label} passes its bound {bound}")
                    elif spread(xs) > bound / 3:
                        print(f"  note: spread {spread(xs):.3f} of set {label} is over a third of the bound")
            if shift > bound:
                failures.append(f"{workload} {name}: set B's median is {shift:+.3f} worse than set A's, bound {bound}")

    # The same rounds summarised other ways, from the slot times each run
    # logs: is the gated statistic the steadiest one?
    print(f"\n{'workload':<18}{'set':<5}" + "".join(f"{name:>10}" for name, _ in SUMMARIES)
          + "   (spread of the sum over slots of the slot's statistic)")
    for workload in WORKLOADS:
        for label, seeds in (("A", range(11, 21)), ("B", range(21, 31))):
            logs = [slot_log(workload, seed) for seed in seeds]
            cells = "".join(f"{spread([sum(pick(slot['untraced_ms']) for slot in log['slots']) for log in logs]):>10.3f}"
                            for _, pick in SUMMARIES)
            print(f"{workload:<18}{label:<5}{cells}")

    print("\nexact per-layer metrics, two traced runs on seed 11:")
    for workload in WORKLOADS:
        (first, wall_1), (second, wall_2) = run(workload, 11, 1), run(workload, 11, 1)
        walls += [wall_1, wall_2]
        first, second = values(first), values(second)
        differing = [n for n in EXACT if first[n] != second[n]]
        print(f"  {workload}: {len(EXACT) - len(differing)} of {len(EXACT)} identical")
        for name in differing:
            failures.append(f"{workload} {name}: {first[name]} then {second[name]} on one seed")

    mean, longest = statistics.mean(walls), max(walls)
    projected = DRIVER_RUNS * mean + 2 * build_s
    print(f"\nwall: {len(walls)} runs, mean {mean:.1f} s, longest {longest:.1f} s; {time.monotonic() - started:.0f} s in all")
    print(f"the driver's {DRIVER_RUNS} runs and two builds would take {projected:.0f} s of {DRIVER_CAP_S} s "
          f"({DRIVER_CAP_S - projected:.0f} s to spare; a tenth is {DRIVER_CAP_S / 10:.0f} s)")
    if projected > DRIVER_CAP_S:
        failures.append(f"projected {projected:.0f} s passes the cap of {DRIVER_CAP_S} s")
    for failure in failures:
        print(f"FAIL: {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["spread"]:
        spread_mode()
    else:
        once(int(sys.argv[2]))
