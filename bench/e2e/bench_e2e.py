#!/usr/bin/env python3
"""bench_e2e front end: builds the benchmark from source, then runs it.

One run (the benchmark command; the JSON result is the last stdout line):
  python3 bench/e2e/bench_e2e.py --workload t5-inline --seed 1 --seconds 10 --trace 0

Noise calibration: N fresh processes per workload (seeds S..S+N-1), printing
the median, quartiles, spread and sample count of every metric; --out writes
them as a BENCH_*.json results file:
  python3 bench/e2e/bench_e2e.py --repeat 5 [--workload W ...] [--out FILE]

Regression check of the current tree against a results file, using the
bounds in BENCHMARK.json (exit status 1 on any "worse"):
  python3 bench/e2e/bench_e2e.py --compare bench/e2e/results/BENCH_11.json

The build goes to $CARGO_TARGET_DIR (default .bench_build) under e2e/;
build output goes to stderr so stdout stays the benchmark's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds bench_e2e; returns the binary's path."""
    out = os.path.join(build_dir(), "e2e")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("bench_e2e: build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_e2e")


def runtime_args(workload):
    """Socket directory (relative, so it fits sun_path) and trace path."""
    run_dir = os.path.join(build_dir(), "run")
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    return ["--run-dir", os.path.relpath(run_dir),
            "--trace-out", os.path.join(trace_dir, workload + ".trace.json")]


def run_once(binary, workload, seed, seconds, trace):
    """One fresh process; returns the parsed result line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd += runtime_args(workload)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("bench_e2e: %s failed (exit %d)" %
                 (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def summarize(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]

    def share(d):
        return d / abs(median) if median else 0.0

    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1],
            "iqr_share": share(q3 - q1), "spread": share(values[-1] - values[0]),
            "values": values}


def measure(binary, workloads, seeds, seconds, bench):
    """--repeat: every workload, untraced and traced, once per seed."""
    tracked = {"end_to_end": {m["name"]: m for m in bench["end_to_end"]},
               "per_layer": {m["name"]: m for m in bench["per_layer"]}}
    results = {}
    for workload in workloads:
        entry = {"runs": 0, "correct": True, "attempted": [], "failed": []}
        for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
            samples = {}
            units = {}
            for seed in seeds:
                res = run_once(binary, workload, seed, seconds, trace)
                entry["runs"] += 1
                entry["correct"] = entry["correct"] and res["correct"]
                entry["attempted"].append(res["attempted"])
                entry["failed"].append(res["failed"])
                for name, m in res["metrics"].items():
                    samples.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                print("  %s seed %d trace %d: correct=%s failed=%d" %
                      (workload, seed, trace, res["correct"], res["failed"]),
                      file=sys.stderr)
            entry[kind] = {}
            for name, values in samples.items():
                stats = summarize(values)
                stats["unit"] = units[name]
                spec = tracked[kind].get(name, {})
                for key in ("better", "bound"):
                    if key in spec:
                        stats[key] = spec[key]
                entry[kind][name] = stats
        results[workload] = entry
    return results


def print_table(results):
    for workload, entry in results.items():
        print("%s (correct=%s, failed=%s)" %
              (workload, entry["correct"], sum(entry["failed"])))
        for kind in ("end_to_end", "per_layer"):
            for name, s in entry.get(kind, {}).items():
                print("  %-28s %14.6g %-9s q1 %-12.6g q3 %-12.6g n %d "
                      "iqr %5.1f%% spread %5.1f%%" %
                      (name, s["median"], s["unit"], s["q1"], s["q3"], s["n"],
                       100 * s["iqr_share"], 100 * s["spread"]))


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def classify(spec, base, cur):
    """better / same / worse / unresolved for one end-to-end metric."""
    higher = spec["better"] == "higher"
    bound = spec["bound"]
    b, c = base["median"], cur["median"]
    gain = (c - b) / abs(b) if b else 0.0
    gain = gain if higher else -gain
    all_better = (min(cur["values"]) > max(base["values"]) if higher
                  else max(cur["values"]) < min(base["values"]))
    if max(base["iqr_share"], cur["iqr_share"]) > bound:
        return ("better" if all_better else "unresolved"), gain
    if gain < -bound:
        return "worse", gain
    if gain > bound:
        return "better", gain
    return "same", gain


def compare(base, current, bench):
    specs = {m["name"]: m for m in bench["end_to_end"]}
    worse = False
    for workload, cur in current.items():
        entry = base["workloads"].get(workload)
        if entry is None:
            print("%-16s missing from the baseline" % workload)
            worse = True
            continue
        if not cur["correct"] or sum(cur["failed"]):
            print("%-16s current runs are not correct" % workload)
            worse = True
        for name, spec in specs.items():
            if name not in entry["end_to_end"] or name not in cur["end_to_end"]:
                continue
            verdict, gain = classify(spec, entry["end_to_end"][name],
                                     cur["end_to_end"][name])
            worse = worse or verdict == "worse"
            print("%-16s %-18s %-10s %+7.2f%% (bound %.0f%%)" %
                  (workload, name, verdict, 100 * gain, 100 * spec["bound"]))
        for name, s in entry.get("per_layer", {}).items():
            c = cur.get("per_layer", {}).get(name)
            if c is not None and s["median"]:
                print("%-16s   %-28s %+7.2f%% (layer, no bound)" %
                      (workload, name,
                       100 * (c["median"] - s["median"]) / abs(s["median"])))
    return 1 if worse else 0


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, help="fresh processes per workload")
    p.add_argument("--out", help="write the --repeat results file here")
    p.add_argument("--compare", metavar="BENCH_JSON",
                   help="compare the current tree against a results file")
    args = p.parse_args()

    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)
        current = measure(build(), args.workload or list(base["workloads"]),
                          base["seeds"][:args.repeat or len(base["seeds"])],
                          base["seconds"], bench)
        return compare(base, current, bench)

    if args.repeat:
        if args.repeat < 1:
            p.error("--repeat wants at least 1")
        seeds = list(range(args.seed, args.seed + args.repeat))
        workloads = args.workload or names
        binary = build()
        results = measure(binary, workloads, seeds, args.seconds, bench)
        print_table(results)
        if args.out:
            config = {}
            for w in workloads:
                described = subprocess.run([binary, "--describe", w],
                                           capture_output=True, text=True,
                                           check=True).stdout
                config[w] = json.loads(described)
            doc = {"bench": "bench_e2e", "git_sha": git_sha(),
                   "nproc": os.cpu_count(), "seconds": args.seconds,
                   "seeds": seeds, "config": config, "workloads": results}
            with open(args.out, "w") as f:
                json.dump(doc, f, indent=1, sort_keys=True)
                f.write("\n")
        return 0 if all(r["correct"] and not sum(r["failed"])
                        for r in results.values()) else 1

    if not args.workload or len(args.workload) != 1:
        p.error("one --workload is required")
    binary = build()
    workload = args.workload[0]
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload", workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace",
                      str(args.trace)] + runtime_args(workload))


if __name__ == "__main__":
    sys.exit(main())
