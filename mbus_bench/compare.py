#!/usr/bin/env python3
"""Record, compare and smoke-test runs of the mbus_bench benchmark.

Run from the root of a checkout:

    python3 mbus_bench/compare.py record base.json --runs 10 --seconds 15
    python3 mbus_bench/compare.py compare base.json new.json
    python3 mbus_bench/compare.py smoke

record   runs every workload of BENCHMARK.json once per seed and writes the
         raw results plus, per (workload, metric), the median, the quartiles
         (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
compare  judges a second record against a first, metric by metric, with the
         bounds in BENCHMARK.json: a median worse by more than the bound is a
         regression; a spread wider than the bound makes the metric
         unresolved unless every new run reads better than every old one; a
         gain needs the new run to win at least 9 of every 10 seed-paired
         runs and the medians to differ by more than the old quartile
         distance. More failed operations (median `failed`) on a workload
         is a regression, and then none of its metrics counts as a gain.
         It refuses records taken with a different nproc, compiler, build
         type, --seconds or seeds. Exit status 1 on any regression.
smoke    runs every workload for four seconds (enough samples for the serving
         tail percentile), untraced and traced, and checks
         that each prints a well-formed result naming every metric of
         BENCHMARK.json with its unit; then runs each for a millisecond,
         where a metric cannot be measured, and checks that the run says so
         by exiting non-zero with "correct": false.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIG_KEYS = ("nproc", "compiler", "build_type")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (exit code, config dict, result or None)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    config = {}
    result = None
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("mbus_bench config:"):
            config = dict(item.split("=", 1) for item in line.split()[2:])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
    return done.returncode, config, result


def problems_with(result, metrics):
    """What is wrong with one result line, given the metric definitions."""
    if not isinstance(result, dict):
        return ["no JSON result on the last line"]
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys are {sorted(result)}")
        return found
    if result["correct"] is not True:
        found.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            found.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        found.append("attempted < 1")
    expected = {m["name"]: m["unit"] for m in metrics}
    got = result["metrics"]
    if set(got) != set(expected):
        found.append(f"metric names differ: missing "
                     f"{sorted(set(expected) - set(got))}, extra "
                     f"{sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            found.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name}: value {value!r} is not a finite number")
    return found


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def cmd_record(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    record = {"config": None, "seconds": args.seconds, "seeds": [],
              "runs": {w: [] for w in workloads}, "summary": {}}
    for seed in range(args.seed_base, args.seed_base + args.runs):
        record["seeds"].append(seed)
        for workload in workloads:
            code, config, result = run_once(workload, seed, args.seconds, 0)
            bad = problems_with(result, metrics)
            if code != 0 or bad:
                sys.exit(f"{workload} seed {seed}: exit {code}; {bad}")
            config = {k: config.get(k) for k in CONFIG_KEYS}
            if record["config"] is None:
                record["config"] = config
            elif record["config"] != config:
                sys.exit(f"configuration changed between runs: {config}")
            record["runs"][workload].append({
                "seed": seed, "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
    for workload, runs in record["runs"].items():
        record["summary"][workload] = {
            m["name"]: summarize([r["metrics"][m["name"]] for r in runs])
            for m in metrics}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print_summary(record, metrics)
    return 0


def print_summary(record, metrics):
    bounds = {m["name"]: m["bound"] for m in metrics}
    print(f"\n{'workload':<12} {'metric':<18} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, summary in record["summary"].items():
        for name, s in summary.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  > bound/3"
            print(f"{workload:<12} {name:<18} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.3f} "
                  f"{bounds[name]:>6}{flag}")


def cmd_compare(args):
    spec = load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    for key in ("config", "seconds", "seeds"):
        if base[key] != new[key]:
            print(f"refusing to compare: base {key} {base[key]} differs "
                  f"from new {key} {new[key]}")
            return 2
    if set(base["runs"]) != set(new["runs"]):
        print(f"refusing to compare: workloads {sorted(base['runs'])} and "
              f"{sorted(new['runs'])} differ")
        return 2
    regressions = unresolved = 0
    print(f"{'workload':<12} {'metric':<18} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spreads':>13} {'bound':>6}  verdict")
    for workload in base["runs"]:
        old_failed = statistics.median(r["failed"] for r in base["runs"][workload])
        new_failed = statistics.median(r["failed"] for r in new["runs"][workload])
        more_failures = new_failed > old_failed
        if more_failures:
            regressions += 1
        print(f"{workload:<12} {'failed':<18} {old_failed:>12.6g} "
              f"{new_failed:>12.6g} {'':>8} {'':>13} {'':>6}  "
              f"{'REGRESSION' if more_failures else 'no more failures'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            old_values = [r["metrics"][name] for r in base["runs"][workload]]
            new_values = [r["metrics"][name] for r in new["runs"][workload]]
            old, cur = summarize(old_values), summarize(new_values)
            change = (cur["median"] - old["median"]) / abs(old["median"])
            worse = change if lower else -change

            def better(a, b):
                return a < b if lower else a > b

            all_better = all(better(n, o) for n in new_values for o in old_values)
            pairs = list(zip(old_values, new_values))
            wins = sum(better(n, o) for o, n in pairs)
            if max(old["spread"], cur["spread"]) > bound and not all_better:
                verdict = "unresolved (spread wider than the bound)"
                unresolved += 1
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif (not more_failures and pairs
                  and wins >= 0.9 * len(pairs)
                  and abs(cur["median"] - old["median"]) > old["q3"] - old["q1"]):
                verdict = f"gain ({wins}/{len(pairs)} pairs)"
            else:
                verdict = "no change beyond the bound"
            spreads = f"{old['spread']:.3f}/{cur['spread']:.3f}"
            print(f"{workload:<12} {name:<18} {old['median']:>12.6g} "
                  f"{cur['median']:>12.6g} {change:>+8.3f} {spreads:>13} "
                  f"{bound:>6}  {verdict}")
    print(f"\n{regressions} regressions, {unresolved} unresolved")
    return 1 if regressions else 0


def cmd_smoke(args):
    spec = load_spec()
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, _, result = run_once(workload, 1, args.seconds, trace)
            bad = problems_with(result, metrics)
            if code != 0:
                bad.append(f"exit status {code}")
            print(f"{workload} trace={trace}: {'ok' if not bad else bad}",
                  flush=True)
            failures += bool(bad)
        # A millisecond is too short for some metrics. The run must then
        # refuse to report rather than print a value it never measured; a
        # workload that completes a whole pass even so must report it well.
        code, _, result = run_once(workload, 1, 0.001, 0)
        if code == 0:
            bad = problems_with(result, spec["end_to_end"])
            outcome = "measured" if not bad else bad
        elif isinstance(result, dict) and result.get("correct") is False:
            bad, outcome = [], f"refused (exit {code}, correct false)"
        else:
            bad = [f"exit {code} without a result"]
            outcome = bad
        print(f"{workload} seconds=0.001: {outcome}", flush=True)
        failures += bool(bad)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="Record, compare and smoke-test mbus_bench runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run seeds, write a record file")
    rec.add_argument("out")
    rec.add_argument("--runs", type=int, default=10)
    rec.add_argument("--seconds", type=float, default=None)
    rec.add_argument("--seed-base", type=int, default=1)
    cmp_ = sub.add_parser("compare", help="judge a record against another")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    smoke = sub.add_parser("smoke", help="short run of every workload")
    smoke.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args()
    if args.command == "record":
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return cmd_record(args)
    if args.command == "compare":
        return cmd_compare(args)
    return cmd_smoke(args)


if __name__ == "__main__":
    sys.exit(main())
