#!/usr/bin/env python3
"""Result sets of the repository benchmark: collect, check spread, compare.

    python3 perfbench/ledger.py sweep OUT.jsonl [--workloads A,B] [--seeds 1-10]
                                               [--trace 0|1]
    python3 perfbench/ledger.py spread SET.jsonl
    python3 perfbench/ledger.py compare OLD.jsonl NEW.jsonl

A result set is a JSONL file of full records as perfbench/run.py --record
writes them. `sweep` runs run.py once per (workload, seed) into OUT.
`spread` prints, per workload and end-to-end metric, the median and the
quartile spread as a share of the median, flagged when it is not below a
third of the metric's bound. `compare` pairs the runs of OLD and NEW in
file order and gives each (workload, metric) a verdict:

  improved     NEW wins at least 9 of 10 pairs and the medians differ by
               more than OLD's own quartile spread
  regressed    NEW's median is worse than OLD's by more than the bound
  unresolved   OLD's spread exceeds the bound and NEW does not beat every
               OLD run
  same         none of the above

It exits non-zero on any regression or a higher failed-op share.
"""

import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load(path):
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["fingerprint"]["trace"]:
                runs[rec["fingerprint"]["workload"]].append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def sweep(argv):
    out = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    names = [w["name"] for w in spec()["workloads"]]
    if "--workloads" in opts:
        names = opts["--workloads"].split(",")
    seeds = parse_seeds(opts.get("--seeds", "1-10"))
    trace = opts.get("--trace", "0")
    status = 0
    for name in names:
        for seed in seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", name, "--seed", str(seed), "--seconds",
                   str(spec()["run_seconds"]), "--trace", trace, "--record",
                   out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{name} seed {seed}: exit {proc.returncode} {last[0][:160]}",
                  flush=True)
            status |= proc.returncode
    return status


def spread(argv):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    worst = 0
    for name, recs in sorted(load(argv[0]).items()):
        print(f"{name} ({len(recs)} runs)")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in recs]
            share = spread_share(values)
            flag = "" if share < bound / 3 or metric == "setup_s" else "  WIDE"
            worst |= bool(flag)
            print(f"  {metric:24s} median {statistics.median(values):14.6g}"
                  f"  spread {share:7.2%}  bound {bound:.0%}{flag}")
    return 1 if worst else 0


def failed_share(recs):
    attempted = sum(r["attempted"] for r in recs)
    return sum(r["failed"] for r in recs) / max(attempted, 1)


def compare(argv):
    old_runs, new_runs = load(argv[0]), load(argv[1])
    status = 0
    for name in sorted(set(old_runs) & set(new_runs)):
        old, new = old_runs[name], new_runs[name]
        print(f"{name} ({len(old)} old / {len(new)} new runs)")
        for m in spec()["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            higher = m["better"] == "higher"
            a = [r["metrics"][metric]["value"] for r in old]
            b = [r["metrics"][metric]["value"] for r in new]
            qa, qb = quartiles(a), quartiles(b)
            gain = (qb[1] - qa[1]) if higher else (qa[1] - qb[1])
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if (y > x if higher else y < x))
            own_spread = qa[2] - qa[0]
            beats_all = (min(b) > max(a)) if higher else (max(b) < min(a))
            if qa[1] and -gain > bound * abs(qa[1]):
                verdict = "regressed"
                status = 1
            elif pairs and wins >= 0.9 * len(pairs) and gain > own_spread:
                verdict = "improved"
            elif qa[1] and own_spread > bound * abs(qa[1]) and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {metric:24s} old {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  new {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  wins {wins}/{len(pairs)}  {verdict}")
        fa, fb = failed_share(old), failed_share(new)
        print(f"  {'failed_op_share':24s} old {fa:.3g}  new {fb:.3g}"
              f"{'  regressed' if fb > fa else ''}")
        if fb > fa:
            status = 1
    return status


def main():
    commands = {"sweep": sweep, "spread": spread, "compare": compare}
    if len(sys.argv) < 3 or sys.argv[1] not in commands:
        print(__doc__, file=sys.stderr)
        return 2
    return commands[sys.argv[1]](sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
