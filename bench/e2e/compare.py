#!/usr/bin/env python3
"""Compare a parent and a change by their bench/e2e results files.

    python3 bench/e2e/compare.py PARENT.json CHANGE.json
    python3 bench/e2e/compare.py P1.json,P2.json C1.json,C2.json   # pool sets per side

Each results file is what `run.py` writes for one set. Repetitions are paired
in start-time order (the i-th parent repetition of a workload with the i-th
change repetition). For every workload and end-to-end metric the verdict is

  regression  the change's median is worse than the parent's by more than the
              metric's bound: BENCHMARK.json's share of the parent median, or
              spec.json's absolute floor when that is larger
  gain        at least 10 pairs, the parent ran first in 40-60% of them, the
              change wins at least 9 in 10 pairs (ties count for neither), and
              the medians differ by more than the parent's IQR
  unresolved  neither, and one side's IQR is wider than the bound
  same        otherwise

Per-layer counts (unit "count") must be identical; any that moved is listed.
Exits 1 on a regression or a rise in failed_fraction, else 0.
"""
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_side(arg):
    """Pools the results files named in a comma-separated list."""
    pooled = {}
    seeds = set()
    for path in arg.split(","):
        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != "speakup-e2e-results-v1":
            sys.exit(f"{path}: not a bench/e2e results file")
        seeds.add(doc["seed"])
        for name, w in doc["workloads"].items():
            p = pooled.setdefault(name, {"runs": [], "per_layer": w["per_layer"], "failed": 0, "attempted": 0})
            p["failed"] += w["failed"]
            p["attempted"] += w["attempted"]
            for i, start in enumerate(w["starts"]):
                p["runs"].append((start, {m: v[i] for m, v in w["samples"].items()}))
    if len(seeds) != 1:
        sys.exit(f"{arg}: results from different seeds cannot be pooled")
    for p in pooled.values():
        p["runs"].sort(key=lambda r: r[0])
    return pooled, seeds.pop()


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(metric, parent_runs, change_runs, bound_share, floor):
    lower_better = metric["better"] == "lower"
    name = metric["name"]
    p = [r[1][name] for r in parent_runs]
    c = [r[1][name] for r in change_runs]
    pm, cm = statistics.median(p), statistics.median(c)
    bound = max(bound_share * abs(pm), floor)
    worse_by = (cm - pm) if lower_better else (pm - cm)
    rel = (cm - pm) / pm if pm else 0.0
    pairs = list(zip(parent_runs, change_runs))
    wins = sum(1 for (_, pr), (_, cr) in pairs
               if (cr[name] < pr[name] if lower_better else cr[name] > pr[name]))
    parent_first = sum(1 for (ps, _), (cs, _) in pairs if ps < cs)
    alternated = 0.4 * len(pairs) <= parent_first <= 0.6 * len(pairs)
    every_run_better = all((x < y) if lower_better else (x > y) for x in c for y in p)
    if worse_by > bound:
        word = "regression"
    elif (len(pairs) >= MIN_PAIRS and alternated and wins >= WIN_SHARE * len(pairs)
          and abs(cm - pm) > iqr(p)):
        word = "gain"
    elif max(iqr(p), iqr(c)) > bound and not every_run_better:
        word = "unresolved"
    else:
        word = "same"
    detail = (f"parent {pm:.6g} (IQR {iqr(p):.3g}, n={len(p)})  change {cm:.6g} "
              f"(IQR {iqr(c):.3g}, n={len(c)})  bound {bound:.3g}  wins {wins}/{len(pairs)}"
              f"{'' if alternated else ' (run order not alternated)'}")
    return word, rel, detail


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    parent, parent_seed = load_side(sys.argv[1])
    change, change_seed = load_side(sys.argv[2])
    if parent_seed != change_seed:
        sys.exit(f"parent ran seed {parent_seed}, change ran seed {change_seed}: not comparable")
    floors = spec.get("bound_floors", {})
    metrics = bench["end_to_end"]
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]

    failing = False
    header = f"{'workload':<18}" + "".join(f"{m['name']:>22}" for m in metrics) + f"{'failed_fraction':>22}"
    print(header)
    details, moved = [], []
    for wname in (w["name"] for w in bench["workloads"]):
        if wname not in parent or wname not in change:
            print(f"{wname:<18} missing from {'parent' if wname not in parent else 'change'}")
            failing = True
            continue
        p, c = parent[wname], change[wname]
        cells = []
        for m in metrics:
            word, rel, detail = verdict(m, p["runs"], c["runs"], m["bound"], floors.get(m["name"], 0.0))
            failing |= word == "regression"
            cells.append(f"{word} {rel:+.1%}")
            details.append(f"  {wname} {m['name']}: {word}; {detail}")
        pf = p["failed"] / p["attempted"]
        cf = c["failed"] / c["attempted"]
        rose = cf > pf
        failing |= rose
        cells.append(f"{'ROSE' if rose else 'same'} {cf:.3g}")
        print(f"{wname:<18}" + "".join(f"{cell:>22}" for cell in cells))
        for name in counts:
            pv = p["per_layer"][name]["value"]
            cv = c["per_layer"][name]["value"]
            if pv != cv:
                moved.append(f"  {wname} {name}: {pv:.10g} -> {cv:.10g}")
    print("details:")
    print("\n".join(details))
    print("per-layer counts: " + ("all identical" if not moved else "MOVED\n" + "\n".join(moved)))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
