#!/usr/bin/env python3
"""End-to-end benchmark of the speak-up simulator (bench/e2e/README.md).

    python3 bench/e2e/run.py                 # one set: every workload x 5
                                             # interleaved reps, then a traced
                                             # pass and micro_hotpath
    python3 bench/e2e/run.py --seed 20061    # the same on the held-out seed
    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                             # one timed run of one workload

Builds bench/e2e into build-bench/ first. Every repetition is one
speakup_bench process, so peak RSS is per repetition. Outputs are checked:
at the workload files' own seeds every CSV row must equal its golden
(golden/<workload>.csv). With --seed, every repetition and the traced pass
must produce the same CSV, and one extra repetition per workload at the
file seeds, run before any timing, is checked against the golden. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics (a set also names its results file). Exit status is 0 only when
every output is correct.
"""
import argparse
import copy
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
OUT = BUILD / "e2e"
BENCH_BIN = BUILD / "speakup_bench"
MICRO_BIN = BUILD / "bench" / "micro_hotpath"
REP_TIMEOUT_S = 60
REPS_PER_SET = 5
# A timed run stops before the repetition that would overrun --seconds, but
# not before it has this many, so its median is never just the mean of two.
MIN_TIMED_REPS = 3

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}")
BENCH_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}

# micro_hotpath bench -> per-layer metric it reports (ops_per_sec).
MICRO = {
    "timer_churn": "sim.timer_churn_events_per_s",
    "cancel_heavy": "sim.cancel_heavy_ops_per_s",
    "packet_pipeline": "net.packet_pipeline_events_per_s",
    "loss_recovery": "transport.loss_recovery_events_per_s",
}


class BenchError(Exception):
    """The benchmark cannot run here (bad definition files, no source tree, build failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- schema self-check ------------------------------------------------------

def schema_errors(bench, spec):
    """Every way BENCHMARK.json and spec.json break the benchmark contract."""
    errs = []
    if set(bench) != BENCH_KEYS:
        errs.append(f"BENCHMARK.json keys {sorted(bench)} != {sorted(BENCH_KEYS)}")
        return errs
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        errs.append("run_seconds must be a whole number from 1 to 60")
    command, paths = bench["command"], bench["paths"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(c, str) and 0 < len(c) <= 200 for c in command)):
        errs.append("command must be a list of 1 to 32 strings of at most 200 characters")
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16
            and all(isinstance(p, str) and PATH_RE.fullmatch(p) and ".." not in p.split("/") for p in paths)):
        errs.append("paths must be 1 to 16 relative directories of at most 200 [A-Za-z0-9_.-/] characters")
    seen = set()

    def check_name(kind, entry, keys):
        if not isinstance(entry, dict) or set(entry) != keys:
            errs.append(f"{kind} entry {entry!r} must have exactly the keys {sorted(keys)}")
            return None
        name = entry["name"]
        if not isinstance(name, str) or not NAME_RE.fullmatch(name):
            errs.append(f"{kind} name {name!r} does not match [A-Za-z0-9_.-]+")
        elif name in seen:
            errs.append(f"{kind} name {name!r} is used twice")
        seen.add(name)
        if "unit" in keys and not (isinstance(entry["unit"], str) and UNIT_RE.fullmatch(entry["unit"])):
            errs.append(f"{kind} {name!r}: bad unit {entry['unit']!r}")
        if "better" in keys and entry["better"] not in ("lower", "higher"):
            errs.append(f"{kind} {name!r}: better must be lower or higher")
        return name

    workloads = bench["workloads"]
    e2e = bench["end_to_end"]
    layers = bench["per_layer"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        errs.append("BENCHMARK.json needs 2 to 8 workloads")
        workloads = []
    if not (isinstance(e2e, list) and 1 <= len(e2e) <= 16):
        errs.append("BENCHMARK.json needs 1 to 16 end_to_end metrics")
        e2e = []
    if not (isinstance(layers, list) and 1 <= len(layers) <= 128):
        errs.append("BENCHMARK.json needs 1 to 128 per_layer metrics")
        layers = []
    wl_names = {check_name("workload", w, {"name", "why"}) for w in workloads}
    for w in workloads:
        if isinstance(w, dict) and not (isinstance(w.get("why"), str) and 0 < len(w["why"]) <= 200
                                        and "\n" not in w["why"]):
            errs.append(f"workload {w.get('name')!r}: why must be one line of at most 200 characters")
    e2e_names = {check_name("end_to_end", m, {"name", "unit", "better", "bound"}) for m in e2e}
    for m in e2e:
        bound = m.get("bound") if isinstance(m, dict) else None
        if not (isinstance(bound, (int, float)) and 0 < bound <= 0.25):
            errs.append(f"end_to_end {m!r}: bound must be in (0, 0.25]")
    if "setup_s" not in e2e_names:
        errs.append("end_to_end must include setup_s")
    layer_names = {check_name("per_layer", m, {"name", "unit", "better"}) for m in layers}

    spec_wl = spec.get("workloads", {})
    if set(spec_wl) != wl_names:
        errs.append(f"spec.json workloads {sorted(spec_wl)} != BENCHMARK.json workloads {sorted(wl_names - {None})}")
    for name, w in spec_wl.items():
        if not (HERE / w.get("file", "")).is_file():
            errs.append(f"workload {name!r}: file {w.get('file')!r} does not exist")
        if not (isinstance(w.get("jobs"), int) and w["jobs"] >= 1):
            errs.append(f"workload {name!r}: jobs must be a positive integer")
    moves = spec.get("moves", {})
    if set(moves) != layer_names:
        errs.append(f"spec.json moves must cover exactly the per_layer metrics; "
                    f"differs by {sorted(set(moves) ^ (layer_names - {None}))}")
    for layer, targets in moves.items():
        for t in targets:
            if t.get("metric") not in e2e_names:
                errs.append(f"moves[{layer!r}] names unknown end_to_end metric {t.get('metric')!r}")
            for wname in t.get("workloads", []):
                if wname not in wl_names:
                    errs.append(f"moves[{layer!r}] names unknown workload {wname!r}")
    for metric in spec.get("bound_floors", {}):
        if metric not in e2e_names:
            errs.append(f"bound_floors names unknown end_to_end metric {metric!r}")
    if not isinstance(spec.get("held_out_seed"), int):
        errs.append("spec.json needs an integer held_out_seed")
    return errs


def load_definitions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    errs = schema_errors(bench, spec)
    if errs:
        raise BenchError("benchmark definition is invalid:\n  " + "\n  ".join(errs))
    # Negative case: the check must reject a broken copy, or it checks nothing.
    broken_bench = copy.deepcopy(bench)
    broken_bench["workloads"][0]["name"] = "not a name"
    broken_spec = copy.deepcopy(spec)
    broken_spec["moves"][bench["per_layer"][0]["name"]] = [{"metric": "no_such_metric", "workloads": []}]
    if not schema_errors(broken_bench, spec) or not schema_errors(bench, broken_spec):
        raise BenchError("schema self-check accepted a broken copy of the definitions")
    return bench, spec


# --- build --------------------------------------------------------------------

def cpu_count():
    return len(os.sched_getaffinity(0))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no speak-up source tree at {ROOT}: the benchmark builds the library from it")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(min(4, cpu_count())),
                  "--target", "speakup_bench", "micro_hotpath"])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        except FileNotFoundError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from e
        if p.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed:\n{p.stdout[-4000:]}{p.stderr[-4000:]}")


# --- one repetition -------------------------------------------------------------

class Workload:
    def __init__(self, name, spec):
        self.name = name
        self.file = (HERE / spec["file"]).relative_to(ROOT)
        self.jobs = min(spec["jobs"], cpu_count())
        golden = HERE / "golden" / f"{name}.csv"
        self.golden = golden.read_text() if golden.is_file() else None


def csv_rows(text):
    """CSV data rows keyed by their index column (ResultWriter writes it first)."""
    return {line.split(",", 1)[0]: line for line in text.splitlines()[1:] if line}


def count_failed_rows(reps, reference):
    """Rows, over all reps, that threw (non-empty error column, the CSV's
    last) or whose CSV row differs from the reference's."""
    header = reference.split("\n", 1)[0]
    ref = csv_rows(reference)
    failed = 0
    for rep in reps:
        rows = csv_rows(rep["csv"]) if rep["csv"].split("\n", 1)[0] == header else {}
        failed += sum(1 for k, line in ref.items() if rows.get(k) != line or not line.endswith(","))
    return failed


def run_rep(w, seed, traced=False, tag="rep"):
    """One speakup_bench process; returns its summary plus csv text and start time."""
    rep_dir = OUT / w.name
    rep_dir.mkdir(parents=True, exist_ok=True)
    csv_path = rep_dir / f"{tag}.csv"
    cmd = [str(BENCH_BIN), "--scenario", str(w.file), "--jobs", str(w.jobs), "--out", str(csv_path)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if traced:
        cmd += ["--trace-dir", str(OUT / "trace")]
    start = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    try:
        rep = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{w.name}: speakup_bench exited {p.returncode} without a summary:\n{p.stderr[-4000:]}")
    if p.returncode != 0:
        log(f"{w.name}: {p.stderr.strip()}")
    rep["start"] = start
    rep["csv"] = csv_path.read_text() if csv_path.is_file() else ""
    return rep


def run_micro():
    path = OUT / "micro_hotpath.json"
    OUT.mkdir(parents=True, exist_ok=True)
    p = subprocess.run([str(MICRO_BIN), "--repeat", "1", "--json", str(path)], cwd=ROOT,
                       capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"micro_hotpath exited {p.returncode}:\n{p.stderr[-4000:]}")
    benches = {b["name"]: b["ops_per_sec"] for b in json.loads(path.read_text())["benches"]}
    return {metric: benches[name] for name, metric in MICRO.items()}


# --- metrics ----------------------------------------------------------------------

def end_to_end(rep):
    return {
        "wall_s": rep["wall_s"],
        "setup_s": rep["expand_s"] + rep["build_s"],
        "events_per_s": rep["events"] / rep["loop_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def per_layer(reps, traced, micro):
    """Per-layer values: host times are medians over the untraced reps; counts
    come from the traced pass (obs counters) and the results themselves."""
    def med(key):
        return statistics.median(r[key] for r in reps)

    first, obs = reps[0], traced["obs"]
    values = {
        "exp.expand_s": med("expand_s"),
        "exp.build_s": med("build_s"),
        "exp.harvest_s": med("harvest_s"),
        "exp.teardown_s": med("teardown_s"),
        "exp.write_s": med("write_s"),
        "exp.parallel_efficiency": statistics.median(r["busy_s"] / (r["jobs"] * r["wall_s"]) for r in reps),
        "exp.build_rss_mb": med("build_rss_mb"),
        "exp.run_rss_growth_mb": statistics.median(r["peak_rss_mb"] - r["build_rss_mb"] for r in reps),
        "sim.loop_s": med("loop_s"),
        "sim.events": first["events"],
        "sim.heap_peak": obs["heap_peak"],
        "sim.wheel_peak": obs["wheel_peak"],
        "sim.pending_peak": obs["pending_peak"],
        "net.link_enqueues": obs["link_enqueues"],
        "net.link_drops": obs["link_drops"],
        "net.drop_ratio": obs["link_drops"] / obs["link_enqueues"] if obs["link_enqueues"] else 0.0,
        "transport.retransmits": obs["retransmits"],
        "transport.rto_backoffs": obs["rto_backoffs"],
        "core.rejections": obs["rejections"],
        "core.auctions": obs["auctions"],
        "core.payment_waste_ratio": (first["payment_bytes_wasted"] / first["payment_bytes_total"]
                                     if first["payment_bytes_total"] else 0.0),
        "client.requests_served": first["requests_served"],
        "client.retries_sent": first["retries_sent"],
        "obs.trace_overhead": traced["loop_s"] / med("loop_s") - 1.0,
    }
    values.update(micro)
    return values


def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# --- correctness --------------------------------------------------------------------

def check_outputs(w, seed, reps):
    """(attempted rows, failed rows, problems) for a workload's repetitions.
    At the file seeds the golden is the reference; with --seed it is the
    first repetition, so every other one (traced included) must match it."""
    problems = []
    if seed is None and w.golden is None:
        problems.append(f"{w.name}: no golden/{w.name}.csv to check against")
    reference = w.golden if seed is None and w.golden is not None else reps[0]["csv"]
    attempted = sum(r["rows"] for r in reps)
    failed = count_failed_rows(reps, reference)
    if failed:
        problems.append(f"{w.name}: {failed} row(s) failed or differ from the "
                        f"{'golden' if seed is None else 'first repetition'}")
    return attempted, failed, problems


def golden_rep(w, seed):
    """With --seed, one untimed repetition at the file seeds, so that the
    run's results are still checked against golden/<w>.csv. It also warms
    the page cache before timing. None without --seed: every rep is checked."""
    return run_rep(w, None, tag="golden") if seed is not None else None


def check_run(w, seed, reps, golden):
    """check_outputs over `reps`, plus the golden repetition when there is one."""
    attempted, failed, problems = check_outputs(w, seed, reps)
    if golden is not None:
        a, f, p = check_outputs(w, None, [golden])
        attempted, failed, problems = attempted + a, failed + f, problems + p
    return attempted, failed, problems


# --- modes ------------------------------------------------------------------------

def print_e2e_table(rows):
    print("end-to-end (untraced repetitions)")
    print(f"  {'workload':<18} {'metric':<16} {'unit':<9} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for wname, metric, unit, s in rows:
        print(f"  {wname:<18} {metric:<16} {unit:<9} {s['median']:>14.6g} {s['q1']:>14.6g} "
              f"{s['q3']:>14.6g} {s['n']:>3}")


def print_layer_table(rows):
    print("per-layer (host times: medians of the untraced repetitions; counts: traced pass)")
    print(f"  {'workload':<18} {'metric':<38} {'unit':<9} {'value':>14}")
    for wname, metric, unit, v in rows:
        print(f"  {wname:<18} {metric:<38} {unit:<9} {v:>14.6g}")


def timed_run(bench, spec, args):
    w = Workload(args.workload, spec["workloads"][args.workload])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    golden = golden_rep(w, args.seed)
    t0 = time.monotonic()
    traced = micro = None
    if args.trace:
        traced = run_rep(w, args.seed, traced=True, tag="traced")
        micro = run_micro()
    # Whole untraced repetitions until the next one, at their mean length so
    # far, would overrun --seconds. The end-to-end report needs at least
    # MIN_TIMED_REPS; the per-layer host times make do with one.
    min_reps = 1 if args.trace else MIN_TIMED_REPS
    reps = []
    reps_t0 = time.monotonic()
    while True:
        reps.append(run_rep(w, args.seed, tag=f"rep{len(reps)}"))
        now = time.monotonic()
        if len(reps) >= min_reps and now - t0 + (now - reps_t0) / len(reps) > args.seconds:
            break
    attempted, failed, problems = check_run(w, args.seed, reps + ([traced] if traced else []), golden)
    if args.trace:
        values = per_layer(reps, traced, micro)
    else:
        samples = [end_to_end(r) for r in reps]
        values = {m["name"]: statistics.median(s[m["name"]] for s in samples) for m in bench["end_to_end"]}
    for p in problems:
        log(p)
    for name, v in values.items():
        print(f"{w.name} {name} = {v:.6g} {units[name]}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0 if correct else 1


def set_run(bench, spec, args):
    workloads = [Workload(n, spec["workloads"][n]) for n in (w["name"] for w in bench["workloads"])]
    golden = {}
    for w in workloads:
        if args.seed is not None:
            log(f"golden check at the file seeds: {w.name}")
        golden[w.name] = golden_rep(w, args.seed)
    reps = {w.name: [] for w in workloads}
    for r in range(REPS_PER_SET):
        # Interleave: rep r starts at workload r, so no workload always runs first.
        for i in range(len(workloads)):
            w = workloads[(r + i) % len(workloads)]
            log(f"rep {r + 1}/{REPS_PER_SET}: {w.name}")
            reps[w.name].append(run_rep(w, args.seed, tag=f"rep{r}"))
    traced = {}
    for w in workloads:
        log(f"traced pass: {w.name}")
        traced[w.name] = run_rep(w, args.seed, traced=True, tag="traced")
    log("micro_hotpath --repeat 1")
    micro = run_micro()

    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    results = {"schema": "speakup-e2e-results-v1", "seed": args.seed, "reps": REPS_PER_SET,
               "cpus": cpu_count(), "workloads": {}}
    e2e_rows, layer_rows, all_problems = [], [], []
    total_attempted = total_failed = 0
    for w in workloads:
        wreps = reps[w.name]
        attempted, failed, problems = check_run(w, args.seed, wreps + [traced[w.name]], golden[w.name])
        all_problems += problems
        total_attempted += attempted
        total_failed += failed
        samples = [end_to_end(r) for r in wreps]
        entry = {"jobs": w.jobs, "rows": wreps[0]["rows"], "attempted": attempted, "failed": failed,
                 "starts": [r["start"] for r in wreps], "samples": {}, "end_to_end": {}, "per_layer": {}}
        for name, unit in e2e_units.items():
            values = [s[name] for s in samples]
            entry["samples"][name] = values
            entry["end_to_end"][name] = dict(summarize(values), unit=unit)
            e2e_rows.append((w.name, name, unit, entry["end_to_end"][name]))
        entry["end_to_end"]["failed_fraction"] = dict(summarize([failed / attempted]), unit="ratio")
        e2e_rows.append((w.name, "failed_fraction", "ratio", entry["end_to_end"]["failed_fraction"]))
        for name, v in per_layer(wreps, traced[w.name], micro).items():
            entry["per_layer"][name] = {"value": v, "unit": layer_units[name]}
            layer_rows.append((w.name, name, layer_units[name], v))
        results["workloads"][w.name] = entry

    print_e2e_table(e2e_rows)
    print_layer_table(layer_rows)
    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out}; traces and obs metrics in {OUT / 'trace'}")
    for p in all_problems:
        log(p)
    correct = not all_problems
    print(json.dumps({"correct": correct, "attempted": total_attempted, "failed": total_failed,
                      "metrics": {}, "results": str(out)}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one workload for --seconds (default: a whole set)")
    ap.add_argument("--seed", type=int, help="override every row's seed (default: the files' seeds, golden-checked)")
    ap.add_argument("--seconds", type=float, help="time budget of one --workload run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 reports the per-layer metrics instead of the end-to-end ones")
    ap.add_argument("--out", help="results file of a set (default: build-bench/e2e/results.json)")
    args = ap.parse_args()
    try:
        bench, spec = load_definitions()
        if args.workload is not None and args.workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(spec['workloads'])}")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        build()
        if args.workload is not None:
            return timed_run(bench, spec, args)
        return set_run(bench, spec, args)
    except (BenchError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
