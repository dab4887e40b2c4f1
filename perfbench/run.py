#!/usr/bin/env python3
"""dkfac training benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report --workload NAME --runs K [--trace 0|1]

Run from the root of a checkout. Builds perfbench/ (which compiles src/)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the workload from perfbench/workloads.json, checks its outputs and prints
one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of untraced train_with_comm
trials; --trace 1 reports the per-layer rows of the benchmark's traced
step loop. --report runs the benchmark K times on seeds 1..K and prints,
per metric, the median, quartiles and spread (IQR / median) against the
metric's bound in BENCHMARK.json; a metric counts as steady when its spread
is below a third of its bound.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(build_dir))  # compiler scratch stays in the checkout
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], stdout=sys.stderr, env=env).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return build_dir / "perfbench"


def run_binary(binary, args):
    """Runs the benchmark binary in its own process group so a timeout can stop every
    rank process it forked; returns its parsed JSON output."""
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("perfbench: benchmark binary timed out")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: benchmark binary exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def timed_deltas(trial, warmup):
    """Step-to-step wall times (s) of the timed steps: past the warm-up, and
    never spanning an epoch boundary (the evaluation runs there)."""
    ns, epoch = trial["step_ns"], trial["step_epoch"]
    return [(ns[i + 1] - ns[i]) / 1e9 for i in range(warmup, len(ns) - 1) if epoch[i] == epoch[i + 1]]


def check_trial(trial, wl, fixed, first):
    """Correctness gate of one trial; returns the list of failures."""
    cfg = wl["config"]
    problems = []
    steps = fixed["epochs"] * (cfg["train_size"] // (fixed["local_batch"] * cfg["ranks"]))
    if len(trial["step_ns"]) != steps:
        problems.append(f"ran {len(trial['step_ns'])} steps, expected {steps}")
    if len(trial["val_acc"]) != fixed["epochs"]:
        problems.append("missing epochs")
    if not all(math.isfinite(v) for v in trial["train_loss"] + trial["val_acc"]):
        problems.append("non-finite loss or accuracy")
    if not any(a >= wl["target_val_acc"] for a in trial["val_acc"]):
        problems.append(f"target {wl['target_val_acc']} not reached: {trial['val_acc']}")
    allocs = sum(r["steady_state_allocs"] for r in trial["ranks"])
    if allocs != 0:
        problems.append(f"{allocs} steady-state comm allocations")
    # Same seed, same bits: this also holds the traced loop to
    # train_with_comm, since a trace run's first trial is untraced.
    if first is not None:
        for key in ("param_hash", "val_acc", "train_loss"):
            if trial[key] != first[key]:
                problems.append(f"{key} differs from the run's first trial (train_with_comm, same seed)")
    return problems


def end_to_end(trials, wl, fixed):
    warmup = fixed["warmup_steps"]
    global_batch = fixed["local_batch"] * wl["config"]["ranks"]
    deltas, rates, setups, ttts, rss, reached_epochs = [], [], [], [], [], set()
    for t in trials:
        d = timed_deltas(t, warmup)
        deltas += d
        rates.append(global_batch * len(d) / sum(d))
        setups.append((t["step_ns"][warmup] - t["start_ns"]) / 1e9)
        reached = next(i for i, a in enumerate(t["val_acc"]) if a >= wl["target_val_acc"])
        ttts.append((t["epoch_end_ns"][reached] - t["step_ns"][0]) / 1e9)
        reached_epochs.add(reached + 1)
        rss.append(t["peak_rss_kb"] / 1024)
    beyond_p95 = sum(1 for d in deltas if d > percentile(deltas, 95))
    log(f"perfbench: {len(trials)} trials, {len(deltas)} timed steps, "
        f"{beyond_p95} beyond p95; target reached at epoch {sorted(reached_epochs)} "
        f"(stated: {wl['target_epoch']}); final_train_loss {trials[0]['train_loss'][-1]:.6g}")
    if beyond_p95 < 10:
        raise SystemExit(f"perfbench: only {beyond_p95} steps beyond p95; lengthen --seconds")
    return {
        "samples_per_s": (statistics.median(rates), "1/s"),
        "step_ms_p50": (statistics.median(deltas) * 1e3, "ms"),
        "step_ms_p95": (percentile(deltas, 95) * 1e3, "ms"),
        "time_to_target_s": (statistics.median(ttts), "s"),
        "final_val_acc": (trials[0]["val_acc"][-1], "frac"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def per_layer(pairs, fixed, residual_frac):
    """Per-layer rows from the traced trials (rank 0), with the untraced
    trials of the same pairs as the overhead baseline. Returns (metrics,
    failures)."""
    warmup = fixed["warmup_steps"]
    problems = []
    traced = [p[1] for p in pairs]
    lead = [t["ranks"][0] for t in traced]

    def total(key):
        return sum(r[key] for r in lead)

    steps = total("timed_steps")
    rows = [sum(r["row_ns"][i] for r in lead) for i in range(8)]
    calls = [sum(r["row_calls"][i] for r in lead) for i in range(8)]
    data, fwd, loss, bwd, grad, factor, decomp, optim = rows

    def per_step(ns):
        return ns / steps / 1e6

    def per_call(i):
        return rows[i] / calls[i] / 1e6 if calls[i] else 0.0

    step_ms = per_step(total("step_ns_total"))
    unattributed_ms = per_step(total("step_ns_total") - sum(rows))
    if unattributed_ms > residual_frac * step_ms:
        problems.append(f"unattributed {unattributed_ms:.3f} ms exceeds {residual_frac:.0%} of the "
                        f"{step_ms:.3f} ms traced step")
    count_steps = total("count_steps")
    ranks_sum = lambda key: sum(sum(r[key] for r in t["ranks"]) for t in traced)
    comm_s = total("async_comm_s")
    untraced_p50 = statistics.median(sum((timed_deltas(p[0], warmup) for p in pairs), []))
    traced_p50 = statistics.median(sum((timed_deltas(t, warmup) for t in traced), []))
    factor_updates = total("factor_updates")
    n = len(traced)
    metrics = {
        "data.batch_ms": (per_step(data), "ms"),
        "nn.forward_ms": (per_step(fwd), "ms"),
        "nn.loss_ms": (per_step(loss), "ms"),
        "nn.backward_ms": (per_step(bwd), "ms"),
        "optim.step_ms": (per_step(optim), "ms"),
        "comm.grad_ms": (per_step(grad), "ms"),
        "comm.async_hidden_frac": (max(0.0, comm_s - total("async_wait_s")) / comm_s if comm_s > 0 else 0.0, "frac"),
        "comm.calls_per_step": (total("calls") / count_steps, "count"),
        "comm.bytes_per_step": (ranks_sum("bytes") / count_steps, "B"),
        "comm.net.wire_bytes_per_step": (ranks_sum("wire_sent") / count_steps, "B"),
        "core.factor_step_ms": (per_call(5), "ms"),
        "core.decomp_step_ms": (per_call(6), "ms"),
        "core.factor_bytes_per_update": (total("factor_bytes") / factor_updates if factor_updates else 0.0, "B"),
        "core.decomp_updates": (total("decomp_updates") / n, "count"),
        "linalg.sym_eig_ms": (total("sym_eig_ns") / n / 1e6, "ms"),
        "comm.arena_bytes_reserved": (ranks_sum("arena_bytes_reserved") / n, "B"),
        "comm.steady_state_allocs": (ranks_sum("steady_state_allocs") / n, "count"),
        "train.eval_ms": (total("eval_ns") / total("eval_calls") / 1e6, "ms"),
        "setup.data_ms": (total("setup_data_ns") / n / 1e6, "ms"),
        "setup.model_ms": (total("setup_model_ns") / n / 1e6, "ms"),
        "setup.kfac_ms": (total("setup_kfac_ns") / n / 1e6, "ms"),
        "setup.comm_ms": (sum(t["ranks"][0]["enter_ns"] - t["start_ns"] for t in traced) / n / 1e6, "ms"),
        "setup.warmup_ms": (total("warmup_ns") / n / 1e6, "ms"),
        "train.step_ms": (step_ms, "ms"),
        "train.unattributed_ms": (unattributed_ms, "ms"),
        "train.final_train_loss": (traced[0]["train_loss"][-1], "nats"),
        "obs.trace_overhead_frac": (traced_p50 / untraced_p50 - 1.0, "frac"),
    }
    # Counts are functions of the config alone: every traced trial must
    # repeat them exactly.
    for key in ("calls", "bytes", "wire_sent", "factor_bytes", "decomp_updates", "count_steps"):
        if len({sum(r[key] for r in t["ranks"]) for t in traced}) != 1:
            problems.append(f"count {key} differs between traced trials")
    return metrics, problems


def run_once(args):
    spec = json.loads((BENCH_DIR / "workloads.json").read_text())
    wl = spec["workloads"].get(args.workload)
    if wl is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    cfg = wl["config"]
    budget = cfg["ranks"] * cfg["omp_threads"] + (cfg["ranks"] if cfg["overlap"] else 0)
    if budget != wl["thread_budget"]:
        raise SystemExit(f"perfbench: {args.workload} thread_budget {wl['thread_budget']} != {budget}")
    binary = build()

    mode = "trace" if args.trace else "e2e"
    kv = [f"{k}={v}" for k, v in cfg.items()] + [f"name={args.workload}", f"seed={args.seed}"]
    cmd = ["--mode", mode, "--seconds", str(args.seconds),
           "--min-trials", str(spec["min_trials"][mode])]
    out = run_binary(binary, cmd + kv)
    fixed = out["fixed"]
    if fixed != spec["fixed"]:
        raise SystemExit(f"perfbench: workloads.json fixed {spec['fixed']} != binary's {fixed}")

    trials = out["trials"]
    problems = []
    failed = 0
    for i, t in enumerate(trials):
        p = check_trial(t, wl, fixed, trials[0] if i else None)
        if p:
            failed += 1
            problems += p
    metrics = {}
    if failed == 0 and args.trace:  # a failed trial's timings are no samples
        pairs = list(zip(trials[0::2], trials[1::2]))
        metrics, trace_problems = per_layer(pairs, fixed, spec["residual_frac"])
        if trace_problems:
            failed += 1
            problems += trace_problems
    elif failed == 0:
        metrics = end_to_end(trials, wl, fixed)
    for p in problems:
        log(f"perfbench: FAIL {p}")
    result = {
        "correct": failed == 0,
        "attempted": len(trials),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def report(args):
    """Runs the benchmark K times on seeds 1..K and prints each metric's
    median, quartiles and spread against its bound; "steady" means a spread
    below a third of the bound."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds or bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: run with seed {seed} failed")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()))
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  steady")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        ok = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}  {ok}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    if args.report:
        return report(args)
    if args.seconds is None:
        ap.error("--seconds is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
