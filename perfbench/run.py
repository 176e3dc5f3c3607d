#!/usr/bin/env python3
"""Runs the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
`perfbench` binary once per repetition, each in a fresh process so every
set-up is cold, and folds the repetitions into one result. The last line
of stdout is a JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`; the line before it stamps the machine, toolchain, source
revision, seed and thread counts. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer metrics of a traced run. See
perfbench/NOTES.md for the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("interactive", "interactive_faults", "campaign_cold")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Interactive repetitions per run (each a fresh process and set-up).
INTERACTIVE_REPS = 5
# Campaign repetitions: at least this many per arm, more while the timed
# phases have not yet filled --seconds or, untraced, the pooled per-task
# samples are too few for a p99 with ten samples beyond it.
CAMPAIGN_MIN_REPS = 3
CAMPAIGN_MIN_SAMPLES = 1000
# Scenarios per Monte Carlo draw: 13 families x 3 variants.
SCENARIOS_PER_DRAW = 39
# Stop starting repetitions once this much wall time is spent.
RUN_BUDGET_S = 120.0
REP_TIMEOUT_S = 100.0

# Every per-layer metric and its unit. Times and counts "/query" are
# means over the traced queries of a run; the rest are totals per
# repetition (median over repetitions).
LAYER_UNITS = {
    "plan.ms": "ms/query",
    "plan.model_ms": "ms/query",
    "plan.agent_side_ms": "ms/query",
    "plan.model_ms.querymind": "ms/query",
    "plan.model_ms.workflowscout": "ms/query",
    "plan.model_ms.solutionweaver": "ms/query",
    "plan.model_calls": "count/query",
    "plan.repairs": "count/query",
    "exec.ms": "ms/query",
    "exec.overhead_ms": "ms/query",
    "exec.steps": "count/query",
    "exec.retries": "count/query",
    "exec.failed_steps": "count/query",
    "exec.poisoned_steps": "count/query",
    "exec.degraded_runs": "count/query",
    "tool.ms": "ms/query",
    "tool.bgp.updates.ms": "ms/query",
    "tool.bgp.updates.calls": "count/query",
    "tool.bgp.detect_moas.ms": "ms/query",
    "tool.bgp.detect_moas.calls": "count/query",
    "tool.xaminer.control_plane_impact.ms": "ms/query",
    "tool.xaminer.control_plane_impact.calls": "count/query",
    "tool.traceroute.campaign.ms": "ms/query",
    "tool.traceroute.campaign.calls": "count/query",
    "tool.traceroute.detect_anomaly.ms": "ms/query",
    "tool.traceroute.detect_anomaly.calls": "count/query",
    "tool.nautilus.map_links.ms": "ms/query",
    "tool.nautilus.map_links.calls": "count/query",
    "tool.xaminer.event_impact.ms": "ms/query",
    "tool.xaminer.event_impact.calls": "count/query",
    "toolkit.artifacts_built": "count",
    "toolkit.artifact_reuse": "calls/build",
    "chaos.injected": "count/query",
    "resilience.shed": "count/query",
    "resilience.fallbacks": "count/query",
    "setup.plan_ms": "ms",
    "setup.tool_ms": "ms",
    "forge.register_ms": "ms",
    "world.generate_ms": "ms",
    "world.generations": "count",
    "campaign.run_ms": "ms",
    "campaign.serve_ms": "ms",
    "trace.queries": "count",
    "trace.queries_per_s": "1/s",
    "trace.untraced_queries_per_s": "1/s",
    "trace.overhead_share": "share",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no repository sources next to {HERE}; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(HERE / "Cargo.toml")]
    built = subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    return target_dir() / "release" / "perfbench"


def command_output(command):
    try:
        out = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def source_revision():
    """The git revision, or (outside a git checkout) a hash of the sources."""
    rev = command_output(["git", "rev-parse", "HEAD"])
    if rev:
        return rev
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for file in files:
            if "target" in file.relative_to(ROOT).parts:
                continue
            digest.update(str(file.relative_to(ROOT)).encode())
            digest.update(file.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def rep(binary, workload, seed, *extra):
    command = [str(binary), workload, "--seed", str(seed), *map(str, extra)]
    try:
        out = subprocess.run(command, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(command)} timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        fail(f"{' '.join(command)} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def matches_reference(workload, seed, digest):
    """Whether `digest` equals the one recorded for this seed, if any."""
    recorded = json.loads((HERE / "reference.json").read_text())[workload]
    return recorded.get(str(seed), digest) == digest


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def interactive(binary, workload, seed, seconds, trace):
    per_rep = seconds / INTERACTIVE_REPS
    args = ["--seconds", per_rep] + (["--trace"] if trace else [])
    reps = [rep(binary, workload, seed, *args) for _ in range(INTERACTIVE_REPS)]
    attempted = sum(r["attempted"] for r in reps)
    mismatched = sum(r["mismatched"] for r in reps)
    # Every repetition serves the same pool, so every set-up must have
    # produced the same answers.
    correct = (mismatched == 0 and len({r["digest"] for r in reps}) == 1
               and matches_reference(workload, seed, reps[0]["digest"]))
    info = {"nproc": reps[0]["nproc"], "threads": reps[0]["threads"],
            "digest": reps[0]["digest"], "pool": reps[0]["pool"],
            "setup_failed": reps[0]["setup_failed"],
            "failed_share": sum(r["failed"] for r in reps) / attempted,
            # Each timed query repeats a decomposition served in set-up.
            "repeat_share": 1.0}
    if not trace:
        # Medians over repetitions, so a burst of load from elsewhere on
        # the machine during one repetition does not move the result.
        # Each repetition holds thousands of queries, enough for its p99.
        info["samples"] = [len(r["latencies_ms"]) for r in reps]
        metrics = {
            "setup_s": (median(reps, "setup_s"), "s"),
            "queries_per_s": (statistics.median(r["attempted"] / r["wall_s"] for r in reps), "1/s"),
            "query_p50_ms": (statistics.median(percentile(r["latencies_ms"], 0.50) for r in reps), "ms"),
            "query_p99_ms": (statistics.median(percentile(r["latencies_ms"], 0.99) for r in reps), "ms"),
            "answered_share": (1.0 - info["failed_share"], "share"),
            "peak_rss_mb": (median(reps, "peak_rss_mb"), "MiB"),
        }
        return correct, attempted, mismatched, metrics, info
    layers = {name: statistics.median(r["layers"][name] for r in reps)
              for name in reps[0]["layers"]}

    def qps(r, arm):
        # A closed loop of `threads` clients: throughput is clients over
        # the mean query time.
        return r["threads"] * r[f"{arm}_queries"] / (r[f"{arm}_ms"] / 1e3)

    traced = statistics.median(qps(r, "traced") for r in reps)
    untraced = statistics.median(qps(r, "untraced") for r in reps)
    layers.update({"campaign.run_ms": 0.0, "campaign.serve_ms": 0.0,
                   "trace.queries_per_s": traced, "trace.untraced_queries_per_s": untraced,
                   "trace.overhead_share": 1.0 - traced / untraced})
    return correct, attempted, mismatched, layer_metrics(layers), info


def campaign(binary, seed, seconds, trace):
    start = time.monotonic()
    untraced, traced = [], []

    def timed(reps):
        return sum(r["wall_s"] for r in reps)

    # With tracing, untraced and traced repetitions alternate, so drift on
    # the machine hits both arms alike.
    while True:
        untraced.append(rep(binary, "campaign_cold", seed))
        if trace:
            traced.append(rep(binary, "campaign_cold", seed, "--trace"))
        enough = (len(untraced) >= CAMPAIGN_MIN_REPS
                  and timed(untraced) + timed(traced) >= seconds
                  and (trace or sum(len(r["task_ms"]) for r in untraced) >= CAMPAIGN_MIN_SAMPLES))
        if enough or time.monotonic() - start > RUN_BUDGET_S:
            break
    tasks = sum(r["tasks"] for r in untraced)
    expected_tasks = SCENARIOS_PER_DRAW * untraced[0]["draws"]
    digests = {r["digest"] for r in untraced}
    correct = (
        len(digests) == 1
        and all(r["tasks"] == expected_tasks and r["errors"] == 0 for r in untraced)
        # Set-up registered the whole fleet: the runner found every key warm.
        and all(r["registered_fresh"] == 0 and r["mismatched_keys"] == 0 for r in untraced)
        and matches_reference("campaign_cold", seed, untraced[0]["digest"])
    )
    info = {"nproc": untraced[0]["nproc"], "threads": untraced[0]["threads"],
            "digest": untraced[0]["digest"], "tasks": expected_tasks,
            "world_generations": untraced[0]["world_generations"],
            "failed_share": sum(r["failed"] for r in untraced) / tasks}
    if not trace:
        # A campaign has 232 timed tasks, too few for a p99 of its own, so
        # p99 pools the repetitions; the other timings are medians over
        # repetitions, like the interactive ones.
        task_ms = [ms for r in untraced for ms in r["task_ms"]]
        info["samples"] = len(task_ms)
        metrics = {
            "setup_s": (median(untraced, "setup_s"), "s"),
            "queries_per_s": (statistics.median(r["tasks"] / r["wall_s"] for r in untraced), "1/s"),
            "query_p50_ms": (statistics.median(percentile(r["task_ms"], 0.50) for r in untraced), "ms"),
            "query_p99_ms": (percentile(task_ms, 0.99), "ms"),
            "answered_share": (1.0 - info["failed_share"], "share"),
            "peak_rss_mb": (median(untraced, "peak_rss_mb"), "MiB"),
        }
        return correct, tasks, 0, metrics, info
    correct = (correct and len({r["digest"] for r in traced}) == 1
               and all(r["failed"] == untraced[0]["failed"] for r in traced))
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    traced_qps = statistics.median(r["tasks"] / r["wall_s"] for r in traced)
    untraced_qps = statistics.median(r["tasks"] / r["wall_s"] for r in untraced)
    layers.update({"campaign.run_ms": median(untraced, "wall_s") * 1e3,
                   "setup.plan_ms": 0.0, "setup.tool_ms": 0.0,
                   "trace.queries_per_s": traced_qps,
                   "trace.untraced_queries_per_s": untraced_qps,
                   "trace.overhead_share": 1.0 - traced_qps / untraced_qps})
    info["traced_digest"] = traced[0]["digest"]
    return correct, tasks, 0, layer_metrics(layers), info


def layer_metrics(layers):
    if set(layers) != set(LAYER_UNITS):
        fail(f"layer metrics differ from the table: {sorted(set(layers) ^ set(LAYER_UNITS))}")
    return {name: (layers[name], LAYER_UNITS[name]) for name in sorted(layers)}


def rustc_version():
    return command_output(["rustc", "-V"]) or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build()
    if args.workload == "campaign_cold":
        result = campaign(binary, args.seed, args.seconds, args.trace == 1)
    else:
        result = interactive(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    correct, attempted, failed, metrics, info = result
    threads = "workers" if args.workload == "campaign_cold" else "clients"
    stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "nproc": info.pop("nproc"), threads: info.pop("threads"), "exec_workers": 1,
             "rev": source_revision(), "rustc": rustc_version(), **info}
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
