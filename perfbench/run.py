"""The benchmark's one command.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  It clears ``HIGGS_ATLAS_BUDGET`` so the
shipped budget is measured, invokes every CLI verb once untimed so bytecode
caches exist, then runs the workload in worker processes of its own, one at
a time: set-up alone several times (for ``setup_s``), then set-up plus the
timed loop.  With ``--trace 1`` it also runs a traced worker and reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.

The last line of stdout is the result; the line before it stamps the run
with the machine, the interpreter, the commit and the inputs digest.  The
exit code is 0 when every answer was right, 1 when one was wrong, and 2 or
3 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 2
FLOOR_REPEATS = 5


def fail(message: str, code: int):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HIGGS_ATLAS_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, env, timeout, stdin=None) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            argv, cwd=ROOT, env=env, input=stdin, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        fail(f"{argv[1:4]} did not finish within {timeout} s", 3)


def warm_up(env) -> None:
    """One untimed invocation of each CLI verb."""
    cli = [sys.executable, "-m", "higgs_atlas.cli"]
    doc = run_child(cli + ["build", "--group", "so0:2,3", "--genus", "2", "--d", "2", "--maximal"], env, 60)
    for argv in (
        ["stability", "--input", "-"],
        ["limit", "--input", "-", "--search", "1"],
        ["sw", "--genus", "2", "--minimal-n", "--n", "2"],
        ["census", "--group", "sl:3", "--genus", "2"],
        ["param", "--group", "so:1,2", "--genus", "2", "--d", "1"],
        ["dim", "--group", "sl:3", "--genus", "2", "--consistency"],
        ["verify", "--only", "riemann-roch-chi"],
    ):
        run_child(cli + argv, env, 60, stdin=doc.stdout)


def worker(args, env, trace: int, seconds: float, setup_only: bool = False) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    proc = run_child(argv, env, 60 if setup_only else seconds + 90)
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}", 3)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail(f"worker printed no result:\n{proc.stdout[-500:]}\n{proc.stderr[-2000:]}", 3)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, number of samples)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def interpreter_floor(env) -> dict[str, float]:
    """``python -c pass`` and the import of the CLI module above it."""
    def median_ms(code):
        times = []
        for _ in range(FLOOR_REPEATS):
            t = time.perf_counter()
            run_child([sys.executable, "-c", code], env, 60)
            times.append((time.perf_counter() - t) * 1000)
        return statistics.median(times)
    floor = median_ms("pass")
    return {"cli.interpreter_ms": floor, "cli.import_ms": median_ms("import higgs_atlas.cli") - floor}


def stamp(args, docs) -> dict:
    commit = "unknown"  # a benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": f"{platform.machine()} {cpu}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_digest": src.hexdigest(),
        "inputs_digest": docs[0]["inputs_digest"],
    }


def main() -> int:
    p = argparse.ArgumentParser(description="higgs_atlas benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root", 2)
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    if not (ROOT / "src" / "higgs_atlas" / "__init__.py").is_file():
        fail("src/higgs_atlas is missing; run from the root of a higgs-atlas checkout", 2)
    os.environ.pop("HIGGS_ATLAS_BUDGET", None)
    env = child_env()

    warm_up(env)
    # A traced run splits its time between an untraced and a traced worker.
    seconds = args.seconds / 2 if args.trace else args.seconds
    setups = [worker(args, env, 0, seconds, setup_only=True) for _ in range(SETUP_REPEATS)]
    main_run = worker(args, env, 0, seconds)
    runs = setups + [main_run]
    if args.trace:
        traced = worker(args, env, 1, seconds)
        runs.append(traced)
    digests = {d["inputs_digest"] for d in runs}
    wrong = [w for d in runs for w in d.get("wrong", [])]
    for w in wrong[:20]:
        print(f"perfbench: wrong answer: {w}", file=sys.stderr)
    if len(digests) != 1:
        print("perfbench: workers of one seed generated different inputs", file=sys.stderr)
    correct = not wrong and len(digests) == 1

    whole = main_run["whole"]
    qps = whole["answered"] / whole["measured_s"]
    n = whole["measured"]
    lat = whole["latencies_ms"] or [0.0]
    tail_ms, tail_pct, tail_n = tail(lat)
    info = stamp(args, runs)
    info.update({
        "latency_tail_percentile": tail_pct,
        "latency_samples": tail_n,
        "measured_cycles": whole["measured_cycles"],
        "measured_questions": n,
        "answered": whole["answered"],
        "refused": whole["refused"],
        "failed_measured": whole["failed"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "failures": main_run["failures"],
        "setup_s_samples": [d["setup_s"] for d in runs[: SETUP_REPEATS + 1]],
        "raw_setup_s_samples": [d["raw_setup_s"] for d in runs[: SETUP_REPEATS + 1]],
        "raw_throughput_qps": whole["answered"] / whole["raw_measured_s"],
        "raw_latency_p50_ms": statistics.median(whole["raw_latencies_ms"] or [0.0]),
        "raw_latency_tail_ms": tail(whole["raw_latencies_ms"] or [0.0])[0],
        "reference_ms": whole["reference_ms"],
    })
    if args.trace:
        layers = dict(traced["layers"])
        layers.update(interpreter_floor(env))
        traced_qps = traced["whole"]["answered"] / traced["whole"]["measured_s"]
        layers["trace.overhead_qps"] = qps - traced_qps
        info["traced_throughput_qps"] = traced_qps
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        values = {
            "throughput_qps": qps,
            "latency_p50_ms": statistics.median(lat),
            "latency_tail_ms": tail_ms,
            # (count + 1) / (attempted + 2): the rule-of-succession estimate,
            # which stays above zero when nothing was refused.
            "refused_frac": (whole["refused"] + 1) / (n + 2),
            "setup_s": statistics.median(d["setup_s"] for d in runs[: SETUP_REPEATS + 1]),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
