"""One workload in a process of its own: set-up, then the timed closed loop
with one client, whose answers are checked cycle by cycle with the clock
stopped.

    python3 perfbench/worker.py --workload verdicts --seed 1 --seconds 10 --trace 0

Prints one JSON document with the raw measurements; ``run.py`` turns the
documents of several workers into the benchmark's metrics.  With
``--setup-only`` the worker stops after set-up and reports its set-up time.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

# Cycles built during set-up for every 10 s of measurement, about what the
# package answered at the commit that introduced the benchmark.  Further
# cycles are built on demand with the clock stopped.
POOL_CYCLES_PER_10S = {
    "verdicts": 10,
    "gauge-orbit": 4,
    "limits-and-classes": 30,
    "cli-pipes": 3,
}
# Timings are reported at the speed at which ``reference_ms`` takes this
# long, and the reference work is timed this often during a run.  The CLI
# workload's reference is the start of an empty interpreter instead, which
# tracks the speed at which its children start and run.
REFERENCE_MS = 7.0
REFERENCE_EVERY_S = 0.25
CHILD_REFERENCE_MS = 50.0
CHILD_REFERENCE_EVERY_S = 1.0

LAYER_FUNCTIONS = {
    "stability.check_polystability": ("n3-8", "n9-12", "n13-16", "n17-19"),
    "higgsmodel.gauge_equivalent": ("k1-3", "k4-5", "k6"),
    "higgsmodel.structurally_equal": ("k1-3", "k4-5", "k6"),
    "higgsmodel.bundle_from_dict": (),
    "deformation.search_admissible_weights": (),
    "deformation.graded_limit": (),
    "deformation.limit_destabilized_branch": (),
    "f2cohomology.sw_surjectivity_witnesses": ("g2", "g3"),
    "f2cohomology.minimal_realizing_n": (),
    "catalog.census": (),
    "catalog.parameterization": (),
    "catalog.dimension_consistency": (),
    "curve.h0": (),
    "linebundle.parse_expr": (),
}
CLI_VERBS = ("build", "stability", "limit", "sw", "census", "param", "dim", "verify")
SETUP_LAYERS = ("higgsmodel.build", "higgsmodel.permute_summands", "higgsmodel.switched")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Source:
    """The questions in asking order, grown one cycle at a time."""

    def __init__(self, args, tracer):
        self.history: dict = {}
        self.questions: list = []
        self.sizes: list[int] = []
        if args.workload == "cli-pipes":
            import clipipes
            from higgs_atlas import all_check_names

            env = {k: v for k, v in os.environ.items() if k != "HIGGS_ATLAS_BUDGET"}
            env["PYTHONPATH"] = str(ROOT / "src")
            names = list(all_check_names())
            self._cycle = lambda c: clipipes.cycle_questions(args.seed, c, env, names)
        else:
            import questions

            fn = questions.CYCLES[args.workload]
            builders = questions.Builders(tracer)
            self._cycle = lambda c: fn(args.seed, c, builders, self.history)

    def grow(self) -> None:
        batch = self._cycle(len(self.sizes))
        self.questions += batch
        self.sizes.append(len(batch))


def reference_ms() -> float:
    """Time of a fixed piece of pure-Python work, the best of three: the
    machine's speed of the moment.  The shared machine this benchmark was
    written on changes speed by up to a third for seconds at a time.  The
    work mixes what the package's hot loops do: integer and bit arithmetic,
    dict updates, tuple building and sorting, and JSON encoding."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        counts, rows = {}, []
        for i in range(8_000):
            counts[i & 511] = counts.get(i & 511, 0) + ((i * 7) & 0xFF)
            rows.append((i % 97, -i, str(i & 63)))
        rows.sort()
        json.dumps({"rows": rows[:1500], "counts": counts}, sort_keys=True)
        best = min(best, time.perf_counter() - t)
    return best * 1000


def child_reference_ms() -> float:
    """Time to start and stop an empty interpreter, the best of two."""
    best = math.inf
    for _ in range(2):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        best = min(best, time.perf_counter() - t)
    return best * 1000


def measure(source: Source, seconds: float, tracer, reference, every: float, checker):
    """Ask questions until ``seconds`` of asking have passed.  Every
    ``every`` seconds of asking, with the clock stopped, ``reference()`` is
    timed, and at the end of each cycle its answers are handed to
    ``checker``; returns the records, the clock at the end of each question,
    and the (clock, reference time) pairs."""
    from higgs_atlas import HiggsAtlasError

    records, ends, refs = [], [], [(0.0, reference())]
    paused = 0.0
    cycles_done = 0
    start = time.perf_counter()
    i = 0
    while (clock := time.perf_counter() - start - paused) < seconds:
        if clock - refs[-1][0] >= every:
            t = time.perf_counter()
            refs.append((clock, reference()))
            paused += time.perf_counter() - t
        if i == len(source.questions):
            t = time.perf_counter()
            tracer.qid = tracer.band = None
            source.grow()
            paused += time.perf_counter() - t
        q = source.questions[i]
        tracer.qid, tracer.band = i, q.band
        first_span = len(tracer.spans)
        span = tracer.open("question") if tracer.enabled else None
        t0 = time.perf_counter_ns()
        try:
            value = q.ask(tracer)
            outcome = q.classify(value) if q.classify else "answered"
        except q.refusals as exc:
            value, outcome = exc, "refused"
        except HiggsAtlasError as exc:
            value, outcome = exc, "answered"
        except Exception as exc:  # a traceback is what the failure count measures
            value, outcome = exc, "failed"
        t1 = time.perf_counter_ns()
        if span is not None:
            tracer.close(span)
            if outcome == "refused":
                for s in tracer.spans[first_span:]:
                    s["refused"] = s["name"] != "question"
        records.append((q, outcome, value, (t1 - t0) / 1e6))
        ends.append(time.perf_counter() - start - paused)
        i += 1
        if i == sum(source.sizes[: cycles_done + 1]):
            t = time.perf_counter()
            tracer.qid = tracer.band = None
            checker(records)
            cycles_done += 1
            paused += time.perf_counter() - t
    refs.append((ends[-1], reference()))
    checker(records)
    return records, ends, refs


def whole_cycles(records, ends, sizes, refs, nominal_ms: float) -> dict:
    """The measurements of the cycles the run completed.

    Every cycle asks the same cells, so metrics over whole cycles weigh the
    cells equally in every run; the questions of the cycle the clock cut
    short are asked and checked but not measured.  When not even one cycle
    completed, the whole run is measured.

    Times are reported at the reference speed: each question's time is
    scaled by ``nominal_ms`` over the reference time interpolated at its
    midpoint.  The raw wall-clock figures are kept too.
    """
    cut, c = 0, 0
    while c < len(sizes) and cut + sizes[c] <= len(records):
        cut += sizes[c]
        c += 1
    if cut == 0:
        cut = len(records)
    ref_clocks = [t for t, _ in refs]
    latencies, raw_latencies, measured_s, before = [], [], 0.0, 0.0
    for (_, outcome, _, ms), end in zip(records[:cut], ends):
        mid = (before + end) / 2
        k = min(max(bisect.bisect(ref_clocks, mid), 1), len(refs) - 1)
        (t0, r0), (t1, r1) = refs[k - 1], refs[k]
        scale = nominal_ms / (r0 + (r1 - r0) * (mid - t0) / (t1 - t0) if t1 > t0 else r1)
        measured_s += (end - before) * scale
        before = end
        if outcome == "answered":
            latencies.append(ms * scale)
            raw_latencies.append(ms)
    kept = records[:cut]
    return {
        "measured": cut,
        "measured_s": measured_s,
        "raw_measured_s": ends[cut - 1],
        "measured_cycles": c,
        "answered": sum(o == "answered" for _, o, _, _ in kept),
        "refused": sum(o == "refused" for _, o, _, _ in kept),
        "failed": sum(o == "failed" for _, o, _, _ in kept),
        "latencies_ms": latencies,
        "raw_latencies_ms": raw_latencies,
        "reference_ms": [r for _, r in refs],
    }


class Checker:
    """Checks the answers not yet checked against their oracles, with the
    clock stopped, and keeps the wrong ones and the counts the checks
    derived.  Unless ``keep_values``, it then lets the checked answers go,
    so a run holds about one cycle of answers at a time and its peak RSS is
    the package's working set, not the benchmark's store of answers."""

    def __init__(self, keep_values: bool):
        self.keep_values = keep_values
        self.wrong: list[str] = []
        self.counts: dict = {}
        self.done = 0

    def __call__(self, records) -> None:
        for i in range(self.done, len(records)):
            q, outcome, value, ms = records[i]
            if outcome != "answered":
                continue
            self.check(q, value)
            if not self.keep_values:
                records[i] = (q, outcome, None, ms)
        self.done = len(records)

    def check(self, q, value) -> None:
        try:
            ok, extra = q.check(value)
        except Exception as exc:  # an answer the oracle cannot read is wrong
            ok, extra = False, {}
            value = f"{value!r} ({type(exc).__name__}: {exc})"
        if not ok:
            self.wrong.append(f"{q.spec[:300]} -> {str(value)[:300]}")
        for d in (q.computed, extra):
            for k, v in d.items():
                self.counts[k] = self.counts.get(k, 0) + v


def layer_metrics(records, spans, counts) -> dict[str, float]:
    from tracing import function_stats, span_ms

    out: dict[str, float] = {}
    for name, bands in LAYER_FUNCTIONS.items():
        out.update(function_stats(spans, name, bands))
    for name in SETUP_LAYERS:
        out[f"{name}.busy_ms"] = sum(span_ms(s) for s in spans if s["name"] == name)
    for verb in CLI_VERBS:
        out[f"cli.{verb}.p50_ms"] = function_stats(spans, f"cli.{verb}")[f"cli.{verb}.p50_ms"]
    out.update({k: float(v) for k, v in counts.items()})
    ratio = lambda a, b: out.get(a, 0.0) / out[b] if out.get(b) else 0.0
    out["stability.useful_ratio"] = ratio("stability.closed_sets", "stability.masks_computed")
    s = "deformation.search_admissible_weights"
    out[f"{s}.useful_ratio"] = ratio(f"{s}.limits_found", f"{s}.vectors_computed")
    cli_runs = [v for q, o, v, _ in records if q.layer.startswith("cli.") and hasattr(v, "stderr")]
    out["cli.tracebacks"] = float(sum("Traceback" in v.stderr for v in cli_runs))
    out["cli.error_docs"] = float(sum(v.codes[-1] == 1 and v.error_doc() is not None for v in cli_runs))
    out["trace.spans"] = float(len(spans))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    ref_before = reference_ms()
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracing import OUT_DIR, Tracer

    tracer = Tracer(bool(args.trace))
    source = Source(args, tracer)
    pool = math.ceil(POOL_CYCLES_PER_10S[args.workload] * args.seconds / 10)
    for _ in range(pool):
        source.grow()
    raw_setup_s = time.perf_counter() - t0
    setup_s = raw_setup_s * REFERENCE_MS / ((ref_before + reference_ms()) / 2)
    digest = hashlib.sha256("\n".join(q.spec for q in source.questions).encode()).hexdigest()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s, "inputs_digest": digest}))
        return 0

    if args.workload == "cli-pipes":
        reference, every, nominal = child_reference_ms, CHILD_REFERENCE_EVERY_S, CHILD_REFERENCE_MS
    else:
        reference, every, nominal = reference_ms, REFERENCE_EVERY_S, REFERENCE_MS
    # The CLI answers are kept: the per-layer metrics read their stderr.
    checker = Checker(keep_values=args.workload == "cli-pipes")
    records, ends, refs = measure(source, args.seconds, tracer, reference, every, checker)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-pipes" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    wrong, counts = checker.wrong, checker.counts
    doc = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "attempted": len(records),
        "failed": sum(o == "failed" for _, o, _, _ in records),
        "failures": [f"{q.spec[:200]} -> {str(v)[:200]}" for q, o, v, _ in records if o == "failed"][:5],
        "wrong": wrong,
        "peak_rss_mb": peak_rss_mb,
        "inputs_digest": digest,
        "pool_cycles": pool,
        "cycles_built": len(source.sizes),
        "whole": whole_cycles(records, ends, source.sizes, refs, nominal),
    }
    if args.trace:
        doc["layers"] = layer_metrics(records, tracer.spans, counts)
        tracer.write(ROOT / OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
