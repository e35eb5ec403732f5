"""The cli-pipes workload: each question is one CLI invocation or one
two-process pipeline, run as subprocesses with ``src`` on the path.

At most one pipeline runs at a time.  A seeded share of the questions are
malformed documents or arguments; each of those must come back as an error
document with exit code 1, or as a usage error with exit code 2, and never
as a traceback or an exit code 0.  Every well-formed answer must equal, byte
for byte, what ``higgs_atlas.cli.main`` prints in-process for the same
arguments and input.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time

from higgs_atlas import (
    build_hitchin_sl,
    build_maximal_so23,
    bundle_from_dict,
    bundle_to_dict,
    Curve,
)
from higgs_atlas import cli

import oracles
from questions import Question, malformed_document

TIMEOUT_S = 60
REFUSAL_CODES = ("budget", "dimension-mismatch")

# Malformed inputs: kinds 0-3 are documents on stdin, 4-6 are arguments.
# Each cycle asks one of each, so the cost of the boundary holds steady.
# Inputs the package mishandles (a missing --input file, a JSON list, an
# out-of-range entry index, a fractional genus) are not asked: every
# question of a run must succeed.
DOCUMENT_KINDS = 4
ARGUMENT_KINDS = 3


def command(*args: str) -> list[str]:
    return [sys.executable, "-m", "higgs_atlas.cli", *args]


class Invocation:
    """A pipeline of one or two CLI processes and what they printed."""

    def __init__(self, stages, stdin: str | None = None):
        self.stages = stages
        self.stdin = stdin
        self.codes: list[int] = []
        self.stdout = ""
        self.stderr = ""

    def run(self, tracer, env) -> "Invocation":
        procs = []
        try:
            started = time.perf_counter_ns()
            first = subprocess.Popen(
                self.stages[0],
                stdin=subprocess.PIPE if self.stdin is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            procs.append(first)
            if len(self.stages) == 1:
                out, err = first.communicate(
                    self.stdin.encode() if self.stdin is not None else None, timeout=TIMEOUT_S
                )
                ends = [time.perf_counter_ns()]
            else:
                second = subprocess.Popen(
                    self.stages[1], stdin=first.stdout, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, env=env,
                )
                procs.append(second)
                first.stdout.close()
                first.wait(timeout=TIMEOUT_S)
                ends = [time.perf_counter_ns()]
                out, err = second.communicate(timeout=TIMEOUT_S)
                ends.append(time.perf_counter_ns())
                err = first.stderr.read() + err
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                p.wait()
                for stream in (p.stdout, p.stderr, p.stdin):
                    if stream is not None:
                        stream.close()
        for argv, end in zip(self.stages, ends):
            tracer.record(f"cli.{argv[3]}", started, end)
        self.codes = [p.returncode for p in procs]
        self.stdout, self.stderr = out.decode(), err.decode()
        return self

    def __str__(self) -> str:
        return f"exit {self.codes}: {self.stderr.strip().splitlines()[-1:] or self.stdout[:200]}"

    def error_doc(self) -> dict | None:
        try:
            doc = json.loads(self.stdout)
        except ValueError:
            return None
        return doc if isinstance(doc, dict) and doc.get("status") == "error" else None


def in_process(stages, stdin: str | None) -> tuple[list[int], str]:
    """Exit codes and final stdout of ``cli.main`` for the same pipeline."""
    text = stdin
    codes = []
    for argv in stages:
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text or "")
        try:
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(argv[3:]))
        finally:
            sys.stdin = saved
        text = out.getvalue()
    return codes, text


def _classify_answer(inv: Invocation) -> str:
    if "Traceback" in inv.stderr or any(c not in (0, 1) for c in inv.codes):
        return "failed"
    if inv.codes[-1] == 1:
        doc = inv.error_doc()
        if doc is None:
            return "failed"
        return "refused" if doc.get("code") in REFUSAL_CODES else "answered"
    return "answered"


def _classify_malformed(inv: Invocation) -> str:
    if "Traceback" in inv.stderr or inv.codes[-1] not in (1, 2):
        return "failed"
    if inv.codes[-1] == 1 and inv.error_doc() is None:
        return "failed"
    return "answered"


def _question(spec, verb, stages, env, stdin=None, oracle=None):
    def check(inv):
        codes, text = in_process(stages, stdin)
        ok = (codes, text) == (inv.codes, inv.stdout)
        if ok and oracle is not None:
            ok = oracle(inv)
        return ok, {}
    return Question(
        spec=spec,
        layer=f"cli.{verb}",
        ask=lambda tr: Invocation(stages, stdin).run(tr, env),
        check=check,
        classify=_classify_answer,
    )


def _stability_oracle(build_stage):
    def oracle(inv):
        _, doc = in_process([build_stage], None)
        expected, _ = oracles.verdict(bundle_from_dict(json.loads(doc)))
        return json.loads(inv.stdout)["status"] == expected["status"]
    return oracle


def _malformed(kind: int, rng, doc: dict, env) -> Question:
    stdin = None
    if kind < 3:
        stages = [command("stability", "--input", "-")]
        stdin = json.dumps(malformed_document(kind, rng, doc))
    elif kind == 3:
        text = json.dumps(doc)
        stages, stdin = [command("stability", "--input", "-")], text[: rng.randrange(1, len(text) - 1)]
    elif kind == 4:
        stages = [command("build", "--group", rng.choice(("xx:3", "sl:", "so0:2", "sp:x")), "--genus", "2")]
    elif kind == 5:
        stages = [command("build", "--group", "sl:3", "--genus", rng.choice(("two", "2.5", "")))]
    else:
        stages = [command("sw", "--genus", "2", "--classes", rng.choice(("10x1", "1", "10,0102")))]
    return Question(
        spec=f"malformed {kind} {stages[0][3:]} {stdin!r}",
        layer=f"cli.{stages[0][3]}",
        ask=lambda tr: Invocation(stages, stdin).run(tr, env),
        check=lambda inv: (True, {}),
        classify=_classify_malformed,
        band="malformed",
    )


CELLS = [
    "stab:so23", "search:so23", "malformed:document", "minimal", "stab:sl", "census",
    "stab:refused", "param", "search:sl", "malformed:argument", "stab:sp", "dim",
    "minimal:refused", "verify",
]


def cycle_questions(seed: int, cycle: int, env: dict, check_names) -> list[Question]:
    rng = random.Random(f"cli-pipes:{seed}:{cycle}")
    out = []
    census_keys = sorted(oracles.CENSUS)
    complete_keys = [k for k in census_keys if oracles.CENSUS[k][0]]
    for pos, cell in enumerate(CELLS):
        g = 2 + (pos + cycle) % 3
        kind, _, shape = cell.partition(":")
        if kind in ("stab", "search"):
            if shape == "so23":
                build = command("build", "--group", "so0:2,3", "--genus", str(g), "--d",
                                str(rng.randint(-(4 * g - 4), 4 * g - 4)), "--maximal")
            elif shape == "sp":
                build = command("build", "--group", f"sp:{2 * rng.randint(1, 5)}", "--genus", str(g))
            else:
                n = rng.randint(25, 40) if shape == "refused" else rng.randint(3, 12 if kind == "stab" else 6)
                build = command("build", "--group", f"sl:{n}", "--genus", str(g), "--spin-name", "s")
            if kind == "stab":
                stages = [build, command("stability", "--input", "-")]
                out.append(_question(f"{build[4:]} | stability", "stability", stages, env,
                                     oracle=_stability_oracle(build)))
            else:
                bound = str(rng.randint(1, 2))
                stages = [build, command("limit", "--input", "-", "--search", bound)]
                out.append(_question(f"{build[4:]} | limit --search {bound}", "limit", stages, env))
        elif kind == "minimal":
            genus = rng.randint(4, 6) if shape == "refused" else 2 + cycle % 2
            argv = command("sw", "--genus", str(genus), "--minimal-n", "--n", str(2 + cycle // 2 % 2))
            out.append(_question(str(argv[3:]), "sw", [argv], env))
        elif kind == "census":
            tag, genus, sector = rng.choice(census_keys)
            argv = command("census", "--group", tag, "--genus", str(genus), "--sector", sector, "--table")
            out.append(_question(str(argv[3:]), "census", [argv], env))
        elif kind == "param":
            tag = rng.choice(("so:1,2", "so0:2,3", "so0:3,4"))
            rank = 1 if tag == "so:1,2" else int(tag[4])
            argv = command("param", "--group", tag, "--genus", str(g), "--d",
                           str(rng.randint(1, rank * (2 * g - 2))))
            out.append(_question(str(argv[3:]), "param", [argv], env))
        elif kind == "dim":
            tag, genus, sector = rng.choice(complete_keys)
            argv = command("dim", "--group", tag, "--genus", str(genus), "--sector", sector, "--consistency")
            out.append(_question(str(argv[3:]), "dim", [argv], env))
        elif kind == "verify":
            names = rng.sample(check_names, rng.randint(1, 3))
            argv = command("verify", "--only", ",".join(names))
            out.append(_question(str(argv[3:]), "verify", [argv], env))
        else:
            curve = Curve(g)
            if rng.random() < 0.5:
                h = build_maximal_so23(curve, rng.randint(-(4 * g - 4), 4 * g - 4))
            else:
                h = build_hitchin_sl(curve, rng.randint(3, 8), spin_name="s")
            kind = cycle % DOCUMENT_KINDS if shape == "document" else DOCUMENT_KINDS + cycle % ARGUMENT_KINDS
            out.append(_malformed(kind, rng, bundle_to_dict(h), env))
    return out
