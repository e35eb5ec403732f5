"""Command-line interface.

Verbs:
    build      construct an object from a group tag and discrete labels
    stability  verdict for an object document
    limit      graded limits: explicit weights, a weight search, or the
               destabilized-branch fixture
    sw         Stiefel-Whitney arithmetic and reachability
    census     component catalog for a group
    param      exact parameterization of a labelled component
    dim        dimension bookkeeping for a group
    verify     run the named internal consistency checks

All output is deterministic JSON on stdout (sorted keys); `--table` on
census and verify renders a plain-text table instead.  Object documents
are read with `--input PATH` where PATH may be `-` for stdin.  Exit code
0 on success, 1 on a reported domain error, 2 on usage errors.

`build` decides a command in one order: the group tag (and the genus),
the builder they and the switches choose, any given flag that builder
does not read, a flag it cannot do without, then the text of each flag.
It passes the builder only the flags given, so an omitted flag takes the
builder's own default and `--spin-name ''` is refused at every rank.

Each handler imports the modules its verb runs, so a process loads only
those; a usage error loads nothing beyond ``errors``.

``run`` is the process entry of ``python -m higgs_atlas.cli`` and of the
``higgs-atlas`` script.  A process answers one question and exits, so a
reference cycle it leaves is reclaimed by the exit anyway: ``run`` switches
Python's cyclic collector off before ``main`` (the collections the imports
would trigger find next to nothing) and freezes every object after it, so
the interpreter's last collection does not walk them all.  ``main`` leaves
its caller's collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import __version__
from .errors import (
    HiggsAtlasError,
    ParseError,
    PreconditionError,
    UnsupportedGroupError,
    _read_int,
)

# The choices of --sector (catalog.SECTOR_*) and --direction
# (deformation.DIRECTION_*), spelled out so that building the parser
# imports neither module.  The first entry is the default.
SECTOR_CHOICES = ("all", "maximal")
DIRECTION_CHOICES = ("to-zero", "to-infinity")


def _emit(data: dict) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _read_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from exc


def _parse_classes(text: str) -> list:
    """A comma list of bit strings; their genus is checked by the caller."""
    from .f2classes import F2Class

    out = [F2Class.from_bits(chunk.strip()) for chunk in text.split(",") if chunk.strip()]
    if not out:
        raise ParseError("no classes given")
    return out


def _int_flag(signed: bool):
    """An argparse type for the package's integer rule (``errors._read_int``)."""

    def parse(text: str) -> int:
        if (value := _read_int(text, signed)) is None:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        return value

    return parse


_INT, _COUNT = _int_flag(signed=True), _int_flag(signed=False)


def _parse_ints(text: str, signed: bool) -> tuple[int, ...]:
    """A comma list of integers; spaces around the commas are allowed."""
    values = tuple(_read_int(p.strip(), signed) for p in text.split(",") if p.strip())
    if None in values:
        raise ParseError(f"bad integer list {text!r}")
    return values


def _parse_w0(text: str):
    from .builders import PrymW0, SplitW0, TrivialW0
    from .f2classes import F2Class

    if not text:
        raise ParseError("no rank-2 complement descriptor given")
    parts = text.split(":")
    if parts[0] == "split":
        if len(parts) != 2 or (degree := _read_int(parts[1], signed=True)) is None:
            raise ParseError("expected split:<degree>")
        return SplitW0(degree)
    if parts[0] == "prym":
        if len(parts) != 3 or (sw2 := _read_int(parts[2])) is None:
            raise ParseError("expected prym:<sw1 bits>:<sw2 bit>")
        return PrymW0(F2Class.from_bits(parts[1]), sw2)
    if parts[0] == "trivial" and len(parts) == 1:
        return TrivialW0()
    raise ParseError(f"unknown rank-2 complement descriptor {text!r}")


# Every flag of `build`, as its argparse dest, with the one reader of its
# text (None where argparse already made the value).  Each defaults to None,
# so a flag the caller gave can be told from one left out: `_given` passes
# on only the given ones, as given, so an omitted flag takes the builder's
# default and `--spin-name ''` reaches the builder, which refuses it.
_BUILD_FLAGS = {
    "d": None, "q_on": lambda text: _parse_ints(text, signed=False), "spin_name": None,
    "classes": _parse_classes, "w0": _parse_w0, "mu": None, "nu": None, "q2": None,
    "pfaffian": None, "maximal": None, "deformed": None,
}


def _given(args, group, *read: str, needs: str | None = None, by: str | None = None) -> dict:
    """The build flags the caller gave, as keyword arguments for the builder
    of ``group``, which reads the dests ``read`` and cannot do without
    ``needs``; ``by`` is the flag that chose the builder, passed to none.

    Refused in this order: a given flag the builder does not read, a
    missing ``needs``, then a flag text its reader refuses (an empty
    ``--classes`` or ``--w0`` among them)."""
    given = {name: value for name in _BUILD_FLAGS if (value := getattr(args, name)) is not None}
    unread = [
        f"--{'no-' if value is False else ''}{name.replace('_', '-')}"
        for name, value in given.items()
        if name not in read and name != by
    ]
    if unread:
        raise PreconditionError(f"the {group} builder does not read {', '.join(unread)}")
    if needs and needs not in given:
        raise PreconditionError(f"the {group} builder needs --{needs}")
    given.pop(by, None)
    return {
        name: reader(value) if (reader := _BUILD_FLAGS[name]) else value
        for name, value in given.items()
    }


def _cmd_build(args) -> dict:
    from .groups import GroupTag

    # a malformed tag is refused before the builders are loaded
    group = GroupTag.parse(args.group)

    from .builders import (
        build_degree_zero_chain,
        build_exotic_so,
        build_extension_deformed_so35,
        build_hitchin_sl,
        build_hitchin_so,
        build_hitchin_so_nn,
        build_hitchin_sp,
        build_maximal_so23,
        build_maximal_so2n,
        build_so12,
        build_twisted_fuchsian_sp,
    )
    from .curve import Curve
    from .higgsmodel import bundle_to_dict

    curve = Curve(args.genus)
    kind, n = group.kind, group.params[0]

    if group.family == "sl":
        h = build_hitchin_sl(curve, n, **_given(args, group, "q_on", "spin_name"))
    elif group.family == "sp" and args.classes is not None:
        given = _given(args, group, "classes", "spin_name", "q2")
        if 2 * len(given["classes"]) != n:
            raise ParseError(f"{len(given['classes'])} classes do not fill rank {n}")
        h = build_twisted_fuchsian_sp(curve, **given)
    elif group.family == "sp":
        h = build_hitchin_sp(curve, n // 2, **_given(args, group, "q_on", "spin_name"))
    elif kind == "so:1,2":
        h = build_so12(curve, **_given(args, group, "d", "mu", "nu", needs="d"))
    elif kind == "so0:n,n":
        h = build_hitchin_so_nn(curve, n, **_given(args, group, "q_on", "pfaffian"))
    elif kind == "so0:3,5" and args.deformed:
        h = build_extension_deformed_so35(
            curve, **_given(args, group, "d", "mu", needs="d", by="deformed")
        )
    elif kind == "so0:2,3" and args.maximal and args.w0 is not None:
        h = build_maximal_so2n(curve, 3, **_given(args, group, "w0", "q2", by="maximal"))
    elif kind == "so0:2,3" and args.maximal:
        h = build_maximal_so23(
            curve, **_given(args, group, "d", "mu", "nu", "q2", needs="d", by="maximal")
        )
    elif kind == "hermitian" and args.maximal:
        h = build_maximal_so2n(
            curve, group.params[1], **_given(args, group, "w0", "q2", needs="w0", by="maximal")
        )
    elif kind in ("split", "so0:2,3", "so0:1,2"):
        if args.d is None:
            h = build_hitchin_so(curve, n, **_given(args, group, "q_on"))
        elif args.d == 0:
            h = build_degree_zero_chain(curve, n, **_given(args, group, by="d"))
        else:
            h = build_exotic_so(curve, n, **_given(args, group, "d", "mu", "nu", "q_on"))
    else:
        raise UnsupportedGroupError(f"no builder for {group} with these flags")
    return bundle_to_dict(h)


def _cmd_stability(args) -> dict:
    from .groups import milnor_wood_bound
    from .higgsmodel import bundle_from_dict
    from .stability import check_polystability

    h = bundle_from_dict(_read_document(args.input))
    verdict = check_polystability(
        h, assume_summand_generated=args.assume_summand_generated
    )
    out = verdict.to_dict()
    out["group"] = str(h.group)
    try:
        out["bound"] = milnor_wood_bound(h.group, h.genus)
    except UnsupportedGroupError:
        pass
    return out


def _cmd_limit(args) -> dict:
    from .deformation import (
        NDescriptor,
        WeightAssignment,
        graded_limit,
        limit_destabilized_branch,
        search_admissible_weights,
    )
    from .higgsmodel import bundle_from_dict, bundle_to_dict

    h = bundle_from_dict(_read_document(args.input))
    if args.search is not None:
        results = search_admissible_weights(
            h, args.search, direction=args.direction, higgs_scale=args.scale
        )
        return {
            "count": len(results),
            "admissible": [
                {"weights": list(w.weights), "limit": bundle_to_dict(res.limit)}
                for w, res in results
            ],
        }
    if args.line_degree is not None:
        res = limit_destabilized_branch(h, NDescriptor(args.line_degree))
        return res.to_dict()
    if not args.weights:
        raise PreconditionError("need --weights, --search, or --line-degree")
    w = WeightAssignment(_parse_ints(args.weights, signed=True), args.scale)
    return graded_limit(h, w, args.direction, with_stability=args.with_stability).to_dict()


def _cmd_sw(args) -> dict:
    if args.surjectivity:
        from .f2cohomology import sw_surjectivity_witnesses

        report = sw_surjectivity_witnesses(args.genus, args.n)
        return {
            "genus": report.genus,
            "n": report.n,
            "complete": report.complete,
            "witnesses": {
                pair.label(): [c.bits() for c in classes]
                for pair, classes in report.witness_map.items()
            },
            "missing": [pair.label() for pair in report.missing],
        }
    if args.minimal_n:
        from .f2cohomology import minimal_realizing_n

        table = minimal_realizing_n(args.genus, args.n)
        return {
            "genus": args.genus,
            "n_max": args.n,
            "minimal": {pair.label(): n for pair, n in table.items()},
        }
    if args.classes is None:
        raise PreconditionError("need --classes, --surjectivity, or --minimal-n")
    from .f2classes import total_sw_of_sum

    pair = total_sw_of_sum(_parse_classes(args.classes), args.genus)
    return {"sw1": pair.sw1.bits(), "sw2": pair.sw2, "label": pair.label()}


def _census_table(doc: dict) -> str:
    lines = [f"{doc['group']}  genus {doc['genus']}  sector {doc['sector']}"]
    total = doc["total"] if doc["total"] is not None else f">= {doc['listed']}"
    lines.append(f"components: {total}")
    for comp in doc["components"]:
        flags = []
        if comp.get("hitchin"):
            flags.append("hitchin")
        if comp.get("remark_level"):
            flags.append("remark")
        if comp.get("cover_multiplicity") is not None:
            flags.append(f"x{comp['cover_multiplicity']}")
        lines.append(
            f"  {comp['label']:<24} dim {comp['dimension']:<6} "
            + ",".join(flags)
        )
    if doc["note"]:
        lines.append(f"note: {doc['note']}")
    return "\n".join(lines) + "\n"


def _cmd_census(args) -> dict:
    from .catalog import census
    from .groups import GroupTag

    group = GroupTag.parse(args.group)
    c = census(group, args.genus, args.sector)
    return c.to_dict()


def _cmd_param(args) -> dict:
    from .catalog import _twist_rank, half_dimension, parameterization, resolve_extra_factor_reading
    from .groups import GroupTag

    group = GroupTag.parse(args.group)
    p = parameterization(group, args.d, args.genus)
    return {
        "group": str(group),
        "genus": args.genus,
        "d": args.d,
        "parameterization": p.to_dict(),
        "half_dimension": half_dimension(group, args.genus),
        "extra_reading": resolve_extra_factor_reading(_twist_rank(group), args.genus),
    }


def _cmd_dim(args) -> dict:
    from .catalog import (
        character_variety_dimension,
        dimension_consistency,
        group_dim,
        half_dimension,
    )
    from .groups import GroupTag

    group = GroupTag.parse(args.group)
    out = {
        "group": str(group),
        "genus": args.genus,
        "group_dim": group_dim(group),
        "real_dimension": character_variety_dimension(group, args.genus),
        "half_dimension": half_dimension(group, args.genus),
    }
    if args.consistency:
        out["consistency"] = dimension_consistency(group, args.genus, args.sector)
    return out


def _verify_table(results) -> str:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def _cmd_verify(args):
    from .verification import run_checks

    names = args.only.split(",") if args.only else None
    results = run_checks(names)
    doc = {
        "checks": [r.to_dict() for r in results],
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
        "ok": all(r.passed for r in results),
    }
    return doc, results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higgs-atlas",
        description="exact component bookkeeping for decorated Higgs-type objects",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_group_genus(p):
        p.add_argument("--group", required=True, help="family:params, e.g. so0:2,3")
        p.add_argument("--genus", type=_COUNT, required=True)

    p = sub.add_parser("build", help="construct an object")
    add_group_genus(p)
    p.add_argument("--d", type=_INT, default=None, help="integer component label")
    p.add_argument("--q-on", default=None, help="comma list of enabled differentials")
    p.add_argument("--spin-name", default=None)
    p.add_argument("--classes", default=None, help="comma list of 2g-bit strings")
    p.add_argument("--w0", default=None, help="split:<d> | prym:<bits>:<bit> | trivial")
    p.add_argument("--mu", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--nu", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--q2", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--pfaffian", action="store_true", default=None)
    p.add_argument("--maximal", action="store_true", default=None)
    p.add_argument("--deformed", action="store_true", default=None)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("stability", help="polystability verdict for a document")
    p.add_argument("--input", required=True, help="path to an object document, - for stdin")
    p.add_argument("--assume-summand-generated", action="store_true")
    p.set_defaults(fn=_cmd_stability)

    p = sub.add_parser("limit", help="graded limits of a document")
    p.add_argument("--input", required=True)
    p.add_argument("--weights", default="", help="comma list, one weight per summand")
    p.add_argument("--scale", type=_INT, default=1)
    p.add_argument(
        "--direction",
        choices=DIRECTION_CHOICES,
        default=DIRECTION_CHOICES[0],
    )
    p.add_argument("--with-stability", action="store_true")
    p.add_argument("--search", type=_COUNT, default=None, metavar="BOUND")
    p.add_argument("--line-degree", type=_INT, default=None)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("sw", help="Stiefel-Whitney arithmetic")
    p.add_argument("--genus", type=_COUNT, required=True)
    p.add_argument("--classes", default=None)
    p.add_argument("--surjectivity", action="store_true")
    p.add_argument("--minimal-n", action="store_true")
    p.add_argument("--n", type=_COUNT, default=3)
    p.set_defaults(fn=_cmd_sw)

    p = sub.add_parser("census", help="component catalog")
    add_group_genus(p)
    p.add_argument("--sector", choices=SECTOR_CHOICES, default=SECTOR_CHOICES[0])
    p.add_argument("--table", action="store_true")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("param", help="parameterization of a labelled component")
    add_group_genus(p)
    p.add_argument("--d", type=_INT, required=True)
    p.set_defaults(fn=_cmd_param)

    p = sub.add_parser("dim", help="dimension bookkeeping")
    add_group_genus(p)
    p.add_argument("--consistency", action="store_true")
    p.add_argument("--sector", choices=SECTOR_CHOICES, default=SECTOR_CHOICES[0])
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("verify", help="run internal consistency checks")
    p.add_argument("--only", default="", help="comma list of check names")
    p.add_argument("--list", action="store_true", help="list check names and exit")
    p.add_argument("--table", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "verify":
            if args.list:
                from .verification import all_check_names

                _emit({"checks": all_check_names()})
                return 0
            doc, results = _cmd_verify(args)
            if args.table:
                sys.stdout.write(_verify_table(results))
            else:
                _emit(doc)
            return 0 if doc["ok"] else 1
        doc = args.fn(args)
        if args.verb == "census" and args.table:
            sys.stdout.write(_census_table(doc))
        else:
            _emit(doc)
        return 0
    except HiggsAtlasError as exc:
        payload = {k: v for k, v in exc.payload.items()}
        _emit({"status": "error", "code": exc.code, "message": str(exc), **payload})
        return 1
    except ValueError as exc:
        _emit({"status": "error", "code": "value", "message": str(exc)})
        return 1


def run() -> None:
    """The process entry: ``main`` with the cyclic collector off, then exit
    with its code once every object is frozen out of the last collection."""
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
