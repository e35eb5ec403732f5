"""Command-line interface: verbs, JSON contracts, determinism, and exit
codes."""

from __future__ import annotations

import contextlib
import copy
import gc
import hashlib
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from higgs_atlas import (
    BoundError,
    Curve,
    DimensionMismatchError,
    DoubleCover,
    F2Class,
    GroupTag,
    HiggsAtlasError,
    NDescriptor,
    ParseError,
    PreconditionError,
    PrymW0,
    SplitW0,
    TrivialW0,
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
    bundle_from_dict,
    bundle_to_dict,
    check_polystability,
    cli,
    limit_destabilized_branch,
    minimal_realizing_n,
    parameterization,
    sw_surjectivity_witnesses,
    total_sw_of_sum,
)
from helpers import brute_force_minimal_n, brute_force_sw_witnesses


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_build_emits_a_loadable_document(capsys):
    code, doc = run_json(capsys, "build", "--group", "so0:2,3", "--genus", "2",
                         "--d", "2", "--maximal")
    assert code == 0
    assert doc["schema"] == "higgs-atlas/1"
    h = bundle_from_dict(doc)
    assert h.genus == 2
    assert check_polystability(h).status == "stable"


def test_build_output_is_byte_deterministic(capsys):
    argv = ("build", "--group", "sp:6", "--genus", "2", "--classes", "1000,0110,0001")
    code_first, first = run(capsys, *argv)
    code_second, second = run(capsys, *argv)
    assert code_first == code_second == 0
    assert first == second


@pytest.mark.parametrize("flags", [
    pytest.param("--group sl:4", id="sl:4"),
    pytest.param("--group sp:4", id="sp:4"),
    pytest.param("--group sp:4 --classes 1000,0000", id="sp:4-classes"),
])
def test_build_rejects_missing_spin_choice(capsys, flags):
    code, doc = run_json(capsys, "build", "--genus", "2", *flags.split(), "--spin-name", "")
    assert code == 1
    assert doc["status"] == "error"
    assert doc["code"] == "missing-spin"


@pytest.mark.parametrize("flags, unread", [
    ("--group sl:3 --d 4 --maximal", "--d, --maximal"),
    ("--group sp:4 --pfaffian", "--pfaffian"),
    ("--group so0:2,3 --d 2 --maximal --q-on 2", "--q-on"),
    ("--group so0:3,4 --w0 trivial", "--w0"),
    ("--group sl:4 --spin-name s --classes 1000", "--classes"),
    # the W0 label is given by --d or by --w0, not both
    ("--group so0:2,3 --maximal --w0 prym:1010:1 --d 1 --mu", "--d, --mu"),
])
def test_build_refuses_flags_its_builder_does_not_read(capsys, flags, unread):
    code, doc = run_json(capsys, "build", "--genus", "2", *flags.split())
    assert code == 1
    assert doc["code"] == "precondition"
    assert doc["message"].endswith(f"builder does not read {unread}")


# -- the build grid --------------------------------------------------------------

# Each flag value of the grid: its tokens, its dest, and the value the library
# takes for it (None where the text is malformed or the flag only chooses).
GRID_FLAGS = [
    (("--d", "2"), "d", 2),
    (("--d", "0"), "d", 0),
    (("--d", "-1"), "d", -1),
    (("--d", "9"), "d", 9),
    (("--q-on", "2"), "q_on", (2,)),
    (("--q-on", ""), "q_on", ()),
    (("--q-on", "2,x"), "q_on", None),
    (("--spin-name", "t"), "spin_name", "t"),
    (("--spin-name", ""), "spin_name", ""),
    (("--classes", "1000,0000"), "classes", [F2Class.from_bits("1000"), F2Class.zero(2)]),
    (("--classes", "1000"), "classes", [F2Class.from_bits("1000")]),
    (("--classes", ""), "classes", None),
    (("--w0", "trivial"), "w0", TrivialW0()),
    (("--w0", "split:2"), "w0", SplitW0(2)),
    (("--w0", "prym:1010:1"), "w0", PrymW0(sw1=F2Class.from_bits("1010"), sw2=1)),
    (("--w0", "bad"), "w0", None),
    (("--mu",), "mu", True),
    (("--no-mu",), "mu", False),
    (("--nu",), "nu", True),
    (("--no-nu",), "nu", False),
    (("--q2",), "q2", True),
    (("--no-q2",), "q2", False),
    (("--pfaffian",), "pfaffian", True),
    (("--maximal",), "maximal", None),
    (("--deformed",), "deformed", None),
]
# every supported group, each with every single flag
GRID_GROUPS = ["sl:3", "sl:4", "sp:2", "sp:4", "so:1,2", "so0:2,2", "so0:3,3", "so0:2,3",
               "so0:3,4", "so0:3,5", "so0:2,4"]
# each builder with the tag and switch that reach it, fed every single flag and
# every pair of flags it reads
GRID_FEEDS = [
    ("sl:4", build_hitchin_sl),
    ("sp:4", build_hitchin_sp),
    ("sp:4", build_twisted_fuchsian_sp),
    ("so:1,2", build_so12),
    ("so0:3,3", build_hitchin_so_nn),
    ("so0:3,5 --deformed", build_extension_deformed_so35),
    ("so0:2,3 --maximal", build_maximal_so23),
    ("so0:2,3 --maximal", build_maximal_so2n),
    ("so0:2,4 --maximal", build_maximal_so2n),
    ("so0:3,4", build_exotic_so),
]
# the builder of each meta family, with the arguments it takes from the group tag
FAMILY_BUILDERS = {
    "hitchin-sl": (build_hitchin_sl, lambda p: (p[0],)),
    "hitchin-sp": (build_hitchin_sp, lambda p: (p[0] // 2,)),
    "twisted-fuchsian-sp": (build_twisted_fuchsian_sp, lambda p: ()),
    "so12": (build_so12, lambda p: ()),
    "hitchin-so-nn": (build_hitchin_so_nn, lambda p: (p[0],)),
    "deformed-exotic-so35": (build_extension_deformed_so35, lambda p: ()),
    "maximal-so23": (build_maximal_so23, lambda p: ()),
    "maximal-so2n": (build_maximal_so2n, lambda p: (p[1],)),
    "hitchin-so": (build_hitchin_so, lambda p: (p[0],)),
    "degree-zero-chain": (build_degree_zero_chain, lambda p: (p[0],)),
    "exotic-so": (build_exotic_so, lambda p: (p[0],)),
}
# sha256 over every grid command, its exit code and its stdout
BUILD_GRID_DIGEST = "238902d60e0767ad8dc60c0dfebf84d6f40986f7acda17f107460c80c40fbf17"


def _build_grid() -> list:
    """(base tokens, flags) for every cell of the grid, each once."""
    bases = dict.fromkeys([*GRID_GROUPS, *(base for base, _ in GRID_FEEDS)])
    cells = [(base.split(), (flag,)) for base in bases for flag in GRID_FLAGS]
    for base, builder in GRID_FEEDS:
        read = inspect.signature(builder).parameters
        cells += [
            (base.split(), pair) for pair in itertools.combinations(GRID_FLAGS, 2)
            if pair[0][1] != pair[1][1] and pair[0][1] in read and pair[1][1] in read
        ]
    return list({(*base, *(tokens for tokens, _, _ in flags)): (base, flags)
                 for base, flags in cells}.values())


def test_build_passes_on_only_the_flags_it_was_given():
    digest, families = hashlib.sha256(), set()
    for (group, *switch), flags in _build_grid():
        argv = ["build", "--group", group, "--genus", "2", *switch,
                *(token for tokens, _, _ in flags for token in tokens)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digest.update(json.dumps([argv, code, out.getvalue()]).encode())
        if code == 0:
            doc = json.loads(out.getvalue())
            builder, tag_args = FAMILY_BUILDERS[doc["meta"]["family"]]
            read = inspect.signature(builder).parameters
            given = {dest: value for _, dest, value in flags if dest in read}
            h = builder(Curve(2), *tag_args(GroupTag.parse(group).params), **given)
            assert doc == bundle_to_dict(h), argv
            families.add(doc["meta"]["family"])
    assert families == set(FAMILY_BUILDERS)
    assert digest.hexdigest() == BUILD_GRID_DIGEST


# the tags on either side of each family rule the build dispatch reads, with
# the flag sets that choose among its routes
BOUNDARY_BUILD_GROUPS = ["sl:5", "slc:3", "sp:10", "so0:1,1", "so0:1,3", "so0:2,1", "so0:2,2",
                         "so0:2,9", "so0:3,5", "so0:3,6", "so0:5,6", "so0:1,2", "psl:2"]
BOUNDARY_BUILD_FLAGS = [(), ("--d", "1"), ("--d", "0"), ("--d", "5"), ("--maximal",),
                        ("--maximal", "--w0", "trivial"), ("--deformed", "--d", "1")]
# sha256 over every boundary command, its exit code and its stdout
BOUNDARY_BUILD_DIGEST = "968b683331e69b539b42ccc9d5ca6147a98e5215ad7bfcea65d4fd309e3faa65"


def test_build_routes_at_the_family_boundaries_are_frozen():
    digest = hashlib.sha256()
    for group in BOUNDARY_BUILD_GROUPS:
        for flags in BOUNDARY_BUILD_FLAGS:
            argv = ["build", "--group", group, "--genus", "2", *flags]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            digest.update(json.dumps([argv, code, out.getvalue()]).encode())
    assert digest.hexdigest() == BOUNDARY_BUILD_DIGEST


def test_stability_round_trip(tmp_path, capsys):
    code, doc = run_json(capsys, "build", "--group", "so:1,2", "--genus", "2", "--d", "0",
                         "--mu", "--no-nu")
    assert code == 0
    path = tmp_path / "object.json"
    path.write_text(json.dumps(doc))
    code, verdict = run_json(capsys, "stability", "--input", str(path))
    assert code == 0
    assert verdict["status"] == "unstable"
    assert verdict["bound"] == 2


def test_limit_search_lists_three_branches(tmp_path, capsys):
    _, doc = run_json(capsys, "build", "--group", "so:1,2", "--genus", "2", "--d", "0")
    path = tmp_path / "object.json"
    path.write_text(json.dumps(doc))
    code, res = run_json(capsys, "limit", "--input", str(path), "--search", "1")
    assert code == 0
    assert res["count"] == 3


def test_limit_explicit_weights(tmp_path, capsys):
    _, doc = run_json(capsys, "build", "--group", "so:1,2", "--genus", "2", "--d", "0")
    path = tmp_path / "object.json"
    path.write_text(json.dumps(doc))
    code, res = run_json(capsys, "limit", "--input", str(path),
                         "--weights", "0,1,-1", "--with-stability")
    assert code == 0
    assert res["exists"] is True
    assert res["limit_stability"]["status"] == "unstable"


def test_limit_incompatible_weights_is_a_precondition_error(tmp_path, capsys):
    _, doc = run_json(capsys, "build", "--group", "so:1,2", "--genus", "2", "--d", "0")
    path = tmp_path / "object.json"
    path.write_text(json.dumps(doc))
    code, res = run_json(capsys, "limit", "--input", str(path), "--weights", "1,0,0")
    assert code == 1
    assert res["code"] == "precondition"


def test_limit_destabilized_branch_parity(tmp_path, capsys):
    _, doc = run_json(capsys, "build", "--group", "so0:3,5", "--genus", "2",
                      "--d", "2", "--deformed")
    path = tmp_path / "object.json"
    path.write_text(json.dumps(doc))
    code, res = run_json(capsys, "limit", "--input", str(path), "--line-degree", "2")
    assert code == 0 and res["exists"] is True
    code, res = run_json(capsys, "limit", "--input", str(path), "--line-degree", "3")
    assert code == 1
    assert res["code"] == "parity-violation"


@pytest.mark.parametrize("label", ["1_0", "1_1", "³"])
def test_limit_refuses_a_non_integer_label(tmp_path, capsys, label):
    _, doc = run_json(capsys, "build", "--group", "so0:3,5", "--genus", "2",
                      "--d", "1", "--deformed")
    doc["meta"]["d"] = label
    path = tmp_path / "object.json"
    path.write_text(json.dumps(doc))
    code, res = run_json(capsys, "limit", "--input", str(path), "--line-degree", "1")
    assert code == 1
    assert res["code"] == "precondition"
    assert repr(label) in res["message"]


def test_sw_of_class_list(capsys):
    code, doc = run_json(capsys, "sw", "--genus", "2", "--classes", "1000,0100")
    assert code == 0
    assert doc["sw1"] == "1100"
    assert doc["sw2"] == 1


def test_sw_surjectivity_and_minimal_table(capsys):
    code, doc = run_json(capsys, "sw", "--genus", "2", "--surjectivity", "--n", "2")
    assert code == 0
    assert doc["complete"] is False
    assert doc["missing"] == ["sw1=0000,sw2=1"]
    code, doc = run_json(capsys, "sw", "--genus", "2", "--minimal-n")
    assert code == 0
    assert doc["minimal"]["sw1=0000,sw2=1"] == 3
    assert doc["minimal"]["sw1=0001,sw2=1"] == 2


@pytest.mark.parametrize("genus", ["0", "1"])
@pytest.mark.parametrize("n_max", ["0", "2"])
def test_sw_minimal_table_refuses_a_genus_below_2(capsys, genus, n_max):
    code, doc = run_json(capsys, "sw", "--genus", genus, "--minimal-n", "--n", n_max)
    assert code == 1
    assert doc == {"code": "value", "message": "genus must be at least 2", "status": "error"}


def _surjectivity_document(report):
    return {
        "genus": report.genus,
        "n": report.n,
        "complete": report.complete,
        "witnesses": {pair.label(): [c.bits() for c in classes]
                      for pair, classes in report.witnesses},
        "missing": [pair.label() for pair in report.missing],
    }


def test_sw_documents_match_the_brute_force(capsys):
    code, doc = run_json(capsys, "sw", "--genus", "3", "--surjectivity", "--n", "3")
    assert code == 0
    assert doc == _surjectivity_document(brute_force_sw_witnesses(3, 3))
    code, doc = run_json(capsys, "sw", "--genus", "3", "--minimal-n", "--n", "3")
    assert code == 0
    minimal = {pair.label(): n for pair, n in brute_force_minimal_n(3, 3).items()}
    assert doc == {"genus": 3, "n_max": 3, "minimal": minimal}


SW_CLASS_LISTS = {
    2: ("0000", "1000", "1000,0100", "1111,1111", "1010,0101,0011",
        "0110,1001,1100,0011", "0001,0010,0100,1000", "1000,01000", "10x0", ""),
    3: ("000000", "100000,010000", "101010,010101", "110000,001100,000011",
        "111111,100001,011110,000000", "1000,010000"),
}


def _sw_call(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sw", *argv])
    return code, out.getvalue()


def sw_documents(genus):
    """Exit code and stdout of every frozen ``sw`` call at genus 2 or 3;
    at genus 4, the error class and code of each refused search."""
    g = str(genus)
    if genus == 4:
        lines = []
        for mode, ask in (("--surjectivity", sw_surjectivity_witnesses),
                          ("--minimal-n", minimal_realizing_n)):
            for n in range(1, 5):
                with pytest.raises(HiggsAtlasError) as info:
                    ask(genus, n)
                code, out = _sw_call("--genus", g, mode, "--n", str(n))
                assert code == 1 and json.loads(out)["code"] == info.value.code
                lines.append(f"{type(info.value).__name__}:{info.value.code}")
        return lines
    calls = [("--classes", classes) for classes in SW_CLASS_LISTS[genus]]
    calls += [("--surjectivity", "--n", str(n)) for n in range(1, 5)]
    calls += [("--minimal-n", "--n", str(n)) for n in range(0, 5)]
    return ["%d %s" % _sw_call("--genus", g, *call) for call in calls]


# sha256 of sw_documents(genus), one entry per line
SW_DIGESTS = {
    2: "a54059f467975746c5dcb8c8f5298627430e61440ab37b858ed7279845368abb",
    3: "e1f725f551ec8c7ab9ce5cfa428f61c4f81ed3803ac8bc3ec2e4652c46087923",
    4: "e274aed5c3e47d92a0b5fc27f672c834e5d46bf77b1094f0332a98e3f1beb282",
}


@pytest.mark.parametrize("genus", sorted(SW_DIGESTS))
def test_sw_documents_are_frozen(genus):
    text = "\n".join(sw_documents(genus))
    assert hashlib.sha256(text.encode()).hexdigest() == SW_DIGESTS[genus]


def test_census_verb(capsys):
    code, doc = run_json(capsys, "census", "--group", "sl:3", "--genus", "5")
    assert code == 0
    assert doc["total"] == 3
    code, out = run(capsys, "census", "--group", "so0:2,3", "--genus", "2",
                    "--sector", "maximal", "--table")
    assert code == 0
    assert "d=4" in out and "35" in out


def test_census_determinism(capsys):
    _, first = run(capsys, "census", "--group", "sp:6", "--genus", "2",
                   "--sector", "maximal")
    _, second = run(capsys, "census", "--group", "sp:6", "--genus", "2",
                    "--sector", "maximal")
    assert first == second


def test_param_verb_includes_reading(capsys):
    code, doc = run_json(capsys, "param", "--group", "so0:2,3", "--genus", "2",
                         "--d", "4")
    assert code == 0
    assert doc["parameterization"]["fiber_rank"] == 7
    assert doc["parameterization"]["base"] == "Sym^0"
    assert doc["parameterization"]["total"] == 10
    assert doc["extra_reading"]["readings_agree"] is True


def test_param_degree_zero_reports_retraction(capsys):
    code, doc = run_json(capsys, "param", "--group", "so:1,2", "--genus", "2",
                         "--d", "0")
    assert code == 1
    assert doc["code"] == "bound"
    assert doc["retraction"] == "Pic^0(X)/Z_2"


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_param_answers_psl2_as_so012(capsys, genus):
    # PSL(2,R) is SO0(1,2): the same labels, twist rank and answers, with
    # only the tag's name changed, refusals included
    for d in range(-1, 4 * genus - 2):
        argv = ["--genus", str(genus), "--d", str(d)]
        psl = run(capsys, "param", "--group", "psl:2", *argv)
        so = run(capsys, "param", "--group", "so0:1,2", *argv)
        assert (psl[0], psl[1].replace("psl:2", "so0:1,2")) == so, d
        if 0 < d <= 2 * genus - 2:
            assert psl[0] == 0
            doc = json.loads(psl[1])
            assert doc["parameterization"]["fiber_rank"] == genus - 1 + d
            assert doc["parameterization"]["base"] == f"Sym^{2 * genus - 2 - d}"


def test_dim_verb(capsys):
    code, doc = run_json(capsys, "dim", "--group", "so0:2,3", "--genus", "2")
    assert code == 0
    assert doc["real_dimension"] == 20
    assert doc["half_dimension"] == 10
    code, doc = run_json(capsys, "dim", "--group", "so0:2,3", "--genus", "2",
                         "--consistency", "--sector", "maximal")
    assert code == 0
    assert doc["consistency"]["consistent"] is True
    assert doc["consistency"]["mismatches"] == []
    assert doc["consistency"]["checked"] == 35


def test_verify_runs_all_checks(capsys):
    code, doc = run_json(capsys, "verify")
    assert code == 0
    assert doc["ok"] is True
    assert doc["failed"] == 0


def test_verify_only_subset(capsys):
    code, doc = run_json(capsys, "verify", "--only", "riemann-roch-chi")
    assert code == 0
    assert doc["passed"] == 1


def test_verify_unknown_check(capsys):
    code, doc = run_json(capsys, "verify", "--only", "no-such-check")
    assert code == 1
    assert doc["status"] == "error"


def test_budget_env_is_respected(tmp_path, capsys, monkeypatch):
    _, doc = run_json(capsys, "build", "--group", "so0:2,3", "--genus", "2",
                      "--d", "1", "--maximal")
    path = tmp_path / "object.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("HIGGS_ATLAS_BUDGET", "8")
    code, res = run_json(capsys, "stability", "--input", str(path))
    assert code == 1
    assert res["code"] == "budget"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--group", "sl:3"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-verb"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_malformed_input_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run_json(capsys, "stability", "--input", str(bad))
    assert code == 1
    assert doc["code"] == "parse"


def test_unreadable_input_is_a_parse_error(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        code, doc = run_json(capsys, "stability", "--input", str(path))
        assert code == 1
        assert doc["code"] == "parse"
        assert str(path) in doc["message"]


def test_input_that_is_not_a_json_object_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1,2]")
    code, doc = run_json(capsys, "stability", "--input", str(path))
    assert code == 1
    assert doc["code"] == "parse"


def test_an_identically_zero_entry_is_a_parse_error(tmp_path, capsys):
    # absent entries are the zero sections; no entry may name one
    _, doc = run_json(capsys, "build", "--group", "so:1,2", "--genus", "2", "--d", "0")
    doc["higgs"][0]["vanishing"] = "identically-zero"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, res = run_json(capsys, "stability", "--input", str(path))
    assert code == 1
    assert (res["status"], res["code"]) == ("error", "parse")
    assert res["message"].endswith("bad vanishing tag 'identically-zero'")


def _bogus_kind(doc):
    doc["symbols"]["M"]["kind"] = "bogus"


def _wrong_recorded_degree(doc):
    row = next(r for r in doc["summands"] if r["bundle"] == "K")
    assert row["degree"] == 2
    row["degree"] = 999


def _repeated_higgs_entry(doc):
    doc["higgs"].append(dict(doc["higgs"][0]))


def _reserved_name_as_power(doc):
    next(r for r in doc["summands"] if r["bundle"] == "O")["bundle"] = "O^2"


def _reserved_name_as_divisor(doc):
    next(r for r in doc["summands"] if r["bundle"] == "O")["bundle"] = "O(K)"


def _numeric_group(doc):
    doc["group"] = 7


def _numeric_higgs_name(doc):
    doc["higgs"][0]["name"] = 7


def _numeric_extension_name(doc):
    doc["dolbeault"].append({"to": 0, "from": 1, "name": 7})


def _list_meta_value(doc):
    doc["meta"]["family"] = ["maximal-so23"]


def _object_meta_value(doc):
    doc["meta"]["d"] = {"d": 2}


@pytest.mark.parametrize(
    "defect, message",
    [
        (_bogus_kind, "symbol 'M' has unknown kind 'bogus'"),
        (_wrong_recorded_degree, "summand 0 records degree 999, but its bundle has degree 2"),
        (_repeated_higgs_entry, "higgs entry (0, 2) is listed twice"),
        (_reserved_name_as_power, "bad factor 'O^2': O is a reserved name"),
        (_reserved_name_as_divisor, "bad factor 'O(K)': K is a reserved name"),
        (_numeric_group, "group must be a string, got 7"),
        (_numeric_higgs_name, "higgs entry name must be a string, got 7"),
        (_numeric_extension_name, "extension term name must be a string, got 7"),
        (_list_meta_value,
         "meta value 'family' must be a string or an integer, got ['maximal-so23']"),
        (_object_meta_value, "meta value 'd' must be a string or an integer, got {'d': 2}"),
    ],
)
def test_defective_document_is_a_parse_error(defect, message, monkeypatch, capsys):
    doc = bundle_to_dict(build_maximal_so23(Curve(2), 2))
    defect(doc)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, res = run_json(capsys, "stability", "--input", "-")
    assert code == 1
    assert (res["status"], res["code"], res["message"]) == ("error", "parse", message)


@pytest.mark.parametrize("value", ["mu", "", "mu,nu,xi", None])
def test_malformed_switch_meta_is_a_parse_error(value, monkeypatch, capsys):
    doc = bundle_to_dict(build_so12(Curve(2), 1))
    if value is None:
        del doc["meta"]["switch_sections"]
    else:
        doc["meta"]["switch_sections"] = value
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, res = run_json(capsys, "stability", "--input", "-")
    assert code == 1
    assert (res["status"], res["code"]) == ("error", "parse")
    assert res["message"] == (
        "a switch_variable needs switch_sections of two comma-separated names, "
        f"got {value!r}"
    )


FUZZ_BASES = [
    bundle_to_dict(h) for h in (
        build_maximal_so23(Curve(2), 2),
        build_maximal_so2n(Curve(2), 3, PrymW0(sw1=F2Class.from_bits("1010"), sw2=1)),
        build_extension_deformed_so35(Curve(2), 1),
        build_twisted_fuchsian_sp(Curve(2), [F2Class.from_bits("0110"), F2Class.zero(2)]),
    )
]
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2), st.sampled_from([-1, 99, 10**6, -(10**9)]),
)


def _paths(value, path=()):
    """The path of every container and leaf below ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def fuzzed_documents(draw):
    """A builder document with up to three edits: a deleted key or item, a
    value replaced by junk, an unknown symbol kind, a shifted recorded
    degree, a repeated Higgs entry or extension term."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("delete", "replace", "kind", "degree", "repeat")))
        paths = list(_paths(doc))
        if edit in ("delete", "replace") and paths:
            path = draw(st.sampled_from(paths))
            if edit == "delete":
                del _parent(doc, path)[path[-1]]
            else:
                _parent(doc, path)[path[-1]] = draw(JUNK)
        elif edit == "kind" and isinstance(doc.get("symbols"), dict) and doc["symbols"]:
            info = doc["symbols"][draw(st.sampled_from(sorted(doc["symbols"])))]
            if isinstance(info, dict):
                info["kind"] = draw(st.sampled_from(("bogus", "divisor", "spin", "torsion", "")))
        elif edit == "degree" and isinstance(doc.get("summands"), list) and doc["summands"]:
            row = draw(st.sampled_from(doc["summands"]))
            if isinstance(row, dict) and type(row.get("degree")) is int:
                row["degree"] += draw(st.sampled_from((-1, 1, 997)))
        elif edit == "repeat":
            lists = [doc.get(key) for key in ("higgs", "dolbeault")]
            lists = [rows for rows in lists if isinstance(rows, list) and rows]
            if lists:
                rows = draw(st.sampled_from(lists))
                rows.append(copy.deepcopy(draw(st.sampled_from(rows))))
    return doc


def _verb_arguments():
    weights = st.lists(st.integers(-3, 3), min_size=2, max_size=9).map(
        lambda ws: ",".join(map(str, ws)))
    return st.one_of(
        st.just(["stability"]),
        st.just(["stability", "--assume-summand-generated"]),
        st.sampled_from(["-1", "0", "1", "x"]).map(lambda bound: ["limit", "--search", bound]),
        st.tuples(
            st.one_of(weights, st.sampled_from(["", "1,x", "0.5,1"])),
            st.sampled_from(["-1", "0", "1", "2", "z"]),
            st.sampled_from(["to-zero", "to-infinity", "sideways"]),
            st.booleans(),
        ).map(lambda a: ["limit", "--weights", a[0], "--scale", a[1], "--direction", a[2]]
              + (["--with-stability"] if a[3] else [])),
    )


@settings(max_examples=150, deadline=None)
@given(fuzzed_documents(), _verb_arguments())
def test_cli_answers_every_mutated_document_with_json_or_an_exit_code(doc, argv):
    stdin, stdout = io.StringIO(json.dumps(doc)), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        saved, sys.stdin = sys.stdin, stdin
        try:
            code = cli.main([argv[0], "--input", "-", *argv[1:]])
        except SystemExit as exc:
            code = exc.code
            assert code == 2
        finally:
            sys.stdin = saved
    if code == 2:
        return
    out = json.loads(stdout.getvalue())
    assert isinstance(out, dict)
    if code == 1:
        assert out["status"] == "error" and isinstance(out["code"], str), out
    else:
        assert code == 0 and out.get("status") != "error", (code, out)


def test_input_file_is_closed(tmp_path, capsys):
    path = _object_file(tmp_path, capsys, *SO23)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _ = run(capsys, "stability", "--input", str(path))
        gc.collect()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _object_file(tmp_path, capsys, *build_args):
    _, doc = run_json(capsys, "build", *build_args)
    path = tmp_path / "object.json"
    path.write_text(json.dumps(doc))
    return path


SO23 = ("--group", "so0:2,3", "--genus", "2", "--d", "1", "--maximal")
SO25 = ("--group", "so0:2,5", "--genus", "2", "--maximal")
SO35_DEFORMED = ("--group", "so0:3,5", "--genus", "2", "--d", "2", "--deformed")


# An integer written as text is ASCII digits, with one leading "-" only where
# negatives make sense; spaces, "+", "_" and non-ASCII digits are refused.
# A group tag, integer list or --w0 descriptor is a parse error (exit 1), a
# flag value a usage error (exit 2).
@pytest.mark.parametrize("argv, expected_code, error_code", [
    (["build", "--group", "sl: 3", "--genus", "2"], 1, "parse"),
    (["build", "--group", "sl:1_0", "--genus", "2"], 1, "parse"),
    (["build", "--group", "sl:+3", "--genus", "2"], 1, "parse"),
    (["build", "--group", "sl:٣", "--genus", "2"], 1, "parse"),
    (["build", "--group", "sl:-3", "--genus", "2"], 1, "parse"),
    (["census", "--group", "so: 1,2", "--genus", "2"], 1, "parse"),
    (["build", "--group", "sl:3", "--genus", "2", "--q-on", "2,+3"], 1, "parse"),
    (["build", "--group", "sl:3", "--genus", "2", "--q-on", "2,3_0"], 1, "parse"),
    (["build", "--group", "sl:3", "--genus", "2", "--q-on", "-2"], 1, "parse"),
    (["build", *SO25, "--w0", "split:+1"], 1, "parse"),
    (["build", *SO25, "--w0", "split: 1"], 1, "parse"),
    (["build", *SO25, "--w0", "prym:1000:+1"], 1, "parse"),
    (["limit", "--input", "DOC", "--weights", "0,0,+1,0,0"], 1, "parse"),
    (["build", *SO23[:4], "--d", "1_0", "--maximal"], 2, None),
    (["build", *SO23[:4], "--d", "+1", "--maximal"], 2, None),
    (["build", *SO23[:4], "--d", " 1", "--maximal"], 2, None),
    (["sw", "--genus", "2", "--minimal-n", "--n", "0_3"], 2, None),
    (["sw", "--genus", "2", "--minimal-n", "--n", "-1"], 2, None),
    (["sw", "--genus", "２", "--minimal-n"], 2, None),
    (["census", "--group", "sl:3", "--genus", "two"], 2, None),
    (["param", "--group", "so0:2,3", "--genus", "2", "--d", "٣"], 2, None),
    (["limit", "--input", "DOC", "--search", "-1"], 2, None),
    (["limit", "--input", "DOC", "--weights", "0,0,0,0,0", "--scale", "+1"], 2, None),
    (["build", "--group", "sl:3", "--genus", "2", "--q-on", " 2 , 3 "], 0, None),
    (["build", *SO23[:4], "--d", "-1", "--maximal"], 0, None),
    (["build", *SO25, "--w0", "split:-1"], 0, None),
    (["limit", "--input", "DOC", "--weights", " -1 , 1,0,0,0", "--scale=-1"], 0, None),
    (["limit", "--input", "DOC", "--weights=-1,1,0,0,0"], 0, None),
])
def test_one_integer_rule_at_both_boundaries(argv, expected_code, error_code, tmp_path, capsys):
    path = _object_file(tmp_path, capsys, *SO23)
    argv = [str(path) if a == "DOC" else a for a in argv]
    if expected_code == 2:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        return
    code, doc = run_json(capsys, *argv)
    assert code == expected_code, doc
    assert doc.get("code") == error_code, doc


def test_a_document_group_tag_follows_the_integer_rule(tmp_path, capsys):
    _, doc = run_json(capsys, "build", "--group", "so:1,2", "--genus", "2", "--d", "1")
    doc["group"] = "so: 1,2"
    path = tmp_path / "object.json"
    path.write_text(json.dumps(doc))
    code, res = run_json(capsys, "stability", "--input", str(path))
    assert code == 1
    assert res["code"] == "parse"
    assert "so: 1,2" in res["message"]




@pytest.mark.parametrize("value", ["-5", "0", "abc", "2.5", " 8"])
def test_malformed_budget_is_a_parse_error(value, tmp_path, capsys, monkeypatch):
    path = _object_file(tmp_path, capsys, *SO23)
    monkeypatch.setenv("HIGGS_ATLAS_BUDGET", value)
    for argv in (("stability", "--input", str(path)),
                 ("limit", "--input", str(path), "--search", "1")):
        code, res = run_json(capsys, *argv)
        assert code == 1
        assert res["status"] == "error"
        assert res["code"] == "parse"
        assert "HIGGS_ATLAS_BUDGET" in res["message"]
        assert repr(value) in res["message"]


def test_empty_budget_means_the_default(tmp_path, capsys, monkeypatch):
    path = _object_file(tmp_path, capsys, *SO23)
    monkeypatch.setenv("HIGGS_ATLAS_BUDGET", "")
    code, res = run_json(capsys, "stability", "--input", str(path))
    assert code == 0
    assert res["status"] == "stable"


def test_budget_errors_carry_their_size(tmp_path, capsys, monkeypatch):
    path = _object_file(tmp_path, capsys, *SO23)
    monkeypatch.setenv("HIGGS_ATLAS_BUDGET", "8")
    code, res = run_json(capsys, "stability", "--input", str(path))
    assert code == 1
    assert (res["code"], res["n"], res["budget"], res["size"]) == ("budget", 5, 8, 32)
    monkeypatch.setenv("HIGGS_ATLAS_BUDGET", "2")
    code, res = run_json(capsys, "limit", "--input", str(path), "--search", "1")
    assert code == 1
    assert (res["code"], res["size"], res["budget"]) == ("budget", 9, 2)
    monkeypatch.delenv("HIGGS_ATLAS_BUDGET")
    path = _object_file(tmp_path, capsys, "--group", "sl:11", "--genus", "2")
    code, res = run_json(capsys, "limit", "--input", str(path), "--search", "1")
    assert code == 1
    assert (res["code"], res["n"], res["cap"]) == ("budget", 11, 10)


def test_parser_choices_match_the_module_constants():
    from higgs_atlas import catalog, deformation

    assert cli.SECTOR_CHOICES == (catalog.SECTOR_ALL, catalog.SECTOR_MAXIMAL)
    assert cli.DIRECTION_CHOICES == (
        deformation.DIRECTION_TO_ZERO,
        deformation.DIRECTION_TO_INFINITY,
    )
    parser = cli.build_parser()
    assert parser.parse_args(["limit", "--input", "-"]).direction == deformation.DIRECTION_TO_ZERO
    for verb in ("census", "dim"):
        args = parser.parse_args([verb, "--group", "sl:3", "--genus", "2"])
        assert args.sector == catalog.SECTOR_ALL


# Runs one CLI invocation in a fresh interpreter and prints its exit code,
# the package modules it loaded and whether `dataclasses` was imported.
_PROBE = """
import contextlib, io, json, sys
from higgs_atlas import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("higgs_atlas."))
print(json.dumps([code, loaded, "dataclasses" in sys.modules]))
"""

SRC = Path(__file__).resolve().parent.parent / "src"


def _src_env() -> dict:
    """This environment with ``src`` first on the path and the budget unset."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("HIGGS_ATLAS_BUDGET", None)
    return env


CLASSES_SET = {"errors", "f2classes"}
SW_SET = CLASSES_SET | {"f2cohomology"}
CATALOG_SET = CLASSES_SET | {"groups", "curve", "linebundle", "catalog"}
MODEL_SET = CLASSES_SET | {"groups", "curve", "linebundle", "higgsmodel"}
BUILD_SET = MODEL_SET | {"builders"}
STABILITY_SET = MODEL_SET | {"stability"}
LIMIT_SET = STABILITY_SET | {"deformation"}
VERIFY_SET = {"errors", "verification"}


@pytest.mark.parametrize(
    "argv, expected_code, expected",
    [
        (["sw", "--genus", "2", "--classes", "1000,0100"], 0, CLASSES_SET),
        (["sw", "--genus", "2", "--minimal-n"], 0, SW_SET),
        (["build", *SO23], 0, BUILD_SET),
        (["build", "--group", "so0:2,5", "--genus", "2", "--maximal", "--w0", "trivial"],
         0, BUILD_SET),
        (["stability", "--input", "DOC"], 0, STABILITY_SET),
        (["limit", "--input", "DOC", "--search", "1"], 0, LIMIT_SET),
        (["census", "--group", "sl:3", "--genus", "5"], 0, CATALOG_SET),
        (["param", "--group", "so0:2,3", "--genus", "2", "--d", "4"], 0, CATALOG_SET),
        (["dim", "--group", "so0:2,3", "--genus", "2", "--consistency"], 0, CATALOG_SET),
        (["verify", "--only", "riemann-roch-chi"], 0, VERIFY_SET | {"curve"}),
        (["census", "--group", "sl:3"], 2, {"errors"}),
        (["limit", "--input", "DOC", "--weights", "0,0,0,0,0"], 0, LIMIT_SET),
        # the fixture reads the deformed object's frame from the builders
        (["limit", "--input", "DEFORMED", "--line-degree", "2"], 0, LIMIT_SET | {"builders"}),
        (["sw", "--genus", "2", "--surjectivity", "--n", "2"], 0, SW_SET),
        (["verify", "--list"], 0, VERIFY_SET),
        (["build", "--group", "sp:4", "--genus", "2", "--classes", "0110,0000"], 0, BUILD_SET),
        # a malformed group tag is refused before the builders are loaded
        (["build", "--group", "xx:3", "--genus", "2"], 1, {"errors", "groups"}),
        (["verify", "--only", "census-frozen-totals"], 0, VERIFY_SET | CATALOG_SET),
        (["verify", "--only", "riemann-roch-chi,census-frozen-totals"], 0,
         VERIFY_SET | CATALOG_SET),
        (["verify", "--only", "stability-gauge-invariance"], 0,
         VERIFY_SET | STABILITY_SET | {"builders", "canonical"}),
        (["build", "--group", "so0:2,3", "--genus", "2", "--maximal", "--w0", "prym:1010:1"],
         0, BUILD_SET),
    ],
)
def test_each_verb_loads_only_its_modules(argv, expected_code, expected, tmp_path, capsys):
    documents = {"DOC": SO23, "DEFORMED": SO35_DEFORMED}
    argv = [str(_object_file(tmp_path, capsys, *documents[a])) if a in documents else a
            for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=_src_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    code, loaded, dataclasses = json.loads(proc.stdout)
    assert code == expected_code
    assert set(loaded) == expected | {"cli"}
    # only GradedHiggsBundle is a dataclass; every other value type is a plain
    # slots class, so a verb that never loads the object model never imports
    # `dataclasses`
    assert dataclasses == ("higgsmodel" in expected)


def test_main_leaves_the_callers_collector_as_it_found_it(capsys):
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    assert run(capsys, "build", *SO23)[0] == 0
    assert gc.isenabled() and gc.get_freeze_count() == frozen
    gc.disable()
    try:
        assert run(capsys, "census", "--group", "sl:3", "--genus", "2")[0] == 0
        assert not gc.isenabled() and gc.get_freeze_count() == frozen
    finally:
        gc.enable()


# Replaces cli.main, calls the process entry and prints whether the
# collector was on inside main, the exit code, and whether any object was
# frozen on the way out.
_RUN_PROBE = """
import gc, json, sys
from higgs_atlas import cli
seen = []
def fake_main(argv=None):
    seen.append(gc.isenabled())
    return int(sys.argv[1])
cli.main = fake_main
try:
    cli.run()
except SystemExit as exc:
    print(json.dumps([seen, exc.code, gc.get_freeze_count() > 0]))
"""


@pytest.mark.parametrize("code", [0, 1])
def test_run_keeps_the_collector_off_and_returns_mains_code(code):
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PROBE, str(code)],
        env=_src_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == [[False], code, True]


def test_the_process_entry_prints_what_main_prints(capsys):
    argv = ["build", "--group", "so0:2,3", "--genus", "2", "--maximal", "--w0", "prym:1010:1"]
    code, expected = run(capsys, *argv)
    proc = subprocess.run(
        [sys.executable, "-m", "higgs_atlas.cli", *argv],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected, "")
    usage = subprocess.run(
        [sys.executable, "-m", "higgs_atlas.cli", "census", "--group", "sl:3", "--genus", "two"],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert (usage.returncode, usage.stdout) == (2, "")
    assert "invalid int value" in usage.stderr


def test_the_console_script_is_the_process_entry():
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'higgs-atlas = "higgs_atlas.cli:run"' in text


PRYM = ("--group", "so0:2,3", "--genus", "2", "--maximal", "--w0", "prym:1010:1")


def test_a_prym_w0_object_builds_validates_and_gets_a_verdict(tmp_path, capsys):
    code, doc = run_json(capsys, "build", *PRYM)
    assert code == 0
    want = build_maximal_so2n(Curve(2), 3, PrymW0(sw1=F2Class.from_bits("1010"), sw2=1))
    assert bundle_from_dict(doc) == want
    assert doc["meta"]["w0"] == "prym"
    path = tmp_path / "prym.json"
    path.write_text(json.dumps(doc))
    code, verdict = run_json(capsys, "stability", "--input", str(path))
    assert code == 0
    assert verdict["status"] == check_polystability(want).status
    assert verdict["group"] == "so0:2,3"


def test_a_prym_w0_sw2_that_is_not_a_bit_is_refused(capsys):
    code, doc = run_json(capsys, "build", "--group", "so0:2,3", "--genus", "2", "--maximal",
                         "--w0", "prym:1010:2")
    assert (code, doc["code"], doc["message"]) == (1, "value", "sw2 must be a bit")
    with pytest.raises(ValueError, match="^sw2 must be a bit$"):
        build_maximal_so2n(Curve(2), 3, PrymW0(sw1=F2Class.from_bits("1010"), sw2=2))


# -- one refusal per mistake ---------------------------------------------------

# each mistake: the one error class and the one message shape it gets
MISTAKES = {
    "genus": (DimensionMismatchError,
              r"([\w ]+: )?the class [01]+ has genus \d+, the curve genus \d+"),
    "label": (BoundError, r"label -?\d+ of \S+ is outside -?\d+\.\.\d+ at genus \d+"),
    "label-degree": (PreconditionError, r"the component label d = -?\d+ is not deg M = -?\d+"),
    "empty": (ParseError, r"no [\w -]+ given"),
    "chain-rank": (BoundError, r"need n >= 2"),
}
_ERRORS = {cls.code: cls for cls in HiggsAtlasError.__subclasses__()}


def _edited(doc: dict, edit) -> dict:
    """A copy of the valid document ``doc`` after ``edit``."""
    doc = copy.deepcopy(doc)
    bundle_from_dict(doc)
    edit(doc)
    return doc


def _cli(*argv, stdin=None):
    """A CLI call, with the document ``stdin()`` on stdin when given."""
    def ask(monkeypatch, capsys):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin())))
        code, res = run_json(capsys, *argv)
        assert (code, res["status"]) == (1, "error")
        return _ERRORS[res["code"]], res["code"], res["message"]
    return ask


def _lib(call):
    def ask(monkeypatch, capsys):
        with pytest.raises(HiggsAtlasError) as exc:
            call()
        return type(exc.value), exc.value.code, str(exc.value)
    return ask


_GENUS3_TWISTED_FUCHSIAN = bundle_to_dict(
    build_twisted_fuchsian_sp(Curve(3), [F2Class.from_bits("011000"), F2Class.zero(3)])
)
_A1 = F2Class.from_bits("1010")


def _edit_symbol_class(doc):
    doc["symbols"]["I1"]["class"] = "0110"


def _edit_block_class(doc):
    block = next(row for row in doc["summands"] if "sw1" in row)
    block["sw1"] = "101000"


def _edit_label(d):
    def edit(doc):
        doc["meta"]["d"] = d
    return edit


REFUSAL_CELLS = [
    # a class of another genus than the curve's
    ("genus", "cli-build-classes",
     _cli("build", "--group", "sp:4", "--genus", "3", "--classes", "1010,0000"),
     "summand 0: the class 1010 has genus 2, the curve genus 3"),
    ("genus", "cli-build-w0-prym",
     _cli("build", "--group", "so0:2,3", "--genus", "3", "--maximal", "--w0", "prym:1010:1"),
     "symbol I: the class 1010 has genus 2, the curve genus 3"),
    ("genus", "cli-sw-classes", _cli("sw", "--genus", "3", "--classes", "101000,1010"),
     "summand 1: the class 1010 has genus 2, the curve genus 3"),
    ("genus", "document-symbol-class",
     _cli("stability", "--input", "-",
          stdin=lambda: _edited(_GENUS3_TWISTED_FUCHSIAN, _edit_symbol_class)),
     "symbol I1: the class 0110 has genus 2, the curve genus 3"),
    ("genus", "document-block-sw1",
     _cli("stability", "--input", "-", stdin=lambda: _edited(FUZZ_BASES[1], _edit_block_class)),
     "sw1 of summand 3: the class 101000 has genus 3, the curve genus 2"),
    ("genus", "library-bundle-from-dict",
     _lib(lambda: bundle_from_dict(_edited(_GENUS3_TWISTED_FUCHSIAN, _edit_symbol_class))),
     "symbol I1: the class 0110 has genus 2, the curve genus 3"),
    ("genus", "library-maximal-so2n",
     _lib(lambda: build_maximal_so2n(Curve(3), 3, PrymW0(sw1=_A1, sw2=1))),
     "symbol I: the class 1010 has genus 2, the curve genus 3"),
    ("genus", "library-twisted-fuchsian",
     _lib(lambda: build_twisted_fuchsian_sp(Curve(3), [_A1, F2Class.zero(3)])),
     "summand 0: the class 1010 has genus 2, the curve genus 3"),
    ("genus", "library-twisted-fuchsian-zero-class",
     _lib(lambda: build_twisted_fuchsian_sp(Curve(3), [F2Class.zero(3), F2Class.zero(2)])),
     "summand 1: the class 0000 has genus 2, the curve genus 3"),
    ("genus", "library-total-sw-of-sum", _lib(lambda: total_sw_of_sum([_A1], 3)),
     "summand 0: the class 1010 has genus 2, the curve genus 3"),
    ("genus", "library-double-cover", _lib(lambda: DoubleCover(Curve(3), _A1)),
     "the class 1010 has genus 2, the curve genus 3"),
    # an integer label outside its family's range
    ("label", "cli-build-so12", _cli("build", "--group", "so:1,2", "--genus", "2", "--d", "3"),
     "label 3 of so:1,2 is outside -2..2 at genus 2"),
    ("label", "cli-build-exotic", _cli("build", "--group", "so0:2,3", "--genus", "2", "--d", "-1"),
     "label -1 of so0:2,3 is outside 1..4 at genus 2"),
    ("label", "cli-build-maximal-so23",
     _cli("build", "--group", "so0:2,3", "--genus", "2", "--maximal", "--d", "5"),
     "label 5 of so0:2,3 is outside -4..4 at genus 2"),
    ("label", "cli-build-w0-split",
     _cli("build", "--group", "so0:2,4", "--genus", "2", "--maximal", "--w0", "split:-5"),
     "label -5 of so0:2,3 is outside -4..4 at genus 2"),
    ("label", "cli-build-deformed",
     _cli("build", "--group", "so0:3,5", "--genus", "2", "--deformed", "--d", "7"),
     "label 7 of so0:3,4 is outside 1..6 at genus 2"),
    ("label", "cli-param", _cli("param", "--group", "so0:3,4", "--genus", "3", "--d", "13"),
     "label 13 of so0:3,4 is outside 1..12 at genus 3"),
    ("label", "document-meta-d",
     _cli("limit", "--input", "-", "--line-degree", "1",
          stdin=lambda: _edited(FUZZ_BASES[2], _edit_label(7))),
     "label 7 of so0:3,4 is outside 1..6 at genus 2"),
    ("label", "library-so12", _lib(lambda: build_so12(Curve(2), -3)),
     "label -3 of so:1,2 is outside -2..2 at genus 2"),
    ("label", "library-exotic", _lib(lambda: build_exotic_so(Curve(2), 3, 7)),
     "label 7 of so0:3,4 is outside 1..6 at genus 2"),
    ("label", "library-maximal-so2n",
     _lib(lambda: build_maximal_so2n(Curve(3), 5, SplitW0(9))),
     "label 9 of so0:2,3 is outside -8..8 at genus 3"),
    ("label", "library-deformed", _lib(lambda: build_extension_deformed_so35(Curve(2), 0)),
     "label 0 of so0:3,4 is outside 1..6 at genus 2"),
    ("label", "library-parameterization",
     _lib(lambda: parameterization(GroupTag("so", (1, 2)), 3, 2)),
     "label 3 of so:1,2 is outside 1..2 at genus 2"),
    # a document's label in range that is not the degree its object declares
    ("label-degree", "document-meta-d",
     _cli("limit", "--input", "-", "--line-degree", "1",
          stdin=lambda: _edited(FUZZ_BASES[2], _edit_label(3))),
     "the component label d = 3 is not deg M = 1"),
    ("label-degree", "library-destabilized-branch",
     _lib(lambda: limit_destabilized_branch(
         bundle_from_dict(_edited(FUZZ_BASES[2], _edit_label(3))), NDescriptor(1))),
     "the component label d = 3 is not deg M = 1"),
    # an empty class list or W0 descriptor, on every verb and builder that reads one
    ("empty", "cli-build-classes",
     _cli("build", "--group", "sp:4", "--genus", "2", "--classes", ""), "no classes given"),
    ("empty", "cli-build-classes-commas",
     _cli("build", "--group", "sp:4", "--genus", "2", "--classes", " , "), "no classes given"),
    ("empty", "cli-sw-classes", _cli("sw", "--genus", "2", "--classes", ""), "no classes given"),
    ("empty", "cli-build-w0-so23",
     _cli("build", "--group", "so0:2,3", "--genus", "2", "--maximal", "--w0", ""),
     "no rank-2 complement descriptor given"),
    ("empty", "cli-build-w0-so2n",
     _cli("build", "--group", "so0:2,4", "--genus", "2", "--maximal", "--w0", ""),
     "no rank-2 complement descriptor given"),
    # a twisted chain in signature (1, 2), refused for its rank before its label
    ("chain-rank", "cli-build-exotic",
     _cli("build", "--group", "so0:1,2", "--genus", "2", "--d", "1"), "need n >= 2"),
    ("chain-rank", "cli-build-exotic-label-outside",
     _cli("build", "--group", "so0:1,2", "--genus", "2", "--d", "5"), "need n >= 2"),
    ("chain-rank", "cli-build-degree-zero",
     _cli("build", "--group", "so0:1,2", "--genus", "2", "--d", "0"), "need n >= 2"),
    ("chain-rank", "library-exotic", _lib(lambda: build_exotic_so(Curve(2), 1, 5)),
     "need n >= 2"),
]


@pytest.mark.parametrize("mistake, ask, message", [
    pytest.param(mistake, ask, message, id=f"{mistake}-{path}")
    for mistake, path, ask, message in REFUSAL_CELLS
])
def test_one_refusal_per_mistake(mistake, ask, message, monkeypatch, capsys):
    error, shape = MISTAKES[mistake]
    assert ask(monkeypatch, capsys) == (error, error.code, message)
    assert re.fullmatch(shape, message)
