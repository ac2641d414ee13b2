"""Command line driver: exit codes, reports, interchange flows."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finstack
from finstack import InternalError, elaborate, load_interchange, parse, serialize_env
from finstack import cli
from finstack.cli import main

from oracles import in_emitted_form, load_outcome

DATA = Path(__file__).parent / "data"

PATCHES = str(DATA / "patches.site")
SPAN = str(DATA / "span.site")
TWISTED = str(DATA / "twisted.site")
FACTOR = str(DATA / "factor.site")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# happy paths, one per command


def test_validate_ok(capsys):
    for f in (PATCHES, SPAN, TWISTED, FACTOR):
        code, out, _ = run(capsys, "validate", f)
        assert code == 0, (f, out)
        assert out.rstrip().endswith("ok")


def test_validate_goldens_ok(capsys):
    for name in ("patches", "span", "twisted", "factor"):
        code, out, _ = run(capsys, "validate", str(DATA / f"{name}.golden.json"))
        assert code == 0, (name, out)


def test_saturate_ok(capsys):
    code, rep, _ = run_json(capsys, "saturate", SPAN)
    assert code == 0
    covers = dict(rep["results"]["covers"])
    assert len(covers["X"]) == 2
    assert ["jp", "jq"] in covers["X"]


def test_desc_ok(capsys):
    code, rep, _ = run_json(capsys, "desc", PATCHES, "--at", "X")
    assert code == 0
    assert rep["results"]["at"] == "X"
    assert rep["results"]["objects"] >= 1


def test_desc_family_index(capsys):
    code, rep, _ = run_json(capsys, "desc", PATCHES, "--at", "X",
                            "--family", "0")
    assert code == 0
    assert rep["results"]["sieve"]


def test_check_prestack_ok(capsys):
    code, rep, _ = run_json(capsys, "check", PATCHES, "--prestack")
    assert code == 0
    assert rep["results"]["holds"] is True


def test_check_stack_ok_on_singleton_sheaf(capsys):
    code, rep, _ = run_json(capsys, "check", FACTOR, "--stack",
                            "--indexed", "T")
    assert code == 0
    assert rep["ok"] is True


def test_stackify_ok(capsys):
    code, rep, _ = run_json(capsys, "stackify", PATCHES)
    assert code == 0
    assert rep["results"]["indexed"] == "S"
    # the non-gluing datum acquires an amalgamation, so the fibre at X grows
    assert rep["results"]["fibres"]["X"]["objects"] == 2


def test_sheafify_ok(capsys):
    code, rep, _ = run_json(capsys, "sheafify", PATCHES)
    assert code == 0
    assert rep["results"]["sections"]
    assert rep["results"]["unit"]


def test_groth_ok(capsys):
    code, rep, _ = run_json(capsys, "groth", TWISTED, "--indexed", "TW")
    assert code == 0
    assert rep["results"]["objects"] == 1
    assert rep["results"]["morphisms"] == 4
    assert rep["results"]["object-list"] == ["(s0,v)"]


def test_giraud_ok(capsys):
    code, rep, _ = run_json(capsys, "giraud", PATCHES)
    assert code == 0
    assert rep["results"]["covers"]


def test_lemma31_ok(capsys):
    code, rep, _ = run_json(capsys, "lemma31", PATCHES)
    assert code == 0
    assert rep["results"]["agree"] is True


def test_fiber_adjunction_ok(capsys):
    code, rep, _ = run_json(capsys, "fiber-adjunction", FACTOR,
                            "--fibration", "phi")
    assert code == 0
    r = rep["results"]
    assert r["unit-equivalence"]["holds"] is True
    assert r["counit-equivalence"]["holds"] is True
    assert r["transposes-quasi-inverse"] is True
    assert r["plus-preserves-fibration"]["holds"] is True
    assert r["stackified-descent"]["holds"] is True


def test_fiber_adjunction_default_identity(capsys):
    code, rep, _ = run_json(capsys, "fiber-adjunction", PATCHES)
    assert code == 0
    assert rep["ok"] is True


def test_fiber_adjunction_indexed_picks_its_identity_fibration(capsys):
    """factor.site has a fibration block, phi; naming an indexed block runs
    that block's identity fibration instead."""
    code, rep, _ = run_json(capsys, "fiber-adjunction", FACTOR,
                            "--indexed", "T")
    assert code == 0
    assert rep["args"] == {"indexed": "T"}
    assert rep["results"]["fibration"] == "T"


def test_factorize_ok(capsys):
    code, rep, _ = run_json(capsys, "factorize", FACTOR, "--phi", "phi")
    assert code == 0
    assert rep["results"]["factored"] is True
    assert rep["results"]["through"]


# ---------------------------------------------------------------------------
# exit 1: a check that ran and failed


def test_check_stack_fails_on_patches(capsys):
    code, rep, _ = run_json(capsys, "check", PATCHES, "--stack")
    assert code == 1
    assert rep["ok"] is False
    assert "does not glue" in rep["results"]["witness"]


def test_validate_reports_findings(capsys):
    code, rep, _ = run_json(capsys, "validate", str(DATA / "bad_laws.site"))
    assert code == 1
    assert rep["results"]["findings"]
    f = rep["results"]["findings"][0]
    assert f["name"] == "F" and f["kind"] == "functor"


# ---------------------------------------------------------------------------
# exit 2: bad input


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "validate", str(DATA / "bad_syntax.site"))
    assert code == 2
    assert "line 1" in err


def test_elaboration_error_exits_2(capsys):
    code, _, err = run(capsys, "saturate", str(DATA / "bad_cover.site"))
    assert code == 2
    assert "unknown morphism" in err


def test_findings_block_non_validate_commands(capsys):
    code, _, err = run(capsys, "saturate", str(DATA / "bad_laws.site"))
    assert code == 2
    assert "break their laws" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "no_such_file.site")
    assert code == 2
    assert "no_such_file.site" in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_non_utf8_input_exits_2(capsys, tmp_path, json_flag):
    path = tmp_path / "utf16.site"
    path.write_bytes(b"\xff\xfe\x00" + "category C".encode("utf-16-le"))
    code, out, err = run(capsys, "validate", str(path), *json_flag)
    assert code == 2
    if json_flag:
        rep = json.loads(out)
        assert rep["error"]["code"] == 2
        message = rep["error"]["message"]
    else:
        message = err
    assert f"cannot read {path}: not UTF-8 text" in message
    assert "Traceback" not in out + err


def _deep_category_document(depth):
    """A digest-valid interchange document whose one category object is a
    list nested `depth` deep, written out by string operations because
    `json.dumps` recurses on the nesting."""
    body = {"format": "finstack/1", "blocks": [
        {"identities": [], "kind": "category", "morphisms": [], "name": "C",
         "objects": ["DEEP"], "table": []}]}
    text = json.dumps(body, sort_keys=True, separators=(",", ":")).replace(
        '"DEEP"', "[" * depth + '"a"' + "]" * depth)
    digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text[:-1] + f',"digest":"{digest}"}}'


def _deep_datum_document(depth):
    """A document in emitted form whose one category object is a descent
    datum nested `depth` deep through its members, `{"dd":[[[…,"x"]],[]]}`:
    every level a distinct datum text."""
    datum = '{"dd":[[[' * depth + '"x"' + ',"x"]],[]]}' * depth
    return in_emitted_form(
        '{"blocks":[{"identities":[],"kind":"category","morphisms":[],'
        '"name":"C","objects":[' + datum + '],"table":[]}],"format":"finstack/1"}')


DEEP_DOCUMENTS = {
    "json": '{"format":"finstack/1","blocks":' + "[" * 200_000,
    "block": _deep_category_document(900),
    "datum": _deep_datum_document(300),
}


@pytest.mark.parametrize("kind", sorted(DEEP_DOCUMENTS))
def test_deeply_nested_interchange_is_a_diagnostic(kind):
    env, diags = load_interchange(DEEP_DOCUMENTS[kind])
    assert env is None
    assert "nested too deeply" in diags[0].msg


@pytest.mark.parametrize("kind", sorted(DEEP_DOCUMENTS))
def test_deeply_nested_interchange_exits_2(tmp_path, kind):
    """In a fresh process, as a user runs it: the 900-deep object passes
    `json.loads` and the digest and fails in block decoding."""
    path = tmp_path / "deep.json"
    path.write_text(DEEP_DOCUMENTS[kind], encoding="utf-8")
    src = str(Path(finstack.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "finstack.cli", "validate", str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    want = {"json": "not valid JSON: the document is nested too deeply",
            "datum": "not valid JSON: the document is nested too deeply",
            "block": "malformed interchange block: the document is nested "
                     "too deeply"}[kind]
    assert want in proc.stderr


def _deeper(frames, f, *args):
    """`f(*args)`, called `frames` frames deeper."""
    return _deeper(frames - 1, f, *args) if frames else f(*args)


def test_deep_datum_outcome_matches_full_parse():
    """At every depth of a band that crosses where decoding and then reading
    the JSON run out of stack, a document nested through distinct data loads
    as it does when `json.loads` parses every datum copy, from the same call
    depth.  Around the second edge this holds from four call depths in a
    row, one datum's four levels of nesting: `dsl._parse` reads one frame
    deeper, so at one of them it runs out of stack where `json.loads` does
    not, and the reader must read the text again.

    Every depth that loads is written back, byte for byte: the writer
    reaches every depth the reader does, at the last depths that load from
    each of four call depths too (a `RecursionError` from the writer fails
    `load_outcome`)."""
    first = {}
    for depth in range(140, 260):
        text = _deep_datum_document(depth)
        got = load_outcome(text)
        assert got == load_outcome(text, full_parse=True), depth
        first.setdefault(got[0][0].msg if got[0] else "loaded", depth)
        assert got[0] or got[2] == text, depth
    too_deep = "the document is nested too deeply"
    assert set(first) == {"loaded", f"malformed interchange block: {too_deep}",
                          f"not valid JSON: {too_deep}"}
    edge = first[f"not valid JSON: {too_deep}"]
    for depth in range(edge - 2, edge + 2):
        text = _deep_datum_document(depth)
        for frames in range(1, 5):
            assert (_deeper(frames, load_outcome, text)
                    == _deeper(frames, load_outcome, text, True)), (depth, frames)
    edge = first[f"malformed interchange block: {too_deep}"]
    for frames in range(1, 5):
        loaded = 0
        for depth in range(edge - 3, edge + 1):
            text = _deep_datum_document(depth)
            got = _deeper(frames, load_outcome, text)
            assert got[0] or got[2] == text, (depth, frames)
            loaded += not got[0]
        assert loaded, frames


def test_ambiguous_block_exits_2(capsys):
    code, _, err = run(capsys, "check", FACTOR, "--stack")
    assert code == 2
    assert "pick one with --indexed" in err


@pytest.mark.parametrize("flag", [["--indexed", "T"], ["--presheaf", "S"]])
def test_fiber_adjunction_fibration_with_a_block_flag_exits_2(capsys, flag):
    code, out, err = run(capsys, "fiber-adjunction", FACTOR,
                         "--fibration", "phi", *flag)
    assert code == 2 and out == ""
    assert "--fibration excludes --indexed and --presheaf" in err


def test_indexed_with_presheaf_exits_2(capsys):
    """Neither flag is dropped for the other, even when the named presheaf
    does not exist."""
    code, out, err = run(capsys, "check", FACTOR, "--indexed", "T",
                         "--presheaf", "Nope", "--stack")
    assert code == 2 and out == ""
    assert "--indexed and --presheaf exclude each other" in err


def test_unknown_object_exits_2(capsys):
    code, _, err = run(capsys, "desc", PATCHES, "--at", "Y")
    assert code == 2
    assert "no object" in err


def test_family_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "desc", PATCHES, "--at", "X", "--family", "99")
    assert code == 2
    assert "out of range" in err


def test_factorize_into_non_stack_exits_2(capsys, tmp_path):
    text = (DATA / "factor.site").read_text()
    text += (
        "functor IX : DX -> DX { obj sX = sX; }\n"
        "functor Ip : Dp -> Dp { obj sp = sp; obj sp' = sp'; }\n"
        "functor Iq : Dq -> Dq { obj sq = sq; }\n"
        "functor Ir : Dr -> Dr { obj sr = sr; }\n"
        "fibration psi : D -> D {\n"
        "  component X = IX; component p = Ip;"
        " component q = Iq; component r = Ir;\n"
        "}\n"
    )
    f = tmp_path / "nonstack.site"
    f.write_text(text)
    code, _, err = run(capsys, "factorize", str(f), "--phi", "psi")
    assert code == 2
    assert "is not a stack" in err


# A coverage on C, a presheaf over the poset P with the same object names.
FOREIGN_COVERAGE = (
    "poset P { r <= p; r <= q; p <= X; q <= X; } "
    "category C { objects: r, p, q, X; "
    "morphisms: a: r -> p, b: r -> q, c: p -> X, d: q -> X; } "
    "coverage J on C { X: [c, d]; } "
    "presheaf S over P { X = {sX}; p = {sp}; q = {sq}; r = {sr}; "
    "p <= X: sX -> sp; q <= X: sX -> sq; r <= p: sp -> sr; r <= q: sq -> sr; }\n"
)


@pytest.mark.parametrize("argv", [
    ["check", "--stack"], ["check", "--prestack"], ["desc", "--at", "X"],
    ["stackify"], ["sheafify"], ["giraud"], ["lemma31"], ["fiber-adjunction"],
])
def test_coverage_on_another_base_exits_2(capsys, tmp_path, argv):
    f = tmp_path / "foreign.site"
    f.write_text(FOREIGN_COVERAGE)
    code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: coverage 'J' is on 'C', not on 'P', the base of 'S'"]


def test_factorize_with_a_coverage_on_another_base_exits_2(capsys, tmp_path):
    f = tmp_path / "foreign.site"
    f.write_text((DATA / "factor.site").read_text() + (
        "category C { objects: r, p, q, X; "
        "morphisms: a: r -> p, b: r -> q, c: p -> X, d: q -> X; }\n"
        "coverage K on C { X: [c, d]; }\n"))
    code, _, err = run(capsys, "factorize", str(f), "--phi", "phi",
                       "--coverage", "K")
    assert code == 2
    assert err.splitlines() == [
        "error: coverage 'K' is on 'C', not on 'P', the base of 'phi'"]


def test_json_error_report(capsys):
    code, out, _ = run(capsys, "validate", str(DATA / "bad_syntax.site"),
                       "--json")
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False
    assert rep["error"]["code"] == 2


# ---------------------------------------------------------------------------
# exit 3: caps


def test_cap_exceeded_exits_3(capsys):
    code, _, err = run(capsys, "saturate", PATCHES,
                       "--max-sieves-per-object", "4")
    assert code == 3
    assert "exceeds cap" in err


def test_cap_message_of_a_site_matches_its_interchange_form(capsys, tmp_path):
    """Objects declared out of stable order: the DSL and the interchange
    JSON of one site name the same first object over the cap."""
    site = tmp_path / "late.site"
    site.write_text("poset P { b <= a; c <= a; }\n"
                    "coverage J on P { a: [b <= a, c <= a]; }\n")
    doc, _ = parse(site.read_text())
    env, _ = elaborate(doc)
    emitted = tmp_path / "late.json"
    emitted.write_text(serialize_env(env))
    code, _, err = run(capsys, "saturate", str(site),
                       "--max-sieves-per-object", "1")
    assert code == 3
    assert err == "error: sieve universe on a: 8 exceeds cap 1; raise " \
                  "--max-sieves-per-object\n"
    assert run(capsys, "saturate", str(emitted),
               "--max-sieves-per-object", "1") == (code, "", err)


def test_search_cap_names_its_flag(capsys):
    code, _, err = run(capsys, "check", PATCHES, "--stack", "--max-descent", "3")
    assert code == 3
    assert "search budget of 3 nodes exhausted; raise --max-descent" in err


def test_closure_cap_exits_3(capsys, tmp_path):
    f = tmp_path / "free.site"
    f.write_text("category N { objects: a; morphisms: n: a -> a; }\n")
    code, _, err = run(capsys, "validate", str(f), "--max-closure", "50")
    assert code == 3
    assert "max-closure" in err


def _write_interchange(path, doc):
    body = {"format": doc["format"], "blocks": doc["blocks"]}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    doc["digest"] = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(doc))


def test_interchange_with_broken_category_is_law_breaking_input(capsys, tmp_path):
    # One composite dropped from P, digest recomputed: the blocks over P
    # must be reported, not validated against the broken table.
    doc = json.loads((DATA / "patches.golden.json").read_text())
    cat = next(b for b in doc["blocks"] if b["name"] == "P")
    del cat["table"][0]
    f = tmp_path / "broken.json"
    _write_interchange(f, doc)

    code, rep, _ = run_json(capsys, "validate", str(f))
    assert code == 1
    kinds = [(x["kind"], x["name"]) for x in rep["results"]["findings"]]
    assert kinds == [("category", "P"), ("topology", "J"), ("presheaf", "S")]
    assert "'P' breaks its laws" in rep["results"]["findings"][1]["witness"]
    code, _, err = run(capsys, "check", str(f), "--stack")
    assert code == 2
    assert "missing composite" in err


def test_presheaf_with_a_repeated_element_is_law_breaking_input(capsys, tmp_path):
    # Its discrete embedding would have two objects with one id.
    site = tmp_path / "twice.site"
    site.write_text(Path(PATCHES).read_text().replace("X = {sX}", "X = {sX, sX}"))
    doc = json.loads((DATA / "patches.golden.json").read_text())
    S = next(b for b in doc["blocks"] if b["name"] == "S")
    S["els"][0][1].append("sX")
    S["els"][1][1][:] = ["sp", "sp'", "sp", "sp'"]
    emitted = tmp_path / "twice.json"
    _write_interchange(emitted, doc)
    for f, want in ((site, ["duplicate element sX over X"]),
                    (emitted, ["duplicate element sX over X",
                               "duplicate element sp over p",
                               "duplicate element sp' over p"])):
        code, rep, _ = run_json(capsys, "validate", str(f))
        assert code == 1
        assert rep["results"]["findings"] == [
            {"kind": "presheaf", "name": "S", "witness": w} for w in want]
        for argv in (["check", "--stack"], ["stackify", "--presheaf", "S"],
                     ["sheafify"]):
            code, _, err = run(capsys, argv[0], str(f), *argv[1:])
            assert code == 2, argv
            assert "duplicate element sX over X" in err


def test_sheafify_sorts_elements_of_several_types(capsys, tmp_path):
    # Over p the sections are "sp" and the integer 1, which do not compare:
    # the matching families fall back to stable order.
    doc = json.loads((DATA / "patches.golden.json").read_text())

    def swap(v):
        if v == "sp'":
            return {"i": 1}
        if isinstance(v, list):
            return [swap(x) for x in v]
        return v

    S = next(b for b in doc["blocks"] if b["name"] == "S")
    S["els"], S["act"] = swap(S["els"]), swap(S["act"])
    f = tmp_path / "mixed.json"
    _write_interchange(f, doc)
    assert run(capsys, "validate", str(f))[0] == 0
    code, rep, _ = run_json(capsys, "sheafify", str(f))
    assert code == 0
    assert rep["results"]["sections"] == {"X": 2, "p": 2, "q": 1, "r": 1}
    out = tmp_path / "sheafed.json"
    assert run(capsys, "sheafify", str(f), "--emit", str(out))[0] == 0
    assert run(capsys, "validate", str(out))[0] == 0


def _golden_block(name, block):
    doc = json.loads((DATA / f"{name}.golden.json").read_text())
    return doc, next(b for b in doc["blocks"] if b["name"] == block)


def test_repeated_interchange_rows_are_diagnostics(capsys, tmp_path):
    # A second row for one key used to replace the first without a word.
    doc, S = _golden_block("patches", "S")
    S["els"].append(["X", ["zz"]])
    els = tmp_path / "els.json"
    _write_interchange(els, doc)
    doc, S = _golden_block("patches", "S")
    S["act"].append(S["act"][0])
    act = tmp_path / "act.json"
    _write_interchange(act, doc)
    for f, want in ((els, "duplicate elements over X in presheaf 'S'"),
                    (act, "duplicate action of (le,X,X) in presheaf 'S'")):
        for argv in (["validate"], ["check", "--stack"]):
            code, _, err = run(capsys, argv[0], str(f), *argv[1:])
            assert code == 2, argv
            assert want in err


# (golden, block, path to a row list, what its repeated first row reports)
REPEATED_ROWS = [
    ("factor", "P", ("morphisms",), "duplicate morphism (le,X,X) in category 'P'"),
    ("factor", "P", ("identities",), "duplicate identity at X in category 'P'"),
    ("factor", "P", ("table",),
     "duplicate composite ((le,X,X),(le,X,X)) in category 'P'"),
    ("factor", "J", ("covers",), "duplicate covers of X in topology 'J'"),
    ("factor", "DpX", ("omap",), "duplicate object image of sX in functor 'DpX'"),
    ("factor", "DpX", ("mmap",),
     "duplicate morphism image of (id,sX) in functor 'DpX'"),
    ("factor", "D", ("fib",), "duplicate fibre over X in indexed 'D'"),
    ("factor", "D", ("fib", 1, 1, "morphisms"),
     "duplicate morphism (id,sp) in indexed 'D'"),
    ("factor", "D", ("res",), "duplicate restriction along (le,X,X) in indexed 'D'"),
    ("factor", "D", ("res", 1, 1, "omap"), "duplicate object image of sX in indexed 'D'"),
    ("factor", "D", ("compositor",),
     "duplicate compositor ((le,X,X),(le,X,X)) in indexed 'D'"),
    ("factor", "D", ("compositor", 0, 1),
     "duplicate compositor ((le,X,X),(le,X,X)) at sX in indexed 'D'"),
    ("factor", "D", ("unitor",), "duplicate unitor X in indexed 'D'"),
    ("factor", "D", ("unitor", 1, 1), "duplicate unitor p at sp in indexed 'D'"),
    ("factor", "phi", ("comp",), "duplicate component at X in fibration 'phi'"),
    ("factor", "phi", ("cell",), "duplicate cell (le,X,X) in fibration 'phi'"),
    ("factor", "phi", ("cell", 1, 1),
     "duplicate cell (le,p,X) at sX in fibration 'phi'"),
    ("patches", "S", ("act", 0, 1),
     "duplicate action of (le,X,X) on sX in presheaf 'S'"),
]


@pytest.mark.parametrize("golden, block, path, want", REPEATED_ROWS)
def test_every_repeated_row_is_a_diagnostic(capsys, tmp_path, golden, block,
                                            path, want):
    doc, rows = _golden_block(golden, block)
    for step in path:
        rows = rows[step]
    rows.append(rows[0])
    f = tmp_path / "repeated.json"
    _write_interchange(f, doc)
    code, _, err = run(capsys, "validate", str(f))
    assert code == 2
    assert want in err


@pytest.mark.parametrize("part, what", [(0, "member"), (1, "coherence")])
def test_repeated_descent_datum_row_is_a_diagnostic(capsys, tmp_path, part, what):
    out = tmp_path / "stacked.json"
    assert run(capsys, "stackify", PATCHES, "--emit", str(out))[0] == 0
    doc = json.loads(out.read_text())

    def first_datum(v):
        if isinstance(v, dict):
            if "dd" in v:
                return v["dd"]
            v = list(v.values())
        if isinstance(v, list):
            return next(filter(None, map(first_datum, v)), None)
        return None

    rows = first_datum(doc["blocks"])[part]
    rows.append(rows[0])
    _write_interchange(out, doc)
    code, _, err = run(capsys, "validate", str(out))
    assert code == 2
    assert f"duplicate descent datum {what}" in err


# A fibration over an indexed category whose compositor is malformed: its
# validator would compose with the broken cell and fail inside the tool.
FLAWED_REFERENT = """\
category Z2 { objects: s0; morphisms: s: s0 -> s0; compose: s . s = id(s0); }
category F { objects: a, b; morphisms: u: a -> b; }
functor IdF : F -> F { obj a = a; obj b = b; mor u = u; }
indexed D over Z2 { fiber s0 = F; restrict s = IdF; restrict id(s0) = IdF; compositor (s, s) at a = u; }
fibration Q : D -> D { component s0 = IdF; }
"""


def test_site_text_with_flawed_referent_is_law_breaking_input(capsys, tmp_path):
    f = tmp_path / "flawed.site"
    f.write_text(FLAWED_REFERENT)
    code, rep, _ = run_json(capsys, "validate", str(f))
    assert code == 1
    assert rep["results"]["findings"] == [
        {"kind": "indexed", "name": "D", "witness": "compositor (s,s) malformed at a"},
        {"kind": "fibration", "name": "Q",
         "witness": "not validated: 'D' breaks its laws"},
    ]
    code, _, err = run(capsys, "check", str(f), "--stack")
    assert code == 2

    env, diags = elaborate(parse(FLAWED_REFERENT)[0])
    assert diags == []
    loaded, diags = load_interchange(serialize_env(env))
    assert diags == []
    assert loaded.findings == env.findings


# ---------------------------------------------------------------------------
# exit 4: broken invariants inside the tool


def test_internal_error_exits_4(capsys, monkeypatch):
    def boom(*a, **k):
        raise InternalError("stackify invariant broken")

    monkeypatch.setattr("finstack.cli.stackify", boom)
    code, _, err = run(capsys, "stackify", PATCHES)
    assert code == 4
    assert "invariant" in err


# ---------------------------------------------------------------------------
# report shape


def test_json_report_shape(capsys):
    code, rep, _ = run_json(capsys, "check", PATCHES, "--prestack")
    assert code == 0
    assert set(rep) >= {"command", "args", "inputs", "caps", "results",
                        "ok", "timing-ms"}
    assert rep["command"] == "check"
    assert rep["inputs"][0]["path"] == PATCHES
    assert rep["inputs"][0]["digest"].startswith("sha256:")
    assert rep["caps"]["max-homset"] > 0


def test_json_report_is_deterministic(capsys):
    _, rep1, _ = run_json(capsys, "lemma31", PATCHES)
    _, rep2, _ = run_json(capsys, "lemma31", PATCHES)
    rep1.pop("timing-ms"), rep2.pop("timing-ms")
    assert rep1 == rep2


def test_human_report_mentions_results(capsys):
    code, out, _ = run(capsys, "saturate", SPAN)
    assert code == 0
    assert "covers" in out and out.rstrip().endswith("ok")


# ---------------------------------------------------------------------------
# emit and re-ingest


def test_stackify_emit_then_check_stack(capsys, tmp_path):
    out = tmp_path / "stacked.json"
    code, _, _ = run(capsys, "stackify", PATCHES, "--emit", str(out))
    assert code == 0
    code, rep, _ = run_json(capsys, "check", str(out), "--stack")
    assert code == 0
    assert rep["results"]["indexed"] == "S.st"


def test_sheafify_emit_then_check_stack(capsys, tmp_path):
    out = tmp_path / "sheafed.json"
    code, _, _ = run(capsys, "sheafify", PATCHES, "--emit", str(out))
    assert code == 0
    code, rep, _ = run_json(capsys, "check", str(out), "--stack",
                            "--presheaf", "S.sh")
    assert code == 0


def test_groth_emit_validates(capsys, tmp_path):
    out = tmp_path / "total.json"
    code, _, _ = run(capsys, "groth", TWISTED, "--indexed", "TW",
                     "--emit", str(out))
    assert code == 0
    code, _, _ = run(capsys, "validate", str(out))
    assert code == 0


def test_giraud_emit_validates(capsys, tmp_path):
    out = tmp_path / "gir.json"
    code, _, _ = run(capsys, "giraud", PATCHES, "--emit", str(out))
    assert code == 0
    code, rep, _ = run_json(capsys, "saturate", str(out))
    assert code == 0
    assert rep["results"]["coverage"] == "J.gir"


def test_emitted_file_digest_verifies(capsys, tmp_path):
    out = tmp_path / "stacked.json"
    run(capsys, "stackify", PATCHES, "--emit", str(out))
    text = out.read_text()
    blob = json.loads(text)
    assert blob["format"] == "finstack/1"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(text.replace("S.st", "S.zz"))
    code, _, err = run(capsys, "validate", str(tampered))
    assert code == 2
    assert "digest mismatch" in err


# ---------------------------------------------------------------------------
# one parser per process


# Flags set in one call and absent from the next, and commands that fail.
SEQUENCE = [
    ("check", PATCHES, "--prestack", "--max-descent", "500"),
    ("check", PATCHES, "--stack"),
    ("desc", PATCHES, "--at", "X", "--family", "0", "--presheaf", "S"),
    ("desc", PATCHES, "--at", "X"),
    ("saturate", SPAN, "--max-homset", "32"),
    ("check", PATCHES, "--stack", "--max-descent", "3"),
]

SUBCOMMANDS = ("validate", "saturate", "desc", "check", "stackify", "sheafify",
               "groth", "giraud", "lemma31", "fiber-adjunction", "factorize")


def _report(text):
    rep = json.loads(text)
    rep.pop("timing-ms", None)
    return rep


def test_main_calls_in_one_process_match_separate_processes(capsys):
    src = str(Path(finstack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for argv in SEQUENCE:
        code, out, _ = run(capsys, *argv, "--json")
        proc = subprocess.run([sys.executable, "-m", "finstack.cli", *argv,
                               "--json"], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (code, _report(out)) == (proc.returncode, _report(proc.stdout)), argv


def _help(parser_main, argv, capsys):
    with pytest.raises(SystemExit) as e:
        parser_main(argv)
    assert e.value.code == 0
    return capsys.readouterr().out


def test_help_of_the_kept_parser_matches_a_fresh_one(capsys):
    run(capsys, *SEQUENCE[0])
    fresh = cli._build_parser.__wrapped__()
    for argv in ([], *([sub] for sub in SUBCOMMANDS)):
        argv = [*argv, "--help"]
        assert _help(main, argv, capsys) == _help(fresh.parse_args, argv, capsys)
