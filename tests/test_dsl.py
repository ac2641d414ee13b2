"""Site-description language: parsing, elaboration, interchange."""

import json
import random
from pathlib import Path

import pytest

from finstack import (
    CapExceeded,
    Caps,
    DescentDatum,
    elaborate,
    load_input,
    load_interchange,
    parse,
    serialize_blocks,
    serialize_env,
    validate_fincat,
    validate_indexed,
    validate_indexed_fun,
    validate_presheaf,
    validate_topology,
)
from finstack.dsl import _dec, _text, _tokens, digest_text
from finstack.util import stable_sorted

import sitegen

DATA = Path(__file__).parent / "data"


def elab(text):
    doc, diags = parse(text)
    assert not diags, [str(d) for d in diags]
    env, diags = elaborate(doc)
    assert env is not None, [str(d) for d in diags]
    return env


def fail_elab(text):
    doc, diags = parse(text)
    if diags:
        return diags
    env, diags = elaborate(doc)
    assert env is None
    assert diags
    return diags


# ---------------------------------------------------------------------------
# parsing


def test_golden_files_parse_and_elaborate():
    for name in ("patches", "span", "twisted", "factor"):
        env = elab((DATA / f"{name}.site").read_text())
        assert not env.findings, (name, env.findings)


def test_parse_error_carries_position():
    doc, diags = parse((DATA / "bad_syntax.site").read_text())
    assert doc is None
    assert diags[0].line == 1 and diags[0].col > 1
    assert "expected" in diags[0].msg


def test_tokens_are_classified_by_the_group_that_matched():
    """Arrows and brackets are punctuation, digits start a name of their
    own, and any other character is a diagnostic at its column."""
    toks, diags = _tokens("a->b<=12ab x' -<é$ {.}")
    assert [(t.kind, t.val) for t in toks] == [
        ("name", "a"), ("punct", "->"), ("name", "b"), ("punct", "<="),
        ("name", "12"), ("name", "ab"), ("name", "x'"), ("punct", "{"),
        ("punct", "."), ("punct", "}"), ("eof", "")]
    assert [str(d) for d in diags] == [
        f"line 1:{col}: unexpected character {ch!r}"
        for col, ch in ((15, "-"), (16, "<"), (17, "é"), (18, "$"))]


def test_comments_and_crlf_are_accepted():
    lf = "poset P { a <= b; } // tail comment\n"
    crlf = lf.replace("\n", "\r\n")
    env1 = elab(lf)
    env2 = elab(crlf)
    assert env1.cats["P"] == env2.cats["P"]


def test_reserved_words_are_not_names():
    diags = fail_elab("poset fiber { a <= b; }")
    assert "keyword" in diags[0].msg


def test_unknown_block_kind_diagnostic():
    diags = fail_elab("widget W { }")
    assert "unknown block kind" in diags[0].msg
    assert "category" in diags[0].hint


def test_single_morphism_compose_left_side_rejected():
    diags = fail_elab(
        "category C { objects: a; morphisms: f: a -> a; compose: f = id(a); }"
    )
    assert "dotted composite" in diags[0].msg


def test_stray_character_diagnostic():
    doc, diags = parse("poset P { a <= b; } $")
    assert doc is None
    assert "unexpected character" in diags[0].msg


# ---------------------------------------------------------------------------
# elaboration: categories


def test_poset_sugar_gives_arrow_category():
    env = elab("poset A { a <= b; }")
    c = env.cats["A"]
    assert set(c.objects) == {"a", "b"}
    assert set(c.mor) == {("le", "a", "a"), ("le", "b", "b"), ("le", "a", "b")}
    assert validate_fincat(c) == []


def test_poset_transitive_closure():
    env = elab("poset P { a <= b; b <= c; }")
    assert ("le", "a", "c") in env.cats["P"].mor


def ref_poset_words(block, c):
    """One breadth-first search per related pair, over the declared edges
    sorted again at every visit: the word table as it was first built."""
    edges = [e.data for e in block.entries]
    seen = list(dict.fromkeys(x for edge in edges for x in edge))
    adj = {}
    for a, b in edges:
        if a != b:
            adj.setdefault(a, []).append(b)
    words = {}
    for a in seen:
        for b in seen:
            m = ("le", a, b)
            if m not in c.mor:
                continue
            prev = {a: None}
            queue = [a]
            while queue and b not in prev:
                cur = queue.pop(0)
                for nxt in stable_sorted(adj.get(cur, ())):
                    if nxt not in prev:
                        prev[nxt] = cur
                        queue.append(nxt)
            path = []
            node = b
            while prev[node] is not None:
                path.append(("le", prev[node], node))
                node = prev[node]
            words[m] = tuple(path)
    return words


def _open_lattice_poset(seed):
    """A seeded open lattice as a poset block: its covering relations and a
    few transitive ones, declared in shuffled order."""
    rng = random.Random(seed)
    c, _, _ = sitegen.open_cover_site(rng, rng.randint(4, 16))
    pairs = [(a, b) for a, b in c.mor.values() if a != b]
    covering = [(a, b) for a, b in pairs
                if not any((a, z) in pairs and (z, b) in pairs for z in c.objects)]
    edges = covering + [p for p in pairs if p not in covering and rng.random() < 0.2]
    rng.shuffle(edges)
    return "poset P { " + " ".join(f"{a} <= {b};" for a, b in edges) + " }"


POSET_TEXTS = (
    [path.read_text() for path in sorted(DATA.glob("*.site"))]
    + [_open_lattice_poset(seed) for seed in range(12)]
)


def test_poset_words_match_the_per_pair_search():
    posets = 0
    for text in POSET_TEXTS:
        doc, diags = parse(text)
        env = None if diags else elaborate(doc)[0]
        if env is None:
            continue
        for block in doc.blocks:
            if block.kind == "poset":
                posets += 1
                c = env.cats[block.name]
                assert env.gens[block.name] == ref_poset_words(block, c)
    assert posets == 14


def test_category_closure_names_composites():
    env = elab(
        "category S { objects: a, b, c; morphisms: f: a -> b, g: b -> c; }"
    )
    c = env.cats["S"]
    assert c.compose("g", "f") == "g.f"
    assert c.mor["g.f"] == ("a", "c")
    assert validate_fincat(c) == []


def test_category_relations_collapse_composites():
    env = elab(
        "category Z { objects: x, y;"
        " morphisms: f: x -> y, g: y -> x;"
        " compose: g . f = id(x); compose: f . g = id(y); }"
    )
    c = env.cats["Z"]
    assert len(c.mor) == 4
    assert c.compose("g", "f") == c.ident["x"]
    assert c.inverse("f") == "g"


def test_relation_to_named_generator():
    env = elab(
        "category M { objects: a;"
        " morphisms: e: a -> a;"
        " compose: e . e = e; }"
    )
    c = env.cats["M"]
    assert len(c.mor) == 2
    assert c.compose("e", "e") == "e"


def test_free_category_hits_closure_cap():
    doc, diags = parse("category N { objects: a; morphisms: n: a -> a; }")
    assert not diags
    with pytest.raises(CapExceeded):
        elaborate(doc, Caps(max_closure=50))


def test_relation_endpoint_mismatch_diagnostic():
    diags = fail_elab(
        "category C { objects: a, b; morphisms: f: a -> b, g: b -> a;"
        " compose: g . f = id(b); }"
    )
    assert "different endpoints" in diags[0].msg


def test_relation_not_composable_diagnostic():
    diags = fail_elab(
        "category C { objects: a, b; morphisms: f: a -> b;"
        " compose: f . f = id(a); }"
    )
    assert "not composable" in diags[0].msg


def test_morphism_with_undeclared_objects_diagnostic():
    diags = fail_elab("category C { objects: a; morphisms: f: a -> b; }")
    assert "undeclared objects" in diags[0].msg


def test_duplicate_names_rejected():
    diags = fail_elab("poset P { a <= b; } poset P { c <= d; }")
    assert "duplicate name" in diags[0].msg


# ---------------------------------------------------------------------------
# elaboration: coverages


def test_span_coverage_saturates_to_two_covers():
    env = elab((DATA / "span.site").read_text())
    J = env.topologies["J"]
    assert validate_topology(J) == []
    assert len(J.covers["X"]) == 2
    assert frozenset({"jp", "jq"}) in J.covers["X"]


def test_coverage_default_name_is_J():
    env = elab("poset P { a <= b; } coverage on P { }")
    assert "J" in env.topologies


def test_coverage_unknown_morphism_diagnostic():
    diags = fail_elab((DATA / "bad_cover.site").read_text())
    assert "unknown morphism 'jq'" in diags[0].msg
    assert diags[0].line == 5


def test_coverage_wrong_codomain_diagnostic():
    diags = fail_elab(
        "category S { objects: p, X; morphisms: jp: p -> X; }"
        " coverage J on S { p: [jp]; }"
    )
    assert "does not land in" in diags[0].msg


def test_coverage_on_unknown_category():
    diags = fail_elab("coverage J on Nope { }")
    assert "unknown category" in diags[0].msg


# ---------------------------------------------------------------------------
# elaboration: functors and presheaves


def test_functor_derives_composite_images():
    env = elab(
        "category S { objects: a, b, c; morphisms: f: a -> b, g: b -> c; }"
        " functor F : S -> S { obj a = a; obj b = b; obj c = c;"
        " mor f = f; mor g = g; }"
    )
    F = env.functors["F"]
    assert F.validate() == []
    assert F.mo("g.f") == "g.f"


def test_functor_missing_object_image_diagnostic():
    diags = fail_elab(
        "poset P { a <= b; } functor F : P -> P { obj a = a; }"
    )
    assert "no image for object" in diags[0].msg


def test_functor_missing_generator_image_diagnostic():
    diags = fail_elab(
        "category S { objects: a, b, c; morphisms: f: a -> b, g: b -> c; }"
        " functor F : S -> S { obj a = a; obj b = b; obj c = c; mor f = f; }"
    )
    assert "required to derive" in diags[0].msg


def test_functor_law_violation_is_a_finding():
    env = elab((DATA / "bad_laws.site").read_text())
    assert env.findings
    kind, name, msg = env.findings[0]
    assert (kind, name) == ("functor", "F")


def test_presheaf_actions_derive_along_composites():
    env = elab((DATA / "patches.site").read_text())
    S = env.presheaves["S"]
    assert validate_presheaf(S) == []
    assert S.act[("le", "r", "X")] == {"sX": "sr"}


def test_presheaf_missing_element_set_diagnostic():
    diags = fail_elab(
        "poset P { a <= b; } presheaf S over P { b = {s}; }"
    )
    assert "no element set" in diags[0].msg


def test_presheaf_partial_action_diagnostic():
    diags = fail_elab(
        "poset P { a <= b; }"
        " presheaf S over P { a = {t}; b = {s, s'}; a <= b: s -> t; }"
    )
    assert "misses element" in diags[0].msg


def test_presheaf_foreign_element_diagnostic():
    diags = fail_elab(
        "poset P { a <= b; }"
        " presheaf S over P { a = {t}; b = {s}; a <= b: nope -> t; }"
    )
    assert "not an element" in diags[0].msg


# ---------------------------------------------------------------------------
# elaboration: indexed categories and fibrations


def test_strict_indexed_over_poset():
    env = elab(
        "poset P { a <= b; }"
        " category K { objects: k; morphisms: e: k -> k; compose: e . e = e; }"
        " functor E : K -> K { obj k = k; mor e = e; }"
        " indexed D over P { fiber a = K; fiber b = K;"
        " restrict a <= b = E; strict; }"
    )
    D = env.indexed["D"]
    assert validate_indexed(D) == []
    assert D.res[("le", "a", "b")].mo("e") == "e"


def test_twisted_indexed_compositor_cell():
    env = elab((DATA / "twisted.site").read_text())
    TW = env.indexed["TW"]
    assert validate_indexed(TW) == []
    assert TW.compositor[("s", "s")]["v"] == "t"


def test_indexed_missing_fiber_diagnostic():
    diags = fail_elab(
        "poset P { a <= b; } category K { objects: k; }"
        " indexed D over P { fiber a = K; strict; }"
    )
    assert "no fiber at" in diags[0].msg


def test_nonstrict_indexed_requires_all_restrictions():
    diags = fail_elab(
        "poset P { a <= b; } category K { objects: k; }"
        " indexed D over P { fiber a = K; fiber b = K; }"
    )
    assert "no restriction along" in diags[0].msg


def test_missing_restrictions_are_listed_in_stable_order():
    """The base's stored (stable) order of its morphisms, which is also the
    order its coherence gaps are named in: not declaration order, which
    lists the generators (f, g, h) before the composite f.g."""
    diags = fail_elab(
        "category B { objects: a, b, c;"
        " morphisms: f: b -> c, g: a -> b, h: a -> c; }"
        " category K { objects: k; }"
        " indexed D over B { fiber a = K; fiber b = K; fiber c = K; }"
    )
    assert [d.msg for d in diags] == [
        f"indexed 'D' has no restriction along {m}" for m in
        ("f", "f.g", "g", "h")]


def test_strict_block_rejects_coherence_cells():
    diags = fail_elab(
        "category Z2 { objects: s0; morphisms: s: s0 -> s0;"
        " compose: s . s = id(s0); }"
        " category K { objects: k; }"
        " functor I : K -> K { obj k = k; }"
        " indexed D over Z2 { fiber s0 = K; restrict s = I; strict;"
        " unitor s0 at k = id(k); }"
    )
    assert "no compositor or unitor cells" in diags[0].msg


def test_strict_block_reports_the_first_non_strict_pair_in_stable_order():
    """S sends every object to the codomain end c and T to the domain end
    d, so both chains y <= x, z <= y and w <= x, v <= w are not strict.
    The poset fills its table in stable order, so the report names the
    chain through v and w, not the one declared first."""
    env = elab(
        "poset P { y <= x; z <= y; w <= x; v <= w; }"
        " category K { objects: d, c; morphisms: e: d -> c; }"
        " functor S : K -> K { obj d = c; obj c = c; mor e = id(c); }"
        " functor T : K -> K { obj d = d; obj c = d; mor e = id(d); }"
        " indexed D over P { fiber x = K; fiber y = K; fiber z = K;"
        " fiber w = K; fiber v = K;"
        " restrict y <= x = S; restrict z <= x = S; restrict w <= x = S;"
        " restrict v <= x = S; restrict z <= y = T; restrict v <= w = T;"
        " strict; }"
    )
    assert env.findings == [
        ("indexed", "D", "restriction not strict on ((le,w,x),(le,v,w)) at c")]


# A `strict;` block whose restrictions S, T, S do not compose on the nose,
# and a fibration block that names it.
NOT_STRICT = (
    "poset P { y <= x; z <= y; }"
    " category A { objects: a, b; morphisms: u: a -> b; }"
    " functor S : A -> A { obj a = b; obj b = b; mor u = id(b); }"
    " functor T : A -> A { obj a = a; obj b = a; mor u = id(a); }"
    " functor I : A -> A { obj a = a; obj b = b; mor u = u; }"
    " indexed D over P { fiber x = A; fiber y = A; fiber z = A;"
    " restrict y <= x = S; restrict z <= y = T; restrict z <= x = S;"
    " strict; }"
    " fibration Q : D -> D { component x = I; component y = I;"
    " component z = I; }"
)


def test_non_strict_strict_block_is_declared_with_its_finding():
    """A `strict;` block whose restrictions do not compose on the nose is
    declared with that finding, so a later block naming it is told it
    breaks its laws, not that it is unknown."""
    env = elab(NOT_STRICT)
    assert ("indexed", "D") in env.order and ("fibration", "Q") in env.order
    assert env.findings == [
        ("indexed", "D", "restriction not strict on ((le,y,x),(le,z,y)) at a"),
        ("fibration", "Q", "not validated: 'D' breaks its laws")]


def test_writer_refuses_an_open_coherence_cell():
    """The block is declared with no cell where it is not strict; written
    as it is, it would read back with other findings."""
    with pytest.raises(ValueError) as ex:
        serialize_env(elab(NOT_STRICT))
    assert str(ex.value) == ("indexed 'D' cannot be written: its coherence "
                             "cell compositor ((le,y,x),(le,z,y)) at a is open")


def test_strict_block_strict_on_objects_only_gets_the_law_findings():
    """T swaps two parallel arrows, so its composites agree with it on
    objects but not on morphisms: the identity compositors are not
    natural."""
    env = elab(
        "poset P { y <= x; z <= y; }"
        " category A { objects: a, b; morphisms: u: a -> b, w: a -> b; }"
        " functor T : A -> A { obj a = a; obj b = b; mor u = w; mor w = u; }"
        " indexed D over P { fiber x = A; fiber y = A; fiber z = A;"
        " restrict y <= x = T; restrict z <= y = T; restrict z <= x = T;"
        " strict; }"
    )
    assert ("indexed", "D") in env.order
    assert env.findings == [
        ("indexed", "D", f"compositor ((le,y,x),(le,z,y)) not natural at {m}")
        for m in ("u", "w")]


# S sends both objects of K to c and T to d, so the chains y <= x, z <= y
# and w <= x, v <= w are not strict, at both objects.  The first two entries
# fill the gaps at d; the third, when given, fills the chain through w at c.
GAPS = (
    "poset P { y <= x; z <= y; w <= x; v <= w; }"
    " category K { objects: d, c; morphisms: e: d -> c; }"
    " functor S : K -> K { obj d = c; obj c = c; mor e = id(c); }"
    " functor T : K -> K { obj d = d; obj c = d; mor e = id(d); }"
    " indexed D over P { fiber x = K; fiber y = K; fiber z = K;"
    " fiber w = K; fiber v = K;"
    " restrict y <= x = S; restrict z <= x = S; restrict w <= x = S;"
    " restrict v <= x = S; restrict z <= y = T; restrict v <= w = T;"
    " compositor (y <= x, z <= y) at d = e;"
    " compositor (w <= x, v <= w) at d = e; }"
)


def test_missing_coherence_cells_are_named_in_table_order():
    """Of the two gaps left, the one the base's table lists first is named,
    not the one of the relations declared first."""
    first = fail_elab(GAPS)
    second = fail_elab(GAPS[:-1] + "compositor (w <= x, v <= w) at c = e; }")
    assert [d.msg for d in first + second] == [
        f"indexed 'D' needs an explicit coherence cell at {gap}" for gap in
        ("((le,w,x),(le,v,w),c)", "((le,y,x),(le,z,y),c)")]


# The components do not commute with restriction at p along every arrow out
# of a; the cell along g fills one gap and leaves those along h and f.g.
FIBRATION_GAPS = (
    "category B { objects: a, b, c; morphisms: f: b -> c, g: a -> b,"
    " h: a -> c; }"
    " category K { objects: p, q; morphisms: t: q -> p; }"
    " functor N : K -> K { obj p = q; obj q = q; mor t = id(q); }"
    " functor I : K -> K { obj p = p; obj q = q; mor t = t; }"
    " indexed D over B { fiber a = K; fiber b = K; fiber c = K;"
    " restrict f = I; restrict g = I; restrict h = I; strict; }"
    " fibration Q : D -> D { component a = N; component b = I;"
    " component c = I; cell g at p = t; }"
)


def test_missing_fibration_cells_are_named_in_stable_order():
    """f.g comes before h in stable order, though after it in generator
    word order."""
    first = fail_elab(FIBRATION_GAPS)
    second = fail_elab(FIBRATION_GAPS[:-1] + "cell f.g at p = t; }")
    assert [d.msg for d in first + second] == [
        f"fibration 'Q' needs an explicit cell along {y} at p"
        for y in ("f.g", "h")]


def test_an_unknown_name_is_reported_once_per_header():
    diags = fail_elab("functor F : C -> C { }"
                      " category A { objects: a; }"
                      " functor G : A -> C { obj a = a; }")
    assert [(d.line, d.col, d.msg) for d in diags] == [
        (1, 1, "unknown category 'C'"), (1, 51, "unknown category 'C'")]


def test_missing_coherence_cell_diagnostic():
    diags = fail_elab(
        "category Z2 { objects: s0; morphisms: s: s0 -> s0;"
        " compose: s . s = id(s0); }"
        " category K { objects: u, v; morphisms: w: u -> v, w': v -> u;"
        " compose: w' . w = id(u); compose: w . w' = id(v); }"
        " functor Sw : K -> K { obj u = v; obj v = u; mor w = w'; mor w' = w; }"
        " indexed B over Z2 { fiber s0 = K; restrict s = Sw;"
        " restrict id(s0) = Sw; }"
    )
    assert "coherence cell" in diags[0].msg


def test_restriction_endpoint_mismatch_diagnostic():
    diags = fail_elab(
        "poset P { a <= b; } category K { objects: k; }"
        " category L { objects: l; }"
        " functor F : K -> L { obj k = l; }"
        " indexed D over P { fiber a = K; fiber b = K;"
        " restrict a <= b = F; strict; }"
    )
    assert "must map the fiber" in diags[0].msg


def test_fibration_block_elaborates():
    env = elab((DATA / "factor.site").read_text())
    phi = env.indexedfuns["phi"]
    assert validate_indexed_fun(phi) == []
    assert phi.D is env.indexed["D"]
    assert phi.E is env.indexed["T"]


# A one-object base, a non-strict indexed category whose restriction along
# id(a) swaps the isomorphic objects u and v, so its unitor and compositor
# cells are not identities, and a fibration out of it whose cells are given.
SWAP = (
    "category B { objects: a; }"
    " category K { objects: u, v; morphisms: w: u -> v, w': v -> u;"
    " compose: w' . w = id(u); compose: w . w' = id(v); }"
    " functor Sw : K -> K { obj u = v; obj v = u; mor w = w'; mor w' = w; }"
    " functor I : K -> K { obj u = u; obj v = v; mor w = w; mor w' = w'; }"
    " indexed D over B { fiber a = K; restrict id(a) = Sw;"
    " unitor a at u = w; unitor a at v = w';"
    " compositor (id(a), id(a)) at u = w;"
    " compositor (id(a), id(a)) at v = w'; }"
    " indexed E over B { fiber a = K; strict; }"
    " fibration phi : D -> E { component a = I;"
    " cell id(a) at u = w'; cell id(a) at v = w; }"
)


def test_unitor_and_fibration_cells_elaborate():
    env = elab(SWAP)
    assert env.findings == []
    D, phi = env.indexed["D"], env.indexedfuns["phi"]
    ida = D.base.ident["a"]
    assert D.unitor["a"] == {"u": "w", "v": "w'"}
    assert D.compositor[(ida, ida)] == {"u": "w", "v": "w'"}
    assert phi.cell[ida] == {"u": "w'", "v": "w"}
    env2, diags = load_interchange(serialize_env(env))
    assert not diags and env2.findings == env.findings


def test_unitor_at_missing_slot_diagnostic():
    diags = fail_elab(SWAP.replace("unitor a at v", "unitor a at x"))
    assert "no unitor slot" in diags[0].msg


def test_cell_along_unknown_morphism_diagnostic():
    diags = fail_elab(SWAP.replace("cell id(a) at v", "cell s at v"))
    assert "unknown morphism" in diags[0].msg


def test_wrong_cell_is_a_finding():
    env = elab(SWAP.replace("cell id(a) at u = w'", "cell id(a) at u = id(u)"))
    assert [f[:2] for f in env.findings] == [("fibration", "phi")]
    assert env.findings[0][2] == "cell along (id,a) malformed at u"
    env2, diags = load_interchange(serialize_env(env))
    assert not diags and env2.findings == env.findings


# SWAP, with a fibre generator z that the relations merge into w and base
# generators e, k that they merge into id(a).
MERGED = (
    SWAP.replace("category B { objects: a; }",
                 "category B { objects: a; morphisms: e: a -> a, k: a -> a;"
                 " compose: k . e = id(a); compose: e . k = id(a);"
                 " compose: e . e = e; }")
    .replace("w': v -> u;", "w': v -> u, z: u -> v;")
    .replace("compose: w . w' = id(v); }",
             "compose: w . w' = id(v); compose: w' . z = id(u); }")
)


@pytest.mark.parametrize("entry, aliased", [
    ("unitor a at u = w;", "unitor a at u = z;"),
    ("compositor (id(a), id(a)) at u = w;", "compositor (id(a), id(a)) at u = z;"),
    ("cell id(a) at v = w;", "cell id(a) at v = z;"),
    ("cell id(a) at u = w';", "cell e at u = w';"),
], ids=["unitor", "compositor", "fibre-cell", "base-cell"])
def test_coherence_entries_resolve_merged_generators(entry, aliased):
    assert entry in MERGED
    want, got = elab(MERGED), elab(MERGED.replace(entry, aliased))
    assert got.findings == want.findings == []
    D, E = got.indexed["D"], want.indexed["D"]
    assert (D.unitor, D.compositor) == (E.unitor, E.compositor)
    assert got.indexedfuns["phi"].cell == want.indexedfuns["phi"].cell


PATCHES = (DATA / "patches.site").read_text()


@pytest.mark.parametrize("text, entry, doubled, msg", [
    (SWAP, "obj u = u;", "obj u = u;\n obj u = v;", "image of object 'u'"),
    (SWAP, "mor w = w;", "mor w = w;\n mor w = w';", "image of w"),
    (PATCHES, "X = {sX};", "X = {sX};\n X = {sX, t};", "element set for object 'X'"),
    (PATCHES, "p <= X: sX -> sp;", "p <= X: sX -> sp;\n p <= X: sX -> sp';",
     "action along (le,p,X)"),
    (PATCHES, "p <= X: sX -> sp;", "\n p <= X: sX -> sp, sX -> sp';",
     "image of 'sX' along (le,p,X)"),
    (SWAP, "fiber a = K; restrict", "fiber a = K;\n fiber a = K; restrict",
     "fiber at 'a'"),
    (SWAP, "restrict id(a) = Sw;", "restrict id(a) = Sw;\n restrict id(a) = I;",
     "restriction along (id,a)"),
    (SWAP, "compositor (id(a), id(a)) at u = w;",
     "compositor (id(a), id(a)) at u = w;\n compositor (id(a), id(a)) at u = w;",
     "compositor ((id,a),(id,a)) at 'u'"),
    (SWAP, "unitor a at u = w;", "unitor a at u = w;\n unitor a at u = w;",
     "unitor at 'a', 'u'"),
    (SWAP, "component a = I;", "component a = I;\n component a = I;",
     "component at 'a'"),
    (SWAP, "cell id(a) at u = w';", "cell id(a) at u = w';\n cell id(a) at u = w';",
     "cell along (id,a) at 'u'"),
], ids=["functor-obj", "functor-mor", "presheaf-els", "presheaf-action",
        "presheaf-source", "fiber", "restrict", "compositor", "unitor",
        "component", "cell"])
def test_repeated_keyed_entry_is_a_diagnostic(text, entry, doubled, msg):
    """A keyed entry given twice is refused where it repeats, not
    overwritten; the repeat starts the line after the break in `doubled`."""
    assert entry in text
    text = text.replace(entry, doubled, 1)
    line = text[:text.index(doubled) + doubled.index("\n")].count("\n") + 2
    d = fail_elab(text)[0]
    assert (d.line, d.msg) == (line, f"duplicate {msg}")


def test_repeated_cover_entries_accumulate():
    base = "poset P { r <= p; r <= q; p <= X; q <= X; }"
    one = elab(base + " coverage J on P { X: [p <= X], [q <= X]; }")
    two = elab(base + " coverage J on P { X: [p <= X]; X: [q <= X]; }")
    assert one.topologies["J"].covers == two.topologies["J"].covers


def test_fibration_bases_must_agree():
    diags = fail_elab(
        "poset P { a <= b; } poset Q { c <= d; }"
        " category K { objects: k; }"
        " functor I : K -> K { obj k = k; }"
        " indexed D over P { fiber a = K; fiber b = K;"
        " restrict a <= b = I; strict; }"
        " indexed E over Q { fiber c = K; fiber d = K;"
        " restrict c <= d = I; strict; }"
        " fibration F : D -> E { component a = I; component b = I; }"
    )
    assert "different bases" in diags[0].msg


# ---------------------------------------------------------------------------
# interchange


def test_interchange_round_trip_is_canonical():
    for name in ("patches", "span", "twisted", "factor"):
        env = elab((DATA / f"{name}.site").read_text())
        blob = serialize_env(env)
        env2, diags = load_interchange(blob)
        assert not diags, (name, [str(d) for d in diags])
        assert serialize_env(env2) == blob


def test_interchange_matches_frozen_goldens():
    for name in ("patches", "span", "twisted", "factor"):
        env = elab((DATA / f"{name}.site").read_text())
        frozen = (DATA / f"{name}.golden.json").read_text()
        assert serialize_env(env) == frozen, name


def test_loaded_structures_equal_elaborated_ones():
    env = elab((DATA / "patches.site").read_text())
    env2, _ = load_interchange(serialize_env(env))
    assert env2.cats["P"] == env.cats["P"]
    assert env2.topologies["J"] == env.topologies["J"]
    p, q = env2.presheaves["S"], env.presheaves["S"]
    assert p.els == q.els and p.act == q.act


def test_digest_tampering_rejected():
    blob = (DATA / "patches.golden.json").read_text()
    env, diags = load_interchange(blob.replace("sX", "zz"))
    assert env is None
    assert "digest mismatch" in diags[0].msg


def test_wrong_format_tag_rejected():
    env, diags = load_interchange('{"format": "other/9", "blocks": []}')
    assert env is None
    assert "interchange document" in diags[0].msg


def test_malformed_json_rejected():
    env, diags = load_interchange("{nope")
    assert env is None
    assert "not valid JSON" in diags[0].msg


def test_load_input_sniffs_both_formats():
    text = (DATA / "span.site").read_text()
    env1, d1 = load_input(text)
    assert not d1
    env2, d2 = load_input((DATA / "span.golden.json").read_text())
    assert not d2
    assert env1.cats["S"] == env2.cats["S"]


def test_loaded_topology_is_validated():
    blob = json.loads((DATA / "span.golden.json").read_text())
    for b in blob["blocks"]:
        if b["kind"] == "topology":
            b["covers"] = [c for c in b["covers"] if c[0] != "p"]
    body = {"format": blob["format"], "blocks": blob["blocks"]}
    import hashlib

    canon = json.dumps(body, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=False)
    blob["digest"] = "sha256:" + hashlib.sha256(canon.encode()).hexdigest()
    env, diags = load_interchange(json.dumps(blob))
    assert not diags
    assert env.findings and env.findings[0][0] == "topology"


def test_id_codec_round_trips_every_shape():
    datum = DescentDatum({"f": "V"}, {("g", "f"): ("id", "V")})
    values = [
        "plain",
        True,
        False,
        7,
        None,
        ("le", "a", "b"),
        ("nested", ("id", "x"), 3),
        frozenset({"a", ("id", "b")}),
        frozenset({frozenset({"x"}), frozenset()}),
        datum,
        ("mor", datum, frozenset({1, 2})),
    ]
    for v in values:
        assert _dec(json.loads(_text(v, {}))) == v


def test_serialize_requires_base_in_block_list():
    env = elab((DATA / "patches.site").read_text())
    from finstack import InternalError

    with pytest.raises(InternalError):
        serialize_blocks([("topology", "J", env.topologies["J"])])


def test_digest_text_normalizes_line_endings():
    assert digest_text("a\r\nb") == digest_text("a\nb")
