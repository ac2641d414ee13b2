import pytest

from finstack import (
    FinCat,
    Functor,
    IndexedCat,
    IndexedFun,
    IndexedNat,
    InternalError,
    compose_indexed_funs,
    const_indexed,
    embed_discrete,
    embed_mor,
    find_indexed_natiso,
    identity_indexed_fun,
    is_indexed_equivalence,
    nu,
    path_cell,
    precompose_indexed,
    product_cat,
    strict_indexed,
    strict_indexed_fun,
    validate_indexed,
    validate_indexed_fun,
    validate_indexed_nat,
    validate_presheaf,
    validate_presheaf_mor,
)
from finstack.fincat import discrete_cat, identity_functor

import corpus


PRESHEAVES = [
    corpus.patches_sheaf(),
    corpus.patches_nonsheaf(),
    corpus.patches_nonseparated(),
    corpus.span_presheaf(0),
    corpus.span_presheaf(2),
]


@pytest.mark.parametrize("P", PRESHEAVES, ids=lambda P: P.name)
def test_corpus_presheaves_valid(P):
    assert validate_presheaf(P) == []


def test_validate_presheaf_catches_breakage():
    from finstack import Presheaf

    Q = corpus.patches_sheaf()
    Q.act[corpus.le("X", "X")]["x1"] = "x2"
    assert any("identity" in e for e in validate_presheaf(Q))

    c = corpus.patches_cat()
    le = corpus.le
    R = Presheaf(
        c,
        {"X": ("x",), "p": ("a",), "q": ("b",), "r": ("c1", "c2")},
        {
            le("X", "X"): {"x": "x"},
            le("p", "p"): {"a": "a"},
            le("q", "q"): {"b": "b"},
            le("r", "r"): {"c1": "c1", "c2": "c2"},
            le("p", "X"): {"x": "a"},
            le("q", "X"): {"x": "b"},
            le("r", "X"): {"x": "c2"},  # disagrees with the p-then-r path
            le("r", "p"): {"a": "c1"},
            le("r", "q"): {"b": "c1"},
        },
    )
    assert any("functorial" in e for e in validate_presheaf(R))


@pytest.mark.parametrize("P", PRESHEAVES, ids=lambda P: P.name)
def test_embed_discrete_valid(P):
    D = embed_discrete(P)
    assert validate_indexed(D) == []


def test_twisted_z2_valid_and_nonstrict():
    D = corpus.twisted_z2_indexed()
    assert validate_indexed(D) == []
    assert D.gamma("s", "s", "*") == "t"


def test_twisted_z2_broken_unit_rejected():
    D = corpus.twisted_z2_indexed()
    D.compositor[("e", "s")]["*"] = "t"
    errs = validate_indexed(D)
    assert any("unit" in e for e in errs)


def test_twisted_z2_broken_associativity_rejected():
    D = corpus.twisted_z2_indexed()
    # Twist exactly one of the four compositors at a non-identity pair: the
    # triple axiom can no longer hold everywhere.
    D.compositor[("s", "s")]["*"] = "1"
    D.compositor[("e", "e")]["*"] = "t"
    errs = validate_indexed(D)
    assert errs != []


def test_const_indexed_valid():
    D = const_indexed(corpus.patches_cat(), corpus.walking_iso_cat())
    assert validate_indexed(D) == []


def _z2_restrictions(fibre, e, s):
    """Restrictions over Z2 along e (the identity) and s, each given as
    (object map, morphism map) on `fibre`."""
    return {m: Functor(fibre, fibre, *maps) for m, maps in (("e", e), ("s", s))}


def test_strict_indexed_rejects_nonstrict_data():
    """It names the first failure: the identity's restriction before the
    composites', and the objects of a fibre before its morphisms."""
    base = corpus.z2_cat()
    two = discrete_cat(("0", "1"))
    par = corpus.parallel_pair_cat()
    ids = ({"0": "0", "1": "1"}, {("id", "0"): ("id", "0"),
                                  ("id", "1"): ("id", "1")})
    swap = ({"0": "1", "1": "0"}, {("id", "0"): ("id", "1"),
                                   ("id", "1"): ("id", "0")})
    to_0 = ({"0": "0", "1": "0"}, {("id", "0"): ("id", "0"),
                                   ("id", "1"): ("id", "0")})
    objs = {"a": "a", "b": "b"}
    fixed = {"ida": "ida", "idb": "idb"}
    flip = (objs, {"f": "g", "g": "f", **fixed})
    onto_f = (objs, {"f": "f", "g": "f", **fixed})
    cases = [
        (two, swap, swap, "res[id_*] moves object 0"),
        (par, flip, flip, "res[id_*] moves morphism f"),
        (two, ids, to_0, "restriction not strict on (s,s) at 1"),
        (par, (objs, {m: m for m in par.mor}), onto_f,
         "restriction not strict on (s,s) at morphism"),
    ]
    for fibre, e, s, msg in cases:
        with pytest.raises(InternalError) as ex:
            strict_indexed(base, {"*": fibre}, _z2_restrictions(fibre, e, s))
        assert str(ex.value) == msg


def test_nu_and_path_cell_on_twisted():
    D = corpus.twisted_z2_indexed()
    assert nu(D, "*", [], "*") == "1"  # unitor
    assert nu(D, "*", ["s"], "*") == "1"
    assert nu(D, "*", ["s", "s"], "*") == "t"
    assert nu(D, "*", ["s", "s", "s"], "*") == "t"
    assert path_cell(D, "*", ["s", "s", "s"], ["s"], "*") == "t"
    assert path_cell(D, "*", ["s", "s"], ["s", "s"], "*") == "1"
    with pytest.raises(InternalError):
        path_cell(D, "*", ["s", "s"], ["s"], "*")


def test_identity_indexed_fun():
    for D in (corpus.twisted_z2_indexed(), embed_discrete(corpus.patches_sheaf())):
        F = identity_indexed_fun(D)
        assert validate_indexed_fun(F) == []
        assert is_indexed_equivalence(F)


def test_compose_indexed_funs():
    D = corpus.twisted_z2_indexed()
    F = identity_indexed_fun(D)
    assert validate_indexed_fun(compose_indexed_funs(F, F)) == []


def test_presheaf_mor_and_embed():
    P = corpus.patches_sheaf()
    Q = corpus.patches_nonsheaf()
    # fixing every patch section while collapsing the global ones cannot be
    # natural: x2 restricts to a2 upstairs but to a1 after the collapse
    t = {
        "X": {"x1": "x1", "x2": "x1"},
        "p": {"a1": "a1", "a2": "a2"},
        "q": {"b1": "b1"},
        "r": {"c1": "c1"},
    }
    assert validate_presheaf_mor(P, Q, t) != []

    ident = {X: {e: e for e in P.els[X]} for X in P.base.objects}
    assert validate_presheaf_mor(P, P, ident) == []
    F = embed_mor(P, P, ident)
    assert validate_indexed_fun(F) == []
    assert is_indexed_equivalence(F)


def test_indexed_nat_search():
    D = embed_discrete(corpus.patches_sheaf())
    F = identity_indexed_fun(D)
    t = find_indexed_natiso(F, F)
    assert t is not None
    assert validate_indexed_nat(t) == []


def test_indexed_nat_search_fails_between_sizes():
    P = corpus.patches_sheaf()
    Q = corpus.patches_nonsheaf()
    # the natural collapse: a2 must follow x2 down to a1
    t = {
        "X": {"x1": "x1", "x2": "x1"},
        "p": {"a1": "a1", "a2": "a1"},
        "q": {"b1": "b1"},
        "r": {"c1": "c1"},
    }
    assert validate_presheaf_mor(P, Q, t) == []
    F = embed_mor(P, Q, t)
    assert validate_indexed_fun(F) == []
    # collapsing distinct discrete objects is never full
    eq = is_indexed_equivalence(F)
    assert not eq


def test_precompose_indexed():
    D = corpus.twisted_z2_indexed()
    w = corpus.walking_iso_cat()
    F = Functor(
        w, corpus.z2_cat(),
        {"x": "*", "y": "*"},
        {"idx": "e", "idy": "e", "f": "s", "g": "s"},
    )
    assert F.validate() == []
    E = precompose_indexed(D, F)
    assert validate_indexed(E) == []
    assert E.gamma("f", "g", "*") == "t"


def test_strict_indexed_fun_requires_strictness():
    D = embed_discrete(corpus.patches_sheaf())
    comps = {X: identity_functor(D.fib[X]) for X in D.base.objects}
    F = strict_indexed_fun(D, D, comps)
    assert validate_indexed_fun(F) == []


def test_strict_indexed_fun_rejects_components_that_do_not_commute():
    """The identity components from Z2 acting trivially on two objects to
    Z2 swapping them do not commute with restriction along s."""
    base = corpus.z2_cat()
    two = corpus.discrete_two()
    swap = Functor(two, two, {"0": "1", "1": "0"},
                   {("id", "0"): ("id", "1"), ("id", "1"): ("id", "0")})
    D = const_indexed(base, two)
    E = strict_indexed(base, {"*": two}, {"e": identity_functor(two), "s": swap})
    with pytest.raises(InternalError) as ex:
        strict_indexed_fun(D, E, {"*": identity_functor(two)})
    assert str(ex.value) == "components not strict along s at 0"


def _iso_times_z2_with_zero():
    """Over the arrow a -> b: the constant indexed category on the walking
    iso x ~ y times the monoid on arrows 1, s, z with s∘s = 1 and z
    absorbing, its identity functor F, and the identity components of F.
    (idx,s) is an automorphism of (x,*) that does not commute with (f,1),
    and (idx,z) is not invertible."""
    mor = {a: ("*", "*") for a in ("1", "s", "z")}
    table = {(a, b): "z" if "z" in (a, b) else ("1" if a == b else "s")
             for a in mor for b in mor}
    M = FinCat(("*",), mor, {"*": "1"}, table, name="M")
    D = const_indexed(corpus.arrow_cat(),
                      product_cat([corpus.walking_iso_cat(), M]).cat)
    ident = {X: {V: D.fib[X].ident[V] for V in D.fib[X].objects}
             for X in D.base.objects}
    return D, identity_indexed_fun(D), ident


# The arrow put at (x,*) in place of its identity; None takes it away.
_BREAKS = {"missing": None, "other ends": ("f", "1"),
           "not invertible": ("idx", "z"), "not natural": ("idx", "s")}
_NOT_NATURAL = [f"not natural at ({f},{a})" for f in "fg" for a in "1s"]
_FAMILY_CASES = [
    (kind, how, [f"{name} {finding}" for finding in findings])
    for kind, name in (("unitor", "unitor at a"),
                       ("compositor", "compositor (i,ida)"),
                       ("cell", "cell along i"),
                       ("component", "component at a"))
    for how, findings in (("missing", ["malformed at (x,*)"]),
                          ("other ends", ["malformed at (x,*)"]),
                          ("not invertible", ["not invertible at (x,*)"]),
                          ("not natural", _NOT_NATURAL))
    if (kind, how) != ("component", "not invertible")
]


@pytest.mark.parametrize("kind,how,expected", _FAMILY_CASES)
def test_one_check_for_every_family_of_fibre_arrows(kind, how, expected):
    """Unitors, compositors, an indexed functor's cells and a
    transformation's components are checked by one rule, with one wording:
    each arrow is there with the right ends, invertible for all but
    components, and the family is natural."""
    D, F, ident = _iso_times_z2_with_zero()

    def broken(family):
        family = {k: dict(arrows) for k, arrows in family.items()}
        key = {"compositor": ("i", "ida"), "cell": "i"}.get(kind, "a")
        if _BREAKS[how] is None:
            del family[key][("x", "*")]
        else:
            family[key][("x", "*")] = _BREAKS[how]
        return family

    if kind == "unitor":
        got = validate_indexed(
            IndexedCat(D.base, D.fib, D.res, D.compositor, broken(D.unitor)))
    elif kind == "compositor":
        got = validate_indexed(
            IndexedCat(D.base, D.fib, D.res, broken(D.compositor), D.unitor))
    elif kind == "cell":
        got = validate_indexed_fun(IndexedFun(D, D, F.comp, broken(F.cell)))
    else:
        got = validate_indexed_nat(IndexedNat(F, F, broken(ident)))
    assert got == expected


def test_validate_indexed_nat_reports_typing_before_naturality():
    """Every component's typing comes first: a wrong arrow at the later
    object b is reported, and the naturality defect at the earlier object a
    is not; a missing component comes before both."""
    _, F, comp = _iso_times_z2_with_zero()
    comp["a"][("x", "*")] = ("idx", "s")
    assert validate_indexed_nat(IndexedNat(F, F, comp)) == [
        f"component at a {finding}" for finding in _NOT_NATURAL]
    comp["b"][("y", "*")] = ("g", "1")
    assert validate_indexed_nat(IndexedNat(F, F, comp)) == [
        "component at b malformed at (y,*)"]
    del comp["b"]
    assert validate_indexed_nat(IndexedNat(F, F, comp)) == [
        "no component at b"]
