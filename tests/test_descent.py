import os
import subprocess
import sys
from pathlib import Path

import pytest

import finstack

from finstack import (
    Caps,
    CapExceeded,
    Sieve,
    comparison,
    comparison_datum,
    desc_cat,
    desc_hom,
    embed_discrete,
    embed_mor,
    enumerate_data,
    is_equivalence,
    is_prestack,
    is_stack,
    minimal_cover,
    push_datum,
    restrict_datum,
    saturate,
    validate_fincat,
)

import corpus
from oracles import validate_datum


def test_enumerate_data_span_counts_matching_pairs():
    # Over the span cover {jp, jq} a discrete datum is a free pair of local
    # sections: no overlap constrains them.
    c, J = corpus.span_site()
    D = embed_discrete(corpus.span_presheaf(0))
    R = minimal_cover(J, "X")
    data = enumerate_data(D, R)
    assert len(data) == 2  # |F(p)| * |F(q)| = 2 * 1
    for a in data:
        assert validate_datum(D, R, a) == []


def test_enumerate_data_patches_respects_overlap():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    R = minimal_cover(J, "X")
    data = enumerate_data(D, R)
    # Matched pairs only: (a1,b1) and (a2,b1), each with the forced r-value.
    assert len(data) == 2


def test_desc_cat_is_a_category():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    R = minimal_cover(J, "X")
    cat = desc_cat(D, R)
    assert validate_fincat(cat) == []
    assert len(cat.objects) == 2


def test_comparison_functor_validates():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    R = minimal_cover(J, "X")
    cat = desc_cat(D, R)
    F = comparison(D, R, cat)
    assert F.validate() == []
    assert is_equivalence(F)


def test_comparison_over_maximal_sieve_is_equivalence():
    # Desc over the maximal sieve recovers the fibre, non-strict case included.
    D = corpus.twisted_z2_indexed()
    R = Sieve("*", frozenset(D.base.into("*")), D.base)
    cat = desc_cat(D, R)
    assert validate_fincat(cat) == []
    F = comparison(D, R, cat)
    assert F.validate() == []
    assert is_equivalence(F)


def test_stack_predicates_on_patches():
    c, J = corpus.patches_site()
    glued = embed_discrete(corpus.patches_sheaf())
    assert is_prestack(glued, J)
    assert is_stack(glued, J)

    torn = embed_discrete(corpus.patches_nonsheaf())
    assert is_prestack(torn, J)  # separated
    st = is_stack(torn, J)
    assert not st and "glue" in st.reason

    doubled = embed_discrete(corpus.patches_nonseparated())
    pre = is_prestack(doubled, J)
    assert not pre and "full" in pre.reason
    assert not is_stack(doubled, J)


def test_stack_predicates_on_span():
    c, J = corpus.span_site()
    empty_top = embed_discrete(corpus.span_presheaf(0))
    assert is_prestack(empty_top, J)
    assert not is_stack(empty_top, J)


def test_twisted_is_stack_for_trivial_topology():
    D = corpus.twisted_z2_indexed()
    J = saturate(D.base, {})
    assert is_prestack(D, J)
    assert is_stack(D, J)


def test_empty_sieve_descent_is_terminal():
    # Over the empty sieve there is exactly one datum and one morphism.
    c = corpus.arrow_cat()
    J = saturate(c, {"b": [[]]})
    D = embed_discrete(corpus.arrow_presheaf())
    R = minimal_cover(J, "b")
    assert R.mors == frozenset()
    cat = desc_cat(D, R)
    assert len(cat.objects) == 1
    assert len(cat.mor) == 1
    # F(b) has two elements mapping to the point: not fully faithful.
    assert not is_stack(D, J)


def test_restrict_datum():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    R = minimal_cover(J, "X")
    a = comparison_datum(D, R, "x2")
    y = corpus.le("p", "X")
    S = minimal_cover(J, "p")
    b = restrict_datum(D, a, y, S)
    assert validate_datum(D, S, b) == []
    assert b.obj[corpus.le("p", "p")] == "a2"


def test_push_datum():
    P = corpus.patches_sheaf()
    ident = {X: {e: e for e in P.els[X]} for X in P.base.objects}
    F = embed_mor(P, P, ident)
    c, J = corpus.patches_site()
    R = minimal_cover(J, "X")
    a = comparison_datum(F.D, R, "x1")
    b = push_datum(F, R, a)
    assert validate_datum(F.E, R, b) == []
    assert b == a


def test_desc_hom_identity_present():
    c, J = corpus.patches_site()
    D = embed_discrete(corpus.patches_sheaf())
    R = minimal_cover(J, "X")
    a = comparison_datum(D, R, "x1")
    homs = desc_hom(D, R, a, a)
    assert len(homs) == 1  # discrete fibres: only the identity


def test_descent_cap():
    c, J = corpus.span_site()
    D = embed_discrete(corpus.span_presheaf(0))
    R = minimal_cover(J, "X")
    with pytest.raises(CapExceeded):
        enumerate_data(D, R, Caps(max_descent=1))


_BROKEN_DATA = """
from finstack import DescentDatum, const_indexed, embed_discrete, enumerate_data
from finstack import minimal_cover
from oracles import validate_datum
import corpus

c, J = corpus.patches_site()
R = minimal_cover(J, "X")
D = embed_discrete(corpus.patches_sheaf())
a = enumerate_data(D, R)[0]
members = R.members()
dropped = DescentDatum({f: a.obj[f] for f in members[2:]}, a.coh)
K = const_indexed(c, corpus.z2_cat())
b = enumerate_data(K, R)[0]
flipped = dict(b.coh)
for f in members:
    flipped[(f, c.ident[c.dom(f)])] = "s"
print(repr([validate_datum(D, R, dropped),
            validate_datum(K, R, DescentDatum(b.obj, flipped))]))
"""


def test_validate_datum_findings_ignore_hash_seed():
    """A sieve's members are a set of hashed ids; the first missing member
    and the normalization findings must not follow its iteration order."""
    src = str(Path(finstack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, str(Path(__file__).parent)])}
    outs = set()
    for seed in ("1", "2", "3", "4", "5", "6"):
        run = subprocess.run([sys.executable, "-c", _BROKEN_DATA],
                             env={**env, "PYTHONHASHSEED": seed},
                             capture_output=True, text=True, timeout=60,
                             check=True)
        outs.add(run.stdout)
    assert len(outs) == 1
    missing, normalization = eval(outs.pop())
    assert missing == ["no object assigned at (le,p,X)"]
    assert normalization[:3] == [
        "normalization fails at (le,p,X)",
        "normalization fails at (le,q,X)",
        "normalization fails at (le,r,X)",
    ]
