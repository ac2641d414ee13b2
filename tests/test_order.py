"""The canonical order of constructed ids against the formulas that computed
it before descent data cached their keys and categories ranked their
morphisms: sort by `ckey`, with a datum keyed by its sorted item pairs.

Runs on the corpus sites and both plus stages of `stackify` on them."""

import random

import pytest

from finstack import DescentDatum, embed_discrete, saturate, stackify
from finstack.dsl import _dec, _enc
from finstack.util import ckey

import corpus


def ref_pairs(a):
    return (
        tuple((f, a.obj[f]) for f in sorted(a.obj, key=ckey)),
        tuple((p, a.coh[p]) for p in sorted(a.coh, key=ckey)),
    )


def ref_ckey(x):
    """`ckey`, recomputing every nested datum's key from its sorted pairs."""
    if isinstance(x, DescentDatum):
        return ("o", "DescentDatum", ref_ckey(ref_pairs(x)))
    if isinstance(x, tuple):
        return ("t", tuple(ref_ckey(v) for v in x))
    if isinstance(x, frozenset):
        return ("f", tuple(sorted(ref_ckey(v) for v in x)))
    return ckey(x)


def ref_sorted(xs):
    return sorted(xs, key=ref_ckey)


def ref_enc(x):
    if isinstance(x, DescentDatum):
        obj, coh = ref_pairs(x)
        return {"dd": [ref_enc(obj), ref_enc(coh)]}
    if isinstance(x, tuple):
        return [ref_enc(v) for v in x]
    return _enc(x)


def _z2_site():
    c = corpus.z2_cat()
    return c, saturate(c, {})


# name -> (site, indexed category over it)
CASES = {
    "patches-sheaf": (corpus.patches_site,
                      lambda: embed_discrete(corpus.patches_sheaf())),
    "patches-nonsheaf": (corpus.patches_site,
                         lambda: embed_discrete(corpus.patches_nonsheaf())),
    "multicover": (corpus.multicover_site,
                   lambda: embed_discrete(corpus.patches_nonseparated())),
    "span": (corpus.span_site, lambda: embed_discrete(corpus.span_presheaf_free())),
    "arrow": (corpus.arrow_site, lambda: embed_discrete(corpus.arrow_presheaf())),
    "twisted": (_z2_site, corpus.twisted_z2_indexed),
    "arrow-iso": (corpus.arrow_site,
                  lambda: corpus.const_walking_iso(corpus.arrow_cat())),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def stages(request):
    site, indexed = CASES[request.param]
    (c, J), D = site(), indexed()
    s = stackify(D, J)
    return c, J, (s.once, s.twice)


def _check_ordered(c, rng):
    ms = list(c.mor)
    rng.shuffle(ms)
    assert c.ordered(ms) == ref_sorted(ms)
    sub = rng.sample(ms, len(ms) // 2)
    assert c.ordered(sub) == ref_sorted(sub)


def test_ordered_matches_ckey_sort(stages):
    c, J, plus_stages = stages
    rng = random.Random(0)
    _check_ordered(c, rng)
    for p in plus_stages:
        for X in c.objects:
            _check_ordered(p.output.fib[X], rng)


def test_sieve_members_match_ckey_sort(stages):
    c, J, plus_stages = stages
    for X in c.objects:
        for R in J.covers_of(X):
            assert R.members() == ref_sorted(R.mors)
    for p in plus_stages:
        for R in p.minimal.values():
            assert R.members() == ref_sorted(R.mors)


def test_datum_keys_and_encoding(stages):
    c, J, plus_stages = stages
    for p in plus_stages:
        for X in c.objects:
            fib = p.output.fib[X]
            assert len(set(fib.objects)) == len(fib.objects)
            for a in fib.objects:
                assert a._ckey() == ref_ckey(ref_pairs(a))
                assert a._key == ref_pairs(a)
                assert _enc(a) == ref_enc(a)
                assert _dec(_enc(a)) is a
                obj = dict(reversed(list(a.obj.items())))
                coh = dict(reversed(list(a.coh.items())))
                assert list(obj) != list(a.obj) or len(a.obj) < 2
                b = DescentDatum(obj, coh)
                assert b is a
                assert b._ckey() == a._ckey()


def test_descent_morphism_ids_list_components_in_member_order(stages):
    c, J, plus_stages = stages
    for p in plus_stages:
        for X in c.objects:
            for a, b, comp in p.output.fib[X].mor:
                assert [f for f, _ in comp] == ref_sorted(a.obj)
