"""The interchange reader and writer against the two-pass forms they
replace, and findings parity between the DSL and interchange paths.

`load_interchange` hashes a document in emitted form as its text stands
and re-encodes any other text; `serialize_blocks` encodes the body once and
splices the digest member in.  Both are compared here with the re-encoding
check and the two-dump writer, on the goldens, on emitted documents and on
altered copies of them."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from finstack import dsl, serialize_blocks
from finstack.cli import main
from finstack.dsl import load_input, load_interchange, serialize_env

import sitegen
from oracles import in_emitted_form, load_outcome

DATA = Path(__file__).parent / "data"
GOLDENS = ("patches", "span", "twisted", "factor")
SEEDS = range(3)


def _canon(v):
    return json.dumps(v, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def _sha(text):
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reencoding_check(text):
    """The digest check that re-encodes every document: hash the canonical
    encoding of its body and compare with the digest it carries."""
    doc = json.loads(text)
    body = {"format": doc.get("format"), "blocks": doc.get("blocks")}
    return doc.get("digest") == _sha(_canon(body))


def _two_dumps(text):
    """The emitter's bytes by the two-dump reference: encode the body, hash
    it, then encode the body again with the digest member."""
    doc = json.loads(text)
    body = {"format": doc["format"], "blocks": doc["blocks"]}
    return _canon({**body, "digest": _sha(_canon(body))}) + "\n"


def _sitegen_document(seed):
    """A seeded site with an indexed category and a presheaf over it."""
    rng = random.Random(seed)
    c, J = sitegen.rand_site(rng)
    D = sitegen.rand_indexed(rng, c)
    P = sitegen.rand_presheaf(rng, c, max_el=2)
    return serialize_blocks([("category", "C", c), ("topology", "J", J),
                             ("indexed", "D", D), ("presheaf", "P", P)])


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """Emitted documents: stackify and sheafify of patches.site, and
    stackify, sheafify, groth and giraud of seeded sitegen documents."""
    tmp = tmp_path_factory.mktemp("emitted")
    docs = {}

    def emit(command, path):
        out = tmp / f"{command}-{path.stem}.json"
        code = main([command, str(path), "--emit", str(out)])
        if code == 0:
            docs[f"{command}:{path.stem}"] = out.read_text(encoding="utf-8")

    for command in ("stackify", "sheafify"):
        emit(command, DATA / "patches.site")
    for seed in SEEDS:
        path = tmp / f"sitegen{seed}.json"
        path.write_text(_sitegen_document(seed), encoding="utf-8")
        for command in ("stackify", "sheafify", "groth", "giraud"):
            emit(command, path)
    return docs


def test_every_command_emitted(emitted):
    commands = {name.split(":")[0] for name in emitted}
    assert commands == {"stackify", "sheafify", "groth", "giraud"}
    assert "stackify:patches" in emitted and "sheafify:patches" in emitted


# -- writer ------------------------------------------------------------------


@pytest.mark.parametrize("stem", ["patches", "span", "twisted", "factor",
                                  "bad_laws"])
def test_writer_matches_two_dumps_on_data_documents(stem):
    env, diags = load_input((DATA / f"{stem}.site").read_text(encoding="utf-8"))
    assert not diags
    text = serialize_env(env)
    assert text == _two_dumps(text)
    golden = DATA / f"{stem}.golden.json"
    if golden.exists():
        assert text == golden.read_text(encoding="utf-8")


def test_writer_matches_two_dumps_on_emitted_documents(emitted):
    for name, text in emitted.items():
        assert text == _two_dumps(text), name
        env, diags = load_interchange(text)
        assert not diags, name
        assert serialize_env(env) == text, name


# -- digest check ------------------------------------------------------------


def _reorder(v):
    """The same JSON value with every object's keys in reverse order."""
    if isinstance(v, dict):
        return {k: _reorder(v[k]) for k in reversed(list(v))}
    if isinstance(v, list):
        return [_reorder(x) for x in v]
    return v


def _compact(doc):
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n"


def _change_one_byte(text):
    i = len(text) // 2
    while not text[i].isalpha():
        i += 1
    return text[:i] + ("x" if text[i] != "x" else "y") + text[i + 1:]


def _variants(text):
    """Altered copies of an emitted document: name -> text."""
    doc = json.loads(text)
    dg = doc["digest"]
    first = {"digest": dg, **doc["blocks"][0]}
    nested = {**doc, "blocks": [first] + doc["blocks"][1:]}
    nested_body = {"format": doc["format"], "blocks": nested["blocks"]}
    return {
        "as emitted": text,
        "re-indented": json.dumps(doc, indent=1, ensure_ascii=False) + "\n",
        "keys reordered in blocks": _compact(
            {**doc, "blocks": _reorder(doc["blocks"])}),
        "keys reordered at the top": _compact(_reorder(doc)),
        "extra member before the digest": _compact(
            {"blocks": doc["blocks"], "comment": "x", "digest": dg,
             "format": doc["format"]}),
        "extra member after the digest": _compact(
            {"blocks": doc["blocks"], "digest": dg, "extra": 1,
             "format": doc["format"]}),
        "escaped digest": text.replace('"digest":"sha256:',
                                       '"digest":"\\u0073ha256:'),
        "nested digest member": _compact(nested),
        "nested digest member, digested": _canon(
            {**nested_body, "digest": _sha(_canon(nested_body))}) + "\n",
        "one changed byte": _change_one_byte(text),
        "changed digest": text.replace(dg, dg[:-1] + ("0" if dg[-1] != "0"
                                                      else "1")),
        "no final newline": text[:-1],
        "CRLF": text.replace("\n", "\r\n"),
    }


def _load_by_reencoding(text, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(dsl, "_digest_of_emitted_text", lambda text: False)
        return load_interchange(text)


def _outcome(loaded):
    env, diags = loaded
    return diags, None if env is None else serialize_env(env)


def test_digest_check_matches_reencoding(emitted, monkeypatch):
    documents = {f"golden:{g}": (DATA / f"{g}.golden.json").read_text(
        encoding="utf-8") for g in GOLDENS}
    # The 430 KB stackify:patches is left to the writer tests: 13 variants
    # of it take seconds, and the seeded stackify documents nest data alike.
    documents.update((name, text) for name, text in emitted.items()
                     if name.split(":")[0] in ("stackify", "sheafify")
                     and name != "stackify:patches")
    taken = 0
    for name, text in documents.items():
        for variant, vtext in _variants(text).items():
            label = f"{name}, {variant}"
            got = _outcome(load_interchange(vtext))
            assert got == _outcome(_load_by_reencoding(vtext, monkeypatch)), label
            try:
                valid = _reencoding_check(vtext)
            except json.JSONDecodeError:
                assert got[0] and "not valid JSON" in got[0][0].msg, label
                continue
            mismatch = bool(got[0]) and "digest mismatch" in got[0][0].msg
            assert mismatch == (not valid), label
            if dsl._digest_of_emitted_text(vtext):
                assert valid, label
                taken += 1
        assert dsl._digest_of_emitted_text(text), name
    # The unaltered documents and the re-digested nested member.
    assert taken == 2 * len(documents)


def test_emitted_form_is_checked_against_its_own_text():
    """A document in emitted form is accepted when its digest is the sha256
    of its text without the digest member, canonical or not: the text is
    then exactly what was hashed.  Such a digest over non-canonical text can
    only be written by hand; the re-encoding check rejects it."""
    text = (DATA / "span.golden.json").read_text(encoding="utf-8")
    head = text[:text.index(',"digest":"')].replace('"name":"J"',
                                                    '"name": "J"')
    tail = ',"format":"finstack/1"}'
    hand = f'{head},"digest":"{_sha(head + tail)}"{tail}\n'
    env, diags = load_interchange(hand)
    assert not diags
    assert serialize_env(env) == text
    assert not _reencoding_check(hand)


def test_unpaired_surrogate_is_a_diagnostic():
    text = (DATA / "span.golden.json").read_text(encoding="utf-8")
    env, diags = load_interchange(text.replace('"jp"', '"j\\ud800"'))
    assert env is None
    assert "unpaired surrogate" in diags[0].msg


# -- shared datum texts ------------------------------------------------------

def _data(v, found):
    """Every `{"dd": …}` object under v, as id -> object, entering each
    one once."""
    if isinstance(v, dict):
        if "dd" in v:
            if id(v) in found:
                return found
            found[id(v)] = v
        v = v.values()
    elif not isinstance(v, list):
        return found
    for x in v:
        _data(x, found)
    return found


def _datum_name(doc):
    """One datum object as the `name` of twisted's fibre category, which
    `_cat_unjson` reads raw, and again as an object of its base."""
    datum = {"dd": [[["s0", "v"]], []]}
    _block(doc, "TW")["fib"][0][1]["name"] = datum
    _block(doc, "Z2")["objects"].append(datum)


def _datum_family(doc):
    """One datum object with a second member as two of patches' cover
    families, which `_top_unjson` iterates."""
    covers = _block(doc, "J")["covers"]
    for row in covers[:2]:
        row[1].append({"dd": [[], []], "m": [["le", "p", "X"]]})


def _data_alike(doc):
    """Twenty data whose texts share their first 60 characters, each twice,
    as objects of patches' base: more than one prefix of the scan holds."""
    data = [{"dd": [[[["le", "X", "X"], "v" * 40 + f"{k:02}"]], []]}
            for k in range(20)]
    _block(doc, "P")["objects"].extend(data + data)


HAND_MADE = {"datum name": ("twisted", _datum_name),
             "datum family": ("patches", _datum_family),
             "data alike": ("patches", _data_alike)}


def _hand_made(name):
    golden, edit = HAND_MADE[name]
    doc = json.loads((DATA / f"{golden}.golden.json").read_text(encoding="utf-8"))
    edit(doc)
    return in_emitted_form(_canon({"blocks": doc["blocks"], "format": doc["format"]}))


def _parity_documents(emitted):
    docs = {f"golden:{g}": (DATA / f"{g}.golden.json").read_text(encoding="utf-8")
            for g in GOLDENS}
    docs.update(emitted)
    docs.update((f"sitegen:{seed}", _sitegen_document(seed)) for seed in SEEDS)
    docs.update((name, _hand_made(name)) for name in HAND_MADE)
    return docs


def test_parse_matches_json_loads(emitted):
    """`_parse` reads what `json.loads` reads, with one object for each
    distinct datum text: every datum object in the tree has its own text."""
    shared = set()
    for name, text in _parity_documents(emitted).items():
        doc = dsl._parse(text)
        assert doc == json.loads(text), name
        data = _data(doc, {}).values()
        texts = {json.dumps(d, separators=(",", ":"), ensure_ascii=False)
                 for d in data}
        assert len(texts) == len(data), name
        assert all(t in text for t in texts), name
        if text.count('{"dd":') > len(data):
            shared.add(name)
    assert shared == {n for n in emitted if n.startswith("stackify:")} | set(HAND_MADE)


def test_parse_leaves_a_text_holding_nul_as_it_stands():
    """A `\\u0000` key is read as written: here one inside a datum object
    and one alone, as the marks and references of the scan look."""
    text = _hand_made("datum name").replace(
        '"name":{"dd":', '"name":{"\\u0000":0,"dd":', 1).replace(
        '"v"', '{"\\u0000":0}', 1)
    assert text.count('{"\\u0000":0') == 2
    assert dsl._parse(text) == json.loads(text)


def test_text_that_is_not_json_is_diagnosed_as_fully_parsed(emitted):
    """A broken text with data in it gets the diagnostic `json.loads` gives
    it, at its own line and column, whether it breaks inside the first datum
    copy, among the copies or after them."""
    text = emitted["stackify:sitegen1"]
    first = text.index('{"dd":')
    for at in (first + 9, len(text) // 2, len(text) - 30):
        for bad in (text[:at], text[:at] + "\x01" + text[at:]):
            got = load_outcome(bad)
            assert got[0][0].msg.startswith("not valid JSON"), at
            assert got == load_outcome(bad, full_parse=True), at


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_hand_made_documents_load_as_fully_parsed(name):
    """The readers see the datum objects themselves, never a reference to
    them: loading gives what it gives when `json.loads` reads every copy."""
    text = _hand_made(name)
    assert dsl._digest_of_emitted_text(text)
    assert text.count('{"dd":') == 2 * len(_data(dsl._parse(text), {}))
    got = load_outcome(text)
    assert got[1] and got == load_outcome(text, full_parse=True)


# -- findings parity ---------------------------------------------------------


def _block(doc, name):
    return next(b for b in doc["blocks"] if b["name"] == name)


def _remap(rows, key, value):
    for row in rows:
        if row[0] == key:
            row[1] = value
            return
    raise KeyError(key)


def _span_json(doc):
    doc["blocks"].insert(1, {
        "kind": "functor", "name": "F", "src": "S", "dst": "S",
        "omap": [["X", "X"], ["p", "p"], ["q", "q"]],
        "mmap": [["jp", "jq"], ["jq", "jq"], [["id", "X"], ["id", "X"]],
                 [["id", "p"], ["id", "p"]], [["id", "q"], ["id", "q"]]]})


def _patches_json(doc):
    _remap(_block(doc, "S")["act"], ["le", "p", "p"],
           [["sp", "sp'"], ["sp'", "sp"]])


def _factor_json(doc):
    _remap(_block(doc, "DpX")["mmap"], ["id", "sX"], ["id", "sp'"])
    for y, f in _block(doc, "D")["res"]:
        if y == ["le", "p", "X"]:
            _remap(f["mmap"], ["id", "sX"], ["id", "sp'"])


def _twisted_json(doc):
    _remap(_block(doc, "IdF")["mmap"], "t", ["id", "v"])
    for _, f in _block(doc, "TW")["res"]:
        _remap(f["mmap"], "t", ["id", "v"])


# document -> (.site text replaced, its replacement, the same break in JSON).
# The DSL closes categories and saturates coverages, so span.site gets a
# functor block that breaks a law, in both forms.
BREAKS = {
    "span": ("}\ncoverage", "}\nfunctor F : S -> S { obj p = p; obj q = q; "
             "obj X = X; mor jp = jq; mor jq = jq; }\ncoverage", _span_json),
    "patches": ("r <= q: sq -> sr;",
                "r <= q: sq -> sr;\n  p <= p: sp -> sp', sp' -> sp;",
                _patches_json),
    "factor": ("functor DpX : DX -> Dp { obj sX = sp; }",
               "functor DpX : DX -> Dp { obj sX = sp; mor id(sX) = id(sp'); }",
               _factor_json),
    "twisted": ("mor t = t;", "mor t = id(v);", _twisted_json),
    "bad_laws": None,
}


# Documents with two findings in one phase of a validator, checked in the
# same way.  The DSL keeps the declared order of objects (b before a, y
# before x) and interchange JSON the stable one, so the findings come out in
# one order on both paths only because each phase checks every element and
# sorts what it finds.
TWO_FINDINGS = {
    "functor": "category S { objects: b, a; morphisms: f: a -> b; }"
               " category T { objects: t; morphisms: e: t -> t;"
               " compose: e . e = e; }"
               " functor F : S -> T { obj b = t; obj a = t;"
               " mor id(b) = e; mor id(a) = e; mor f = e; }",
    "indexed": "category B { objects: y, x; }"
               " category K { objects: v, u; morphisms: i: v -> u, j: u -> v;"
               " compose: j . i = id(v); compose: i . j = id(u); }"
               " functor IdK : K -> K { obj v = v; obj u = u; mor i = i; mor j = j; }"
               " indexed D over B { fiber x = K; fiber y = K; restrict id(x) = IdK;"
               " restrict id(y) = IdK; unitor x at v = i; unitor y at u = j; }",
}


@pytest.mark.parametrize("stem", sorted(BREAKS) + sorted(TWO_FINDINGS))
def test_findings_match_between_dsl_and_interchange(stem, tmp_path, capsys):
    site = TWO_FINDINGS.get(stem) or (DATA / f"{stem}.site").read_text(encoding="utf-8")
    env, diags = load_input(site)
    assert not diags
    doc = json.loads(serialize_env(env))
    if BREAKS.get(stem) is not None:
        old, new, break_json = BREAKS[stem]
        assert site.count(old) == 1
        site = site.replace(old, new)
        break_json(doc)
    body = {"format": doc["format"], "blocks": doc["blocks"]}
    text = json.dumps({**body, "digest": _sha(_canon(body))})
    reports = []
    for suffix, content in ((".site", site), (".json", text)):
        path = tmp_path / f"{stem}{suffix}"
        path.write_text(content, encoding="utf-8")
        code = main(["validate", str(path), "--json"])
        assert code == 1, capsys.readouterr()
        reports.append(json.loads(capsys.readouterr().out)["results"]["findings"])
    assert reports[0] and reports[0] == reports[1]
    assert stem not in TWO_FINDINGS or len(reports[0]) == 2
    site_env, _ = load_input(site)
    assert serialize_env(site_env) == serialize_env(load_input(text)[0])
