"""Site-description language and the canonical interchange serialization.

The text format is line-oriented with braces-delimited blocks:

    category C {
      objects: a, b;
      morphisms: f: a -> b, g: b -> a;
      compose: g . f = id(a);
    }
    poset P { r <= p; p <= X; }
    coverage J on P { X: [p <= X]; }
    functor F : C -> C { obj a = a; mor f = f; }
    presheaf S over P { X = {s0}; p <= X: s0 -> t0; }
    indexed D over C { fiber a = C; restrict f = F; strict; }
    fibration Q : D -> D2 { component a = F; }

Comments start with //.  Input may use LF or CRLF; everything emitted uses
LF.  `parse` turns text into a SiteDoc, `elaborate` resolves names and
builds validated core values, and `serialize_blocks`/`load_interchange`
convert elaborated values to and from a canonical JSON form with a sha256
digest over the canonical bytes.

The block kinds are listed once each.  `BLOCK_KINDS` is the grammar of the
text format: for each of its seven kinds, the header after the block name
and the entries, as shapes of tokens or as the parser method that reads an
irregular entry.  One `_Parser.block` reads every block through it, the
reserved words and the parse hints are derived from it, and the elaborator
resolves the blocks a header names before it calls `do_<kind>`.
`_INTERCHANGE` holds the six kinds of the JSON form (a poset is written as
a category, a coverage as a topology), each with the earlier blocks it
refers to, its reader and its validator: the loader reads every block in
one loop over it, and the writer calls the `_Writer` method named by the
kind.

The writer writes that text directly, in fragments joined once at the end.
Each descent datum's, tuple's and frozenset's text is built once per
document, in a memo keyed by identity and never by value, since
(True, "x") == (1, "x") have different texts.  The bytes and the row order
are those of `json.dumps` with sorted keys and compact separators on the
document's JSON structure (`_Writer` says why the row order is the same).
The reader parses each distinct descent datum's text once and shares the
object among its copies (`_parse`), so it decodes each datum once too.

Category blocks list generating morphisms; the composites are closed over
the stated relations by coset enumeration, so the composite of two
generators need not be declared unless a relation names it, and every
stated relation holds in the result.  Each morphism is named by its least
generator word, shortest first and then by generator names.  The
enumeration is bounded by the max_closure cap, which counts every
morphism enumerated, including ones later found equal, and fails loudly
when the quotient will not close within it.

Morphisms are referenced uniformly: a generator name, a dotted composite
`g . f` (meaning g after f), a poset pair `a <= b`, or `id(x)`.

Functor images, presheaf actions and strict restrictions need be stated
only on generators.  Each morphism is mapped by one rule: to the stated
entry if there is one, to the unit (identity morphism, identity map,
identity functor) if it is an identity, and otherwise to the images of its
generator word (for a poset, a shortest path of stated relations) folded
in composition order, covariantly for a functor and contravariantly for an
action or a restriction.  Images that do not compose, or a generator
without one, are diagnostics.

Coherence cells default to identities: an `indexed` block's compositor and
unitor and a `fibration` block's cells are the identity wherever the two
sides they compare agree on the object, and the given entries fill other
slots.  A slot left open is a diagnostic naming the first one (unitors
first, then the base's table order; cells in stable morphism order), but
in a `strict;` block it is the block's finding, "restriction not strict on
(g,f) at V", and the block is declared.
"""

import hashlib
import json
import re
from collections import deque
from dataclasses import dataclass, field

from . import caps as _caps
from .caps import CapExceeded
from .descent import DescentDatum
from .fincat import (
    FinCat,
    Functor,
    InternalError,
    compose_functors,
    identity_functor,
    poset_cat,
    require,
    validate_fincat,
)
from .indexed import (
    IndexedCat,
    IndexedFun,
    Presheaf,
    identity_cells,
    identity_coherence,
    validate_indexed,
    validate_indexed_fun,
    validate_presheaf,
)
from .site import Topology, saturate, validate_topology
from .util import fmt, stable_sorted

FORMAT = "finstack/1"

# A morphism reference in a shape: a generator name, a dotted composite
# `g . f`, a poset pair `a <= b` or `id(x)`.
MOR = "morphism reference"

# The site language's grammar, one item per block kind, in the order the
# parse hint lists them.  A block is `kind name header { entries }`, and
# each kind gives its header's shape and its entries.  A shape is a tuple of
# MOR, of phrases such as "object name" (a name that is not reserved, which
# messages call by the phrase) and of tokens read as they stand.  A kind's
# entries map each keyword that starts one to the shape of its rest, read
# as Entry(keyword, the values of its MOR and name items), or to the
# `_Parser` method that reads it.  A kind without keywords names the one
# method that reads each of its entries.  `_Elab` elaborates a block with
# `do_<kind>`, given the blocks its header names.
BLOCK_KINDS = {
    "category": ((), {
        "objects": "objects", "morphisms": "morphisms", "compose": "compose",
    }),
    "poset": ((), "relation"),
    "coverage": (("on", "category name"), "cover"),
    "functor": ((":", "category name", "->", "category name"), {
        "obj": ("object name", "=", "object name", ";"),
        "mor": (MOR, "=", MOR, ";"),
    }),
    "presheaf": (("over", "category name"), "section"),
    "indexed": (("over", "category name"), {
        "fiber": ("object name", "=", "category name", ";"),
        "restrict": (MOR, "=", "functor name", ";"),
        "compositor": ("(", MOR, ",", MOR, ")", "at", "fibre object name",
                       "=", MOR, ";"),
        "unitor": ("object name", "at", "fibre object name", "=", MOR, ";"),
        "strict": (";",),
    }),
    "fibration": ((":", "indexed name", "->", "indexed name"), {
        "component": ("object name", "=", "functor name", ";"),
        "cell": (MOR, "at", "fibre object name", "=", MOR, ";"),
    }),
}


def _reserved():
    """The words the grammar spells: kinds, keywords, the words of shapes,
    and `id` of `id(x)`."""
    out = {"id", *BLOCK_KINDS}
    for header, rules in BLOCK_KINDS.values():
        shapes = [header]
        if isinstance(rules, dict):
            out.update(rules)
            shapes += [r for r in rules.values() if isinstance(r, tuple)]
        out.update(w for shape in shapes for w in shape if w.isalpha())
    return out


RESERVED = _reserved()


def _expected(words):
    """The hint that lists `words`: "expected a or b", "expected a, b, or c"."""
    *rest, last = words
    return f"expected {', '.join(rest)}{',' * (len(rest) > 1)} or {last}"


@dataclass
class Diagnostic:
    line: int
    col: int
    msg: str
    hint: str = ""

    def __str__(self):
        tail = f" (hint: {self.hint})" if self.hint else ""
        return f"line {self.line}:{self.col}: {self.msg}{tail}"


# ---------------------------------------------------------------------------
# tokens and parsing


@dataclass
class Token:
    kind: str  # name, punct, eof
    val: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"(?P<punct>->|<=|[{}()\[\],;:=.])"
                       r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*|[0-9]+)|(?P<bad>\S)")


def _tokens(text):
    toks = []
    diags = []
    for ln, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        body = line.split("//", 1)[0]
        for m in _TOKEN_RE.finditer(body):
            v, col = m.group(), m.start() + 1
            if m.lastgroup == "bad":
                diags.append(Diagnostic(ln, col, f"unexpected character {v!r}"))
            else:
                toks.append(Token(m.lastgroup, v, ln, col))
    last = toks[-1] if toks else None
    toks.append(Token("eof", "", last.line if last else 1, last.col if last else 1))
    return toks, diags


@dataclass
class Entry:
    kind: str
    data: tuple
    line: int
    col: int


@dataclass
class Block:
    kind: str
    name: str
    refs: tuple
    entries: list
    line: int
    col: int


@dataclass
class SiteDoc:
    blocks: list


class _ParseError(Exception):
    def __init__(self, diag):
        self.diag = diag


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, t, msg, hint=""):
        raise _ParseError(Diagnostic(t.line, t.col, msg, hint))

    def expect(self, val, hint=""):
        t = self.next()
        if t.val != val or (t.kind == "eof"):
            self.fail(t, f"expected {val!r}, found {t.val!r}", hint)
        return t

    def ident(self, what="name"):
        t = self.next()
        if t.kind != "name":
            self.fail(t, f"expected {what}, found {t.val!r}")
        if t.val in RESERVED:
            self.fail(t, f"{t.val!r} is a keyword and cannot be used as a {what}")
        return t

    def commas(self, item):
        """item(), and item() again after each comma; the list of results."""
        out = [item()]
        while self.peek().val == ",":
            self.next()
            out.append(item())
        return out

    def namelist(self, closer):
        return [] if self.peek().val == closer else self.commas(
            lambda: self.ident().val)

    def read(self, shape):
        """Read the tokens of `shape` (see BLOCK_KINDS); the values of its
        MOR and name items, in order."""
        out = []
        for item in shape:
            if item == MOR:
                out.append(self.morref())
            elif " " in item:
                out.append(self.ident(item).val)
            else:
                self.expect(item)
        return tuple(out)

    def entry(self, kind, shape):
        """An entry of `kind` read by `shape`, placed at its first token."""
        t = self.peek()
        return Entry(kind, self.read(shape), t.line, t.col)

    def morref(self):
        """name | name.name... | a <= b | id(x); returns a tagged tuple."""
        t = self.peek()
        if t.val == "id" and self.peek(1).val == "(":
            self.next()
            x, = self.read(("(", "object name", ")"))
            return ("id", x)
        first = self.ident("morphism name")
        if self.peek().val == "<=":
            self.next()
            b = self.ident("object name")
            return ("le", first.val, b.val)
        names = [first.val]
        while self.peek().val == ".":
            self.next()
            names.append(self.ident("morphism name").val)
        return ("path", tuple(names))

    def doc(self):
        blocks = []
        while self.peek().kind != "eof":
            blocks.append(self.block())
        return SiteDoc(blocks)

    def block(self):
        t = self.next()
        if t.val not in BLOCK_KINDS:
            self.fail(t, f"unknown block kind {t.val!r}", _expected(BLOCK_KINDS))
        header, rules = BLOCK_KINDS[t.val]
        if t.val == "coverage" and self.peek().val == "on":
            name = "J"  # a coverage's name may be left out
        else:
            name = self.ident(f"{t.val} name").val
        refs = self.read(header)
        self.expect("{")
        entries = []
        while self.peek().val != "}":
            h = self.peek()
            rule = rules if isinstance(rules, str) else rules.get(h.val)
            if rule is None:
                self.fail(h, f"unknown {t.val} entry {h.val!r}", _expected(rules))
            if isinstance(rule, str):
                entries += getattr(self, rule)()
            else:
                self.next()
                entries.append(Entry(h.val, self.read(rule), h.line, h.col))
        self.expect("}")
        return Block(t.val, name, refs, entries, t.line, t.col)

    # Readers of the entries no shape fits.  Each reads one entry, its
    # keyword too, and returns the entries it holds, placed at their first
    # token.

    def objects(self):
        t = self.next()
        self.expect(":")
        objs = self.namelist(";")
        self.expect(";")
        return [Entry("objects", tuple(objs), t.line, t.col)]

    def morphisms(self):
        self.next()
        self.expect(":")
        out = self.commas(lambda: self.entry(
            "gen", ("morphism name", ":", "object name", "->", "object name")))
        self.expect(";")
        return out

    def compose(self):
        t = self.next()
        self.expect(":")
        lhs = self.morref()
        if lhs[0] != "path" or len(lhs[1]) < 2:
            self.fail(t, "compose left side must be a dotted composite",
                      "write compose: g . f = h;")
        rhs, = self.read(("=", MOR, ";"))
        return [Entry("rel", (lhs[1], rhs), t.line, t.col)]

    def relation(self):
        return [self.entry("le", ("object name", "<=", "object name", ";"))]

    def cover(self):
        t = self.peek()
        x, = self.read(("object name", ":"))
        fams = self.commas(self.family)
        self.expect(";")
        return [Entry("cover", (x, tuple(fams)), t.line, t.col)]

    def family(self):
        self.expect("[")
        fam = [] if self.peek().val == "]" else self.commas(self.morref)
        self.expect("]")
        return tuple(fam)

    def section(self):
        t = self.peek()
        ref = self.morref()
        if ref[0] == "path" and len(ref[1]) == 1 and self.peek().val == "=":
            self.read(("=", "{"))
            els = self.namelist("}")
            self.read(("}", ";"))
            return [Entry("els", (ref[1][0], tuple(els)), t.line, t.col)]
        self.expect(":", "element sets use X = {..}; actions use f: s -> t")
        maps = self.commas(lambda: self.read(("element name", "->", "element name")))
        self.expect(";")
        return [Entry("act", (ref, tuple(maps)), t.line, t.col)]

def parse(text):
    """Parse DSL text; returns (SiteDoc or None, diagnostics)."""
    toks, diags = _tokens(text)
    if diags:
        return None, diags
    p = _Parser(toks)
    try:
        return p.doc(), []
    except _ParseError as e:
        return None, [e.diag]


# ---------------------------------------------------------------------------
# elaboration


@dataclass
class Elaborated:
    cats: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    topologies: dict = field(default_factory=dict)
    presheaves: dict = field(default_factory=dict)
    indexed: dict = field(default_factory=dict)
    indexedfuns: dict = field(default_factory=dict)
    order: list = field(default_factory=list)
    gens: dict = field(default_factory=dict)  # cat name -> {mor: generator word}
    aliases: dict = field(default_factory=dict)  # cat name -> {gen name: mor id}
    findings: list = field(default_factory=list)  # (kind, name, message)

    def add_findings(self, kind, name, refs, validate):
        """Record up to three of `validate()`'s findings against block
        `name`.  When one of its referents `refs` already has findings,
        record one naming that referent instead: a validator would index
        the referent's broken tables."""
        flawed = {n for _, n, _ in self.findings}
        bad_refs = [r for r in refs if r in flawed]
        if bad_refs:
            msgs = [f"not validated: {bad_refs[0]!r} breaks its laws"]
        else:
            msgs = validate()[:3]
        self.findings.extend((kind, name, msg) for msg in msgs)

    def kinds_of(self, kind):
        return {
            "category": self.cats,
            "functor": self.functors,
            "topology": self.topologies,
            "presheaf": self.presheaves,
            "indexed": self.indexed,
            "fibration": self.indexedfuns,
        }[kind]


class _Elab:
    def __init__(self, caps):
        self.caps = caps
        self.env = Elaborated()
        self.diags = []
        self.names = {}  # any block name -> kind

    def err(self, line, col, msg, hint=""):
        self.diags.append(Diagnostic(line, col, msg, hint))

    def repeats(self, seen, key, e, what):
        """Whether `key` is already in `seen`, with a diagnostic at entry e
        if so: a keyed entry is given once."""
        if key in seen:
            self.err(e.line, e.col, f"duplicate {what}")
            return True
        return False

    def declare(self, block, kind_key, value):
        """Bind the block's name to `value`; False, with a diagnostic, when
        the name is taken."""
        if block.name in self.names:
            self.err(block.line, block.col,
                     f"duplicate name {block.name!r} "
                     f"(already a {self.names[block.name]})")
            return False
        self.names[block.name] = block.kind
        self.env.kinds_of(kind_key)[block.name] = value
        self.env.order.append((kind_key, block.name))
        return True

    def lookup(self, table, name, what, line, col):
        if name not in table:
            self.err(line, col, f"unknown {what} {name!r}")
            return None
        return table[name]

    # -- morphism references ------------------------------------------------

    def resolve_mor(self, catname, cat, ref, line, col):
        """The morphism of `cat` that `ref` names.  Generator aliases are
        the ones recorded for `cat`'s own block; `catname` is the label
        messages give it ("fiber x", "base" or a block name)."""
        if ref[0] == "id":
            if ref[1] not in cat.ident:
                self.err(line, col, f"no object {ref[1]!r} in {catname!r}")
                return None
            return cat.ident[ref[1]]
        if ref[0] == "le":
            m = ("le", ref[1], ref[2])
            if m not in cat.mor:
                self.err(line, col,
                         f"no relation {ref[1]} <= {ref[2]} in {catname!r}")
                return None
            return m
        alias = self.env.aliases.get(cat.name, {})
        parts = []
        for nm in ref[1]:
            m = alias.get(nm, nm if nm in cat.mor else None)
            if m is None:
                self.err(line, col, f"unknown morphism {nm!r} in {catname!r}")
                return None
            parts.append(m)
        out = parts[0]
        for nxt in parts[1:]:
            if cat.dom(out) != cat.cod(nxt):
                self.err(line, col,
                         f"composite not defined: {fmt(out)} . {fmt(nxt)}",
                         "dom of the left factor must equal cod of the right")
                return None
            out = cat.compose(out, nxt)
        return out

    # -- category closure ----------------------------------------------------

    def _close_category(self, block, objects, gens, rels):
        """Quotient of composable generator words by the stated relations.

        Words are tuples in composition order: (g, f) stands for g after f.
        Coset enumeration (Todd-Coxeter) over the Cayley graph: one node per
        morphism, starting with the identities, and an edge g from w to
        g . w.  Nodes are processed in creation order; at each live node
        every relation is traced on both sides and the two ends are merged,
        then all of the node's edges are defined.  Merging two nodes merges
        their edges too, so the finished graph is the quotient category.
        Each morphism is named by its least word under (len(w), w)."""
        cap = self.caps.max_closure
        dom = {g: d for g, (d, _) in gens.items()}
        cod = {g: c for g, (_, c) in gens.items()}

        def wdom(w, obj=None):
            return dom[w[-1]] if w else obj

        def wcod(w, obj=None):
            return cod[w[0]] if w else obj

        rels_at = {x: [] for x in objects}
        for (lhs, rhs), (line, col) in rels:
            if rhs[0] == "le":
                self.err(line, col, "relations in category blocks use "
                         "generator names, not <=")
                return None
            if rhs[0] == "id":
                rw, robj = (), rhs[1]
                if robj not in objects:
                    self.err(line, col, f"no object {rhs[1]!r}")
                    return None
            else:
                rw, robj = rhs[1], None
                for nm in rw:
                    if nm not in gens:
                        self.err(line, col, f"unknown morphism {nm!r} in relation")
                        return None
            for nm in lhs:
                if nm not in gens:
                    self.err(line, col, f"unknown morphism {nm!r} in relation")
                    return None
            for a, b in zip(lhs, lhs[1:]):
                if dom[a] != cod[b]:
                    self.err(line, col, f"relation left side is not composable "
                             f"at {a!r} . {b!r}")
                    return None
            for a, b in zip(rw, rw[1:]):
                if dom[a] != cod[b]:
                    self.err(line, col, "relation right side is not composable")
                    return None
            if robj is None:
                ok = wdom(rw) == wdom(lhs) and wcod(rw) == wcod(lhs)
            else:
                ok = wdom(lhs) == robj and wcod(lhs) == robj
            if not ok:
                self.err(line, col, "relation sides have different endpoints")
                return None
            rels_at[wdom(lhs)].append((lhs, rw))

        gens_at = {x: [g for g in gens if dom[g] == x] for x in objects}
        node_cod, out, parent = [], [], []

        def new(x):
            if len(parent) >= cap:
                raise CapExceeded("composition closure exceeded --max-closure "
                                  f"({cap}); the category may be infinite")
            node_cod.append(x)
            out.append({})
            parent.append(len(parent))
            return parent[-1]

        def find(n):
            while parent[n] != n:
                parent[n] = n = parent[parent[n]]
            return n

        def trace(n, w):
            for g in reversed(w):
                n = find(n)
                if g not in out[n]:
                    out[n][g] = new(cod[g])
                n = out[n][g]
            return find(n)

        def merge(a, b):
            todo = [(a, b)]
            while todo:
                a, b = sorted(map(find, todo.pop()))
                if a != b:
                    parent[b] = a
                    for g, t in out[b].items():
                        if g in out[a]:
                            todo.append((out[a][g], t))
                        else:
                            out[a][g] = t

        ids = {x: new(x) for x in objects}
        n = 0
        while n < len(parent):
            for lhs, rw in rels_at[node_cod[n]]:
                if parent[n] != n:
                    break
                merge(trace(n, lhs), trace(n, rw))
            if parent[n] == n:
                for g in gens_at[node_cod[n]]:
                    trace(n, (g,))
            n += 1

        least = {ids[x]: () for x in objects}
        layer = list(least)
        while layer:
            found = {}
            for n in layer:
                for g, t in out[n].items():
                    t, w = find(t), (g,) + least[n]
                    if t not in least and (t not in found or w < found[t]):
                        found[t] = w
            least.update(found)
            layer = list(found)

        name, mor, words = {}, {}, {}
        for n, w in sorted(least.items(), key=lambda it: (len(it[1]), it[1])):
            m = name[n] = ".".join(w) if w else ("id", node_cod[n])
            mor[m] = (wdom(w, node_cod[n]), node_cod[n])
            words[m] = w
        alias = {g: name[find(out[ids[dom[g]]][g])] for g in gens}
        node = {m: n for n, m in name.items()}

        def compose(m2, m1):
            return name[trace(node[m1], words[m2])]

        ident = {x: ("id", x) for x in objects}
        mor = {m: mor[m] for m in stable_sorted(mor)}
        c = FinCat.from_homs(stable_sorted(objects), mor, ident, compose, name=block.name)
        require(validate_fincat(c, self.caps), "closure produced a non-category")
        return c, words, alias

    def do_category(self, block):
        before = len(self.diags)
        objects = []
        gens = {}
        rels = []
        for e in block.entries:
            if e.kind == "objects":
                for x in e.data:
                    if x in objects:
                        self.err(e.line, e.col, f"duplicate object {x!r}")
                    else:
                        objects.append(x)
            elif e.kind == "gen":
                nm, a, b = e.data
                if nm in gens:
                    self.err(e.line, e.col, f"duplicate morphism {nm!r}")
                    continue
                if a not in objects or b not in objects:
                    self.err(e.line, e.col,
                             f"morphism {nm!r} uses undeclared objects",
                             "declare objects before morphisms")
                    continue
                gens[nm] = (a, b)
            elif e.kind == "rel":
                rels.append((e.data, (e.line, e.col)))
        if len(self.diags) > before:
            return
        out = self._close_category(block, objects, gens, rels)
        if out is None:
            return
        c, words, alias = out
        if self.declare(block, "category", c):
            self.env.gens[block.name] = words
            self.env.aliases[block.name] = alias

    def do_poset(self, block):
        edges = []
        seen_obj = []
        for e in block.entries:
            a, b = e.data
            edges.append((a, b))
            for x in (a, b):
                if x not in seen_obj:
                    seen_obj.append(x)
        c = poset_cat(tuple(seen_obj), edges, name=block.name)
        # decompose each relation into declared covering edges for later
        # derivation of presheaf actions and strict restrictions; the word
        # table lists the relations in the declaration order of their ends
        adj = {}
        for a, b in edges:
            if a != b:
                adj.setdefault(a, []).append(b)
        adj = {a: stable_sorted(bs) for a, bs in adj.items()}
        words = {}
        for a in seen_obj:
            # One breadth-first search from a, over the edges in stable
            # order, finds the word of every relation a <= b.
            prev = {a: None}
            queue = deque([a])
            while queue:
                cur = queue.popleft()
                for nxt in adj.get(cur, ()):
                    if nxt not in prev:
                        prev[nxt] = cur
                        queue.append(nxt)
            for b in seen_obj:
                m = ("le", a, b)
                if m not in c.mor:
                    continue
                path = []
                node = b
                while prev[node] is not None:
                    path.append(("le", prev[node], node))
                    node = prev[node]
                words[m] = tuple(path)
        if self.declare(block, "category", c):
            self.env.gens[block.name] = words
            self.env.aliases[block.name] = {}

    def do_coverage(self, block, cat):
        catname = block.refs[0]
        coverage = {}
        bad = False
        for e in block.entries:
            x, fams = e.data
            if x not in cat.ident:
                self.err(e.line, e.col, f"no object {x!r} in {catname!r}")
                bad = True
                continue
            out_fams = coverage.setdefault(x, [])
            for fam in fams:
                resolved = []
                for ref in fam:
                    m = self.resolve_mor(catname, cat, ref, e.line, e.col)
                    if m is None:
                        bad = True
                        continue
                    if cat.cod(m) != x:
                        self.err(e.line, e.col,
                                 f"{fmt(m)} does not land in {x!r}",
                                 "covering families consist of morphisms into "
                                 "the covered object")
                        bad = True
                        continue
                    resolved.append(m)
                out_fams.append(resolved)
        if bad:
            return
        j = saturate(cat, coverage, self.caps)
        self.declare(block, "topology", j)

    def derive(self, block, catname, given, unit, compose, what):
        """Map every morphism m of category `catname`: to given[m] if there
        is one, to unit(x) if m is the identity at x, and otherwise to the
        images of m's generator word folded in composition order,
        `so_far = compose(so_far, image)`.  `compose` sets the variance and
        returns None when two images do not compose.  A letter without an
        image, or two images that do not compose, is a diagnostic at the
        block, and the result is None."""
        cat = self.env.cats[catname]
        alias = self.env.aliases[catname]
        out = {}
        for m, word in self.env.gens[catname].items():
            if m in given:
                out[m] = given[m]
                continue
            if not word:
                out[m] = unit(cat.dom(m))
                continue
            so_far = None
            for g in word:
                img = given.get(alias.get(g, g))
                if img is None:
                    self.err(block.line, block.col,
                             f"{what} for {fmt(g)} in {catname!r} is required "
                             "to derive composites")
                    return None
                so_far = img if so_far is None else compose(so_far, img)
                if so_far is None:
                    self.err(block.line, block.col,
                             f"{what}s along {fmt(m)} in {catname!r} do not "
                             "compose", "consecutive generators need "
                             "composable images")
                    return None
            out[m] = so_far
        return out

    def do_functor(self, block, src, dst):
        srcname, dstname = block.refs
        omap = {}
        given = {}
        bad = False
        for e in block.entries:
            if e.kind == "obj":
                a, b = e.data
                if a not in src.ident:
                    self.err(e.line, e.col, f"no object {a!r} in {srcname!r}")
                    bad = True
                    continue
                if b not in dst.ident:
                    self.err(e.line, e.col, f"no object {b!r} in {dstname!r}")
                    bad = True
                    continue
                if self.repeats(omap, a, e, f"image of object {a!r}"):
                    bad = True
                    continue
                omap[a] = b
            else:
                m = self.resolve_mor(srcname, src, e.data[0], e.line, e.col)
                v = self.resolve_mor(dstname, dst, e.data[1], e.line, e.col)
                if m is None or v is None or self.repeats(
                        given, m, e, f"image of {fmt(m)}"):
                    bad = True
                    continue
                given[m] = v
        for x in src.objects:
            if x not in omap:
                self.err(block.line, block.col,
                         f"functor {block.name!r} has no image for object {x!r}")
                bad = True
        if bad:
            return
        mmap = self.derive(block, srcname, given,
                           lambda x: dst.ident[omap[x]],
                           lambda so_far, img: dst.table.get((so_far, img)),
                           "mor image")
        if mmap is None:
            return
        f = Functor(src, dst, omap, mmap, name=block.name)
        self.env.add_findings("functor", block.name, block.refs, f.validate)
        self.declare(block, "functor", f)

    def do_presheaf(self, block, cat):
        catname = block.refs[0]
        els = {}
        given = {}
        bad = False
        for e in block.entries:
            if e.kind == "els":
                x, vals = e.data
                if x not in cat.ident:
                    self.err(e.line, e.col, f"no object {x!r} in {catname!r}")
                    bad = True
                    continue
                if self.repeats(els, x, e, f"element set for object {x!r}"):
                    bad = True
                    continue
                els[x] = tuple(vals)
            else:
                ref, pairs = e.data
                m = self.resolve_mor(catname, cat, ref, e.line, e.col)
                if m is None or self.repeats(given, m, e, f"action along {fmt(m)}"):
                    bad = True
                    continue
                mp = {}
                for src_el, dst_el in pairs:
                    if self.repeats(mp, src_el, e,
                                    f"image of {src_el!r} along {fmt(m)}"):
                        bad = True
                    mp[src_el] = dst_el
                given[m] = (mp, e.line, e.col)
        for x in cat.objects:
            if x not in els:
                self.err(block.line, block.col,
                         f"presheaf {block.name!r} has no element set for "
                         f"object {x!r}", f"add '{x} = {{}};'")
                bad = True
        if bad:
            return
        for m, (mp, line, col) in given.items():
            a, b = cat.mor[m]
            for s, t in mp.items():
                if s not in els.get(b, ()):
                    self.err(line, col, f"{s!r} is not an element at {fmt(b)}")
                    bad = True
                if t not in els.get(a, ()):
                    self.err(line, col, f"{t!r} is not an element at {fmt(a)}")
                    bad = True
            missing = [s for s in els.get(b, ()) if s not in mp]
            if missing:
                self.err(line, col,
                         f"action along {fmt(m)} misses element {missing[0]!r}")
                bad = True
        if bad:
            return
        act = self.derive(block, catname,
                          {m: mp for m, (mp, _, _) in given.items()},
                          lambda x: {e: e for e in els[x]},
                          lambda so_far, img: {e: img[so_far[e]] for e in so_far},
                          "action")
        if act is None:
            return
        p = Presheaf(cat, els, act, name=block.name)
        self.env.add_findings("presheaf", block.name, block.refs,
                              lambda: validate_presheaf(p))
        self.declare(block, "presheaf", p)

    def do_indexed(self, block, cat):
        catname = block.refs[0]
        fib = {}
        given_res = {}
        comp_entries = []
        unit_entries = []
        strict = False
        bad = False
        for e in block.entries:
            if e.kind == "fiber":
                x, cn = e.data
                if x not in cat.ident:
                    self.err(e.line, e.col, f"no object {x!r} in {catname!r}")
                    bad = True
                    continue
                k = self.lookup(self.env.cats, cn, "category", e.line, e.col)
                if k is None or self.repeats(fib, x, e, f"fiber at {x!r}"):
                    bad = True
                    continue
                fib[x] = k
            elif e.kind == "restrict":
                m = self.resolve_mor(catname, cat, e.data[0], e.line, e.col)
                f = self.lookup(self.env.functors, e.data[1], "functor",
                                e.line, e.col)
                if m is None or f is None or self.repeats(
                        given_res, m, e, f"restriction along {fmt(m)}"):
                    bad = True
                    continue
                given_res[m] = (f, e.line, e.col)
            elif e.kind == "compositor":
                comp_entries.append(e)
            elif e.kind == "unitor":
                unit_entries.append(e)
            elif e.kind == "strict":
                strict = True
        for x in cat.objects:
            if x not in fib:
                self.err(block.line, block.col,
                         f"indexed {block.name!r} has no fiber at {x!r}",
                         f"add 'fiber {x} = SOMECAT;'")
                bad = True
        if bad:
            return
        if strict and (comp_entries or unit_entries):
            e = (comp_entries + unit_entries)[0]
            self.err(e.line, e.col,
                     "strict indexed blocks take no compositor or unitor cells")
            return
        for m, (f, line, col) in given_res.items():
            a, b = cat.mor[m]
            if f.src != fib[b] or f.dst != fib[a]:
                self.err(line, col,
                         f"restriction along {fmt(m)} must map the fiber at "
                         f"{fmt(b)} to the fiber at {fmt(a)}")
                bad = True
        if bad:
            return

        if strict:
            res = self.derive(block, catname,
                              {m: f for m, (f, _, _) in given_res.items()},
                              lambda x: identity_functor(fib[x]),
                              lambda so_far, img: compose_functors(img, so_far),
                              "restriction")
            if res is None:
                return
        else:
            res = {}
            for m in cat.mor:
                if m in given_res:
                    res[m] = given_res[m][0]
                elif cat.is_id(m):
                    res[m] = identity_functor(fib[cat.dom(m)])
                else:
                    self.err(block.line, block.col,
                             f"indexed {block.name!r} has no restriction along "
                             f"{fmt(m)}",
                             "non-strict blocks need a restrict entry per morphism")
                    bad = True
            if bad:
                return
        compositor, unitor = identity_coherence(cat, fib, res)
        given_cells = set()
        for e in comp_entries:
            gref, fref, v, mref = e.data
            g = self.resolve_mor(catname, cat, gref, e.line, e.col)
            f = self.resolve_mor(catname, cat, fref, e.line, e.col)
            if g is None or f is None:
                return
            if (g, f) not in compositor:
                self.err(e.line, e.col, "the pair is not composable")
                return
            if v not in compositor[(g, f)]:
                self.err(e.line, e.col, f"no fibre object {v!r} at {fmt(cat.cod(g))}")
                return
            if self.repeats(given_cells, (g, f, v), e,
                            f"compositor ({fmt(g)},{fmt(f)}) at {v!r}"):
                return
            given_cells.add((g, f, v))
            m = self.resolve_mor(f"fiber {fmt(cat.dom(f))}", fib[cat.dom(f)],
                                 mref, e.line, e.col)
            if m is None:
                return
            compositor[(g, f)][v] = m
        for e in unit_entries:
            x, v, mref = e.data
            if x not in cat.ident or v not in unitor.get(x, {}):
                self.err(e.line, e.col, f"no unitor slot at {x!r}, {v!r}")
                return
            if self.repeats(given_cells, (x, v), e, f"unitor at {x!r}, {v!r}"):
                return
            given_cells.add((x, v))
            m = self.resolve_mor(f"fiber {x}", fib[x], mref, e.line, e.col)
            if m is None:
                return
            unitor[x][v] = m
        # Open slots in the order strict_indexed checks them: unitors first.
        gaps = [(x, None, v) for x, ux in unitor.items()
                for v, m in ux.items() if m is None]
        gaps += [(g, f, v) for (g, f), cell in compositor.items()
                 for v, m in cell.items() if m is None]
        d = IndexedCat(cat, fib, res, compositor, unitor, name=block.name)
        if not gaps:
            self.env.add_findings("indexed", block.name, block.refs,
                                  lambda: validate_indexed(d, self.caps))
        elif not strict:
            self.err(block.line, block.col,
                     f"indexed {block.name!r} needs an explicit coherence cell "
                     f"at {fmt(gaps[0])}",
                     "restrictions do not compose on the nose there")
            return
        else:
            g, f, v = gaps[0]
            self.env.findings.append((
                "indexed", block.name,
                f"res[id_{fmt(g)}] moves object {fmt(v)}" if f is None else
                f"restriction not strict on ({fmt(g)},{fmt(f)}) at {fmt(v)}"))
        self.declare(block, "indexed", d)

    def do_fibration(self, block, src, dst):
        srcname, dstname = block.refs
        if src.base != dst.base:
            self.err(block.line, block.col,
                     f"{srcname!r} and {dstname!r} live over different bases")
            return
        cat = src.base
        comp = {}
        cells_given = {}
        bad = False
        for e in block.entries:
            if e.kind == "component":
                x, fn = e.data
                f = self.lookup(self.env.functors, fn, "functor", e.line, e.col)
                if x not in cat.ident:
                    self.err(e.line, e.col, f"no object {x!r} in the base")
                    bad = True
                    continue
                if f is None or self.repeats(comp, x, e, f"component at {x!r}"):
                    bad = True
                    continue
                if f.src != src.fib[x] or f.dst != dst.fib[x]:
                    self.err(e.line, e.col,
                             f"component at {x!r} must map the source fiber "
                             "to the target fiber")
                    bad = True
                    continue
                comp[x] = f
            else:
                yref, v, mref = e.data
                y = self.resolve_mor("base", cat, yref, e.line, e.col)
                if y is None:
                    bad = True
                    continue
                if v not in src.fib[cat.cod(y)].ident:
                    self.err(e.line, e.col,
                             f"no fibre object {v!r} at {fmt(cat.cod(y))}")
                    bad = True
                    continue
                if self.repeats(cells_given, (y, v), e,
                                f"cell along {fmt(y)} at {v!r}"):
                    bad = True
                    continue
                cells_given[(y, v)] = (mref, e.line, e.col)
        for x in cat.objects:
            if x not in comp:
                self.err(block.line, block.col,
                         f"fibration {block.name!r} has no component at {x!r}")
                bad = True
        if bad:
            return
        cell = identity_cells(src, dst, comp)
        for (y, v), (mref, line, col) in cells_given.items():
            yy = cat.dom(y)
            m = self.resolve_mor(f"fiber {fmt(yy)}", dst.fib[yy], mref, line, col)
            if m is None:
                return
            cell[y][v] = m
        gaps = [(y, v) for y, cy in cell.items() for v, m in cy.items() if m is None]
        if gaps:
            y, v = gaps[0]
            self.err(block.line, block.col,
                     f"fibration {block.name!r} needs an explicit cell "
                     f"along {fmt(y)} at {fmt(v)}",
                     "components do not commute with restriction on the "
                     "nose there")
            return
        p = IndexedFun(src, dst, comp, cell, name=block.name)
        self.env.add_findings("fibration", block.name, block.refs,
                              lambda: validate_indexed_fun(p))
        self.declare(block, "fibration", p)

    # The blocks a header's names refer to: their kind, and what messages
    # call them.  Every name in a header is one of these.
    REFERENTS = {"category name": ("category", "category"),
                 "indexed name": ("indexed", "indexed category")}

    def run(self, doc):
        for block in doc.blocks:
            before = len(self.diags)
            header = BLOCK_KINDS[block.kind][0]
            found = {}  # by name, so an unknown name is reported once
            for phrase, ref in zip([w for w in header if w in self.REFERENTS],
                                   block.refs):
                kind, what = self.REFERENTS[phrase]
                if ref not in found:
                    found[ref] = self.lookup(self.env.kinds_of(kind), ref, what,
                                             block.line, block.col)
            if all(x is not None for x in found.values()):
                getattr(self, "do_" + block.kind)(block, *map(found.get, block.refs))
            if len(self.diags) > before and len(self.diags) > 20:
                break
        return self.env, self.diags


def elaborate(doc, caps: _caps.Caps = _caps.DEFAULT):
    """Resolve names, close compositions, and build validated core values.

    Returns (Elaborated or None, diagnostics).  Validator complaints about
    well-formed but law-breaking declarations land in Elaborated.findings,
    not in the diagnostics list."""
    e = _Elab(caps)
    env, diags = e.run(doc)
    if diags:
        return None, diags
    return env, []


# ---------------------------------------------------------------------------
# interchange serialization


# Compact JSON with sorted keys; the same text as `json.dumps` with these
# options, from one encoder built once.  The reader hashes a document that is
# not in emitted form by it, and the writer writes block names with it.
_cjson = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False).encode


# Where a descent datum's text starts, how much of the text from there keys
# the table of datum texts met so far, and how many texts one key holds: a
# copy of any further text under one prefix is measured, so many data alike
# at the start cost a measure per copy, not a search through all of them.
_DD = '{"dd":'
_PREFIX = 32
_PREFIX_TEXTS = 8
_raw_decode = json.JSONDecoder().raw_decode


def _parse(text):
    """`json.loads(text)`, with each distinct `{"dd": …}` object text parsed
    once: every byte-identical copy of it is the same object.

    One scan finds the datum texts.  The first copy of each is measured
    with `raw_decode`, kept in place and marked with an extra member
    `"\\u0000": k` before its closing brace; the scan goes on inside it, so
    nested data are shared too.  Each later copy, found by `startswith`
    among the texts met at the same prefix, or else measured too, is
    replaced by the reference `{"\\u0000": k}`.  `json.loads` parses that
    skeleton, and its `object_hook` drops each mark and swaps each
    reference for the marked object.  A text already holding `\\u0000` is
    parsed as it stands.

    Each first copy is parsed where it stands, one frame deeper than
    `json.loads(text)` would parse it, so a text nested too deeply for
    `json.loads` fails here too, unless only a later copy, nested deeper
    than the first, goes too deep.  A JSONDecodeError or RecursionError
    from here says only that the text must be read by `json.loads`, for
    the error's own position and message."""
    i = text.find(_DD)
    if i < 0 or "\\u0000" in text:
        return json.loads(text)
    out, p = [], 0
    ids, seen, ends = {}, {}, []  # ends: (end, k) of the open first copies
    while True:
        while ends and (i < 0 or ends[-1][0] <= i):
            j, k = ends.pop()
            out += text[p:j - 1], ',"\\u0000":', str(k), "}"
            p = j
        if i < 0:
            break
        key = text[i:i + _PREFIX]
        t = next((t for t in seen.get(key, ()) if text.startswith(t, i)), None)
        if t is None:
            t = text[i:_raw_decode(text, i)[1]]
            texts = seen.setdefault(key, [])
            if len(texts) < _PREFIX_TEXTS:
                texts.append(t)
        k = ids.get(t)
        if k is None:
            k = ids[t] = len(ids)
            ends.append((i + len(t), k))
            i = text.find(_DD, i + 1)
        else:
            out += text[p:i], '{"\\u0000":', str(k), "}"
            p = i + len(t)
            i = text.find(_DD, p)
    out.append(text[p:])
    shared = [None] * len(ids)

    def hook(d):
        k = d.pop("\0", None)
        if k is None:
            return d
        if d:
            shared[k] = d
            return d
        return shared[k]

    return json.loads("".join(out), object_hook=hook)


def _dec(v, memo=None):
    """Decode one interchange value.  `memo` maps the identity of each
    `{"dd": …}` object decoded so far to (that object, its datum): one memo
    per document decodes each datum object once, and holds it only while
    the caller holds the memo.  Over a tree from `_parse`, one datum object
    stands for every copy of its text."""
    if isinstance(v, str):
        return v
    if memo is None:
        memo = {}
    if isinstance(v, list):
        return tuple([_dec(x, memo) for x in v])
    if isinstance(v, dict):
        if "b" in v:
            return bool(v["b"])
        if "i" in v:
            return int(v["i"])
        if "n" in v:
            return None
        if "fs" in v:
            return frozenset([_dec(x, memo) for x in v["fs"]])
        if "dd" in v:
            hit = memo.get(id(v))
            if hit is None:
                dd = v["dd"]
                hit = memo[id(v)] = (v, DescentDatum(
                    _unique(_dec(dd[0], memo), "descent datum member"),
                    _unique(_dec(dd[1], memo), "descent datum coherence"),
                ))
            return hit[1]
    raise ValueError(f"malformed interchange value: {v!r}")


class _Duplicate(ValueError):
    """A key repeated in one row list of an interchange document."""


def _unique(pairs, what, *ids):
    """The dict of the (key, value) `pairs`, a sequence.  A repeated key is
    an error: the later row would silently replace the earlier one.  `what`
    names the rows, a format string over the `fmt` of `ids`."""
    d = dict(pairs)
    if len(d) < len(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                what = what.format(*map(fmt, ids))
                raise _Duplicate(f"duplicate {what} {fmt(k)}")
            seen.add(k)
    return d


def _unkv(rows, memo, what, *ids):
    return _unique([(_dec(k, memo), _dec(v, memo)) for k, v in rows], what, *ids)


def _cat_unjson(d, memo):
    mor = _unique([(_dec(m, memo), (_dec(a, memo), _dec(b, memo)))
                   for m, a, b in d["morphisms"]], "morphism")
    return FinCat(
        tuple(_dec(x, memo) for x in d["objects"]),
        mor,
        _unkv(d["identities"], memo, "identity at"),
        _unique([((_dec(g, memo), _dec(f, memo)), _dec(h, memo))
                 for (g, f), h in d["table"]], "composite"),
        name=d.get("name", ""),
    )


def _fun_unjson(d, memo, src, dst):
    return Functor(src, dst, _unkv(d["omap"], memo, "object image of"),
                   _unkv(d["mmap"], memo, "morphism image of"),
                   name=d.get("name", ""))


def _top_unjson(d, memo, base):
    covers = _unique([
        (_dec(x, memo),
         frozenset(frozenset(_dec(m, memo) for m in fam) for fam in fams))
        for x, fams in d["covers"]
    ], "covers of")
    return Topology(base, covers)


def _psh_unjson(d, memo, base):
    els = _unique([(_dec(x, memo), tuple(_dec(e, memo) for e in row))
                   for x, row in d["els"]], "elements over")
    act = []
    for m, rows in d["act"]:
        m = _dec(m, memo)
        act.append((m, _unkv(rows, memo, "action of {} on", m)))
    return Presheaf(base, els, _unique(act, "action of"), name=d.get("name", ""))


def _idx_unjson(d, memo, base):
    fib = _unique([(_dec(x, memo), _cat_unjson(cj, memo)) for x, cj in d["fib"]],
                  "fibre over")
    res = []
    for y, fj in d["res"]:
        ym = _dec(y, memo)
        yy, yx = base.mor[ym]
        res.append((ym, _fun_unjson(fj, memo, fib[yx], fib[yy])))
    compositor = []
    for (g, f), rows in d["compositor"]:
        gf = (_dec(g, memo), _dec(f, memo))
        compositor.append((gf, _unkv(rows, memo, "compositor {} at", gf)))
    unitor = []
    for x, rows in d["unitor"]:
        x = _dec(x, memo)
        unitor.append((x, _unkv(rows, memo, "unitor {} at", x)))
    return IndexedCat(base, fib, _unique(res, "restriction along"),
                      _unique(compositor, "compositor"),
                      _unique(unitor, "unitor"), name=d.get("name", ""))


def _fib_unjson(d, memo, src, dst):
    comp = []
    for x, fj in d["comp"]:
        xo = _dec(x, memo)
        comp.append((xo, _fun_unjson(fj, memo, src.fib[xo], dst.fib[xo])))
    cell = []
    for y, rows in d["cell"]:
        y = _dec(y, memo)
        cell.append((y, _unkv(rows, memo, "cell {} at", y)))
    return IndexedFun(src, dst, _unique(comp, "component at"),
                      _unique(cell, "cell"), name=d.get("name", ""))


# The interchange block kinds.  For each: the earlier blocks it refers to, as
# (JSON member, attribute of the value, block kind); what a message calls an
# unknown referent (followed by its name when there is one referent); the
# reader, called with the block's JSON object, the document's datum memo and
# the referents; and the validator, called with the value and the caps.
# `serialize_blocks` writes a kind with its `_Writer` method of the kind's
# name, and `Elaborated.kinds_of` files its values.
_INTERCHANGE = {
    "category": ((), "", _cat_unjson, validate_fincat),
    "topology": ((("base", "base", "category"),), "category", _top_unjson,
                 validate_topology),
    "functor": ((("src", "src", "category"), ("dst", "dst", "category")),
                "categories", _fun_unjson, lambda f, caps: f.validate()),
    "presheaf": ((("base", "base", "category"),), "category", _psh_unjson,
                 lambda p, caps: validate_presheaf(p)),
    "indexed": ((("base", "base", "category"),), "category", _idx_unjson,
                validate_indexed),
    "fibration": ((("src", "D", "indexed"), ("dst", "E", "indexed")),
                  "indexed categories", _fib_unjson,
                  lambda p, caps: validate_indexed_fun(p)),
}


# The text of a string, as `_cjson` writes it.
_str_text = json.encoder.encode_basestring

def _text(v, memo):
    """The interchange text of one id, as `_cjson` writes its encoding.

    `memo` maps the identity of each tuple, frozenset and descent datum
    written so far in one document to (that value, its text).  It is keyed
    by identity and never by value: (True, "x") == (1, "x"), but their texts
    differ.  An entry holds its value, so the identity is not reused while
    the memo lives.  A frozenset's members are in the order of their texts,
    which is the order `_cjson` gives their encodings."""
    if isinstance(v, str):
        return _str_text(v)
    if isinstance(v, (tuple, frozenset, DescentDatum)):
        hit = memo.get(id(v))
        if hit is not None:
            return hit[1]
        if isinstance(v, DescentDatum):
            t = '{"dd":' + _text(v._key, memo) + "}"
        else:
            # A plain loop, not a comprehension, which would cost a frame
            # per level: the writer must reach every depth the reader does.
            parts = []
            for x in v:
                parts.append(_text(x, memo))
            if isinstance(v, tuple):
                t = "[" + ",".join(parts) + "]"
            else:
                t = '{"fs":[' + ",".join(sorted(parts)) + "]}"
        memo[id(v)] = (v, t)
        return t
    if isinstance(v, bool):
        return '{"b":true}' if v else '{"b":false}'
    if isinstance(v, int):
        return '{"i":' + int.__repr__(v) + "}"
    if v is None:
        return '{"n":0}'
    raise InternalError(f"value of type {type(v).__name__} has no "
                        f"interchange encoding: {v!r}")


class _Writer:
    """The canonical text of one document, appended to `out` as fragments
    that `serialize_blocks` joins once.  A fragment is often the text of an
    id that `_text` built once and shares between its occurrences.

    Members of an object are written in sorted order of their names, as
    `_cjson` writes them.  Rows keyed by a pair of ids (composition table,
    compositor) are sorted by the texts of the two ids, which is the order of
    the text of the pair: texts of values are prefix-free (each ends with the
    bracket or quote that closes what it opens), so the first difference
    between two pair texts is the first difference between their first ids
    or, when those agree, their second.  Other rows are in stable order of
    their keys."""

    def __init__(self):
        self.memo = {}
        self.out = []

    def text(self, v):
        return _text(v, self.memo)

    def ids(self, vs):
        """`[v, …]` of the ids `vs`, in the given order."""
        w, text = self.out.append, self.text
        sep = "["
        for v in vs:
            w(sep)
            w(text(v))
            sep = ","
        w("[]" if sep == "[" else "]")

    def rows(self, keys, write):
        """`[[k, …], …]`: one row for each of `keys`, in the given order,
        where `write(k)` appends what follows the key."""
        w, text = self.out.append, self.text
        sep = "[["
        for k in keys:
            w(sep)
            w(text(k))
            w(",")
            write(k)
            sep = "],["
        w("[]" if sep == "[[" else "]]")

    def kv(self, d):
        """`[[k, d[k]], …]` in stable order of the keys."""
        w, text = self.out.append, self.text
        self.rows(stable_sorted(d), lambda k: w(text(d[k])))

    def by_pair(self, d, write):
        """`[[[g, f], …], …]`: one row for each (g, f) key of `d`, sorted by
        the texts of g and f, where `write(d[(g, f)])` appends the rest."""
        w, text = self.out.append, self.text
        rows = sorted([(text(g), text(f), v) for (g, f), v in d.items()],
                      key=lambda r: (r[0], r[1]))
        sep = "[[["
        for tg, tf, v in rows:
            w(sep)
            w(tg)
            w(",")
            w(tf)
            w("],")
            write(v)
            sep = "],[["
        w("[]" if sep == "[[[" else "]]")

    def cat(self, c: FinCat, name, block=False):
        """A category block, or a fibre of an indexed category."""
        w, text = self.out.append, self.text

        def ends(m):
            w(text(c.dom(m)))
            w(",")
            w(text(c.cod(m)))

        w('{"identities":')
        self.kv(c.ident)
        w(',"kind":"category","morphisms":' if block else ',"morphisms":')
        self.rows(c.mor, ends)
        w(',"name":' + _cjson(name) + ',"objects":')
        self.ids(c.objects)
        w(',"table":')
        self.by_pair(c.table, lambda h: w(text(h)))
        w("}")

    def category(self, c: FinCat, name):
        self.cat(c, name, block=True)

    def fun(self, f: Functor):
        """A functor's maps: a restriction, or a component of a fibration."""
        w = self.out.append
        w('{"mmap":')
        self.kv(f.mmap)
        w(',"omap":')
        self.kv(f.omap)
        w("}")

    def functor(self, f: Functor, name, src, dst):
        w = self.out.append
        w('{"dst":' + _cjson(dst) + ',"kind":"functor","mmap":')
        self.kv(f.mmap)
        w(',"name":' + _cjson(name) + ',"omap":')
        self.kv(f.omap)
        w(',"src":' + _cjson(src) + "}")

    def topology(self, j: Topology, name, base):
        def families(x):
            fams = sorted("[" + ",".join(sorted(map(self.text, mors))) + "]"
                          for mors in j.covers[x])
            self.out.append("[" + ",".join(fams) + "]")

        self.out.append('{"base":' + _cjson(base) + ',"covers":')
        self.rows(stable_sorted(j.covers), families)
        self.out.append(',"kind":"topology","name":' + _cjson(name) + "}")

    def presheaf(self, p: Presheaf, name, base):
        w = self.out.append
        w('{"act":')
        self.rows(stable_sorted(p.act), lambda m: self.kv(p.act[m]))
        w(',"base":' + _cjson(base) + ',"els":')
        self.rows(stable_sorted(p.els), lambda x: self.ids(p.els[x]))
        w(',"kind":"presheaf","name":' + _cjson(name) + "}")

    def indexed(self, dd: IndexedCat, name, base):
        # A `strict;` block that is not strict is declared with open (None)
        # cells; written out, they would read back as other findings.
        gaps = [f"unitor at {fmt(x)}, {fmt(v)}" for x, ux in dd.unitor.items()
                for v, m in ux.items() if m is None]
        gaps += [f"compositor ({fmt(g)},{fmt(f)}) at {fmt(v)}"
                 for (g, f), cell in dd.compositor.items()
                 for v, m in cell.items() if m is None]
        if gaps:
            raise ValueError(f"indexed {name!r} cannot be written: its "
                             f"coherence cell {gaps[0]} is open")
        w = self.out.append
        w('{"base":' + _cjson(base) + ',"compositor":')
        self.by_pair(dd.compositor, self.kv)
        w(',"fib":')
        self.rows(stable_sorted(dd.fib),
                  lambda x: self.cat(dd.fib[x], dd.fib[x].name))
        w(',"kind":"indexed","name":' + _cjson(name) + ',"res":')
        self.rows(stable_sorted(dd.res), lambda y: self.fun(dd.res[y]))
        w(',"unitor":')
        self.rows(stable_sorted(dd.unitor), lambda x: self.kv(dd.unitor[x]))
        w("}")

    def fibration(self, p: IndexedFun, name, src, dst):
        w = self.out.append
        w('{"cell":')
        self.rows(stable_sorted(p.cell), lambda y: self.kv(p.cell[y]))
        w(',"comp":')
        self.rows(stable_sorted(p.comp), lambda x: self.fun(p.comp[x]))
        w(',"dst":' + _cjson(dst) + ',"kind":"fibration","name":'
          + _cjson(name) + ',"src":' + _cjson(src) + "}")


# An emitted document ends with its digest member and then this tail:
# sorted keys put "digest" between "blocks" and "format".
_DIGEST = ',"digest":"'
_TAIL = ',"format":' + _cjson(FORMAT) + "}"


def _sha256(text):
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest_of_emitted_text(text):
    """Check the digest of a document that ends as `serialize_blocks` ends
    one, on its text: True when the digest it carries is the sha256 of the
    text with that digest member cut out.  The cut text is then exactly the
    bytes the emitter hashed, and a digest in that form holds no quote or
    escape, so it is the one `json.loads` reads.  False for any other text."""
    head = len(text) - len(_TAIL) - 2  # the digest's closing quote
    if not text.endswith(_TAIL + "\n") or text[head] != '"':
        return False
    i = text.rfind(_DIGEST, 0, head)
    return i >= 0 and _sha256(text[:i] + _TAIL) == text[i + len(_DIGEST):head]


def digest_text(text: str) -> str:
    data = text.replace("\r\n", "\n").encode("utf-8")
    return "sha256:" + hashlib.sha256(data).hexdigest()


def block_name(named, value):
    """The name of `value` among `named`, (name, value) pairs in block
    order: the first that is `value` itself, else the first equal to it;
    None when there is neither."""
    for nm, v in named:
        if v is value:
            return nm
    for nm, v in named:
        if v == value:
            return nm
    return None


def serialize_blocks(blocks) -> str:
    """Canonical interchange text for (kind, name, value) triples.

    Values that reference other values (topology bases, fibration endpoints)
    must have their referents in the list, earlier, so names resolve
    (`block_name`).  An indexed category with an open (None) coherence cell
    raises ValueError naming the block and its first open cell."""
    written = []
    wr = _Writer()
    w = wr.out.append
    w('{"blocks":[')
    for i, (kind, name, v) in enumerate(blocks):
        if kind not in _INTERCHANGE:
            raise InternalError(f"unknown block kind {kind!r}")
        refs = []
        for member, attr, rkind in _INTERCHANGE[kind][0]:
            rname = block_name([(n, x) for k, n, x in written if k == rkind],
                               getattr(v, attr))
            if rname is None:
                raise InternalError(f"{kind} {name!r} serialized without "
                                    f"its {member} {rkind} block")
            refs.append(rname)
        if i:
            w(",")
        getattr(wr, kind)(v, name, *refs)
        written.append((kind, name, v))
    w("]")
    # Joined once: the digest member goes in just before the tail, where
    # sorted keys would put it.
    text = "".join(wr.out)
    return f'{text}{_DIGEST}{_sha256(text + _TAIL)}"{_TAIL}\n'


def serialize_env(env: Elaborated) -> str:
    return serialize_blocks(
        [(kind, name, env.kinds_of(kind)[name]) for kind, name in env.order]
    )


def load_interchange(text, caps: _caps.Caps = _caps.DEFAULT):
    """Decode canonical interchange text; returns (Elaborated or None, diags).

    `_parse` reads the text, so each distinct datum text is parsed once and
    decoded once (`_dec`); where it fails, `json.loads` reads the text again
    and its error is the diagnostic."""

    def bad(msg, hint=""):
        return None, [Diagnostic(1, 1, msg, hint)]

    # Reading, digesting and decoding all recurse on the nesting of the
    # document, so a deep enough one exhausts the stack: that is bad input.
    too_deep = "the document is nested too deeply"
    try:
        try:
            doc = _parse(text)
        except (json.JSONDecodeError, RecursionError):
            doc = json.loads(text)
    except json.JSONDecodeError as e:
        return None, [Diagnostic(e.lineno, e.colno, f"not valid JSON: {e.msg}")]
    except RecursionError:
        return bad(f"not valid JSON: {too_deep}")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        return bad(f"not a {FORMAT} interchange document")
    # Text in emitted form is hashed as it stands; any other text, or one
    # whose digest does not match, is encoded canonically and hashed.
    try:
        if not _digest_of_emitted_text(text):
            body = {"format": doc.get("format"), "blocks": doc.get("blocks")}
            if doc.get("digest") != _sha256(_cjson(body)):
                return bad("digest mismatch: the document was altered after "
                           "it was emitted",
                           "regenerate it instead of editing by hand")
    except RecursionError:
        return bad(too_deep)
    except UnicodeEncodeError:
        return bad("not valid interchange text: a string holds an unpaired "
                   "surrogate")
    env = Elaborated()
    memo = {}
    try:
        for b in doc["blocks"]:
            kind, name = b["kind"], b["name"]
            if name in {n for _, n in env.order}:
                return bad(f"duplicate block name {name!r}")
            if not isinstance(kind, str) or kind not in _INTERCHANGE:
                return bad(f"unknown block kind {kind!r}")
            refs, called, read, validate = _INTERCHANGE[kind]
            names, values = [], []
            for member, _, rkind in refs:
                names.append(b[member])
                values.append(env.kinds_of(rkind).get(names[-1]))
            if None in values:
                tail = f" {names[0]!r}" if len(names) == 1 else ""
                return bad(f"{kind} {name!r} references unknown {called}{tail}")
            v = read(b, memo, *values)
            env.add_findings(kind, name, names, lambda: validate(v, caps))
            env.kinds_of(kind)[name] = v
            env.order.append((kind, name))
    except _Duplicate as e:
        return bad(f"{e} in {kind} {name!r}")
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return bad(f"malformed interchange block: {e}")
    except RecursionError:
        return bad(f"malformed interchange block: {too_deep}")
    return env, []


def load_input(text, caps: _caps.Caps = _caps.DEFAULT):
    """Sniff DSL vs interchange and load either; returns (env, diags)."""
    if text.lstrip()[:1] == "{":
        return load_interchange(text, caps)
    doc, diags = parse(text)
    if diags:
        return None, diags
    return elaborate(doc, caps)
