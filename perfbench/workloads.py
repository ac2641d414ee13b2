"""The four benchmark workloads.

Each workload makes input `i` from the seed alone (`make`), runs one op on
it (`op`, the timed part, which calls finstack only through the `finstack`
package namespace so the traced run sees every call), checks the result
against an answer that does not come from the code under test (`check`,
untimed), and reports the deterministic work the op did (`work`, untimed).

Known answers: theorem-guaranteed truths (the double plus is a stack,
stackification is idempotent, Thm 4.1/4.2 and Lemma 3.1 agree, a saturated
topology validates, a sheafification is a sheaf), the set-level oracle for
discrete `is_stack`, hand-written exit codes and the golden interchange
bytes of `tests/data`.
"""

import contextlib
import io
import os

import finstack as fs
import finstack.cli  # noqa: F401  (reached as fs.cli)

import gen


def _failed(cond, what):
    return [] if cond else [what]


class StackifyCorpus:
    name = "stackify-corpus"
    capacity = 800
    warmup = 3
    cells = gen.design(name, (2, 2, 3, 3, 4))

    def make(self, seed, i):
        rng = gen.op_rng(seed, self.name, i)
        cell = self.cells[i % len(self.cells)]
        kind = gen.INDEXED_KINDS[i % len(gen.INDEXED_KINDS)]
        c, coverage = gen.small_site(cell, i)
        J = fs.saturate(c, coverage)  # topologies are built at set-up
        return J, gen.rand_indexed(rng, c, kind, cell)

    def op(self, inp):
        J, D = inp
        s = fs.stackify(D, J)
        stack = fs.is_stack(s.stack, J)
        s2 = fs.stackify(s.stack, J)
        return s, stack, fs.is_indexed_equivalence(s2.unit)

    def check(self, inp, res):
        J, _ = inp
        s, stack, idem = res
        return (_failed(stack.ok, f"double plus is not a stack: {stack.reason}")
                + _failed(idem.ok, f"stackify not idempotent: {idem.reason}")
                + _failed(fs.is_prestack(s.once.output, J).ok,
                          "plus is not a prestack"))

    def work(self, inp, res):
        st = res[0].stack
        return {"stack_objects": sum(len(st.fib[x].objects) for x in st.base.objects),
                "stack_morphisms": sum(len(st.fib[x].mor) for x in st.base.objects)}


class FibredCorpus:
    name = "fibred-corpus"
    capacity = 600
    warmup = 3
    cells = gen.design(name, (2, 2, 3, 3, 4))
    lemma_fibres = (fs.terminal_cat, gen.two_cat, gen.arrow_cat)

    # Thm 4.2 for the collapse of a constant walking isomorphism takes
    # seconds on three objects and minutes on four, and 1.2 s on two without
    # a cover, against 45 ms with one.  Groupoids get covered pairs: a run
    # holding a few ops 25 times the median reads as fast or slow by
    # whether one more of them fits in its time.
    pairs = [c for c in cells if c[0] == 2 and c[2]]

    def make(self, seed, i):
        rng = gen.op_rng(seed, self.name, i)
        kind = gen.FIBRATION_KINDS[i % len(gen.FIBRATION_KINDS)]
        k = i // len(gen.FIBRATION_KINDS)
        # k, not i: the kind cycle divides the design's size cycle, and
        # indexing by i would tie each kind to one object count.
        cell = (self.pairs[k % len(self.pairs)] if kind == "groupoid"
                else self.cells[k % len(self.cells)])
        c, coverage = gen.small_site(cell, i)
        J = fs.saturate(c, coverage)
        K = self.lemma_fibres[i % len(self.lemma_fibres)]()
        inner = gen.INDEXED_KINDS[k % len(gen.INDEXED_KINDS)]
        return J, gen.rand_fibration(rng, c, kind, cell, inner), K

    def op(self, inp):
        J, p, K = inp
        fib = fs.as_fibration(p)
        G = fs.grothendieck(fib.p.E)
        JD = fs.giraud_topology(G, J)
        r = fs.R_D(fib, G)
        unit = fs.is_indexed_equivalence(fs.unit_eta(r, G))
        counit = fs.is_indexed_equivalence(fs.counit_eps(fib, G))
        la = fs.L_D(r, G)
        h = fs.identity_indexed_fun(r)
        fm = fs.flat(h, fib, G, LA=la, LR=la)
        h2 = fs.sharp(fm, la, G, R_dst=r)
        sharp_back = fs.find_indexed_natiso(h2, h) is not None
        fm2 = fs.flat(h2, fib, G, LA=la, LR=la)
        flat_back = fs.find_indexed_natiso(fm2.F, fm.F) is not None
        t1 = fs.check_thm_4_2_i(fib, J)
        t2 = fs.check_thm_4_2_ii(fib, J, G)
        lemma = fs.check_lemma_3_1(fs.const_indexed(G.total, K), G, J)
        return G, JD, fm, unit, counit, sharp_back, flat_back, t1, t2, lemma

    def check(self, inp, res):
        G, JD, fm, unit, counit, sharp_back, flat_back, t1, t2, lemma = res
        return (_failed(unit.ok, f"unit not an equivalence: {unit.reason}")
                + _failed(counit.ok, f"counit not an equivalence: {counit.reason}")
                + _failed(fs.validate_fib_mor(fm) == [], "flat is not a fibred map")
                + _failed(sharp_back, "sharp(flat(h)) is not isomorphic to h")
                + _failed(flat_back, "flat(sharp(F)) is not isomorphic to F")
                + _failed(t1.ok, f"Thm 4.2(i) fails: {t1.reason}")
                + _failed(t2.ok, f"Thm 4.2(ii) fails: {t2.reason}")
                + _failed(lemma.agree, "Lemma 3.1 sides disagree"))

    def work(self, inp, res):
        G, JD = res[0], res[1]
        return {"total_objects": len(G.total.objects),
                "total_morphisms": len(G.total.mor),
                "giraud_covers": sum(len(v) for v in JD.covers.values())}


class OpenCoverSites:
    name = "open-cover-sites"
    capacity = 500
    warmup = 3
    # Every size from 4 to 16 opens; up to 12 twice, since saturating a
    # 16-open lattice takes twenty times as long as an 8-open one.  Taken
    # with stride 5 through the sorted sizes, so that heavy and light
    # lattices alternate and a run that stops anywhere holds the same mix:
    # in size order, a faster machine finished more cheap lattices of the
    # next cycle and read a lower median for it.
    sizes = tuple(sorted(tuple(range(4, 13)) * 2 + tuple(range(13, 17)))[5 * k % 22]
                  for k in range(22))
    spaces = gen.t0_design(name, sizes, len(sizes) * 5)
    # A run ends on a whole cycle of sizes.  The four largest lattices take
    # two thirds of a cycle's time, and a run held five or six of each by
    # where it stopped; ending on whole cycles halved the spread of
    # throughput over ten seeds, from 8% to 4%.
    cycle = len(sizes)

    def make(self, seed, i):
        rng = gen.op_rng(seed, self.name, i)
        n = self.sizes[i % len(self.sizes)]
        k = i % len(self.spaces)  # the covers are part of the design too
        c, coverage, opens = gen.open_cover_site(
            gen.op_rng("design", self.name, k), self.spaces[k], i)
        # Wide covers make is_stack's descent search exponential in the
        # sections per open: past 10 opens three sections exhaust its
        # default budget, past 12 two do.  The largest lattices get one
        # section per open, doubled over a covered open every other cycle,
        # so both verdicts still occur there.  The number of sections is
        # part of the design, taken from i, not drawn: one op costs up to
        # six times another on the same lattice by it, which moved the
        # median op time by a seventh from seed to seed.
        most = 3 if n <= 10 else 2 if n <= 12 else 1
        P = gen.restriction_presheaf(rng, c, opens, count=1 + i % most)
        covered = [u for u in coverage if coverage[u] != [[]]]
        if n > 12 and covered and i // len(self.sizes) % 2 == 0:
            P = gen.doubled_presheaf(P, rng.choice(sorted(covered)))
        return c, coverage, P

    def op(self, inp):
        c, coverage, P = inp
        J = fs.saturate(c, coverage)
        errs = fs.validate_topology(J)
        minimal = {x: fs.minimal_cover(J, x) for x in c.objects}
        sheaf, unit = fs.sheafify_with_unit(P, J)
        stack = fs.is_stack(fs.embed_discrete(P), J)
        return J, errs, minimal, sheaf, unit, stack

    def check(self, inp, res):
        c, _, P = inp
        J, errs, minimal, sheaf, unit, stack = res
        least = all(minimal[x].mors in J.covers[x]
                    and all(minimal[x].mors <= s for s in J.covers[x])
                    for x in c.objects)
        oracle = fs.is_sheaf_presheaf(P, J).ok
        return (_failed(errs == [], f"saturated topology invalid: {errs[:1]}")
                + _failed(least, "minimal_cover is not the least cover")
                + _failed(stack.ok == oracle,
                          f"is_stack says {stack.ok}, the set-level oracle {oracle}")
                + _failed(fs.is_sheaf_presheaf(sheaf, J).ok,
                          "sheafification is not a sheaf")
                + _failed(fs.validate_presheaf_mor(P, sheaf, unit) == [],
                          "sheafification unit is not natural"))

    def work(self, inp, res):
        J, sheaf, stack = res[0], res[3], res[5]
        return {"covers": sum(len(v) for v in J.covers.values()),
                "sheaf_sections": sum(len(v) for v in sheaf.els.values()),
                "non_stacks": int(not stack.ok)}


# -- cli-docs -----------------------------------------------------------------


def hasse(c):
    """Covering relations of a poset category, as (lower, upper) pairs."""
    rel = {(a, b) for (a, b) in c.mor.values() if a != b}
    return sorted((a, b) for (a, b) in rel
                  if not any((a, m) in rel and (m, b) in rel for m in c.objects))


def site_text(c, coverage, P, comment=""):
    """A .site document: the open lattice, its coverage and one presheaf."""
    lines = [f"// {comment}"] if comment else []
    lines.append("poset P { " + " ".join(f"{a} <= {b};" for a, b in hasse(c))
                 + " }")
    covs = " ".join(
        f"{x}: " + ", ".join(
            "[" + ", ".join(f"{m[1]} <= {m[2]}" for m in fam) + "]"
            for fam in fams) + ";"
        for x, fams in sorted(coverage.items()))
    lines.append(f"coverage J on P {{ {covs} }}")
    lines.append("presheaf S over P {")
    for x in sorted(P.els):
        lines.append(f"  {x} = {{{', '.join(P.els[x])}}};")
    for a, b in hasse(c):
        m = ("le", a, b)
        maps = ", ".join(f"{e} -> {P.act[m][e]}" for e in P.els[b])
        lines.append(f"  {a} <= {b}: {maps};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# Bundled inputs with their hand-written expected exit codes; a None code
# marks a golden round trip (elaborate, serialize, reload) instead of a CLI
# call.
BUNDLED = (
    ("check", "patches", ("--stack",), 1),  # one section fails to glue
    ("stackify", "patches", (), 0),
    ("validate", "span", (), 0),
    ("saturate", "span", (), 0),
    ("groth", "twisted", (), 0),
    ("factorize", "factor", (), 0),
    ("validate", "bad_syntax", (), 2),
    ("validate", "bad_cover", (), 2),  # covers by an undeclared arrow
    ("validate", "bad_laws", (), 1),  # a functor breaks its laws
    ("check", "bad_laws", ("--stack",), 2),
    ("golden", "patches", (), None),
    ("golden", "span", (), None),
    ("golden", "twisted", (), None),
    ("golden", "factor", (), None),
)

# Open counts of generated documents.  Commands that only elaborate and
# read the site take the larger lattices; those that run descent stay
# small, with at most two sections per open, and the indexed double plus
# and Thm 4.1/4.2 get four opens and one section: with six opens one op
# takes seconds, and with more sections they take most of the workload.
SITE_SIZES = (4, 5, 6, 7, 8, 9, 10, 11, 12)
DESCENT_SIZES = (4, 5, 6)
STACK_SIZES = (4,)

# One rotation of subcommands over generated documents: (command, document
# variant, extra flags, expected exit code, open counts).  `emitted`
# re-ingests the interchange JSON the previous op wrote.
ROTATION = (
    ("validate", "site", (), 0, SITE_SIZES),
    ("saturate", "site", (), 0, SITE_SIZES),
    ("desc", "site", ("--at", "TOP"), 0, SITE_SIZES),
    ("stackify", "site", ("--emit", "OUT"), 0, STACK_SIZES),
    ("check", "emitted", ("--stack",), 0, None),  # a double plus is a stack
    ("sheafify", "site", ("--emit", "OUT"), 0, DESCENT_SIZES),
    ("check", "emitted", ("--stack",), 0, None),  # a sheaf is a stack
    ("check", "doubled", ("--stack",), 1, SITE_SIZES),  # not separated
    ("groth", "site", (), 0, SITE_SIZES),
    ("giraud", "site", (), 0, DESCENT_SIZES),
    ("lemma31", "site", (), 0, DESCENT_SIZES),  # both sides agree
    ("fiber-adjunction", "site", (), 0, STACK_SIZES),  # Thm 4.1/4.2
    ("saturate", "site", ("--max-sieves-per-object", "4"), 3, SITE_SIZES),
    ("check", "truncated", ("--stack",), 2, SITE_SIZES),  # unterminated
    ("bundled", None, (), None, None),
)


class CliDocs:
    name = "cli-docs"
    capacity = 2000
    warmup = len(ROTATION)
    spaces = {n: gen.t0_design(f"cli-docs:{n}", (n,), 8) for n in SITE_SIZES}

    def __init__(self, data_dir, work_dir):
        self.data_dir = data_dir
        self.work_dir = work_dir

    def _path(self, i, suffix):
        return os.path.join(self.work_dir, f"op{i}{suffix}")

    def make(self, seed, i):
        """Write op i's document; return (argv, expected exit code or None
        for a golden round trip, path the op should emit, golden bytes)."""
        os.makedirs(self.work_dir, exist_ok=True)
        command, variant, flags, code, sizes = ROTATION[i % len(ROTATION)]
        if command == "bundled":
            command, stem, flags, code = BUNDLED[(i // len(ROTATION)) % len(BUNDLED)]
            with open(os.path.join(self.data_dir, stem + ".site"),
                      encoding="utf-8") as fh:
                text = f"// op {i}\n" + fh.read()
            golden = None
            if code is None:
                with open(os.path.join(self.data_dir, stem + ".golden.json"),
                          encoding="utf-8") as fh:
                    golden = fh.read()
            path = self._path(i, ".site")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return [command, path, *flags], code, None, golden
        if variant == "emitted":
            return [command, self._path(i - 1, ".json"), *flags], code, None, None
        rng = gen.op_rng(seed, self.name, i)
        n = sizes[(i // len(ROTATION)) % len(sizes)]
        spaces = self.spaces[n]
        k = i // len(ROTATION) // len(sizes)
        while True:
            c, coverage, opens = gen.open_cover_site(
                gen.op_rng("design", f"{self.name}:{n}", k % len(spaces)),
                spaces[k % len(spaces)], i)
            covered = [u for u in coverage if coverage[u] != [[]]]
            if covered or variant != "doubled":
                break
            k += 1
        most = {SITE_SIZES: 3, DESCENT_SIZES: 2}.get(sizes, 1)
        P = gen.restriction_presheaf(rng, c, opens, count=rng.randint(1, most))
        top = max(opens, key=lambda u: len(opens[u]))
        if variant == "doubled":
            P = gen.doubled_presheaf(P, max(covered, key=lambda u: len(opens[u])))
        text = site_text(c, coverage, P, comment=f"op {i}")
        if variant == "truncated":
            text = text.rstrip().rstrip("}")
        path = self._path(i, ".site")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = self._path(i, ".json")
        fill = {"TOP": top, "OUT": out}
        argv = [command, path, *(fill.get(f, f) for f in flags)]
        return argv, code, out if "OUT" in flags else None, None

    def op(self, inp):
        argv, code, _, golden = inp
        if code is None:
            with open(argv[1], encoding="utf-8") as fh:
                doc, diags = fs.parse(fh.read())
            env, diags = fs.elaborate(doc)
            blob = fs.serialize_env(env)
            env2, diags2 = fs.load_interchange(blob)
            return blob, fs.serialize_env(env2)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return fs.cli.main(list(argv)), sink.getvalue()

    def check(self, inp, res):
        argv, code, out, golden = inp
        if code is None:
            blob, again = res
            return (_failed(blob == golden, f"{argv[1]}: bytes differ from golden")
                    + _failed(again == blob, f"{argv[1]}: reload changes bytes"))
        got, text = res
        errs = _failed(got == code, f"{argv[0]} {os.path.basename(argv[1])}: "
                                    f"exit {got}, expected {code}: {text[-200:]}")
        if out is not None and not os.path.exists(out):
            errs.append(f"{argv[0]} did not write {out}")
        return errs

    def work(self, inp, res):
        argv, code, out, _ = inp
        with open(argv[1], "rb") as fh:
            read = len(fh.read())
        written = os.path.getsize(out) if out and os.path.exists(out) else 0
        return {"bytes_read": read, "bytes_written": written,
                "exit_" + str(res[0] if code is not None else "golden"): 1}
