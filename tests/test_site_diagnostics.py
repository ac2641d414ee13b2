"""The site language's diagnostics, pinned.  For each of the 300 text
mutants of `test_fuzz.py` (seed `TEXT_SEED`), the golden holds every parse
diagnostic, every elaboration diagnostic (line, col, msg, hint), every
finding, the declared blocks, and the error, if any, that elaboration
raised.  A change to the parser or the elaborator that moves a message,
reorders two or rewords one fails here.

To record the golden again after a deliberate change of wording, run
`PYTHONPATH=src python3 tests/test_site_diagnostics.py` from the repository
root."""

import json
from pathlib import Path

from finstack.caps import CapExceeded
from finstack.dsl import elaborate, parse
from finstack.site import SiteError

from test_fuzz import TEXT_DOCUMENTS, text_mutants

GOLDEN = Path(__file__).parent / "data" / "site_diagnostics.golden.json"


def _diags(diags):
    return [[d.line, d.col, d.msg, d.hint] for d in diags]


def _record(text):
    doc, diags = parse(text)
    out = {"parse": _diags(diags)}
    if doc is None:
        return out
    try:
        env, diags = elaborate(doc)
    except (CapExceeded, SiteError) as ex:
        out["raised"] = [type(ex).__name__, str(ex)]
        return out
    out["elaborate"] = _diags(diags)
    if env is not None:
        out["blocks"] = [[k, str(n)] for k, n in env.order]
        out["findings"] = [[k, str(n), m] for k, n, m in env.findings]
    return out


def records():
    """The record of each mutant of `test_fuzz.text_mutants`, in order."""
    return [_record(text) for text in text_mutants()]


def test_site_diagnostics_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = records()
    assert len(got) == len(want) == TEXT_DOCUMENTS
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, i


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
