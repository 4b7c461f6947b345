"""Replay a fixed corpus of ``--format records`` CLI calls.

``golden/records_corpus.jsonl`` holds one line per stdout record:
the argv of the call, its exit code and the record.  Replaying each
call in-process must print those records byte for byte.

Regenerate the file only when an output change is intended:
``PYTHONPATH=src python tests/test_records_corpus.py``.
"""

import io
import json
import pathlib
from contextlib import redirect_stdout

from hookforest import cli

CORPUS = pathlib.Path(__file__).parent / "golden" / "records_corpus.jsonl"

THEOREM_IDS = ("thm-bw", "thm-inv-b", "thm-inv-d", "thm-fmaj", "thm-rmaj",
               "thm-bivariate-inv", "thm-bivariate-majB", "thm-le1",
               "lem-partition-gf", "eq-reiner", "len-b", "len-d",
               "eq-even-odd", "eq-coset-fmaj")
LABELING_FREE_IDS = ("thm-bw", "thm-inv-b", "thm-inv-d", "thm-fmaj", "thm-rmaj",
                     "thm-bivariate-inv", "thm-bivariate-majB", "eq-reiner",
                     "len-b", "len-d")

ARGVS = (
    [["sweep", "--max-n", "3", "--degree", "6", "--theorem", t, "--format", "records"]
     for t in THEOREM_IDS]
    + [["sweep", "--max-n", "4", "--degree", "6", "--theorem", t, "--format", "records"]
       for t in ("thm-le1", "lem-partition-gf")]
    + [["rhs", "--forest", f, "--theorem", t, "--format", "records"]
       for t in LABELING_FREE_IDS for f in ("(()())", "()()")]
    + [["bijections", "--max-n", "3", "--format", "records"],
       ["linext", "--forest", "(()())()", "--labeling=3,-1,4,-2", "--format", "records"],
       ["partitions", "--forest", "(())()", "--labeling=-2,3,1", "--degree", "6",
        "--format", "records"],
       ["dist", "--forest", "((())())", "--stat", "rmaj", "--aux", "n1",
        "--format", "records"],
       ["counterexample", "--stat", "nmaj-f", "--vs", "inv-b-f", "--mode", "signed",
        "--max-n", "5", "--format", "records"],
       ["counterexample", "--stat", "dmaj-f", "--vs", "inv-d-f", "--mode", "even-signed",
        "--max-n", "5", "--format", "records"],
       ["counterexample", "--stat", "inv-b-f", "--vs", "fmaj-f", "--max-n", "4",
        "--format", "records"],
       ["sweep", "--max-n", "3", "--theorem", "psi", "--format", "records"],
       ["sweep", "--max-n", "3", "--theorem", "mirror", "--format", "records"],
       ["check", "--forest", "(()())", "--theorem", "mirror", "--format", "records"],
       ["sweep", "--max-n", "4", "--theorem", "mirror", "--format", "records"],
       ["sweep", "--max-n", "5", "--theorem", "psi", "--format", "records"]]
    + [["rhs", "--forest", "[0,1,1,3,2,0,4,5,7,9]", "--theorem", t, "--format", "records"]
       for t in LABELING_FREE_IDS]
    + [["sweep", "--max-n", "5", "--theorem", t, "--format", "records"]
       for t in ("thm-inv-d", "thm-bivariate-inv", "thm-rmaj")]
    + [["sweep", "--max-n", "5", "--degree", "6", "--theorem", t, "--format", "records"]
       for t in ("thm-le1", "lem-partition-gf", "mirror", "eq-coset-fmaj")]
    + [["partitions", "--forest", "((()())())", "--labeling=3,-1,4,-5,2", "--degree", d,
        "--format", "records"] for d in ("0", "6", "10")]
    + [["partitions", "--forest", "()()()()", "--labeling=1,2,3,4", "--degree", "10",
        "--format", "records"],
       ["partitions", "--forest", "((((()))))", "--labeling=-1,-2,-3,-4,-5", "--degree", "10",
        "--format", "records"]]
    + [["sweep", "--max-n", "6", "--theorem", t, "--format", "records"]
       for t in ("eq-reiner", "psi")]
    + [["check", "--forest", "(()())", "--theorem", "psi", "--format", "records"],
       ["check", "--forest", "((()))()", "--theorem", "eq-coset-fmaj", "--format", "records"]]
    + [["partitions", "--forest", f, f"--labeling={w}", "--degree", "10", "--format", "records"]
       for f, w in (("()()()()", "2,-3,1,-4"), ("(()())()", "3,-1,2,-4"))]
    # the extension quotient and the inv-d closed form on a long chain, an
    # antichain, a chain ending in two leaves and a broom
    + [["linext", "--forest", f, f"--labeling={w}", "--format", "records"]
       for f, w in (("(" * 30 + ")" * 30,
                     ",".join(str(7 * v % 31 * (-1 if v % 3 == 0 else 1)) for v in range(1, 31))),
                    ("()()()()", "-2,4,-1,3"),
                    ("((((()()))))", "3,-1,5,-6,2,4"))]
    + [["rhs", "--forest", f, "--theorem", "thm-inv-d", "--format", "records"]
       for f in ("()" * 7, "(" * 12 + ")" * 12, "((((()()()()))))")]
    # the rows with a per-labeling fault at both ends of the degree, and
    # the partitions command on the empty forest and at degree 0
    + [["check", "--forest", "(()())", "--theorem", t, "--degree", d, "--format", "records"]
       for t in ("psi", "mirror", "eq-coset-fmaj") for d in ("0", "10")]
    + [["partitions", "--forest", "", "--labeling=", "--format", "records"],
       ["partitions", "--forest", "((()))", "--labeling=-1,3,-2", "--degree", "0",
        "--format", "records"]]
    + [["sweep", "--max-n", "3", "--degree", "6", "--theorem", t, "--format", "records"]
       for t in ("dec1", "partition-shift")]
    # the labeled rows on a forest with 720 labeling orbits, and psi and
    # eq-reiner on the chain's 5,040 sign-order patterns at n = 6
    + [["check", "--forest", "((())())()", "--theorem", t, "--degree", "6",
        "--format", "records"] for t in ("lem-partition-gf", "thm-le1")]
    + [["check", "--forest", "(((((())))))", "--theorem", t, "--format", "records"]
       for t in ("psi", "eq-reiner")]
    # the count rows on the 9-vertex chain, a mixed maj + n2 term set, an
    # ordinary and an even-signed term set, and the count terms on an antichain
    + [["check", "--forest", "(" * 9 + ")" * 9, "--theorem", t, "--format", "records"]
       for t in ("thm-inv-b", "thm-inv-d", "thm-bivariate-inv", "eq-even-odd")]
    + [["dist", "--forest", "(()(()))((()))", "--stat", "nmaj", "--aux", "n1",
        "--format", "records"],
       ["dist", "--forest", "(()(()))((()))", "--stat", "inv", "--mode", "ordinary",
        "--format", "records"],
       ["dist", "--forest", "(()(()))((()))", "--stat", "dmaj", "--mode", "even-signed",
        "--aux", "p", "--format", "records"],
       ["dist", "--forest", "()()()()()()", "--stat", "inv-b", "--aux", "n1",
        "--format", "records"]]
)


def replay(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def load():
    calls = {}
    for line in CORPUS.read_text().splitlines():
        entry = json.loads(line)
        calls.setdefault(tuple(entry["argv"]), []).append(entry)
    return calls


def test_corpus_covers_every_call():
    assert list(load()) == [tuple(a) for a in ARGVS]


def test_records_replay_byte_identical():
    for argv, entries in load().items():
        code, out = replay(argv)
        assert {e["exit"] for e in entries} == {code}, argv
        assert out.splitlines() == [json.dumps(e["record"]) for e in entries], argv


if __name__ == "__main__":
    with CORPUS.open("w") as fh:
        for argv in ARGVS:
            code, out = replay(argv)
            for line in out.splitlines():
                fh.write(json.dumps({"argv": argv, "exit": code,
                                     "record": json.loads(line)}) + "\n")
