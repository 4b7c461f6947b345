import dataclasses
import json
import pathlib
import sys

import pytest

from hookforest import cli, verify
from hookforest.forest import canonical_form, hook_lengths, parse_forest
from hookforest.qpoly import BiPoly

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_human(capsys):
    code, out, _ = run(capsys, "dist", "--forest", "(())",
                       "--stat", "nmaj-f", "--mode", "signed")
    assert code == 0
    assert out.strip() == "1 + 2*q + 2*q^2 + 2*q^3 + q^4"


def test_dist_records_round_trip(capsys):
    code, out, _ = run(capsys, "dist", "--forest", "(())", "--stat", "inv-b",
                       "--format", "records")
    assert code == 0
    record = json.loads(out)
    poly = BiPoly.from_triples(record["poly"])
    assert poly == BiPoly.from_triples(
        [[0, 0, 1], [0, 1, 2], [0, 2, 2], [0, 3, 2], [0, 4, 1]])


def test_dist_with_aux(capsys):
    code, out, _ = run(capsys, "dist", "--forest", "()", "--stat", "inv-b",
                       "--aux", "n1")
    assert code == 0
    assert out.strip() == "1 + t*q"


def test_rhs(capsys):
    code, out, _ = run(capsys, "rhs", "--forest", "(()())", "--theorem", "thm-bw")
    assert code == 0
    assert out.strip() == "2 + 2*q + 2*q^2"
    code, out, _ = run(capsys, "rhs", "--forest", "(())", "--theorem", "len-b")
    assert code == 0
    assert out.strip() == "1 + 2*q + 2*q^2 + 2*q^3 + q^4"


def test_rhs_needs_labeling_free_theorem(capsys):
    code, _, err = run(capsys, "rhs", "--forest", "()", "--theorem", "thm-le1")
    assert code == 2
    assert "linext" in err


def test_rhs_theorem_without_closed_form(capsys):
    code, out, err = run(capsys, "rhs", "--forest", "()", "--theorem", "eq-even-odd")
    assert code == 2 and out == ""
    assert err == "error: 'eq-even-odd' has no closed form\n"


def test_rhs_unknown_theorem(capsys):
    code, out, err = run(capsys, "rhs", "--forest", "()", "--theorem", "nope")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown theorem id 'nope'; known ids: thm-bw, thm-inv-b,")
    assert "linext" not in err


def test_help_strings_list_the_registry_ids():
    sub = cli.build_parser()._subparsers._group_actions[0].choices
    helps = {name: next(a.help for a in sub[name]._actions if a.dest == "theorem")
             for name in ("check", "rhs")}
    assert helps["check"] == "one of: " + ", ".join(verify.THEOREMS)
    assert helps["rhs"] == "one of: " + ", ".join(
        t for t, row in verify.THEOREMS.items() if row.rhs is not None)


def test_check_pass_and_report(capsys):
    code, out, _ = run(capsys, "check", "--forest", "()", "--theorem", "thm-inv-b")
    assert code == 0
    assert "PASS thm-inv-b" in out
    assert out.count("1 + q") == 2  # lhs and rhs lines


def test_check_records(capsys):
    code, out, _ = run(capsys, "check", "--forest", "(())",
                       "--theorem", "thm-inv-d", "--format", "records")
    assert code == 0
    record = json.loads(out)
    assert record["pass"] is True
    assert record["lhs"] == record["rhs"] == [[0, 0, 1], [0, 1, 2], [0, 2, 1]]


def test_parent_array_input(capsys):
    code, out, _ = run(capsys, "check", "--forest", "[0,1,1,0]",
                       "--theorem", "thm-bw")
    assert code == 0
    assert "(()())()" in out


def test_sweep(capsys):
    code, out, _ = run(capsys, "sweep", "--max-n", "3", "--theorem", "thm-fmaj")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 9  # 1 + 1 + 2 + 5 forests
    assert "9 checks, 0 failures" in out


def test_sweep_jobs_deterministic(capsys, pool_starts):
    # pooled reports come back unpickled, one class at a time, so the
    # records cannot lean on one sweep's polynomial objects
    for fmt in ("human", "records"):
        argv = ("sweep", "--max-n", "3", "--theorem", "thm-inv-b", "--format", fmt)
        _, serial, _ = run(capsys, *argv)
        assert not pool_starts
        _, pooled, _ = run(capsys, *argv, "--jobs", "4")
        assert serial == pooled and pool_starts
        pool_starts.clear()


def test_records_are_each_reports_to_record(capsys, monkeypatch):
    # a failed class is checked again forest by forest; its witness
    # needs escaping, and non-ASCII text goes out as \u escapes
    def fail(forest):
        n = len(hook_lengths(forest)) - 1
        return verify.CheckReport("eq-coset-fmaj", forest.render(),
                                  BiPoly.from_triples([[0, n, 1]]),
                                  BiPoly.from_triples([[1, n, 2]]), False,
                                  f'hooks "{hook_lengths(forest)[1:]}" \\ \u2260 {n}')

    bogus = dataclasses.replace(verify.THEOREMS["eq-coset-fmaj"], lhs=fail)
    monkeypatch.setitem(verify.THEOREMS, "eq-coset-fmaj", bogus)
    batch = []
    # a t-term pass, size rows, Series sides, None sides, the empty
    # polynomial and the failed rows
    for theorem, max_n in (("thm-bivariate-inv", 3), ("len-b", 3),
                           ("lem-partition-gf", 2), ("dec1", 2),
                           ("eq-even-odd", 2), ("eq-coset-fmaj", 3)):
        reports = verify.sweep(theorem, max_n, degree=4)
        code, out, _ = run(capsys, "sweep", "--theorem", theorem, "--max-n", str(max_n),
                           "--degree", "4", "--format", "records")
        assert code == (0 if theorem != "eq-coset-fmaj" else 1)
        assert out == "".join(json.dumps(r.to_record()) + "\n" for r in reports)
        batch += reports
    assert {"n=3", "(())()"} <= {r.forest for r in batch}
    assert any(r.to_record()["lhs"] == [] for r in batch)
    assert any('"' in r.witness and "\\" in r.witness and "\u2260" in r.witness
               for r in batch if not r.passed)
    # one batch mixing every kind, a report repeated, and a pass whose
    # sides differ, which no row makes but a report may carry
    one, q = BiPoly.from_triples([[0, 0, 1]]), BiPoly.from_triples([[0, 1, 1]])
    batch += [batch[0], verify.CheckReport("thm-bw", "()", one, q, True)]
    assert list(cli._record_lines(batch)) == [json.dumps(r.to_record()) for r in batch]
    for forest, theorem in (("(()())", "thm-bivariate-inv"), ("(())", "eq-even-odd")):
        report = verify.check_theorem(parse_forest(forest), theorem)
        _, out, _ = run(capsys, "check", "--forest", forest, "--theorem", theorem,
                        "--format", "records")
        assert out == json.dumps(report.to_record()) + "\n"


def test_records_serialize_each_polynomial_once(capsys, monkeypatch):
    calls = []
    real = BiPoly.to_triples

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(BiPoly, "to_triples", counted)
    code, out, _ = run(capsys, "sweep", "--max-n", "5", "--theorem", "thm-inv-b",
                       "--format", "records")
    # the 65 plane forests fall into 37 classes, each passing with its
    # rhs equal to its lhs
    assert code == 0 and len(out.splitlines()) == 65
    assert len(calls) == 37
    calls.clear()
    code, _, _ = run(capsys, "check", "--forest", "(()())", "--theorem", "thm-inv-b",
                     "--format", "records")
    assert code == 0 and len(calls) == 1


def test_one_parser_serves_every_call(capsys):
    # a usage error leaves the cached parser usable for the calls after it
    with pytest.raises(SystemExit) as exc:
        run(capsys, "check", "--theorem", "len-b")
    assert exc.value.code == 2 and "--forest" in capsys.readouterr().err
    code, out, err = run(capsys, "check", "--forest", "()", "--theorem", "thm-nope")
    assert code == 2 and out == "" and "unknown theorem id 'thm-nope'" in err
    code, out, _ = run(capsys, "check", "--forest", "(())", "--theorem", "len-b")
    assert code == 0 and out.startswith("PASS len-b forest='n=2'\n")
    code, out, _ = run(capsys, "sweep", "--max-n", "2", "--theorem", "eq-reiner")
    assert code == 0
    assert out == "".join(f"PASS eq-reiner forest='n={n}'\n" for n in range(3)) + \
        "3 checks, 0 failures\n"
    assert cli.build_parser() is cli.build_parser()


def test_linext(capsys):
    code, out, _ = run(capsys, "linext", "--forest", "()()", "--labeling=2,-1")
    assert code == 0
    assert "-1,2  maj-b=2" in out
    assert "2,-1  maj-b=1" in out
    assert "sum: q + q^2" in out
    assert "PASS" in out


def test_partitions(capsys):
    code, out, _ = run(capsys, "partitions", "--forest", "()", "--labeling=1",
                       "--degree", "3")
    assert code == 0
    assert "series: q + q^2 + q^3 + O(q^4)" in out
    assert "PASS dec1" in out


def test_partition_check_at_a_large_degree(capsys):
    # the DP keeps two series per vertex, not one per value, so a large
    # degree costs time alone
    code, out, _ = run(capsys, "check", "--forest", "()", "--theorem", "lem-partition-gf",
                       "--degree", "20000")
    assert code == 0
    assert out.startswith("PASS lem-partition-gf forest='()'\n")
    assert out.rstrip().endswith("2*q^20000 + O(q^20001)")


def test_partitions_negative_degree(capsys):
    code, out, err = run(capsys, "partitions", "--forest", "(())", "--labeling=-1,2",
                         "--degree", "-2")
    assert code == 2 and out == ""
    assert err == "error: degree must be nonnegative, got -2\n"


N_DEEP = 1100
LABELING_DEEP = "--labeling=" + ",".join(map(str, range(1, N_DEEP + 1)))


@pytest.mark.parametrize("argv", [("linext", LABELING_DEEP),
                                  ("partitions", LABELING_DEEP, "--degree", "0"),
                                  ("check", "--theorem", "dec1")])
def test_deep_forest_is_a_usage_error(capsys, argv):
    # the linear-extension generator recurses once per vertex, and
    # `partitions` and the dec1 row read it, so none of these commands
    # can run on a chain longer than the recursion limit; exit 1 would
    # read as a failed verification
    code, out, err = run(capsys, *argv, "--forest", "(" * N_DEEP + ")" * N_DEEP)
    assert code == 2 and out == ""
    assert err == f"error: input nests deeper than Python's recursion limit of " \
                  f"{sys.getrecursionlimit()}\n"


def test_bijections(capsys):
    code, out, _ = run(capsys, "bijections", "--max-n", "2")
    assert code == 0
    assert "PASS psi forest='n=2'" in out
    assert "PASS mirror forest='(())'" in out


def test_bijections_check_mirror_once_per_unordered_class(capsys, monkeypatch):
    calls = []
    check = verify.check_theorem

    def counted(forest, theorem_id, **kwargs):
        if theorem_id == "mirror":
            calls.append(forest)
        return check(forest, theorem_id, **kwargs)

    monkeypatch.setattr(verify, "check_theorem", counted)
    code, out, _ = run(capsys, "bijections", "--max-n", "4")
    assert code == 0
    assert out.count("PASS mirror") == 23
    assert len(calls) == 17  # 1 + 1 + 2 + 4 + 9 classes


def test_bijections_recheck_each_forest_of_a_failed_class(capsys, monkeypatch):
    # a witness that reads the planar order tells the members of a class apart
    bad = canonical_form("(())()")
    calls = []
    check = verify.check_theorem

    def fail_on_bad(forest, theorem_id, **kwargs):
        if theorem_id != "mirror":
            return check(forest, theorem_id, **kwargs)
        calls.append(forest.render())
        if canonical_form(forest.render()) != bad:
            return check(forest, theorem_id, **kwargs)
        return verify.CheckReport("mirror", forest.render(), None, None, False,
                                  f"hooks {hook_lengths(forest)[1:]}")

    monkeypatch.setattr(verify, "check_theorem", fail_on_bad)
    code, out, _ = run(capsys, "bijections", "--max-n", "3", "--format", "records")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["forest"], r["witness"]) for r in records if not r["pass"]] == [
        ("(())()", "hooks (2, 1, 1)"), ("()(())", "hooks (1, 2, 1)")]
    # 1 + 1 + 2 + 4 classes, then the failed class's second forest
    assert len(calls) == 9 and calls[-1] == "()(())"


@pytest.mark.parametrize("max_n", range(5))
def test_bijections_are_the_psi_and_mirror_sweeps(capsys, max_n):
    records = ["--max-n", str(max_n), "--format", "records"]
    code, out, _ = run(capsys, "bijections", *records)
    _, psi, _ = run(capsys, "sweep", "--theorem", "psi", *records)
    _, mirror, _ = run(capsys, "sweep", "--theorem", "mirror", *records)
    assert code == 0 and out == psi + mirror
    assert run(capsys, "sweep", "--theorem", "mirror", "--jobs", "2", *records)[1] == mirror


def test_bijections_run_one_sweep_per_row(capsys, monkeypatch):
    calls = []
    sweep = verify.sweep
    monkeypatch.setattr(verify, "sweep",
                        lambda theorem, max_n: calls.append(theorem) or sweep(theorem, max_n))
    assert run(capsys, "bijections", "--max-n", "3")[0] == 0
    assert calls == ["psi", "mirror"]


def test_bijection_rows_in_rhs_and_check(capsys):
    # rhs prints the closed form that check shows on its rhs line
    for theorem, forest in (("psi", "()"), ("mirror", "(()())")):
        code, out, _ = run(capsys, "check", "--forest", forest, "--theorem", theorem)
        assert code == 0 and out.startswith(f"PASS {theorem} forest=")
        rhs_line = out.splitlines()[-1]
        assert run(capsys, "rhs", "--forest", forest, "--theorem", theorem) == (
            0, rhs_line.removeprefix("  rhs: ") + "\n", "")
    assert run(capsys, "rhs", "--forest", "()", "--theorem", "eq-coset-fmaj") == (
        2, "", "error: 'eq-coset-fmaj' has no closed form\n")


def test_counterexample_none(capsys):
    code, out, _ = run(capsys, "counterexample", "--stat", "inv-b", "--vs", "fmaj",
                       "--mode", "signed", "--max-n", "3")
    assert code == 0
    assert out.startswith("none")


def test_counterexample_none_records(capsys):
    code, out, _ = run(capsys, "counterexample", "--stat", "inv-b", "--vs", "fmaj",
                       "--mode", "signed", "--max-n", "3", "--format", "records")
    assert code == 0
    assert out == '{"witness": null}\n'


def test_counterexample_inv_d_on_ordinary_labelings(capsys):
    # ordinary labelings are even-signed, and there inv-d is inv
    code, out, _ = run(capsys, "counterexample", "--stat", "inv-d", "--vs", "inv",
                       "--mode", "ordinary", "--max-n", "2")
    assert code == 0
    assert out.startswith("none")


def test_counterexample_witness(capsys):
    code, out, _ = run(capsys, "counterexample", "--stat", "nmaj-f", "--vs", "inv-b",
                       "--mode", "signed", "--max-n", "4", "--format", "records")
    assert code == 0
    record = json.loads(out)
    assert record["witness"] == "((()()))"
    assert record["dist_stat"] != record["dist_vs"]


def test_counterexample_witness_human(capsys):
    golden = json.loads((GOLDEN / "counterexample_nmaj_vs_inv_b.json").read_text())
    code, out, _ = run(capsys, "counterexample", "--stat", "nmaj-f", "--vs", "inv-b",
                       "--max-n", "4")
    assert code == 0
    assert out.splitlines() == [
        "witness: ((()()))",
        f"nmaj-f: {BiPoly.from_triples(golden['dist_stat']).render()}",
        f"inv-b: {BiPoly.from_triples(golden['dist_vs']).render()}",
    ]


def test_failed_check_exits_1(capsys, monkeypatch):
    # every shipped identity holds, so a failing report is simulated
    from hookforest import verify

    def broken(forest, theorem_id, degree=10):
        return verify.CheckReport(theorem_id, forest.render(), None, None,
                                  False, "synthetic failure")

    monkeypatch.setattr(cli.verify, "check_theorem", broken)
    code, out, _ = run(capsys, "check", "--forest", "()", "--theorem", "thm-bw")
    assert code == 1
    assert "FAIL" in out and "synthetic failure" in out


@pytest.mark.parametrize("argv", [
    ("dist", "--forest", "((", "--stat", "inv-b"),
    ("dist", "--forest", "()", "--stat", "nope"),
    ("dist", "--forest", "(())", "--stat", "inv-d", "--mode", "signed"),
    ("linext", "--forest", "(())", "--labeling=1,x"),
    ("linext", "--forest", "(())", "--labeling=1,3"),
    ("check", "--forest", "()", "--theorem", "thm-nope"),
    ("sweep", "--max-n", "-1", "--theorem", "nope"),
    ("sweep", "--max-n", "-1", "--theorem", "thm-inv-b"),
    ("counterexample", "--stat", "nope", "--vs", "inv-b", "--max-n", "-1"),
    ("counterexample", "--stat", "inv-b", "--vs", "nope", "--max-n", "-1"),
    ("counterexample", "--stat", "inv-b", "--vs", "fmaj", "--max-n", "-1"),
    ("bijections", "--max-n", "-1"),
    ("dist", "--forest", "[0,true]", "--stat", "inv-b"),
    ("sweep", "--max-n", "1", "--theorem", "thm-bw", "--jobs", "0"),
    ("counterexample", "--stat", "inv-b", "--vs", "fmaj", "--max-n", "1", "--jobs", "-3"),
    ("check", "--forest", "(())", "--theorem", "thm-inv-b", "--degree", "-2"),
    ("sweep", "--max-n", "1", "--theorem", "thm-inv-b", "--degree", "-2"),
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_errors_print_their_message_alone(capsys):
    # a parse error is a ValueError; a KeyError's message prints without quotes
    assert run(capsys, "check", "--forest", "(()", "--theorem", "thm-bw") == (
        2, "", "error: unclosed '(' (offset 3)\n")
    assert run(capsys, "check", "--forest", "()", "--theorem", "nope") == (
        2, "", "error: unknown theorem id 'nope'; known ids: thm-bw, thm-inv-b, "
               "thm-inv-d, thm-fmaj, thm-rmaj, thm-bivariate-inv, thm-bivariate-majB, "
               "thm-le1, lem-partition-gf, eq-reiner, len-b, len-d, eq-even-odd, "
               "eq-coset-fmaj, psi, mirror, dec1, partition-shift\n")


def test_ids_are_checked_before_sizes(capsys):
    code, out, err = run(capsys, "sweep", "--max-n", "-1", "--theorem", "nope")
    assert code == 2 and out == ""
    assert "unknown theorem id 'nope'" in err
    code, out, err = run(capsys, "counterexample", "--stat", "nope", "--vs", "inv-b",
                         "--max-n", "-1")
    assert code == 2 and out == ""
    assert "unknown forest statistic 'nope'" in err
