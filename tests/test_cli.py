import json

import pytest

from hookforest import cli
from hookforest.qpoly import BiPoly


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


def test_sweep_jobs_deterministic(capsys):
    _, serial, _ = run(capsys, "sweep", "--max-n", "3", "--theorem", "thm-inv-b")
    _, threaded, _ = run(capsys, "sweep", "--max-n", "3", "--theorem", "thm-inv-b",
                         "--jobs", "4")
    assert serial == threaded


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


def test_bijections(capsys):
    code, out, _ = run(capsys, "bijections", "--max-n", "2")
    assert code == 0
    assert "PASS psi forest='n=2'" in out
    assert "PASS mirror forest='(())'" in out


def test_counterexample_none(capsys):
    code, out, _ = run(capsys, "counterexample", "--stat", "inv-b", "--vs", "fmaj",
                       "--mode", "signed", "--max-n", "3")
    assert code == 0
    assert out.startswith("none")


def test_counterexample_witness(capsys):
    code, out, _ = run(capsys, "counterexample", "--stat", "nmaj-f", "--vs", "inv-b",
                       "--mode", "signed", "--max-n", "4", "--format", "records")
    assert code == 0
    record = json.loads(out)
    assert record["witness"] == "((()()))"
    assert record["dist_stat"] != record["dist_vs"]


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
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_ids_are_checked_before_sizes(capsys):
    code, out, err = run(capsys, "sweep", "--max-n", "-1", "--theorem", "nope")
    assert code == 2 and out == ""
    assert "unknown theorem id 'nope'" in err
    code, out, err = run(capsys, "counterexample", "--stat", "nope", "--vs", "inv-b",
                         "--max-n", "-1")
    assert code == 2 and out == ""
    assert "unknown forest statistic 'nope'" in err


def test_env_var_sets_default_jobs(monkeypatch):
    monkeypatch.setenv("HOOKFOREST_JOBS", "3")
    parser = cli.build_parser()
    args = parser.parse_args(["sweep", "--max-n", "1", "--theorem", "thm-bw"])
    assert args.jobs == 3
