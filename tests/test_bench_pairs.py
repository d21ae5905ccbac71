"""The summary of tools/bench_pairs.py on fixed inputs."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_lower_is_better():
    parent = [4.0, 1.0, 3.0, 2.0, 5.0]
    change = [3.0, 1.0, 3.5, 1.0, 2.0]
    summary = bench_pairs.summarize(parent, change, "lower")
    assert summary["parent_median"] == 3.0 and summary["change_median"] == 2.0
    assert summary["parent_quartiles"] == [2.0, 4.0]
    # seed 1 is a tie, seed 2 a loss, seeds 0, 3 and 4 wins
    assert (summary["change_won"], summary["parent_won"], summary["pairs"]) == (3, 1, 5)
    assert summary["parent"] == parent and summary["change"] == change


def test_higher_is_better():
    summary = bench_pairs.summarize([10.0, 20.0, 30.0, 40.0], [11.0, 20.0, 29.0, 50.0], "higher")
    assert summary["change_median"] == 24.5 and summary["parent_median"] == 25.0
    assert summary["parent_quartiles"] == [17.5, 32.5]
    assert (summary["change_won"], summary["parent_won"]) == (2, 1)


def test_bound_verdict_lower_is_better():
    # medians 2.0 -> 2.4: 20% worse, inside a 0.25 bound and outside 0.1
    parent, change = [1.0, 2.0, 3.0], [1.5, 2.4, 3.0]
    summary = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert summary["bound"] == 0.25 and summary["worse_by"] == pytest.approx(0.2)
    assert summary["within_bound"] is True
    assert bench_pairs.summarize(parent, change, "lower", 0.1)["within_bound"] is False
    line = bench_pairs.verdict_line("brute_solve_s", summary)
    assert line == ("brute_solve_s: median 2 -> 2.4, worse by +20.0% (bound 25%): within bound; "
                    "change won 0/3, no gain shown")


def test_bound_verdict_higher_is_better():
    # medians 20 -> 14: a higher-is-better metric fell by 30%, worse than a
    # 0.25 bound; a rise reads as negative worse_by, inside any bound
    summary = bench_pairs.summarize([10.0, 20.0, 30.0], [14.0, 14.0, 40.0], "higher", 0.25)
    assert summary["worse_by"] == pytest.approx(0.3) and summary["within_bound"] is False
    assert bench_pairs.verdict_line("sim_events_per_s", summary).endswith(
        "worse by +30.0% (bound 25%): OUTSIDE BOUND; change won 2/3, no gain shown")
    risen = bench_pairs.summarize([10.0, 30.0], [30.0, 50.0], "higher", 0.25)
    assert risen["worse_by"] == pytest.approx(-1.0) and risen["within_bound"] is True


def test_bound_verdict_undefined():
    """A zero parent median has no relative difference, and a metric with
    no bound has no verdict."""
    zero = bench_pairs.summarize([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], "lower", 0.25)
    assert zero["worse_by"] is None and zero["within_bound"] is None
    unbounded = bench_pairs.summarize([1.0], [2.0], "lower")
    assert unbounded["bound"] is None and unbounded["worse_by"] == 1.0
    assert unbounded["within_bound"] is None
    assert bench_pairs.verdict_line("x", zero).endswith(
        "worse by n/a (bound 25%): no verdict; change won 0/3, no gain shown")


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # median 14.5, IQR 4.5


@pytest.mark.parametrize(
    "better, change, won, shown",
    [
        # nine wins and a loss; median 9.5, better by 5.0 > 4.5
        ("lower", [p - 5.0 for p in PARENT[:9]] + [20.0], 9, True),
        # the same wins, but median 10.0 is better by exactly the IQR
        ("lower", [p - 4.5 for p in PARENT[:9]] + [20.0], 9, False),
        # nine wins and a tie: the tie counts for neither side; median 4.5
        ("lower", [p - 10.0 for p in PARENT[:9]] + [19.0], 9, True),
        # eight wins and two ties, a median far below: 8/10 is too few
        ("lower", [p - 10.0 for p in PARENT[:8]] + [18.0, 19.0], 8, False),
        # all ten pairs won by 0.1: the medians are closer than the IQR
        ("lower", [p - 0.1 for p in PARENT], 10, False),
        # higher is better: nine wins, median 19.5 is better by 5.0
        ("higher", [p + 6.0 for p in PARENT[:9]] + [10.0], 9, True),
        # higher is better: median 18.5 is better by 4.0 only
        ("higher", [p + 5.0 for p in PARENT[:9]] + [10.0], 9, False),
        # a lower-is-better metric that rose: every pair lost
        ("lower", [p + 10.0 for p in PARENT], 0, False),
    ],
)
def test_gain_shown(better, change, won, shown):
    summary = bench_pairs.summarize(PARENT, change, better, 0.25)
    assert summary["parent_quartiles"] == [12.25, 16.75]
    assert summary["change_won"] == won
    assert summary["gain_shown"] is shown
    assert bench_pairs.verdict_line("m", summary).endswith(
        f"change won {won}/10, {'gain shown' if shown else 'no gain shown'}")


def stdout(correct=True, failed=0):
    machine = {"workload": "mild20", "seed": 0, "machine": {"nproc": 2}}
    verdict = {"correct": correct, "attempted": 4, "failed": failed,
               "metrics": {"brute_solve_s": {"value": 0.0125, "unit": "s"}}}
    return "\n".join([json.dumps(machine), json.dumps({"raw": {}}), json.dumps(verdict)])


@pytest.mark.parametrize(
    "returncode, text, problem",
    [
        (0, stdout(), None),
        (0, stdout(correct=False, failed=1), "incorrect outputs: 1 failed operations"),
        (0, stdout(correct=True, failed=2), "incorrect outputs: 2 failed operations"),
        (3, stdout(), "exit 3"),
        (2, "", "exit 2, no metrics line"),
        (0, '{"workload": "x"}\nTraceback', "exit 0, no metrics line"),
    ],
)
def test_parse_run(returncode, text, problem):
    record = bench_pairs.parse_run(returncode, text)
    assert record["problem"] == problem
    if problem is None:
        assert record["values"] == {"brute_solve_s": 0.0125}
        assert record["machine"] == {"nproc": 2}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("0-9") == range(10)
    assert bench_pairs.parse_seeds("10-19") == range(10, 20)
    assert bench_pairs.parse_seeds("4-4") == range(4, 5)
    for text in ("9-0", "4", "a-b", "1-2-3"):
        with pytest.raises((ValueError, argparse.ArgumentTypeError)):
            bench_pairs.parse_seeds(text)


def test_single_pair_has_no_quartiles():
    summary = bench_pairs.summarize([2.0], [1.5], "lower")
    assert summary["parent_quartiles"] is None
    assert (summary["parent_median"], summary["change_median"]) == (2.0, 1.5)
    assert (summary["change_won"], summary["parent_won"], summary["pairs"]) == (1, 0, 1)


def test_one_seed_writes_its_file(tmp_path, monkeypatch, capsys):
    """--seeds 4-4 runs one pair per side and still writes BENCH_<label>.json,
    with null parent quartiles, the metric's bound and its verdict."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    spec = {"end_to_end": [{"name": "brute_solve_s", "better": "lower", "bound": 0.25}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = []

    def run_once(checkout, workload, seed):
        runs.append((checkout.name, workload, seed))
        return bench_pairs.parse_run(0, stdout())

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "git_head", lambda checkout: checkout.name)
    monkeypatch.chdir(tmp_path)
    status = bench_pairs.main(["--parent", "parent", "--change", "change",
                               "--workload", "mild20", "--seeds", "4-4", "--label", "one"])
    assert status == 0
    assert runs == [("parent", "mild20", 4), ("change", "mild20", 4)]
    [result] = json.loads((tmp_path / "BENCH_one.json").read_text())["sets"]
    assert result["seeds"] == [4, 4] and result["problems"] == []
    metric = result["metrics"]["brute_solve_s"]
    assert metric["parent_quartiles"] is None and metric["pairs"] == 1
    assert (metric["bound"], metric["worse_by"], metric["within_bound"]) == (0.25, 0.0, True)
    assert metric["gain_shown"] is None
    assert ("brute_solve_s: median 0.0125 -> 0.0125, worse by +0.0% (bound 25%): within bound; "
            "change won 0/1, gain n/a" in capsys.readouterr().err.splitlines())
