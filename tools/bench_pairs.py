"""Alternating parent/change pairs of the benchmark, summarised in one file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload mild20 \
        --seeds 0-9 --label scan_rows

For each seed i of the range it runs, in each checkout,

    python3 benchmarks/run.py --workload W --seed i --seconds 35 --trace 0

one after the other: the parent first on even seeds, the change first on odd
ones, so neither side always runs second. It adds the set of pairs to
``BENCH_<label>.json`` in the current directory, in place of an earlier set
of the same workload and seeds. For each end-to-end metric of the change's
BENCHMARK.json it records both medians, the margin of the change's median
(``margin``, positive for better), the parent's quartiles, the pairs
each side won (a tie counts for neither), the raw values in seed order, the
metric's bound, how much worse the change's median is (``worse_by``,
relative, positive for worse), whether that stays inside the bound, and
whether the pairs show a gain (``gain_shown``: the change won at least 9 in
10 of the pairs, and its median is better than the parent's by more than the
parent's interquartile range); it prints one line per metric with both
verdicts, and, where the change's median is better, its margin, the parent's
interquartile range and the test of a gain that failed.
The verdicts read the figures that run.py scales to its nominal speed.
Each run also prints the raw figures that it scaled, and ``speed_scale``:
the file keeps every run's raw figures (``raw``), each metric's raw
medians (``raw_parent_median``, ``raw_change_median``) and each side's
median ``speed_scale``, so a reading can be told apart from a shift of
the machine's speed.
The file also holds the machine record of the first run, both checkouts'
``git rev-parse HEAD`` and every run that failed or reported incorrect
outputs. The exit status is 1 when there is such a run, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

SECONDS = 35
SIDES = ("parent", "change")


def parse_seeds(text: str) -> range:
    """'A-B' as the seeds A..B, both included."""
    first, last = map(int, text.split("-"))
    if not 0 <= first <= last:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return range(first, last + 1)


def parse_run(returncode: int, stdout: str) -> dict:
    """One run's record from its exit status and stdout. run.py prints its
    machine record on the first line, its raw figures on a line of their
    own (``{"raw": ...}``, kept as ``raw``, {} when there is none) and its
    verdict and metrics on the last. ``problem`` says why the run does not
    count, or is None."""
    lines = stdout.strip().splitlines()
    try:
        machine = json.loads(lines[0])["machine"]
        verdict = json.loads(lines[-1])
        values = {name: m["value"] for name, m in verdict["metrics"].items()}
        raw = next((json.loads(line)["raw"] for line in lines[1:-1]
                    if line.startswith('{"raw": ')), {})
    except (IndexError, KeyError, TypeError, ValueError):
        return {"problem": f"exit {returncode}, no metrics line", "machine": None, "values": {},
                "raw": {}}
    problem = None
    if returncode != 0:
        problem = f"exit {returncode}"
    elif verdict.get("correct") is not True or verdict.get("failed") != 0:
        problem = f"incorrect outputs: {verdict.get('failed')} failed operations"
    return {"problem": problem, "machine": machine, "values": values, "raw": raw}


def raw_median(records: list[dict], name: str) -> Optional[float]:
    """The median of the runs' raw figure ``name``, None when no run has it."""
    found = [record["raw"][name] for record in records if name in record["raw"]]
    return statistics.median(found) if found else None


def summarize(parent: list[float], change: list[float], better: str,
              bound: Optional[float] = None) -> dict:
    """Medians, the parent's quartiles and the pairs won of one metric, for
    values paired by position. ``better`` is "lower" or "higher". A single
    pair has no quartiles: they are None (null in the file).

    ``worse_by`` is the change's median relative to the parent's, signed so
    that a positive value means worse: (change - parent) / |parent| for a
    lower-is-better metric, the negation for a higher-is-better one. It is
    None when the parent's median is 0. ``within_bound`` says whether it is
    at most ``bound``, and is None when either is None.

    ``margin`` is how much better the change's median is than the parent's,
    in the metric's unit (negative for worse). ``gain_shown`` says whether
    both tests of gain_tests pass: the change won at least 9 in 10 of the
    pairs (a tie counts for neither side), and the margin is above the
    parent's interquartile range. It is None when there are no quartiles."""
    sign = 1 if better == "lower" else -1
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    quartiles = None
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        quartiles = [q1, q3]
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    worse_by = None
    if parent_median != 0:
        worse_by = sign * (change_median - parent_median) / abs(parent_median)
    summary = {
        "better": better,
        "parent_median": parent_median,
        "change_median": change_median,
        "bound": bound,
        "worse_by": worse_by,
        "within_bound": None if worse_by is None or bound is None else worse_by <= bound,
        "gain_shown": None,
        "margin": sign * (parent_median - change_median),
        "parent_quartiles": quartiles,
        "pairs": len(parent),
        "change_won": won,
        "parent_won": lost,
        "parent": parent,
        "change": change,
    }
    if quartiles is not None:
        summary["gain_shown"] = all(gain_tests(summary).values())
    return summary


def gain_tests(summary: dict) -> dict:
    """The two tests a gain must pass, by what each failure is called: the
    change won at least 9 in 10 of the pairs, and its median margin is
    above the parent's interquartile range. The summary needs quartiles."""
    q1, q3 = summary["parent_quartiles"]
    return {
        "too few pairs won": 10 * summary["change_won"] >= 9 * summary["pairs"],
        "margin within the parent IQR": summary["margin"] > q3 - q1,
    }


def verdict_line(name: str, summary: dict) -> str:
    """One line on whether a metric's median stayed inside its bound, and
    whether the pairs show a gain. When the change's median is better and
    the parent has quartiles, the line gives the margin and the parent's
    interquartile range, and names each test of gain_tests that failed."""
    worse_by, bound = summary["worse_by"], summary["bound"]
    worse = "n/a" if worse_by is None else f"{worse_by:+.1%}"
    limit = "none" if bound is None else f"{bound:.0%}"
    verdict = {True: "within bound", False: "OUTSIDE BOUND", None: "no verdict"}
    gain = {True: "gain shown", False: "no gain shown", None: "gain n/a"}
    why = ""
    if summary["gain_shown"] is not None and summary["margin"] > 0:
        q1, q3 = summary["parent_quartiles"]
        failed = [text for text, passed in gain_tests(summary).items() if not passed]
        why = f"better by {summary['margin']:.6g}, parent IQR {q3 - q1:.6g}"
        why += f" ({', '.join(failed)}); " if failed else "; "
    return (f"{name}: median {summary['parent_median']:.6g} -> {summary['change_median']:.6g}, "
            f"worse by {worse} (bound {limit}): {verdict[summary['within_bound']]}; {why}"
            f"change won {summary['change_won']}/{summary['pairs']}, "
            f"{gain[summary['gain_shown']]}")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "benchmarks/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    record = parse_run(done.returncode, done.stdout)
    if record["problem"]:
        record["stderr"] = done.stderr[-2000:]
    return record


def git_head(checkout: Path) -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else f"unknown: {done.stderr.strip()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, both included")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    runs = {side: [] for side in SIDES}
    problems, machine = [], None
    for seed in args.seeds:
        for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
            record = run_once(checkouts[side], args.workload, seed)
            runs[side].append(record)
            machine = machine or record["machine"]
            print(f"{side} seed {seed}: {record['problem'] or record['values']}", file=sys.stderr)
            if record["problem"]:
                problems.append({"side": side, "seed": seed, "problem": record["problem"],
                                 "stderr": record["stderr"]})
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["values"].get(name) for r in runs[side]] for side in SIDES}
        pairs = [(p, c) for p, c in zip(values["parent"], values["change"])
                 if p is not None and c is not None]
        if pairs:
            summary = summarize(*map(list, zip(*pairs)), metric["better"], metric.get("bound"))
            summary.update({f"raw_{side}_median": raw_median(runs[side], name) for side in SIDES})
            metrics[name] = summary
            print(verdict_line(name, summary), file=sys.stderr)
    result = {
        "workload": args.workload,
        "seeds": [args.seeds.start, args.seeds.stop - 1],
        "command": f"python3 benchmarks/run.py --workload {args.workload} --seed <i> "
                   f"--seconds {SECONDS} --trace 0",
        "order": "parent first on even seeds",
        "machine": machine,
        "heads": {side: git_head(checkouts[side]) for side in SIDES},
        "metrics": metrics,
        "speed_scale": {side: raw_median(runs[side], "speed_scale") for side in SIDES},
        "raw": {side: [record["raw"] for record in runs[side]] for side in SIDES},
        "problems": problems,
    }
    # One file per label: a later set replaces the set of the same workload
    # and seeds, and is appended to the others.
    out = Path(f"BENCH_{args.label}.json")
    sets = json.loads(out.read_text())["sets"] if out.exists() else []
    sets = [s for s in sets if (s["workload"], s["seeds"]) != (args.workload, result["seeds"])]
    out.write_text(json.dumps({"sets": sets + [result]}, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
