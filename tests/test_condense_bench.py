"""The verdicts that tools/condense_bench.py gives each benchmark metric,
on synthetic ``result.json`` objects."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "condense_bench", REPO / "tools" / "condense_bench.py"
)
condense_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(condense_bench)

METRICS = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]


def result(seed, wall_s, checks_per_s=100.0, trace=0, seconds=55, failed=0, correct=True):
    """A `report` run, untraced unless `trace`: every metric 1.0 but the
    two given."""
    values = dict.fromkeys(METRICS, 1.0)
    values.update(wall_s=wall_s, checks_per_s=checks_per_s)
    return {
        "machine": {"cpu": "synthetic"},
        "workload": "report",
        "seconds": seconds,
        "trace": trace,
        "all_metrics": {},
        "seed": seed,
        "summary": {
            "correct": correct,
            "failed": failed,
            "metrics": {name: {"value": v} for name, v in values.items()},
        },
    }


def condensed(parent_walls, change_walls, change_checks=100.0, **change_run):
    runs = []
    for seed, (p, c) in enumerate(zip(parent_walls, change_walls)):
        runs += [
            ("parent", result(seed, p)),
            ("change", result(seed, c, change_checks, **change_run)),
        ]
    return condense_bench.condense(runs)["workloads"]["report"]["metrics"]


def refused(runs, message, tmp_path, capsys):
    """Both `condense` and `main` refuse `runs` with `message`; nothing
    is written."""
    with pytest.raises(ValueError, match=message):
        condense_bench.condense(runs)
    paths = []
    for i, (side, res) in enumerate(runs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(res))
        paths.append(f"{side}={path}")
    out = tmp_path / "BENCH.json"
    assert condense_bench.main([str(out), *paths]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


PARENT = [0.26, 0.25, 0.27, 0.26, 0.26, 0.25, 0.27, 0.26, 0.28, 0.26]


def test_a_clear_win_meets_the_gain_rule():
    change = [w - 0.03 for w in PARENT[:9]] + [PARENT[9] + 0.01]  # loses one pair
    wall = condensed(PARENT, change)["wall_s"]
    assert wall["change_wins"] == 9 and wall["pairs"] == 10
    assert wall["gain_rule_met"] and wall["within_bound"]


def test_a_tie_is_within_bound_but_no_gain():
    metrics = condensed(PARENT, PARENT)
    for name in METRICS:
        assert metrics[name]["change_wins"] == 0
        assert not metrics[name]["gain_rule_met"], name
        assert metrics[name]["within_bound"], name


def test_a_small_win_inside_the_spread_is_no_gain():
    # every pair won, but the medians differ by less than the parent's IQR
    wall = condensed(PARENT, [w - 0.001 for w in PARENT])["wall_s"]
    assert wall["change_wins"] == 10
    assert not wall["gain_rule_met"] and wall["within_bound"]


def test_a_regression_leaves_the_bound():
    # wall_s 30 % worse (bound 25 %), checks_per_s 30 % lower (higher is better)
    metrics = condensed(PARENT, [w * 1.3 for w in PARENT], change_checks=70.0)
    for name in ("wall_s", "checks_per_s"):
        assert not metrics[name]["gain_rule_met"], name
        assert not metrics[name]["within_bound"], name
    assert metrics["cpu_s"]["within_bound"]
    # 20 % worse stays inside the same bound
    assert condensed(PARENT, [w * 1.2 for w in PARENT])["wall_s"]["within_bound"]


@pytest.mark.parametrize("pairs", [0, 1])
def test_too_few_pairs_name_the_workload(pairs, tmp_path, capsys):
    # traced runs only (0 complete pairs), or one pair plus an unpaired run
    runs = [("parent", result(99, 0.26, trace=1)), ("change", result(99, 0.25, trace=1))]
    runs += [("parent", result(0, 0.26)), ("change", result(0, 0.25))][: 2 * pairs]
    runs.append(("parent", result(1, 0.26)))
    message = f"workload 'report' has {pairs} complete parent/change pairs"
    refused(runs, message, tmp_path, capsys)


def paired_runs(pairs=3):
    return [
        (side, result(seed, 0.26)) for seed in range(pairs) for side in ("parent", "change")
    ]


@pytest.mark.parametrize("trace", [0, 1])
def test_a_second_run_of_one_side_and_seed_is_refused(trace, tmp_path, capsys):
    # it would replace the first, and every run made must be reported
    runs = paired_runs() + [("parent", result(1, 0.25, trace=trace))]
    if trace:
        runs.insert(0, ("parent", result(7, 0.26, trace=1)))
        message = "workload 'report' has two traced parent runs"
    else:
        message = "workload 'report' has two parent runs of seed 1"
    refused(runs, message, tmp_path, capsys)


def test_an_unpaired_run_is_refused(tmp_path, capsys):
    # left out, its wrong answer and failed operations would go unreported
    runs = paired_runs() + [("parent", result(3, 0.26, failed=3, correct=False))]
    refused(runs, "workload 'report' has an unpaired parent run of seed 3", tmp_path, capsys)


def test_runs_of_different_lengths_are_refused(tmp_path, capsys):
    # they would be merged under the first run's `seconds`
    runs = paired_runs() + [("parent", result(3, 0.26, seconds=30))]
    runs.append(("change", result(3, 0.25, seconds=30)))
    refused(runs, "workload 'report' has runs of 55 and 30 seconds", tmp_path, capsys)


@pytest.mark.parametrize(
    "change_run", [{"failed": 50, "correct": False}, {"failed": 50}, {"correct": False}]
)
def test_failures_or_wrong_runs_meet_no_gain_rule(change_run):
    # the clear win of the first test, but the change failed operations
    # or gave a wrong answer
    change = [w - 0.03 for w in PARENT]
    assert condensed(PARENT, change)["wall_s"]["gain_rule_met"]
    metrics = condensed(PARENT, change, **change_run)
    assert metrics["wall_s"]["change_wins"] == 10
    for name in METRICS:
        assert not metrics[name]["gain_rule_met"], name


def _without(key):
    res = result(0, 0.26)
    del res[key]
    return res


# JSON that is not a result.json object: read as a run, it would crash
# inside `condense`
NOT_RESULTS = {
    "empty-object": {},
    "array": [],
    **{f"no-{key}": _without(key) for key in condense_bench._RESULT_KEYS},
}


@pytest.mark.parametrize("bad", ["no-equals", "missing", "not-json", *NOT_RESULTS])
def test_an_unreadable_argument_exits_2(bad, tmp_path, capsys):
    # named on stderr with its reason, never a traceback; nothing is written
    good = []
    for i, (side, res) in enumerate(paired_runs()):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(res))
        good.append(f"{side}={path}")
    text = tmp_path / "text.json"
    text.write_text(json.dumps(NOT_RESULTS[bad]) if bad in NOT_RESULTS else "not json")
    arg = {
        "no-equals": "parent",
        "missing": f"parent={tmp_path / 'absent.json'}",
    }.get(bad, f"parent={text}")
    out = tmp_path / "BENCH.json"
    assert condense_bench.main([str(out), *good, arg]) == 2
    assert capsys.readouterr().err.startswith(f"condense_bench: {arg}: ")
    assert not out.exists()
