"""``tools/bench_compare.py`` on synthetic result lines: medians, wins, verdicts."""

import importlib.util
import json
from pathlib import Path

import pytest

COMPARE_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
SPEC = {"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "pass_s", "better": "lower", "bound": 0.25},
                       {"name": "rate", "better": "higher", "bound": 0.25}]}


def _load():
    spec = importlib.util.spec_from_file_location("bench_compare", COMPARE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_compare = _load()


def _run(pass_s, rate, attempted=10, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"w.pass_s": {"value": pass_s, "unit": "s"},
                        "w.rate": {"value": rate, "unit": "1/s"}}}


def test_medians_quartiles_and_wins():
    m = bench_compare.compare_metric([1.0, 2.0, 3.0, 4.0, 5.0],
                                     [0.5, 2.0, 3.5, 3.0, 5.0], 0.25, "lower")
    assert (m["parent"]["q1"], m["parent"]["median"], m["parent"]["q3"]) == (2.0, 3.0, 4.0)
    assert m["change"]["median"] == 3.0
    assert m["change_wins"] == 2          # pairs 1 and 4; pairs 2 and 5 tie
    assert m["pairs"] == 5
    assert m["delta"] == 0.0


@pytest.mark.parametrize("parent, change, better, verdict", [
    ([10.0, 10.0, 10.0], [13.0, 13.0, 12.0], "lower", "worse"),
    ([10.0, 10.0, 10.0], [12.0, 12.0, 12.0], "lower", "within bound"),
    ([10.0, 10.0, 10.0], [7.0, 8.0, 7.0], "higher", "worse"),
    # parent IQR 6/10 > 0.25: a slower median within the bound is unresolved
    ([4.0, 10.0, 16.0], [11.0, 12.0, 11.0], "lower", "unresolved"),
    # ... and so is a faster one, unless every change run beats every parent run
    ([4.0, 10.0, 16.0], [3.0, 9.0, 3.0], "lower", "unresolved"),
    ([4.0, 10.0, 16.0], [3.0, 3.5, 3.0], "lower", "within bound"),
    ([4.0, 10.0, 16.0], [17.0, 18.0, 17.0], "higher", "within bound"),
], ids=["worse-lower", "within-lower", "worse-higher", "unresolved-slower",
        "unresolved-faster", "dominates-lower", "dominates-higher"])
def test_verdicts(parent, change, better, verdict):
    assert bench_compare.compare_metric(parent, change, 0.25, better)["verdict"] == verdict


def test_compare_pairs_runs_and_counts_ops():
    parent = [_run(1.0, 5.0), _run(1.1, 5.0, failed=1)]
    change = [_run(0.9, 5.5, attempted=12), _run(1.0, 4.0)]
    report = bench_compare.compare(parent, change, SPEC)
    assert report["sides"] == {"parent": {"runs": 2, "attempted": 20, "failed": 1},
                               "change": {"runs": 2, "attempted": 22, "failed": 0}}
    assert report["workloads"]["w"]["pass_s"]["change_wins"] == 2
    assert report["workloads"]["w"]["rate"]["change_wins"] == 1
    assert set(report["machine"]) == {"nproc", "python", "numpy"}
    with pytest.raises(ValueError, match="same number"):
        bench_compare.compare(parent, change[:1], SPEC)


def test_main_reads_the_last_line_of_each_output(tmp_path):
    spec = json.loads((COMPARE_PATH.parents[1] / "BENCHMARK.json").read_text())
    line = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        f"{w['name']}.{m['name']}": {"value": 1.0, "unit": m["unit"]}
        for w in spec["workloads"] for m in spec["end_to_end"]}}
    run = tmp_path / "run.txt"
    run.write_text("mvreins benchmark: ...\n" + json.dumps(line) + "\n\n")
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--parent", str(run), "--change", str(run),
                               "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {m["verdict"] for w in report["workloads"].values()
            for m in w.values()} == {"within bound"}
