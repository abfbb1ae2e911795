"""Every committed ``BENCH_*.json`` agrees with itself and with
``BENCHMARK.json``: its summaries recompute from the runs it lists."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def load(path):
    return json.loads(path.read_text())


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def entries(bench):
    """(workload, metric name, entry) of every end-to-end entry that
    ``BENCHMARK.json`` declares."""
    for w in WORKLOADS:
        for name in METRICS:
            yield w, name, bench["end_to_end"][w][name]


def test_there_is_a_bench_file():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_workload_and_metric_is_covered(path):
    e2e = load(path)["end_to_end"]
    for w in WORKLOADS:
        assert w in e2e, w
        missing = set(METRICS) - set(e2e[w])
        assert not missing, (w, missing)
        for name, m in METRICS.items():
            got = e2e[w][name]
            assert (got["unit"], got["better"], got["bound"]) == (m["unit"], m["better"],
                                                                  m["bound"]), (w, name)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_medians_and_quartiles_recompute_from_the_runs(path):
    for w, name, e in entries(load(path)):
        for side in ("parent", "change"):
            want = summary(e[side]["runs"])
            for key, value in want.items():
                assert e[side][key] == pytest.approx(value, rel=1e-12, abs=1e-12), (w, name, side)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_pair_counts_and_changes_recompute(path):
    for w, name, e in entries(load(path)):
        higher = METRICS[name]["better"] == "higher"
        parent, change = e["parent"]["runs"], e["change"]["runs"]
        assert len(parent) == len(change) == e["pairs"], (w, name)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        assert (e["change_wins"], e["ties"]) == (wins, ties), (w, name)
        pm, cm = statistics.median(parent), statistics.median(change)
        pct = 0.0 if pm == cm else (cm - pm) / pm * 100
        assert e["median_change_pct"] == pytest.approx(pct, abs=0.006), (w, name)
        worse = pct / 100 < -e["bound"] if higher else pct / 100 > e["bound"]
        assert e["worse_than_bound"] == worse, (w, name)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_claim_names_a_declared_metric_and_matches_it(path):
    claim = load(path).get("claim")
    if claim is None:
        return
    assert claim["metric"] in METRICS and claim["workload"] in WORKLOADS
    e = load(path)["end_to_end"][claim["workload"]][claim["metric"]]
    assert claim["parent_median"] == pytest.approx(e["parent"]["median"], rel=1e-12)
    assert claim["change_median"] == pytest.approx(e["change"]["median"], rel=1e-12)
    assert (claim["change_wins"], claim["pairs"]) == (e["change_wins"], e["pairs"])
    assert claim["parent_iqr"] == pytest.approx(e["parent"]["q3"] - e["parent"]["q1"], rel=1e-9)
    # a gain is met when the change wins at least 9 pairs in 10 and its
    # median moves past the parent's interquartile range
    sign = 1 if METRICS[claim["metric"]]["better"] == "higher" else -1
    assert claim["gain_pct"] == pytest.approx(sign * e["median_change_pct"], abs=0.06)
    gain = sign * (claim["change_median"] - claim["parent_median"])
    assert claim["met"] == (e["change_wins"] >= 0.9 * e["pairs"] and gain > claim["parent_iqr"])
