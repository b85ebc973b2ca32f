"""How ``tools/bench_pairs.py`` merges a run into its results document.

The tool is loaded by path; :func:`merge` starts no process, so these tests
build the run records it reads by hand.
"""

import copy

import pytest

from conftest import ROOT, load_module

BETTER = {"runs_per_s": "higher", "evals_per_run": "lower"}
PER_LAYER = ["evolution.step_s"]


@pytest.fixture(scope="module")
def bench_pairs():
    return load_module("bench_pairs", ROOT / "tools" / "bench_pairs.py")


def record(runs_per_s, digest="same", rows=(("case", 1.0),)):
    metrics = {"runs_per_s": runs_per_s, "evals_per_run": 100.0, "evolution.step_s": 0.5}
    return {
        "meta": {"git": "x"},
        "notes": [f"time scale 0.8 (reference kernel); unscaled: runs_per_s {runs_per_s} 1/s"],
        "digest_sha256": digest,
        "digest_rows": [list(r) for r in rows],
        "result": {"failed": 0,
                   "metrics": {k: {"value": v, "unit": "1/s"} for k, v in metrics.items()}},
        "cpu_s": 2.0,
        "wall_s": 1.0,
        "guards": [],
    }


def pairs(*rates):
    return [(record(p), record(c)) for p, c in rates]


def traced():
    return {"parent": record(1.0), "change": record(1.0)}


def merge(bench_pairs, doc, seed, runs, traced_pass):
    return bench_pairs.merge(doc, "hybrid-protocol", seed, 30, runs, traced_pass,
                             BETTER, PER_LAYER)


def test_first_run_writes_the_claim_with_its_seed(bench_pairs):
    doc = merge(bench_pairs, {}, 4242, pairs((3.0, 3.1), (3.2, 3.1)), traced())
    claim = doc["hybrid_protocol_claim_pairs"]
    assert claim["seed"] == 4242
    assert claim["runs_per_s"]["parent"] == [3.0, 3.2]
    assert claim["runs_per_s"]["change_wins"] == 1
    assert claim["digest_identical_pairs"] == 2
    assert set(doc["workloads"]["hybrid-protocol"]) == {"parent", "change"}
    assert doc["hybrid_protocol_layers"]["evolution.step_s"]["ratio"] == 1.0
    assert "hybrid_protocol_heldout_pairs" not in doc
    assert "hybrid_protocol_digest_diff" not in doc


def test_held_out_run_leaves_the_claim_as_it_was(bench_pairs):
    runs = pairs((3.0, 3.1), (3.2, 3.1))
    runs[0] = (record(3.0, "a", [("case", 1.0)]), record(3.1, "b", [("case", 2.0)]))
    doc = merge(bench_pairs, {}, 4242, runs, traced())
    assert doc["hybrid_protocol_digest_diff"]["rows"][0]["label"] == "case"
    before = copy.deepcopy(doc)

    # a held-out run makes no traced pass
    merge(bench_pairs, doc, 9091, pairs((2.0, 2.5), (2.1, 2.4), (2.2, 2.3)), None)
    held_out = doc.pop("hybrid_protocol_heldout_pairs")
    assert held_out["seed"] == 9091
    assert held_out["command"].startswith(
        "python3 perfbench/run.py --workload hybrid-protocol --seed 9091 ")
    assert held_out["runs_per_s"]["change_wins"] == 3
    assert doc == before


def test_run_at_the_claims_seed_replaces_it(bench_pairs):
    doc = merge(bench_pairs, {}, 4242, pairs((3.0, 3.1), (3.2, 3.1)), traced())
    merge(bench_pairs, doc, 4242, pairs((4.0, 4.1), (4.2, 4.1)), traced())
    assert doc["hybrid_protocol_claim_pairs"]["runs_per_s"]["parent"] == [4.0, 4.2]
    assert "hybrid_protocol_heldout_pairs" not in doc
