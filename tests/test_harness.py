import json
import random

import pytest

from cycletrim import (
    CampaignConfig,
    CampaignError,
    compare_graph,
    parse_graph,
    random_connected_graph,
    run_campaign,
)
from cycletrim.graphs import is_connected
from cycletrim.harness import REPORT_FIELDS

from helpers import k4_golden, petersen, theta, triangle


def test_compare_k4_matches():
    outcome = compare_graph(k4_golden(), instance_id="k4", seed=0)
    report = outcome.report
    assert report.status == "ok"
    assert report.algo_weight == 14
    assert report.opt_weight == 14
    assert report.match is True
    assert report.n == 4 and report.m == 6


def test_compare_triangle():
    report = compare_graph(triangle(1, 3, 2), instance_id="tri", seed=0).report
    assert report.match is True
    assert report.algo_weight == report.opt_weight == 6


def test_compare_non_hamiltonian():
    report = compare_graph(petersen(), instance_id="pet", seed=0).report
    assert report.status == "not_hamiltonian_input"
    assert report.match is None
    assert report.algo_weight is None and report.opt_weight is None
    assert report.solvable in (True, False)  # still computed for the record


def test_report_json_field_order():
    report = compare_graph(theta(), instance_id="theta", seed=3).report
    obj = report.to_json_obj()
    assert tuple(obj.keys()) == REPORT_FIELDS


def test_config_validation():
    good = CampaignConfig(5, 5, 8, 0.5, 1, 100, 0, "r.jsonl")
    good.validate()
    bad = [
        CampaignConfig(0, 5, 8, 0.5, 1, 100, 0, "r"),
        CampaignConfig(5, 5, 13, 0.5, 1, 100, 0, "r"),
        CampaignConfig(5, 9, 8, 0.5, 1, 100, 0, "r"),
        CampaignConfig(5, 5, 8, 0.0, 1, 100, 0, "r"),
        CampaignConfig(5, 5, 8, 1.5, 1, 100, 0, "r"),
        CampaignConfig(5, 5, 8, 0.5, 9, 1, 0, "r"),
    ]
    for cfg in bad:
        with pytest.raises(CampaignError):
            cfg.validate()


def test_random_connected_graph_deterministic():
    a = random_connected_graph(random.Random(42), 7, 0.5, 1, 100)
    b = random_connected_graph(random.Random(42), 7, 0.5, 1, 100)
    assert a == b
    assert is_connected(a.vertex_count, [(u, v) for u, v, _ in a.edges])
    assert all(1 <= w <= 100 and w.denominator == 1 for _, _, w in a.edges)


def test_campaign_deterministic_bytes(tmp_path):
    cfg1 = CampaignConfig(12, 5, 7, 0.6, 1, 50, 7, tmp_path / "a.jsonl")
    cfg2 = CampaignConfig(12, 5, 7, 0.6, 1, 50, 7, tmp_path / "b.jsonl")
    r1 = run_campaign(cfg1)
    r2 = run_campaign(cfg2)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert r1.summary == r2.summary


def test_campaign_records_and_summary(tmp_path):
    cfg = CampaignConfig(20, 5, 8, 0.55, 1, 100, 123, tmp_path / "r.jsonl")
    result = run_campaign(cfg)
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    *records, summary_line = lines
    summary = json.loads(summary_line)
    assert summary["kind"] == "summary"
    assert summary["front_gate"] == "exhaustive_backtracking"
    assert summary["compared"] == len(records) == len(result.reports)
    assert summary["compared"] + summary["skipped_non_hamiltonian"] == 20
    assert "mean_row_ops_by_m" in summary

    for line in records:
        obj = json.loads(line)
        assert tuple(obj.keys()) == REPORT_FIELDS
        assert obj["status"] in ("ok", "no_solution", "stuck")
        assert obj["elapsed_ms"] == 0
        if obj["match"] is not None:
            assert obj["algo_weight"] >= obj["opt_weight"]
            assert obj["match"] == (obj["algo_weight"] == obj["opt_weight"])


def test_mismatch_dump_replays(tmp_path):
    cfg = CampaignConfig(60, 5, 8, 0.5, 1, 100, 2024, tmp_path / "r.jsonl")
    result = run_campaign(cfg)
    for path, report in zip(
        result.mismatch_paths,
        [r for r in result.reports if r.match is False],
    ):
        g = parse_graph(path.read_text())
        replay = compare_graph(g, instance_id=path.stem, seed=cfg.seed).report
        assert replay.algo_weight == report.algo_weight
        assert replay.opt_weight == report.opt_weight
        assert replay.match is False
    if not result.mismatch_paths:
        print("\nno mismatches in this campaign (finding, not failure)")
