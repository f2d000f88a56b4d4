import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

from cycletrim import (
    CampaignConfig,
    CampaignError,
    compare_graph,
    min_tour,
    min_tour_by_enumeration,
    parse_graph,
    random_connected_graph,
    run_campaign,
    solve,
)
from cycletrim import oracle
from cycletrim.graphs import is_connected
from cycletrim.harness import REPORT_FIELDS

from helpers import k4_golden, make_graph, petersen, theta, triangle


def test_compare_k4_matches():
    outcome = compare_graph(k4_golden(), instance_id="k4", seed=0)
    report = outcome.report
    assert report.status == "ok"
    assert report.algo_weight == 14
    assert report.opt_weight == 14
    assert report.match is True
    assert report.n == 4 and report.m == 6


def test_fractional_weights_end_to_end():
    # k4_golden with every weight divided by 8: optimum 14/8, all on the 1e-6 grid
    g = make_graph(4, [(u, v, Fraction(w, 8)) for u, v, w in k4_golden().edges])
    assert solve(g).weight == Fraction(7, 4)
    assert min_tour(g).optimum_weight == Fraction(7, 4)
    assert min_tour_by_enumeration(g).optimum_weight == Fraction(7, 4)
    obj = compare_graph(g, instance_id="k4/8", seed=0).report.to_json_obj()
    assert obj["status"] == "ok" and obj["match"] is True
    assert obj["algo_weight"] == obj["opt_weight"] == "1.75"


def test_compare_triangle():
    report = compare_graph(triangle(1, 3, 2), instance_id="tri", seed=0).report
    assert report.match is True
    assert report.algo_weight == report.opt_weight == 6


def test_compare_non_hamiltonian():
    report = compare_graph(petersen(), instance_id="pet", seed=0).report
    assert report.status == "not_hamiltonian_input"
    assert report.match is None
    assert report.algo_weight is None and report.opt_weight is None
    assert report.solvable is False  # the gate stops the solver before any partition


def test_compare_non_hamiltonian_builds_no_basis(monkeypatch):
    import sys

    from cycletrim import cycle_space

    calls = []
    original = cycle_space.fundamental_basis

    def counted(g):
        calls.append(g)
        return original(g)

    # rebind the name wherever a cycletrim module imported it
    for name, module in list(sys.modules.items()):
        if name.startswith("cycletrim") and getattr(module, "fundamental_basis", None) is original:
            monkeypatch.setattr(module, "fundamental_basis", counted)
    compare_graph(petersen(), instance_id="pet", seed=0)
    assert calls == []
    compare_graph(k4_golden(), instance_id="k4", seed=0)
    assert len(calls) == 1  # the counter does see the solver's one basis


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


def test_campaign_searches_each_compared_draw_once(monkeypatch, tmp_path):
    # the campaign's gate checks and searches each draw; solve's gate and
    # min_tour read the gate's memo for that same object, so they neither
    # check it up front again nor search it. The memo keeps only the last draw
    checked = []  # (weak reference to the draw, whether it passed the checks)
    searches = []  # (weak reference to the draw, node budget)
    up_front, search = oracle._no_tour_up_front, oracle._search_cycle

    def spy_up_front(g, nbrs):
        no_tour = up_front(g, nbrs)
        checked.append((weakref.ref(g), not no_tour))
        return no_tour

    def spy_search(g, nbrs, budget):
        searches.append((weakref.ref(g), budget))
        return search(g, nbrs, budget)

    monkeypatch.setattr(oracle, "_no_tour_up_front", spy_up_front)
    monkeypatch.setattr(oracle, "_search_cycle", spy_search)
    result = run_campaign(CampaignConfig(30, 5, 9, 0.5, 1, 100, 1, tmp_path / "r.jsonl"))
    assert len(checked) == 30
    passed = [ref for ref, ok in checked if ok]
    assert result.summary["compared"] > 0
    assert len(passed) >= result.summary["compared"]
    assert [budget for _, budget in searches] == [oracle.GATE_NODES] * len(passed)
    # weakref.ref hands out one shared reference per live object
    assert all(searched is ref for (searched, _), ref in zip(searches, passed))
    gc.collect()
    alive = [ref() for ref, _ in checked if ref() is not None]
    assert len(alive) == 1 and alive[0] is oracle._gated[0]
    # with Fraction weights min_tour runs its bounds and DP on a copy scaled
    # to ints, but reads the gate's memo on the draw itself
    checked.clear()
    searches.clear()
    g = make_graph(4, [(u, v, w / 8) for u, v, w in k4_golden().edges])
    report = compare_graph(g, instance_id="k4_eighths", seed=0).report
    assert [budget for _, budget in searches] == [oracle.GATE_NODES]
    assert len(checked) == 1
    assert report.opt_weight == Fraction(14, 8)


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
