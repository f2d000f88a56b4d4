"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from cycletrim import (
    CampaignConfig,
    Graph,
    apply_deletion,
    compare_graph,
    enumerate_solutions,
    fundamental_basis,
    initial_state,
    is_hamiltonian,
    min_tour,
    min_tour_by_enumeration,
    parse_graph,
    random_connected_graph,
    reduce_cluster,
    run_campaign,
    solve,
    tour_weight,
)
from cycletrim import solvability
from cycletrim.removability import REDUCED_ACYCLIC, REDUCED_CYCLE_GRAPH

from helpers import (
    all_neighbours,
    cycle_graph,
    k4_golden,
    naive_solutions,
    petersen,
    solution_sum,
    theta,
    triangle,
)


def _random_graph(rng, n, p):
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    if not pairs:
        pairs = [(0, 1)]
    return Graph(n, tuple((u, v, rng.randint(1, 9)) for u, v in pairs))


def test_criterion_1_oracle_self_consistency():
    rng = random.Random(20260810)
    started = time.perf_counter()
    checked = 0
    while checked < 200:
        n = rng.randint(5, 9)
        p = rng.choice([0.4, 0.55, 0.7, 0.85])
        g = random_connected_graph(rng, n, p, 1, 100)
        dp = min_tour(g)
        brute = min_tour_by_enumeration(g)
        assert dp.hamiltonian == brute.hamiltonian
        if dp.hamiltonian:
            assert dp.optimum_weight == brute.optimum_weight
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1: PASS — Held-Karp equals enumeration on {checked} "
        f"graphs (5<=n<=9) in {elapsed:.1f}s"
    )


def test_criterion_2_golden_instances():
    r = solve(triangle(1, 3, 2))
    assert r.status == "ok" and r.weight == 6
    assert min_tour(triangle(1, 3, 2)).optimum_weight == 6

    r = solve(theta())
    assert r.status == "ok" and r.weight == 4 and r.tour == (0, 2, 1, 3)
    assert min_tour(theta()).optimum_weight == 4

    k4 = k4_golden()
    assert min_tour(k4).optimum_weight == 14
    assert sorted(w for _, w in __import__("cycletrim").enumerate_tours(k4, 10)) == [14, 15, 15]
    r = solve(k4)
    assert r.status == "ok"
    assert r.weight >= 14

    assert not is_hamiltonian(petersen())
    assert solve(petersen()).status == "not_hamiltonian_input"
    print("\nACCEPTANCE 2: PASS — golden instances (triangle 6, theta 4, K4 14, Petersen)")


def test_criterion_3_soundness_500_instances():
    rng = random.Random(3003)
    checked = ok_count = 0
    while checked < 500:
        n = rng.randint(5, 10)
        g = random_connected_graph(rng, n, 0.5, 1, 100)
        if not is_hamiltonian(g):
            continue
        checked += 1
        result = solve(g)
        if result.status != "ok":
            continue
        ok_count += 1
        assert result.tour is not None and result.weight is not None
        assert tour_weight(g, result.tour) == result.weight
        opt = min_tour(g).optimum_weight
        assert opt is not None and result.weight >= opt
    print(
        f"\nACCEPTANCE 3: PASS — zero soundness violations over {checked} "
        f"instances ({ok_count} solver-ok)"
    )


def test_criterion_4_exactness_measurement(tmp_path):
    cfg = CampaignConfig(150, 5, 9, 0.55, 1, 100, 424242, tmp_path / "mine.jsonl")
    result = run_campaign(cfg)
    again = run_campaign(
        CampaignConfig(150, 5, 9, 0.55, 1, 100, 424242, tmp_path / "mine2.jsonl")
    )
    assert (tmp_path / "mine.jsonl").read_bytes() == (tmp_path / "mine2.jsonl").read_bytes()
    assert result.summary["match_rate"] is not None
    mismatched = [r for r in result.reports if r.match is False]
    assert len(result.mismatch_paths) == len(mismatched)
    for path, report in zip(result.mismatch_paths, mismatched):
        g = parse_graph(path.read_text())
        replay = compare_graph(g, instance_id=path.stem, seed=cfg.seed).report
        assert (replay.algo_weight, replay.opt_weight) == (
            report.algo_weight,
            report.opt_weight,
        )
    print(
        f"\nACCEPTANCE 4: PASS — deterministic report; match rate "
        f"{result.summary['match_rate']} with {len(mismatched)} replayable "
        f"mismatches (a rate below 1.0 is a finding, not a failure)"
    )


def test_criterion_5_equation_properties(monkeypatch):
    rng = random.Random(55)
    corpus = [triangle(), theta(), k4_golden(), cycle_graph(6)]
    for _ in range(40):
        corpus.append(random_connected_graph(rng, rng.randint(4, 8), 0.5, 1, 9))
    checked = 0
    for g in corpus:
        b = fundamental_basis(g)
        if b.dimension > 12:
            continue
        monkeypatch.setattr(solvability, "SOLUTION_CAP", 1 << max(b.dimension, 1))
        parts = enumerate_solutions(b)
        assert {p.solution for p in parts} == naive_solutions(b)
        for p in parts:
            assert solution_sum(b, p.solution) == g.vertex_count - 2
        checked += 1
    print(
        f"\nACCEPTANCE 5: PASS — solution enumeration matches the power-set "
        f"filter on {checked} graphs (dimension <= 12)"
    )


def test_criterion_6_reduction_termination():
    rng = random.Random(66)
    total = 0
    while total < 600:
        n = rng.randint(3, 9)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice([0.3, 0.5, 0.7])
        ]
        if not pairs:
            continue
        g = Graph(n, tuple((u, v, 1) for u, v in pairs))
        out = reduce_cluster(all_neighbours(g))
        assert len(out.steps) <= g.edge_count
        total += 1
    for _ in range(200):
        g = cycle_graph(rng.randint(3, 12))
        out = reduce_cluster(all_neighbours(g))
        assert out.tag == REDUCED_CYCLE_GRAPH
        assert len(out.steps) <= g.edge_count
        total += 1
    while total < 1000:
        n = rng.randint(2, 10)
        edges = []
        for v in range(1, n):
            if rng.random() < 0.8:  # skipping a parent leaves a forest
                edges.append((rng.randint(0, v - 1), v, 1))
        if not edges:
            continue
        g = Graph(n, tuple(edges))
        out = reduce_cluster(all_neighbours(g))
        assert out.tag == REDUCED_ACYCLIC
        assert len(out.steps) <= g.edge_count
        total += 1
    assert total >= 1000
    print(
        f"\nACCEPTANCE 6: PASS — reducer terminated within |E| steps on "
        f"{total} inputs; cycle graphs and forests classified correctly"
    )


def test_criterion_7_determinism_and_replay(tmp_path):
    cfg_a = CampaignConfig(40, 5, 8, 0.6, 1, 50, 777, tmp_path / "a.jsonl")
    cfg_b = CampaignConfig(40, 5, 8, 0.6, 1, 50, 777, tmp_path / "b.jsonl")
    run_campaign(cfg_a)
    run_campaign(cfg_b)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    from helpers import wheel5

    for g in (triangle(), theta(), k4_golden(), wheel5()):
        result = solve(g)
        assert solve(g) == result
        if result.partition is None:
            continue
        state = initial_state(fundamental_basis(g), result.partition)
        for rec in result.trace:
            state = apply_deletion(state, rec.cycle)
        assert state == result.final_state
    print("\nACCEPTANCE 7: PASS — byte-identical reports and exact trace replay")


def test_criterion_8_complexity_accounting(tmp_path):
    cfg = CampaignConfig(60, 5, 9, 0.5, 1, 100, 888, tmp_path / "c.jsonl")
    result = run_campaign(cfg)
    assert result.summary["mean_row_ops_by_m"]

    rng = random.Random(88)
    checked = 0
    while checked < 80:
        n = rng.randint(5, 9)
        g = random_connected_graph(rng, n, 0.55, 1, 100)
        if not is_hamiltonian(g):
            continue
        checked += 1
        result = compare_graph(g, instance_id=f"acc8-{checked}", seed=0).result
        dim = g.edge_count - g.vertex_count + 1
        # each partition makes one pass per deletion and a last one, and a
        # pass tests at most the m - n + 1 basis cycles
        passes = result.counters.deletions + result.solutions_tried
        assert result.counters.candidates_tested <= dim * passes
    print(
        "\nACCEPTANCE 8: PASS — row-op means reported by |E| bucket; candidates "
        "tested never exceeded m - n + 1 per pass"
    )
