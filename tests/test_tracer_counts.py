"""The benchmark tracer's call counts mean what their metrics say.

``perfbench/layers.py`` counts a call each time the solver calls
``is_removable`` or ``apply_deletion`` through its module names. Those
counts stand for the verdicts evaluated and the deletions applied: a
refactor that asked a known verdict again through that name, or answered
a new one without it, would move the per-layer metrics without moving the
work, and the test that each layer records calls would not see it.
"""

from cycletrim import CampaignConfig, harness

from test_perfbench_layers import _load_layers


def test_solver_calls_are_one_per_verdict_and_one_per_deletion(tmp_path, monkeypatch):
    results = []
    solve = harness.solve

    def keep(graph):
        result = solve(graph)
        results.append(result)
        return result

    monkeypatch.setattr(harness, "solve", keep)
    tracer = _load_layers().Tracer()
    config = CampaignConfig(40, 5, 10, 0.5, 1, 100, 1, tmp_path / "report.jsonl")
    with tracer.installed():
        harness.run_campaign(config)
    verdicts = deletions = 0
    for result in results:
        deletions += result.counters.deletions
        if result.final_state is not None:
            table = result.final_state.basis._retained_sets
            verdicts += sum(len(entry.verdicts) for entry in table.values())
    assert verdicts and deletions
    assert tracer.calls["removability.is_removable"] == verdicts
    assert tracer.calls["solver.apply_deletion"] == deletions
