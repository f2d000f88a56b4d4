"""Pinned digests of a mining report and of solver traces.

Refactors of the core must leave both byte-identical: the report carries
statuses, weights and the per-instance counters (``mean_row_ops_by_m`` too),
the trace digest carries every deletion record of every solver run.
``row_ops`` counts one per basis-row scan the solver actually performs: the
basis rows once per solve, the deletion-record scan of each evaluated
candidate, the diagonal and cluster-closure scans, the rows merged into each
reduced cluster, and the record and cover updates of each deletion. Cached
verdicts and memoised closures cost nothing.
"""

import hashlib
import json
import random

from cycletrim import CampaignConfig, random_connected_graph, run_campaign, solve
from cycletrim.cli import _result_json

REPORT_SHA256 = "a1291619b9bd7c3a460d9c3de1032895963ecc1db4784d6888adae2418379dc5"
TRACE_SHA256 = "6d82c75d78a323176b084b1d4971bc00ccac835023b2c33c9b70b63f2080c014"


def test_mine_report_digest(tmp_path):
    config = CampaignConfig(200, 5, 12, 0.5, 1, 100, 1, tmp_path / "report.jsonl")
    run_campaign(config)
    digest = hashlib.sha256((tmp_path / "report.jsonl").read_bytes()).hexdigest()
    assert digest == REPORT_SHA256


def test_solver_trace_digest():
    rng = random.Random(1)
    digest = hashlib.sha256()
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(4, 10), 0.5, 1, 100)
        line = json.dumps(_result_json(solve(g)), sort_keys=True) + "\n"
        digest.update(line.encode())
    assert digest.hexdigest() == TRACE_SHA256
