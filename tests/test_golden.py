"""Pinned digests of a mining report and of solver traces.

Refactors of the core must leave all six byte-identical: the report
carries statuses, weights and the per-instance counters (``mean_row_ops_by_m``
too), and the trace digests carry every deletion record of every solver
run: one over small draws (n 4-10), one over Hamiltonian draws at the
benchmark's large sizes (n 14-16 at p 0.5, n 18 at p 0.2). Each has a
stripped twin that leaves out the work counts a solve may cut without
changing its answer or its deletion path: per instance, ``solutions_tried``
and ``candidates_tested``; in the report's summary, the ``candidates_tested``
means and ``mean_row_ops_by_m``.

``row_ops`` counts one per basis-row scan the solver performs: the basis
rows once per solve, the candidacy of each evaluated candidate (two ANDs of
its row with the retained set's edge masks, counted as the one row scan
they stand for), the rows merged into each reduced cluster, and the cover
update of each deletion, whose record comes with its cached verdict. The
basis' sharing and diagonal tables cost one per pair of rows, once per
solve; diagonals and cluster closures are read from them and cost nothing,
and so do cached verdicts.

A change that only moves those work counts re-pins ``REPORT_SHA256``,
``TRACE_SHA256`` and ``LARGE_TRACE_SHA256`` and leaves the stripped
digests as they are: those passing shows that nothing else moved on these
draws, not by construction: the start verdicts that the early stop asks of
the first partition's solution cycles may add to ``reduce_calls``, which
the stripped digests keep.
"""

import hashlib
import json
import random

from cycletrim import CampaignConfig, is_hamiltonian, random_connected_graph, run_campaign, solve
from cycletrim.cli import _result_json
from cycletrim.harness import report_line

REPORT_SHA256 = "e86b13ba8336b627ce825f0050541da8426d962859732fd5a9786c9e14999226"
STRIPPED_REPORT_SHA256 = "136874d892f10d4acf5e6f5c30f1bfde368f231ba0516682f2e7302e91982c56"
TRACE_SHA256 = "d155e5288db733516bd2b74d19b24dd080319ab7dae907a3fbf2555dffcab77e"
STRIPPED_TRACE_SHA256 = "d24b276a5652585080ea1797defa783e39298471ea29a568587bf048c7e3dff6"
LARGE_TRACE_SHA256 = "1ab2d9ed5abf54c5a1533d42f21f5ff372ec1047dbb80d0a6f87ca38703357f0"
STRIPPED_LARGE_TRACE_SHA256 = "b28d2a6d1d60fa105a84d605a868bdd3e5892c7c80f8b601d509c724033a00d0"

#: per-instance fields the stripped digests leave out
WORK_COUNTS = ("solutions_tried", "candidates_tested")


def _stripped(report: bytes) -> bytes:
    *instances, summary = report.decode().splitlines()
    lines = []
    for line in instances:
        fields = json.loads(line)
        for name in WORK_COUNTS:
            del fields[name]
        lines.append(report_line(fields))
    fields = json.loads(summary)
    del fields["mean_row_ops_by_m"]
    for means in fields["mean_counters_by_nm"].values():
        del means["candidates_tested"]
    lines.append(report_line(fields))
    return "".join(line + "\n" for line in lines).encode()


def _trace_lines(result) -> tuple[bytes, bytes]:
    # the result's digest line, in full and without the work counts
    fields = _result_json(result)
    full = json.dumps(fields, sort_keys=True) + "\n"
    for name in WORK_COUNTS:
        del fields[name]
    return full.encode(), (json.dumps(fields, sort_keys=True) + "\n").encode()


def test_mine_report_digest(tmp_path):
    config = CampaignConfig(200, 5, 12, 0.5, 1, 100, 1, tmp_path / "report.jsonl")
    run_campaign(config)
    report = (tmp_path / "report.jsonl").read_bytes()
    assert hashlib.sha256(_stripped(report)).hexdigest() == STRIPPED_REPORT_SHA256
    assert hashlib.sha256(report).hexdigest() == REPORT_SHA256


def test_solver_trace_digest():
    rng = random.Random(1)
    digest, stripped = hashlib.sha256(), hashlib.sha256()
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(4, 10), 0.5, 1, 100)
        full, short = _trace_lines(solve(g))
        digest.update(full)
        stripped.update(short)
    assert stripped.hexdigest() == STRIPPED_TRACE_SHA256
    assert digest.hexdigest() == TRACE_SHA256


def test_large_solver_trace_digest():
    # 20 Hamiltonian draws cycling n 14, 15, 16 at p 0.5, then 20 at n 18, p 0.2
    rng = random.Random(1)
    digest, stripped = hashlib.sha256(), hashlib.sha256()
    for sizes, p in (((14, 15, 16), 0.5), ((18,), 0.2)):
        kept = 0
        while kept < 20:
            g = random_connected_graph(rng, sizes[kept % len(sizes)], p, 1, 100)
            if not is_hamiltonian(g):
                continue
            full, short = _trace_lines(solve(g))
            digest.update(full)
            stripped.update(short)
            kept += 1
    assert stripped.hexdigest() == STRIPPED_LARGE_TRACE_SHA256
    assert digest.hexdigest() == LARGE_TRACE_SHA256
