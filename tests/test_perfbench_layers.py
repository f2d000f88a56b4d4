"""The benchmark's per-layer tracer still sees every layer it traces.

``perfbench/layers.py`` rebinds names in cycletrim's modules; a refactor
that stops calling one of them through that name would zero its per-layer
metric without failing anything. This loads the tracer without writing
under ``perfbench/`` and runs it over a small mining campaign.
"""

import importlib.util
import sys
from pathlib import Path

from cycletrim import CampaignConfig, harness

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

#: traced layers that record no call: the neighbour cap stopped calling
#: ``mask_degrees``, so ``graphs.mask_degrees`` reads 0
IDLE_LAYERS = {"graphs.mask_degrees"}


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_every_traced_layer_records_calls(tmp_path):
    layers = _load_layers()
    for module, name, layer in layers.BINDINGS:
        assert callable(getattr(module, name, None)), layer
    tracer = layers.Tracer()
    config = CampaignConfig(30, 5, 9, 0.5, 1, 100, 1, tmp_path / "report.jsonl")
    with tracer.installed():
        harness.run_campaign(config)
    silent = {layer for _, _, layer in layers.BINDINGS if not tracer.calls[layer]}
    assert silent <= IDLE_LAYERS
