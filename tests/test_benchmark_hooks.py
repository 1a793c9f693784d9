"""The benchmark's span hooks (``perfbench/layers.py``) name live attributes.

The benchmark wraps functions at the module attribute their callers resolve,
so renaming or removing one of those names breaks its traced runs. It also
records ``kernels.BACKEND`` in every run's environment. This checks both
without running the benchmark.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

from xilab import baker_akhiezer, cli, kernels, master_field, pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hooked_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    xilab = SimpleNamespace(cli=cli, pipeline=pipeline, ba=baker_akhiezer, mf=master_field)
    targets = layers.targets(xilab)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert not missing
    assert kernels.BACKEND == "numpy"
