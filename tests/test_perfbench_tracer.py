"""The benchmark's tracer finds what it wraps in nlbox.

perfbench/tracer.py names box config classes and module-level entry points
of nlbox; this loads it by path, unchanged, so that renaming one of them
fails here rather than only in a traced benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

from conftest import local_prep, make_box
from nlbox import boxes, steering, witness
from nlbox.boxes import (
    BrunBoxConfig,
    DeutschBoxConfig,
    KentBoxConfig,
    LinearBoxConfig,
    Semantics,
    apply_box,
)
from nlbox.qcore import COMPUTATIONAL_BASIS, HADAMARD_BASIS, KET0, KET1, Unitary, maximally_mixed
from test_witness import channel_table

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_each_box_kind():
    tracer = load_tracer()
    configs = [BrunBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS),
               KentBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS),
               DeutschBoxConfig(Unitary(np.eye(4)), 2),
               LinearBoxConfig((np.eye(2, dtype=complex),))]
    box_list = [make_box(cfg, semantics=Semantics.STATE) for cfg in configs]
    t = tracer.Tracer()
    t.install()
    try:
        for box in box_list:
            # Called through the module, where the tracer rebinds it.
            boxes.apply_box(box, local_prep(KET0.projector()))
    finally:
        t.uninstall()
    names = {span[0] for span in t.spans}
    assert {f"boxes.apply_box.{kind}" for kind in tracer._BOX_KINDS.values()} <= names
    assert "boxes.deutsch_fixed_point.dc2" in names
    assert boxes.apply_box is apply_box


def test_box_kinds_name_every_config_class():
    tracer = load_tracer()
    configs = {name for name, obj in inspect.getmembers(boxes, inspect.isclass)
               if obj.__module__ == boxes.__name__ and name.endswith("BoxConfig")}
    assert configs == set(tracer._BOX_KINDS)


def test_tracer_nests_assemblage_from_under_hjw_assemblage():
    # hjw_assemblage builds through the module-global assemblage_from, so a
    # traced run shows that span as its child.
    tracer = load_tracer()
    d = steering.EnsembleDecomposition(
        maximally_mixed(2), ((0.5, KET0.projector()), (0.5, KET1.projector())))
    with tracer.Tracer() as t:
        asm = steering.hjw_assemblage(d)
        steering.steer(asm, 0)
    names = [span[0] for span in t.spans]
    hjw = names.index("steering.hjw_assemblage")
    assert [span[3] for span in t.spans if span[0] == "steering.assemblage_from"] == [hjw]
    assert names.count("steering.steer") == 1


def test_tracer_counts_the_rows_of_one_fit():
    # linearity_verdict fits through the module-global fit_linear_map, so a
    # traced verdict shows one fit span carrying every probability as a row.
    tracer = load_tracer()
    table = channel_table([np.eye(2, dtype=complex)])
    with tracer.Tracer() as t:
        assert witness.is_linear_explainable(table)
    metrics = tracer.layer_metrics(t.spans)
    probabilities = sum(len(row) for row in table.probabilities.values())
    assert metrics["witness.fit_linear_map.d2.calls"] == (1, "count")
    assert metrics["witness.fit_linear_map.d2.rows"] == (probabilities, "count")
