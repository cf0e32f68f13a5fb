"""A rejected backbone is named where it is checked.

``ModelSpec.backbone(params, what, dtype)`` is the one check of a model's
backbone, and its ``NetworkError`` reads ``"<what>: <reason>"``.  Every
entry point that receives raw models passes each one's name, so the same
damage reads the same way whichever entry point meets it, and no code
outside that check catches the error to add a name.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import merge_surgeon as ms
from merge_surgeon.bias import LossKind
from merge_surgeon.merging import task_vectors
from merge_surgeon.network import NetworkError, init_backbone, init_head
from merge_surgeon.tensors import ParamSet, head_name

SRC = Path(__file__).resolve().parents[1] / "src" / "merge_surgeon"
SPEC = ms.ModelSpec(4, (5, 3, 3), 2, 2)
CFG = ms.TrainConfig(iterations=3, batch_size=4, seed=0)


def _models() -> dict[str, ParamSet]:
    """``pretrained``, ``merged`` and ``expert <t>`` (backbone plus head t)
    of ``SPEC``, each from its own seed."""
    models = {}
    for seed, name in enumerate(["pretrained", "merged", "expert 0", "expert 1"]):
        rng = np.random.default_rng(seed)
        params = init_backbone(SPEC, rng)
        if name.startswith("expert"):
            task = int(name.split()[1])
            weight, bias = init_head(SPEC.num_classes, SPEC.feature_dim, rng)
            params[head_name(task, "weight")], params[head_name(task, "bias")] = weight, bias
        models[name] = ParamSet(params)
    return models


def _experts(models):
    return [models["expert 0"], models["expert 1"]]


SUITE = ms.gen_task_suite(0, 2, 4, 2, 12, 10)
POOLS = [test.features for test in SUITE.split("test")]

# Each entry point, called on a dict of models; then the model it reads
# that is damaged in turn, and the name its rejection must carry.
ENTRY_POINTS = {
    "train_experts": (
        lambda m: ms.train_experts(m["pretrained"], SUITE.split("train"), [0, 1],
                                   SPEC, CFG),
        [("pretrained", "pretrained")],
    ),
    "weight_average": (
        lambda m: ms.weight_average(_experts(m), SPEC),
        [("expert 0", "expert 0"), ("expert 1", "expert 1")],
    ),
    "task_arithmetic": (
        lambda m: ms.task_arithmetic(m["pretrained"], _experts(m), SPEC, 0.4),
        [("pretrained", "pretrained"), ("expert 1", "expert 1")],
    ),
    "ties_merge": (
        lambda m: ms.ties_merge(m["pretrained"], _experts(m), SPEC, 0.4, 0.5),
        [("pretrained", "pretrained"), ("expert 1", "expert 1")],
    ),
    "ada_merge": (
        lambda m: ms.ada_merge(m["pretrained"], _experts(m), SPEC, POOLS, CFG),
        [("pretrained", "pretrained"), ("expert 1", "expert 1")],
    ),
    "task_vectors": (
        lambda m: task_vectors(m["pretrained"], _experts(m), SPEC),
        [("pretrained", "pretrained"), ("expert 1", "expert 1")],
    ),
    "layerwise_bias_report": (
        lambda m: ms.layerwise_bias_report(m["merged"], _experts(m), SPEC, POOLS, LossKind.L1),
        [("merged", "merged"), ("expert 0", "expert 0"), ("expert 1", "expert 1")],
    ),
    "train_surgery": (
        lambda m: ms.train_surgery(m["merged"], _experts(m), SPEC, POOLS, ms.ALL_LAYERS,
                                   LossKind.L1, CFG, rank=2),
        [("merged", "merged"), ("expert 1", "expert 1")],
    ),
    "stream_train_surgery": (
        lambda m: ms.stream_train_surgery(m["merged"], _experts(m), SPEC, POOLS, 0.5,
                                          ms.SurgeryMode("v1"), LossKind.L1, CFG, rank=2),
        [("merged", "merged"), ("expert 1", "expert 1")],
    ),
    "evaluate": (
        lambda m: ms.evaluate(m["merged"], ms.collect_heads(_experts(m), SPEC), SPEC,
                              SUITE.split("test"), model_id="merged_ta"),
        [("merged", "merged_ta")],
    ),
    "corrected_forward": (
        lambda m: ms.corrected_forward(m["merged"], SPEC, None, POOLS[0].T, 0),
        [("merged", "merged")],
    ),
}


@pytest.mark.parametrize("entry, damaged, name", [
    pytest.param(entry, damaged, name, id=f"{entry}-{damaged}")
    for entry, (_, cases) in ENTRY_POINTS.items()
    for damaged, name in cases
])
def test_every_entry_point_names_the_model_it_rejects(entry, damaged, name):
    models = _models()
    call = ENTRY_POINTS[entry][0]
    call(models)  # the undamaged models pass
    models[damaged] = ParamSet(
        (key, value) for key, value in models[damaged].items() if key != "block2.bias"
    )
    with pytest.raises(NetworkError) as raised:
        call(models)
    assert str(raised.value) == f"{name}: missing backbone parameter 'block2.bias'"


def network_error_handlers(source: str) -> list[int]:
    """Line numbers of the ``except`` clauses in ``source`` that catch
    ``NetworkError``, alone, in a tuple, or as a module attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = [getattr(c, "id", None) or getattr(c, "attr", None) for c in caught]
        if "NetworkError" in names:
            lines.append(node.lineno)
    return lines


def test_no_code_in_the_package_catches_a_network_error():
    # A backbone rejection is named by ModelSpec.backbone itself; a
    # handler that re-raises it under a name would be a second naming.
    spellings = (
        "try:\n    f()\nexcept NetworkError:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, network.NetworkError) as err:\n    pass\n"
        "try:\n    f()\nexcept (MergeSurgeonError, OSError):\n    pass\n"
    )
    assert network_error_handlers(spellings) == [3, 7]
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {
        path.name: network_error_handlers(path.read_text(encoding="utf-8")) for path in files
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
