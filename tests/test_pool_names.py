"""A rejected input pool is named where it is checked.

``ModelSpec.pools(inputs, what, dtype)`` is the one check of a run's
input pools: one ``(samples >= 1, input_dim)`` matrix per task of the
spec.  Its ``NetworkError`` reads ``"<what>: <reason>"``, so the same
damage reads the same way from every entry point that takes pools, and
names the pool, not a batch or a trace drawn from it.
"""

import numpy as np
import pytest

import merge_surgeon as ms
from merge_surgeon.bias import LossKind
from merge_surgeon.network import NetworkError, init_backbone, init_head
from merge_surgeon.tensors import ParamSet, head_name

SPEC = ms.ModelSpec(4, (5, 3, 3), 2, 3)
CFG = ms.TrainConfig(iterations=3, batch_size=4, seed=0)


def _models() -> dict[str, ParamSet]:
    """``pretrained``, ``merged`` and ``expert <t>`` (backbone plus head t)
    of ``SPEC``, each from its own seed."""
    models = {}
    for seed, name in enumerate(["pretrained", "merged", "expert 0", "expert 1", "expert 2"]):
        rng = np.random.default_rng(seed)
        params = init_backbone(SPEC, rng)
        if name.startswith("expert"):
            task = int(name.split()[1])
            weight, bias = init_head(SPEC.num_classes, SPEC.feature_dim, rng)
            params[head_name(task, "weight")], params[head_name(task, "bias")] = weight, bias
        models[name] = ParamSet(params)
    return models


MODELS = _models()
EXPERTS = [MODELS[f"expert {t}"] for t in range(3)]

# Each entry point, called on a list of pools, and the name its
# rejection gives them.
ENTRY_POINTS = {
    "train_surgery": (
        lambda pools: ms.train_surgery(MODELS["merged"], EXPERTS, SPEC, pools, ms.ALL_LAYERS,
                                       LossKind.L1, CFG, rank=2),
        "input pools",
    ),
    "stream_train_surgery": (
        lambda pools: ms.stream_train_surgery(MODELS["merged"], EXPERTS, SPEC, pools, 0.5,
                                              ms.SurgeryMode("v1"), LossKind.L1, CFG, rank=2),
        "input pools",
    ),
    "sequential_batches": (
        lambda pools: list(ms.sequential_batches(pools, SPEC, 4, 0.5)),
        "input pools",
    ),
    "ada_merge": (
        lambda pools: ms.ada_merge(MODELS["pretrained"], EXPERTS, SPEC, pools, CFG),
        "unlabeled pools",
    ),
    "layerwise_bias_report": (
        lambda pools: ms.layerwise_bias_report(MODELS["merged"], EXPERTS, SPEC, pools,
                                               LossKind.L1),
        "inputs",
    ),
}


def _widened(pool: np.ndarray) -> np.ndarray:
    return np.hstack([pool, pool[:, :1]])


# Each damage to three (20, 4) pools, and the reason its rejection gives.
DAMAGES = {
    "two-pools": (lambda pools: pools[:2], "got 2 pools for the spec's 3 tasks"),
    "every-pool-width-5": (
        lambda pools: [_widened(p) for p in pools],
        "pool 0 is (20, 5), expected (samples >= 1, 4)",
    ),
    "one-pool-width-5": (
        lambda pools: [pools[0], _widened(pools[1]), pools[2]],
        "pool 1 is (20, 5), expected (samples >= 1, 4)",
    ),
    "empty-pool": (
        lambda pools: [pools[0], pools[1], pools[2][:0]],
        "pool 2 is (0, 4), expected (samples >= 1, 4)",
    ),
    "1-D-pool": (
        lambda pools: [pools[0], pools[1][:, 0], pools[2]],
        "pool 1 is (20,), expected (samples >= 1, 4)",
    ),
    "ragged-pool": (
        lambda pools: [pools[0], pools[1], [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0]]],
        "pool 2 is not an array of real numbers",
    ),
    "string-pool": (
        lambda pools: [pools[0], [["1", "2", "3", "x"]] * 4, pools[2]],
        "pool 1 is not an array of real numbers",
    ),
    "2-D-text-pool": (
        lambda pools: [np.full((20, 4), "a"), pools[1], pools[2]],
        "pool 0 is not an array of real numbers",
    ),
}


def _pools() -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    return [rng.standard_normal((20, 4)) for _ in range(3)]


@pytest.mark.parametrize("entry, damage", [
    pytest.param(entry, damage, id=f"{entry}-{damage}")
    for entry in ENTRY_POINTS for damage in DAMAGES
])
def test_every_entry_point_names_the_pool_it_rejects(entry, damage):
    call, what = ENTRY_POINTS[entry]
    change, reason = DAMAGES[damage]
    call(_pools())  # the undamaged pools pass
    with pytest.raises(NetworkError) as raised:
        call(change(_pools()))
    assert str(raised.value) == f"{what}: {reason}"
