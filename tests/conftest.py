"""Session-scoped reference fixture: one pinned suite, trained experts,
and the grid-searched task-arithmetic merge, shared across test modules.

Everything here is deterministic; the heavier surgery stacks live in
test_acceptance.py since only the acceptance criteria need them.
"""

import pytest

import merge_surgeon as ms
from merge_surgeon.tensors import ParamSet, is_backbone_name

SEED = 42
TASKS = 4
DIM = 16
CLASSES = 5
N_TRAIN = 8000
N_TEST = 2000
HIDDEN = (32, 32, 32, 32, 32, 16)
PRETRAIN_ITERS = 2000
FINETUNE_ITERS = 1000
SURGERY_ITERS = 6000
ADA_ITERS = 200
RANK = 16
SCALE_GRID = tuple(round(0.1 * i, 1) for i in range(11))


def backbone_of(params):
    """The ``block*`` entries of ``params``, in its order: the expected
    side of the merge identities."""
    return ParamSet((name, value) for name, value in params.items() if is_backbone_name(name))


def bitwise_equal(a, b):
    """True iff both collections hold the same names, order, and exact bytes."""
    if list(a) != list(b):
        return False
    return all(
        a[n].shape == b[n].shape and a[n].tobytes() == b[n].tobytes() for n in a
    )


@pytest.fixture(scope="session")
def ref_suite():
    return ms.gen_task_suite(SEED, TASKS, DIM, CLASSES, N_TRAIN, N_TEST)


@pytest.fixture(scope="session")
def ref_spec():
    return ms.ModelSpec(DIM, HIDDEN, CLASSES, TASKS)


@pytest.fixture(scope="session")
def ref_pretrained(ref_suite, ref_spec):
    cfg = ms.TrainConfig(iterations=PRETRAIN_ITERS, seed=SEED)
    return ms.pretrain(ref_spec, ref_suite.mixture(), cfg)


@pytest.fixture(scope="session")
def ref_experts(ref_suite, ref_spec, ref_pretrained):
    cfg = ms.TrainConfig(iterations=FINETUNE_ITERS, seed=SEED)
    results = ms.train_experts(
        ref_pretrained.params, ref_suite.split("train"), range(TASKS), ref_spec, cfg
    )
    return [result.params for result in results]


@pytest.fixture(scope="session")
def ref_heads(ref_experts, ref_spec):
    return ms.collect_heads(ref_experts, ref_spec)


@pytest.fixture(scope="session")
def ref_test_sets(ref_suite):
    return ref_suite.split("test")


@pytest.fixture(scope="session")
def ref_scale(ref_suite, ref_spec, ref_pretrained, ref_experts):
    return ms.grid_search_scale(
        ref_pretrained.params,
        ref_experts,
        ref_spec,
        SCALE_GRID,
        ref_suite.split("validation"),
    )


@pytest.fixture(scope="session")
def ref_merged(ref_pretrained, ref_experts, ref_spec, ref_scale):
    return ms.task_arithmetic(ref_pretrained.params, ref_experts, ref_spec, ref_scale)
