"""Property tests: stack and checkpoint round trips, truncated files,
huge header shapes, malformed stack entry names, merge identities
under expert permutation, and configs built from random field text."""

import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from merge_surgeon.bias import LossKind
from merge_surgeon.checkpoint import (
    MAGIC, CheckpointError, TruncatedError, load_paramset, save_paramset
)
from merge_surgeon.config import ConfigError, RunConfig
from merge_surgeon.merging import task_arithmetic, ties_merge, weight_average
from merge_surgeon.network import ModelSpec
from merge_surgeon.surgery import (
    ALL_LAYERS,
    LAST_LAYER,
    SurgeryError,
    SurgeryStack,
    init_stack,
    single_block,
)
from merge_surgeon.tensors import ParamSet, bitwise_equal, block_name

# Every example writes files, so the counts stay in the tens.
FILE_EXAMPLES = settings(max_examples=30, deadline=None)


@pytest.fixture(scope="module")
def new_path(tmp_path_factory):
    """A new file name on every call: on some file systems overwriting a
    file costs far more than writing a new one."""
    root = tmp_path_factory.mktemp("properties")
    names = itertools.count()
    return lambda: root / f"{next(names)}.msrg"


@st.composite
def stacks(draw):
    """A fresh stack for a random model, task count, rank, mode and loss."""
    layer_dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    spec = ModelSpec(draw(st.integers(1, 5)), layer_dims, (2,))
    mode = draw(st.sampled_from(
        [LAST_LAYER, ALL_LAYERS] + [single_block(l) for l in range(1, len(layer_dims) + 1)]
    ))
    stack = init_stack(
        spec, draw(st.integers(1, 3)), mode, rank=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**31)), psi=draw(st.sampled_from(list(LossKind))),
    )
    return spec, stack


@FILE_EXAMPLES
@given(stacks())
def test_stack_file_round_trip_is_bitwise(new_path, spec_and_stack):
    spec, stack = spec_and_stack
    path = new_path()
    save_paramset(stack.to_paramset(), path)
    loaded = SurgeryStack.from_paramset(load_paramset(path), stack.mode, spec.num_layers, stack.psi)
    assert (loaded.mode, loaded.psi) == (stack.mode, stack.psi)
    assert sorted(loaded.adapters) == sorted(stack.adapters)
    for key, adapter in stack.adapters.items():
        assert loaded.adapters[key].down.tobytes() == adapter.down.tobytes()
        assert loaded.adapters[key].up.tobytes() == adapter.up.tobytes()
    loaded.validate(spec, max(t for t, _ in stack.adapters) + 1)


@FILE_EXAMPLES
@given(stacks(), st.data())
def test_truncated_checkpoint_raises_checkpoint_error(new_path, spec_and_stack, data):
    _, stack = spec_and_stack
    path = new_path()
    save_paramset(stack.to_paramset(), path)
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    truncated = new_path()
    truncated.write_bytes(raw[:cut])
    with pytest.raises(CheckpointError):
        load_paramset(truncated)


@FILE_EXAMPLES
@given(
    st.lists(st.integers(1, 2**80), min_size=1, max_size=4),
    st.integers(0, 8),
)
@example([2**32, 2**32], 0)
@example([2**32, 2**32], 4)
@example([2**62, 4, 3], 8)
def test_header_shape_larger_than_payload_raises_truncated(new_path, shape, floats):
    # Element counts are exact Python ints, so a shape whose product wraps
    # in int64 is still a truncated payload.
    assume(math.prod(shape) > floats)
    header = json.dumps({"tensors": [{"name": "x", "shape": shape, "offset": 0}]}).encode()
    path = new_path()
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + b"\0" * (4 * floats))
    with pytest.raises(TruncatedError):
        load_paramset(path)


def _canonical_index(text: str) -> bool:
    return text.isascii() and text.isdigit() and (text == "0" or not text.startswith("0"))


_indices = st.integers(0, 3).map(str)
_bad_indices = st.one_of(
    st.integers(-5, -1).map(str),
    st.integers(0, 9).map(lambda i: f"0{i}"),
    st.text(alphabet="0123456789-+_ x.\n٣", min_size=0, max_size=4),
).filter(lambda text: not _canonical_index(text))
_bad_heads = st.text(max_size=8).filter(lambda text: text != "surgery")
_bad_halves = st.text(max_size=6).filter(lambda text: text not in ("down", "up"))


def _canonical_name(name: str) -> bool:
    parts = name.split(".")
    return (
        len(parts) == 4 and parts[0] == "surgery" and _canonical_index(parts[1])
        and _canonical_index(parts[2]) and parts[3] in ("down", "up")
    )


@st.composite
def malformed_names(draw):
    """A stack entry name with at least one malformed part."""
    name = ".".join([
        draw(st.just("surgery") | _bad_heads),
        draw(_indices | _bad_indices),
        draw(_indices | _bad_indices),
        draw(st.sampled_from(["down", "up"]) | _bad_halves),
    ])
    if _canonical_name(name):  # break it at a drawn position
        where = draw(st.integers(0, len(name)))
        name = name[:where] + draw(st.sampled_from(["-", "x", ".", "0", " "])) + name[where:]
    assume(not _canonical_name(name))
    return name


@settings(max_examples=100, deadline=None)
@given(malformed_names())
@example("surgery.x.1.down")
@example("surgery.-1.1.down")
@example("surgery.0.-2.up")
@example("surgery.01.1.down")
@example("surgery.1_0.1.down")
@example("surgery.0.1.down\n")
def test_malformed_stack_entry_raises_surgery_error(name):
    spec = ModelSpec(3, (4, 2), (2,))
    entries = dict(init_stack(spec, 1, ALL_LAYERS, rank=2, seed=0).to_paramset())
    entries[name] = np.zeros((2, 4))
    with pytest.raises(SurgeryError, match="unexpected stack entry"):
        SurgeryStack.from_paramset(ParamSet(entries), ALL_LAYERS, spec.num_layers)


MERGE_EXAMPLES = settings(max_examples=60, deadline=None)


@st.composite
def backbone_shapes(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=3, max_size=4))
    shapes = []
    for layer in range(1, len(dims)):
        shapes.append((block_name(layer, "weight"), (dims[layer], dims[layer - 1])))
        shapes.append((block_name(layer, "bias"), (dims[layer],)))
    return shapes


def _model(draw, shapes, values):
    entries = []
    for name, shape in shapes:
        size = math.prod(shape)
        entries.append((name, np.reshape(draw(st.lists(values, min_size=size, max_size=size)), shape)))
    return ParamSet(entries)


@st.composite
def merge_problems(draw, values=st.floats(-10, 10, width=32)):
    """A pretrained backbone, 1-4 experts of its shape and a permutation."""
    shapes = draw(backbone_shapes())
    experts = [_model(draw, shapes, values) for _ in range(draw(st.integers(1, 4)))]
    return _model(draw, shapes, values), experts, draw(st.permutations(range(len(experts))))


def _equal_up_to_rounding(a, b, models, scale=1.0):
    """Merges accumulate in float64 and round once to float32.  Summing n
    experts in another order moves an entry by float64 rounding, at most
    a few n * eps * (1 + scale) * max |value|, which cancellation can leave
    larger than the result, plus one float32 ulp from the final rounding."""
    assert list(a) == list(b)
    n = len(models) - 1
    for name in a:
        magnitude = np.max([np.abs(m[name].astype(np.float64)) for m in models], axis=0)
        rounding = 4 * n * n * np.finfo(np.float64).eps * (1 + scale) * magnitude
        ulp = np.spacing(np.maximum(np.abs(a[name]), np.abs(b[name])))
        gap = np.abs(a[name].astype(np.float64) - b[name].astype(np.float64))
        assert (gap <= ulp + rounding).all(), name


@MERGE_EXAMPLES
@given(merge_problems(), st.floats(0, 2))
@example(  # the sum is 1e-30 in this order and 0 in the reverse one
    (
        ParamSet([("block1.weight", [[0.0]]), ("block1.bias", [0.0])]),
        [ParamSet([("block1.weight", [[v]]), ("block1.bias", [0.0])]) for v in (1.0, -1.0, 1e-30)],
        [2, 0, 1],
    ),
    1.0,
)
def test_average_and_task_arithmetic_ignore_expert_order(problem, scale):
    pretrained, experts, order = problem
    permuted = [experts[i] for i in order]
    models = [pretrained, *experts]
    _equal_up_to_rounding(weight_average(experts), weight_average(permuted), models)
    _equal_up_to_rounding(
        task_arithmetic(pretrained, experts, scale), task_arithmetic(pretrained, permuted, scale),
        models, scale,
    )


@st.composite
def ties_problems(draw):
    """Values on a 1/16 grid, so every sum is exact, and each task vector
    with distinct magnitudes, so no trim threshold is tied."""
    shapes = draw(backbone_shapes())
    size = sum(math.prod(shape) for _, shape in shapes)
    pretrained = _model(draw, shapes, st.integers(-64, 64).map(lambda k: k / 16))
    flat = np.concatenate([pretrained[name].ravel() for name, _ in shapes])
    experts = []
    for _ in range(draw(st.integers(1, 4))):
        magnitudes = draw(st.lists(st.integers(1, 200), min_size=size, max_size=size, unique=True))
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=size, max_size=size))
        values = flat + np.array(magnitudes) * np.array(signs) / 16
        offsets = np.cumsum([0] + [math.prod(shape) for _, shape in shapes])
        experts.append(ParamSet(
            (name, values[start:end].reshape(shape))
            for (name, shape), start, end in zip(shapes, offsets, offsets[1:])
        ))
    return pretrained, experts, draw(st.permutations(range(len(experts))))


@MERGE_EXAMPLES
@given(ties_problems(), st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.1, 0.5, 1.0]))
def test_ties_ignores_expert_order(problem, scale, keep):
    pretrained, experts, order = problem
    merged = ties_merge(pretrained, experts, scale, keep)
    assert bitwise_equal(merged, ties_merge(pretrained, [experts[i] for i in order], scale, keep))


@MERGE_EXAMPLES
@given(merge_problems(), st.integers(1, 5))
def test_mean_of_identical_experts_and_zero_scale_are_identities(problem, copies):
    # Equal as numbers: a -0.0 entry may come back as +0.0.
    pretrained, experts, _ = problem
    for merged, want in (
        (weight_average([experts[0]] * copies), experts[0]),
        (task_arithmetic(pretrained, experts, 0.0), pretrained),
    ):
        assert list(merged) == list(want)
        for name in want:
            assert np.array_equal(merged[name], want[name]), name


CONFIG_FIELDS = [item.name for item in RunConfig.__dataclass_fields__.values()]
# Field text that mixes valid values of every field type with the
# non-finite and malformed spellings a config file can hold.
FIELD_TEXT = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.lists(
        st.one_of(st.integers(-1, 9).map(str), st.sampled_from(["0.5", "nan", "inf", "1e999"])),
        min_size=1, max_size=4,
    ).map(",".join),
    st.sampled_from([
        "grid", "none", "v1", "v2", "block:1", "l1", "mse", "cos", "test", "wild:3",
        "stream:0.5", "stream:nan", "ta", "ties", "-0.0", "1e39", "",
    ]),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(CONFIG_FIELDS), FIELD_TEXT, max_size=3))
@example({"hidden_dims": "8,1"})
@example({"merge_scale": "nan"})
@example({"scale_grid": "0.1,nan"})
@example({"scale_grid": "inf"})
@example({"train_lr": "nan"})
def test_config_from_field_text_is_rejected_or_sound(values):
    """A config built from any field text raises ConfigError, or holds
    finite floats everywhere and a final width the projections can use."""
    try:
        cfg = RunConfig.from_sources(values)
    except ConfigError:
        return
    floats = [cfg.train_lr, cfg.ties_keep, *cfg.scale_grid]
    if cfg.merge_scale != "grid":
        floats.append(cfg.merge_scale)
    if cfg.surgery_data.stream_fraction is not None:
        floats.append(cfg.surgery_data.stream_fraction)
    assert all(isinstance(v, float) and math.isfinite(v) for v in floats)
    assert cfg.hidden_dims[-1] >= 2
