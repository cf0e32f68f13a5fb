"""Property tests: stack and checkpoint round trips, truncated files,
huge header shapes, random headers and byte flips over stack files,
random stack parameter sets, malformed stack entry names, merge identities
under expert permutation, the flat merges against their per-name
formulas, configs built from random field text,
per-row Adam schedules, and the forward pass against its out-of-place
expression; and that a failing property is reported as a test failure
under the repository's warning filters."""

import itertools
import json
import math
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from merge_surgeon.checkpoint import (
    MAGIC, CheckpointError, load_paramset, save_paramset
)
from merge_surgeon.config import ConfigError, RunConfig
from merge_surgeon.merging import task_arithmetic, ties_merge, weight_average
from merge_surgeon.network import Adam, ModelSpec, forward_layers
from merge_surgeon.surgery import (
    ALL_LAYERS,
    SurgeryError,
    SurgeryMode,
    SurgeryStack,
    init_stack,
)
from merge_surgeon.tensors import ParamSet

from conftest import bitwise_equal
from test_merging import ties_oracle
from test_network import _textbook_adam

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
    """A fresh stack for a random model, task count, rank and mode."""
    layer_dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    spec = ModelSpec(draw(st.integers(1, 5)), layer_dims, 2, draw(st.integers(1, 3)))
    mode = SurgeryMode(draw(st.sampled_from(
        ["v1", "v2"] + [f"block:{l}" for l in range(1, len(layer_dims) + 1)]
    )))
    stack = init_stack(spec, mode, rank=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**31)))
    return spec, stack


@FILE_EXAMPLES
@given(stacks())
def test_stack_file_round_trip_is_bitwise(new_path, spec_and_stack):
    spec, stack = spec_and_stack
    path = new_path()
    save_paramset(stack.params, path)
    loaded = SurgeryStack(stack.mode, load_paramset(path), spec)
    assert loaded.mode == stack.mode
    assert bitwise_equal(loaded.params, stack.params)


@FILE_EXAMPLES
@given(stacks(), st.data())
def test_truncated_checkpoint_raises_checkpoint_error(new_path, spec_and_stack, data):
    _, stack = spec_and_stack
    path = new_path()
    save_paramset(stack.params, path)
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
    with pytest.raises(CheckpointError, match="payload truncated at tensor 'x'"):
        load_paramset(path)


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)


@st.composite
def headers(draw, real):
    """A JSON header: any value, a list of loose descriptors, or the
    ``real`` descriptors with one dropped or one field replaced."""
    kind = draw(st.sampled_from(["any", "loose", "edited"]))
    if kind == "any":
        return draw(_json)
    if kind == "loose":
        descriptor = st.fixed_dictionaries({
            "name": st.text(max_size=4) | _json,
            "shape": st.lists(st.integers(0, 4), max_size=2) | _json,
            "offset": st.integers(0, 64) | _json,
        })
        return {"tensors": draw(st.lists(descriptor, max_size=3) | _json)}
    descriptors = [dict(d) for d in real]
    index = draw(st.integers(0, len(descriptors) - 1))
    field = draw(st.sampled_from([None, "name", "shape", "offset"]))
    if field is None:
        del descriptors[index]
    else:
        descriptors[index][field] = draw(_json | st.integers(0, 64) | st.lists(st.integers(1, 4)))
    return {"tensors": descriptors}


def _split(raw: bytes) -> tuple[bytes, bytes]:
    (length,) = struct.unpack("<Q", raw[8:16])
    return raw[16:16 + length], raw[16 + length:]


def _damaged_stack_file(new_path, stack, data):
    """A saved stack file with a random JSON header, or with one to three
    random bytes flipped; returns its path and bytes."""
    path = new_path()
    save_paramset(stack.params, path)
    raw = path.read_bytes()
    header, payload = _split(raw)
    if data.draw(st.booleans()):
        header = json.dumps(data.draw(headers(json.loads(header)["tensors"]))).encode()
        raw = MAGIC + struct.pack("<Q", len(header)) + header + payload
    else:
        flipped = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 3))):
            flipped[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        raw = bytes(flipped)
    damaged = new_path()
    damaged.write_bytes(raw)
    return damaged, raw


@FILE_EXAMPLES
@given(stacks(), st.data())
def test_damaged_checkpoint_loads_as_declared_or_raises_checkpoint_error(
    new_path, spec_and_stack, data
):
    path, raw = _damaged_stack_file(new_path, spec_and_stack[1], data)
    try:
        loaded = load_paramset(path)
    except CheckpointError:
        return
    declared = json.loads(_split(raw)[0].decode("utf-8"))["tensors"]
    assert [(n, v.shape) for n, v in loaded.items()] == [
        (d["name"], tuple(d["shape"])) for d in declared
    ]


@FILE_EXAMPLES
@given(stacks(), st.data())
def test_damaged_stack_file_loads_or_raises_a_domain_error(new_path, spec_and_stack, data):
    spec, stack = spec_and_stack
    path, _ = _damaged_stack_file(new_path, stack, data)
    try:
        SurgeryStack(stack.mode, load_paramset(path), spec)
    except (CheckpointError, SurgeryError):
        pass


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
    spec = ModelSpec(3, (4, 2), 2, 1)
    entries = dict(init_stack(spec, ALL_LAYERS, rank=2, seed=0).params)
    entries[name] = np.zeros((2, 4))
    with pytest.raises(SurgeryError, match="unexpected stack entry"):
        SurgeryStack(ALL_LAYERS, ParamSet(entries), spec)


_entry_names = st.builds(
    "surgery.{}.{}.{}".format, st.integers(0, 3), st.integers(0, 5), st.sampled_from(["down", "up"])
)


@st.composite
def stack_paramsets(draw):
    """A fresh stack's entries with up to two dropped and up to two added
    or replaced by a random name and shape, read in a random mode."""
    spec, stack = draw(stacks())
    entries = dict(stack.params)
    for name in draw(st.lists(st.sampled_from(sorted(entries)), unique=True, max_size=2)):
        del entries[name]
    for name in draw(st.lists(_entry_names | malformed_names(), max_size=2)):
        entries[name] = np.zeros(draw(st.lists(st.integers(1, 4), max_size=3)))
    mode = draw(st.sampled_from([stack.mode, *map(SurgeryMode, ("v1", "v2", "block:2"))]))
    return spec, mode, ParamSet(entries)


@settings(max_examples=50, deadline=None)
@given(stack_paramsets())
def test_random_stack_paramset_loads_whole_or_raises_surgery_error(problem):
    # The constructor is the one check: a stack it accepts gives every
    # task of the spec the mode's adapters.
    spec, mode, params = problem
    try:
        loaded = SurgeryStack(mode, params, spec)
    except SurgeryError:
        return
    assert bitwise_equal(loaded.params, params)
    for task in range(spec.num_tasks):
        assert list(loaded.adapters(task)) == list(mode.layer_indices(spec.num_layers))


MERGE_EXAMPLES = settings(max_examples=60, deadline=None)


@st.composite
def model_specs(draw):
    """A spec of 2-3 blocks, each 1-4 wide."""
    dims = draw(st.lists(st.integers(1, 4), min_size=3, max_size=4))
    return ModelSpec(dims[0], tuple(dims[1:]), 2, 1)


def _model(draw, spec, values):
    entries = []
    for name, shape in spec.backbone_shapes().items():
        size = math.prod(shape)
        entries.append((name, np.reshape(draw(st.lists(values, min_size=size, max_size=size)), shape)))
    return ParamSet(entries)


@st.composite
def merge_problems(draw, values=st.floats(-10, 10, width=32)):
    """A spec, a pretrained backbone, 1-4 experts of its shape and a
    permutation."""
    spec = draw(model_specs())
    experts = [_model(draw, spec, values) for _ in range(draw(st.integers(1, 4)))]
    return spec, _model(draw, spec, values), experts, draw(st.permutations(range(len(experts))))


# Two blocks of one unit each, for the hand-written examples.
UNIT = ModelSpec(1, (1, 1), 2, 1)


def _unit_model(weight, bias):
    """A ``UNIT`` backbone whose block1 holds ``weight`` and ``bias`` and
    whose block2 is zero."""
    return ParamSet([("block1.weight", [[weight]]), ("block1.bias", [bias]),
                     ("block2.weight", [[0.0]]), ("block2.bias", [0.0])])


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
    (UNIT, _unit_model(0.0, 0.0), [_unit_model(v, 0.0) for v in (1.0, -1.0, 1e-30)], [2, 0, 1]),
    1.0,
)
def test_average_and_task_arithmetic_ignore_expert_order(problem, scale):
    spec, pretrained, experts, order = problem
    permuted = [experts[i] for i in order]
    models = [pretrained, *experts]
    _equal_up_to_rounding(weight_average(experts, spec), weight_average(permuted, spec), models)
    _equal_up_to_rounding(
        task_arithmetic(pretrained, experts, spec, scale),
        task_arithmetic(pretrained, permuted, spec, scale),
        models, scale,
    )


@st.composite
def ties_problems(draw):
    """Values on a 1/16 grid, so every sum is exact, and each task vector
    with distinct magnitudes, so no trim threshold is tied."""
    spec = draw(model_specs())
    shapes = list(spec.backbone_shapes().items())
    size = sum(math.prod(shape) for _, shape in shapes)
    pretrained = _model(draw, spec, st.integers(-64, 64).map(lambda k: k / 16))
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
    return spec, pretrained, experts, draw(st.permutations(range(len(experts))))


@MERGE_EXAMPLES
@given(ties_problems(), st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.1, 0.5, 1.0]))
def test_ties_ignores_expert_order(problem, scale, keep):
    spec, pretrained, experts, order = problem
    merged = ties_merge(pretrained, experts, spec, scale, keep)
    permuted = [experts[i] for i in order]
    assert bitwise_equal(merged, ties_merge(pretrained, permuted, spec, scale, keep))


@MERGE_EXAMPLES
@given(merge_problems(), st.integers(1, 5))
def test_mean_of_identical_experts_and_zero_scale_are_identities(problem, copies):
    # Equal as numbers: a -0.0 entry may come back as +0.0.
    spec, pretrained, experts, _ = problem
    for merged, want in (
        (weight_average([experts[0]] * copies, spec), experts[0]),
        (task_arithmetic(pretrained, experts, spec, 0.0), pretrained),
    ):
        assert list(merged) == list(want)
        for name in want:
            assert np.array_equal(merged[name], want[name]), name


# Besides random floats, values whose sums cancel to a tiny remainder in
# one order and not in another, so a float64 operation done in another
# order shows after the rounding to float32.
CANCELLING = st.one_of(
    st.sampled_from([1.0, -1.0, 3.0, 1e-30, -2e-30]), st.floats(-10, 10, width=32)
)


@MERGE_EXAMPLES
@given(merge_problems(CANCELLING), st.floats(-2, 2), st.sampled_from([0.25, 0.5, 1.0]))
@example(  # a -0.0 pretrained weight that no task vector moves
    (UNIT, _unit_model(-0.0, 1.0), [_unit_model(-0.0, 2.0)], [0]),
    0.5,
    1.0,
)
@example(  # the sum is 1e-30 in this order and 0 in the reverse one
    (UNIT, _unit_model(0.0, 0.0), [_unit_model(v, 0.0) for v in (1.0, -1.0, 1e-30)], [0, 1, 2]),
    1.0,
    1.0,
)
def test_flat_merges_equal_the_per_name_formulas(problem, scale, keep):
    """Each rule, run on the flat backbone rows, is bitwise the rule
    written out per name: the float64 mean, the task-order sum of task
    vectors, and the coordinate-by-coordinate TIES oracle."""
    spec, pretrained, experts, _ = problem
    names = list(pretrained)
    as64 = [{name: m[name].astype(np.float64) for name in names} for m in (pretrained, *experts)]
    base, *tuned = as64
    mean = {name: np.stack([e[name] for e in tuned]).mean(axis=0) for name in names}
    summed = {}
    for name in names:
        total = np.zeros_like(base[name])
        for expert in tuned:
            total += expert[name] - base[name]
        summed[name] = base[name] + scale * total
    for merged, want in (
        (weight_average(experts, spec), ParamSet(mean)),
        (task_arithmetic(pretrained, experts, spec, scale), ParamSet(summed)),
    ):
        assert bitwise_equal(merged, want)
    # The oracle keeps a -0.0 pretrained entry that no task vector moves,
    # where the merge adds scale * 0.0 to it; zeros compare unsigned.
    merged = ties_merge(pretrained, experts, spec, scale, keep)
    want = ties_oracle(pretrained, experts, scale, keep)
    assert list(merged) == list(want)
    for name in names:
        assert (merged[name] + 0.0).tobytes() == (want[name] + 0.0).tobytes(), name


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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 80),
    st.sampled_from([(0.9, 0.999), (0.5, 0.99)]),
    st.integers(0, 2**31),
)
# With beta1 = 0.5, 1 - beta1**t rounds to 1.0 from step 54 on.
@example(2, 60, (0.5, 0.99), 0)
def test_row_adam_matches_textbook_adam_per_row(rows, steps, betas, seed):
    """Every row of an array that ``Adam`` steps whole ends bitwise where
    the textbook Adam leaves it on that row's own gradients."""
    rng = np.random.default_rng(seed)
    shapes = {"a": (rows, 3), "b": (rows, 2, 2)}
    start = {key: rng.standard_normal(shape) for key, shape in shapes.items()}
    params = {key: value.copy() for key, value in start.items()}
    adams = {key: Adam(learning_rate=0.05, betas=betas) for key in shapes}
    grads = {
        key: [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6) for _ in range(steps)]
        for key, shape in shapes.items()
    }
    for i in range(steps):
        for key in shapes:
            adams[key].step(params[key], grads[key][i])
    for key in shapes:
        assert adams[key].step_count == steps
        for row in range(rows):
            own = [grad[row] for grad in grads[key]]
            want = _textbook_adam(start[key][row], own, lr=0.05, betas=betas)
            assert params[key][row].tobytes() == want.tobytes(), (key, row)


def _out_of_place_forward(backbone, spec, x, adapters, first, last):
    """``forward_layers`` as one expression per array: every layer, hidden
    and corrected output a temporary of its own, in the backbone's dtype.
    Returns the layers and, per layer, its ``(raw, hidden, corrected)``
    arrays, the last two None where no adapter sits."""
    z = np.asarray(x, dtype=backbone[spec.block_names[first - 1][0]].dtype)
    layers, arrays = [], {}
    for layer in range(first, last + 1):
        w_name, b_name = spec.block_names[layer - 1]
        pre = backbone[w_name] @ z + backbone[b_name][..., None]
        z = raw = np.maximum(pre, 0.0) if layer < spec.num_layers else pre
        hidden = None
        pair = adapters.get(layer)
        if pair is not None:
            hidden = np.maximum(pair["down"] @ raw, 0.0)
            z = raw - pair["up"] @ hidden
        arrays[layer] = raw, hidden, None if hidden is None else z
        layers.append(z)
    return layers, arrays


@st.composite
def forward_problems(draw):
    """A random float64 or float32 model, a 2-D, (T, d, B) or (C, T, d, B)
    input of either dtype, blocks and adapters each shared or stacked on
    T, and a block range whose end may be left open (None)."""
    dims = draw(st.lists(st.integers(1, 5), min_size=3, max_size=5))
    spec = ModelSpec(dims[0], tuple(dims[1:]), 2, 1)
    tasks, chunks, batch = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 5))
    lead = draw(st.sampled_from([(), (tasks,), (chunks, tasks)]))
    first = draw(st.integers(1, spec.num_layers))
    last = draw(st.none() | st.integers(first, spec.num_layers))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    model_dtype = draw(st.sampled_from([np.float64, np.float32]))

    def stacked(shape):
        # Rounded to halves, so exact zeros reach the ReLUs.
        full = ((tasks,) if draw(st.booleans()) else ()) + shape
        return (np.round(rng.standard_normal(full) * 2) / 2).astype(model_dtype)

    backbone = {}
    for layer, (w_name, b_name) in enumerate(spec.block_names, start=1):
        backbone[w_name] = stacked((spec.out_dim(layer), spec.in_dim(layer)))
        backbone[b_name] = rng.standard_normal(backbone[w_name].shape[:-1]).astype(model_dtype)
    adapters = {}
    for layer in draw(st.sets(st.integers(first, last or spec.num_layers))):
        rank = draw(st.integers(1, 3))
        adapters[layer] = {
            "down": stacked((rank, spec.out_dim(layer))),
            "up": stacked((spec.out_dim(layer), rank)),
        }
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    x = rng.standard_normal((*lead, spec.in_dim(first), batch)).astype(dtype)
    return spec, backbone, adapters, x, first, last


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(forward_problems(), st.booleans())
def test_forward_is_bitwise_the_out_of_place_expression(problem, with_out):
    """Every output of ``forward_layers``, and with ``out`` buffers every
    raw, hidden and corrected array it writes into them, is bitwise the
    out-of-place expression's, and ``x``, the backbone and the adapters
    are left as they were."""
    spec, backbone, adapters, x, first, last = problem
    inputs = [x, *backbone.values(), *(a for pair in adapters.values() for a in pair.values())]
    before = [a.copy() for a in inputs]
    want, want_arrays = _out_of_place_forward(
        backbone, spec, x, adapters, first, last or spec.num_layers
    )
    # Buffers of the reference's shapes, filled with NaN, so an array the
    # pass does not write shows.
    out = {layer: tuple(None if a is None else np.full_like(a, np.nan) for a in arrays)
           for layer, arrays in want_arrays.items()} if with_out else None
    layers = forward_layers(backbone, spec, x, adapters, first, last, out)
    assert all(z.dtype == backbone["block1.weight"].dtype for z in layers)
    assert len(layers) == len(want) == (last or spec.num_layers) - first + 1
    assert all(_same(z, w) for z, w in zip(layers, want))
    if with_out:
        for layer, arrays in out.items():
            assert layers[layer - first] is arrays[0 if arrays[2] is None else 2]
            for got, expected in zip(arrays, want_arrays[layer]):
                assert got is None or _same(got, expected)
    assert all(_same(a, b) for a, b in zip(inputs, before))


def test_failing_property_is_reported_as_a_failure(tmp_path):
    # To report a failure, hypothesis imports libcst, whose import raises
    # a DeprecationWarning; with every warning an error and no filter for
    # it, pytest ended in INTERNALERROR (exit code 3) and never showed the
    # falsifying example.
    (tmp_path / "test_failing.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, max_examples=5)
        @given(st.integers())
        def test_fails(n):
            assert n != n
    """))
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ini), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "FAILED test_failing.py::test_fails" in output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
