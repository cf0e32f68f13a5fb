"""Property tests: stack and checkpoint round trips, truncated files,
huge header shapes, random headers and byte flips over stack files,
random stack parameter sets, malformed stack entry names, merge identities
under expert permutation, the flat merges against their per-name
formulas, configs built from random field text, and
per-row Adam schedules; and that a failing property is reported as a
test failure under the repository's warning filters."""

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
    MAGIC, CheckpointError, TruncatedError, load_paramset, save_paramset
)
from merge_surgeon.config import ConfigError, RunConfig
from merge_surgeon.merging import task_arithmetic, ties_merge, weight_average
from merge_surgeon.network import Adam, ModelSpec
from merge_surgeon.surgery import (
    ALL_LAYERS,
    LAST_LAYER,
    SurgeryError,
    SurgeryStack,
    init_stack,
    single_block,
)
from merge_surgeon.tensors import ParamSet, bitwise_equal, block_name
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


def _num_tasks(stack) -> int:
    return 1 + max(int(name.split(".")[1]) for name in stack.params)


@st.composite
def stacks(draw):
    """A fresh stack for a random model, task count, rank and mode."""
    layer_dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    spec = ModelSpec(draw(st.integers(1, 5)), layer_dims, (2,))
    mode = draw(st.sampled_from(
        [LAST_LAYER, ALL_LAYERS] + [single_block(l) for l in range(1, len(layer_dims) + 1)]
    ))
    stack = init_stack(
        spec, draw(st.integers(1, 3)), mode, rank=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**31)),
    )
    return spec, stack


@FILE_EXAMPLES
@given(stacks())
def test_stack_file_round_trip_is_bitwise(new_path, spec_and_stack):
    spec, stack = spec_and_stack
    path = new_path()
    save_paramset(stack.params, path)
    loaded = SurgeryStack(stack.mode, load_paramset(path))
    assert loaded.mode == stack.mode
    assert bitwise_equal(loaded.params, stack.params)
    loaded.validate(spec, _num_tasks(stack))


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
    with pytest.raises(TruncatedError):
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
        SurgeryStack(stack.mode, load_paramset(path)).validate(spec, _num_tasks(stack))
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
    spec = ModelSpec(3, (4, 2), (2,))
    entries = dict(init_stack(spec, 1, ALL_LAYERS, rank=2, seed=0).params)
    entries[name] = np.zeros((2, 4))
    with pytest.raises(SurgeryError, match="unexpected stack entry"):
        SurgeryStack(ALL_LAYERS, ParamSet(entries))


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
    mode = draw(st.sampled_from([stack.mode, LAST_LAYER, ALL_LAYERS, single_block(2)]))
    return spec, mode, ParamSet(entries)


@settings(max_examples=50, deadline=None)
@given(stack_paramsets())
def test_random_stack_paramset_loads_whole_or_raises_surgery_error(problem):
    # The constructor checks names, pairs and shapes, and adapters64 each
    # task's layers and widths: every task the names can hold (0-3) is read.
    spec, mode, params = problem
    try:
        loaded = SurgeryStack(mode, params)
        for task in range(4):
            loaded.adapters64(task, spec)
    except SurgeryError:
        return
    assert bitwise_equal(loaded.params, params)


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


# Besides random floats, values whose sums cancel to a tiny remainder in
# one order and not in another, so a float64 operation done in another
# order shows after the rounding to float32.
CANCELLING = st.one_of(
    st.sampled_from([1.0, -1.0, 3.0, 1e-30, -2e-30]), st.floats(-10, 10, width=32)
)


@MERGE_EXAMPLES
@given(merge_problems(CANCELLING), st.floats(-2, 2), st.sampled_from([0.25, 0.5, 1.0]))
@example(  # a -0.0 pretrained weight that no task vector moves
    (
        ParamSet([("block1.weight", [[-0.0]]), ("block1.bias", [1.0])]),
        [ParamSet([("block1.weight", [[-0.0]]), ("block1.bias", [2.0])])],
        [0],
    ),
    0.5,
    1.0,
)
@example(  # the sum is 1e-30 in this order and 0 in the reverse one
    (
        ParamSet([("block1.weight", [[0.0]]), ("block1.bias", [0.0])]),
        [ParamSet([("block1.weight", [[v]]), ("block1.bias", [0.0])]) for v in (1.0, -1.0, 1e-30)],
        [0, 1, 2],
    ),
    1.0,
    1.0,
)
def test_flat_merges_equal_the_per_name_formulas(problem, scale, keep):
    """Each rule, run on the flat backbone rows, is bitwise the rule
    written out per name: the float64 mean, the task-order sum of task
    vectors, and the coordinate-by-coordinate TIES oracle."""
    pretrained, experts, _ = problem
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
        (weight_average(experts), ParamSet(mean)),
        (task_arithmetic(pretrained, experts, scale), ParamSet(summed)),
    ):
        assert bitwise_equal(merged, want)
    # The oracle keeps a -0.0 pretrained entry that no task vector moves,
    # where the merge adds scale * 0.0 to it; zeros compare unsigned.
    merged = ties_merge(pretrained, experts, scale, keep)
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


@st.composite
def adam_schedules(draw):
    """A row count and a list of ``(rows, repeats)`` segments: ``rows`` is
    None (every row steps) or the rows that step, possibly none."""
    rows = draw(st.integers(1, 4))
    stepping = st.one_of(st.none(), st.lists(st.integers(0, rows - 1), unique=True))
    segments = draw(st.lists(st.tuples(stepping, st.integers(1, 30)), min_size=1, max_size=5))
    return rows, segments


@settings(max_examples=40, deadline=None)
@given(
    adam_schedules(),
    st.sampled_from([(0.9, 0.999), (0.5, 0.99)]),
    st.integers(0, 2**31),
)
# Row 0 runs ahead by 10 steps; with beta1 = 0.5, 1 - beta1**t rounds to
# 1.0 from step 54 on, so in the shared steps that follow one row takes
# that branch while the other does not.
@example((2, [([0], 10), (None, 50)]), (0.5, 0.99), 0)
@example((3, [(None, 5), ([1, 2], 20), ([], 3), (None, 40), ([0, 1, 2], 2)]), (0.5, 0.99), 1)
def test_row_adam_matches_textbook_adam_per_row(schedule, betas, seed):
    """Every row of an ``Adam(rows=n)`` ends bitwise where the textbook
    Adam leaves it on that row's own gradients, through subsets, pauses,
    resumes and all-row steps after the counts diverged."""
    rows, segments = schedule
    rng = np.random.default_rng(seed)
    shapes = {"a": (rows, 3), "b": (rows, 2, 2)}
    start = {key: rng.standard_normal(shape) for key, shape in shapes.items()}
    params = {key: value.copy() for key, value in start.items()}
    adam = Adam(learning_rate=0.05, betas=betas, rows=rows)
    seen = {key: [[] for _ in range(rows)] for key in shapes}
    for stepping, repeats in segments:
        for _ in range(repeats):
            grads = {
                key: rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6)
                for key, shape in shapes.items()
            }
            for key, grad in grads.items():
                for row in range(rows) if stepping is None else stepping:
                    seen[key][row].append(grad[row])
            adam.step(params, grads, stepping)
    assert adam.step_count == [len(g) for g in seen["a"]]
    for key in shapes:
        for row in range(rows):
            want = _textbook_adam(start[key][row], seen[key][row], lr=0.05, betas=betas)
            assert params[key][row].tobytes() == want.tobytes(), (key, row)


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
