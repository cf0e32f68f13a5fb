"""Property tests: stack and checkpoint round trips, truncated files, and
malformed stack entry names."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from merge_surgeon.bias import LossKind
from merge_surgeon.checkpoint import CheckpointError, load_paramset, save_paramset
from merge_surgeon.network import ModelSpec
from merge_surgeon.surgery import (
    ALL_LAYERS,
    LAST_LAYER,
    SurgeryError,
    SurgeryStack,
    init_stack,
    single_block,
)
from merge_surgeon.tensors import ParamSet

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
