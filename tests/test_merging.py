"""Merging rules: identities, the ties oracle, grid search, AdaMerging."""

import functools
import math
import re
import warnings

import numpy as np
import pytest

import merge_surgeon as ms
from merge_surgeon import network
from merge_surgeon.merging import (
    MergeError,
    MergeRecipe,
    _stacked_heads,
    ada_loss_and_gradient,
    task_arithmetic,
    task_vectors,
    ties_merge,
    weight_average,
)
from merge_surgeon.network import (
    ModelSpec,
    backbone_adjoint_grads,
    entropy_loss_and_adjoint,
    forward_layers,
    init_backbone,
    random_batches,
)
from merge_surgeon.tensors import ParamSet, bitwise_equal


def backbone_paramset(values_by_name):
    return ParamSet(values_by_name)


def random_backbones(rng, count, shapes=(("block1.weight", (3, 2)), ("block1.bias", (3,)),
                                         ("block2.weight", (2, 3)), ("block2.bias", (2,)))):
    out = []
    for _ in range(count):
        out.append(ParamSet([(n, rng.uniform(-1, 1, size=s)) for n, s in shapes]))
    return out


class TestWeightAverage:
    def test_identical_models_bitwise(self):
        rng = np.random.default_rng(5)
        model = random_backbones(rng, 1)[0]
        merged = weight_average([model, model, model])
        assert bitwise_equal(merged, model.backbone())

    def test_singleton_mean(self):
        a = backbone_paramset([("block1.weight", [[2.0]]), ("block1.bias", [0.0])])
        b = backbone_paramset([("block1.weight", [[4.0]]), ("block1.bias", [0.0])])
        merged = weight_average([a, b])
        assert merged["block1.weight"][0, 0] == 3.0

    def test_three_values(self):
        models = [
            backbone_paramset([("block1.bias", [v])]) for v in (1.0, 2.0, 6.0)
        ]
        assert weight_average(models)["block1.bias"][0] == 3.0

    def test_heads_excluded(self):
        model = ParamSet([("block1.bias", [1.0]), ("head.0.weight", [[5.0]]), ("head.0.bias", [1.0])])
        merged = weight_average([model])
        assert "head.0.weight" not in merged

    def test_incompatible_rejected(self):
        a = backbone_paramset([("block1.bias", [1.0])])
        b = backbone_paramset([("block1.bias", [1.0, 2.0])])
        with pytest.raises(MergeError):
            weight_average([a, b])
        with pytest.raises(MergeError):
            weight_average([])


class TestTaskArithmetic:
    def test_zero_scale_returns_pretrained_bitwise(self):
        rng = np.random.default_rng(6)
        pretrained, a, b = random_backbones(rng, 3)
        merged = task_arithmetic(pretrained, [a, b], 0.0)
        assert bitwise_equal(merged, pretrained.backbone())

    def test_single_expert_unit_scale(self):
        rng = np.random.default_rng(7)
        pretrained, expert = random_backbones(rng, 2)
        merged = task_arithmetic(pretrained, [expert], 1.0)
        assert bitwise_equal(merged, expert.backbone())

    def test_symmetric_cancellation(self):
        pretrained = backbone_paramset([("block1.bias", [0.0])])
        plus = backbone_paramset([("block1.bias", [1.0])])
        minus = backbone_paramset([("block1.bias", [-1.0])])
        merged = task_arithmetic(pretrained, [plus, minus], 0.4)
        assert merged["block1.bias"][0] == 0.0

    def test_expert_order_invariant(self):
        rng = np.random.default_rng(8)
        pretrained, a, b, c = random_backbones(rng, 4)
        forward = task_arithmetic(pretrained, [a, b, c], 0.7)
        shuffled = task_arithmetic(pretrained, [c, a, b], 0.7)
        assert bitwise_equal(forward, shuffled)

    def test_weight_average_equivalence_from_zero_base(self):
        # With a zero pretrained model, task arithmetic at scale 1/T is
        # exactly the elementwise mean.
        rng = np.random.default_rng(9)
        experts = random_backbones(rng, 4)
        zero = ParamSet([(n, np.zeros_like(v)) for n, v in experts[0].items()])
        via_ta = task_arithmetic(zero, experts, 1.0 / 4)
        via_avg = weight_average(experts)
        for name in via_avg:
            np.testing.assert_allclose(via_ta[name], via_avg[name], atol=1e-7)


def ties_oracle(pretrained, experts, scale, keep_fraction):
    """Independent trim / elect / merge, one coordinate at a time."""
    names = [n for n in pretrained if n.startswith("block")]
    base = np.concatenate([np.asarray(pretrained[n], dtype=np.float64).ravel() for n in names])
    vectors = []
    for expert in experts:
        tau = np.concatenate(
            [np.asarray(expert[n], dtype=np.float64).ravel() for n in names]
        ) - base
        k = math.ceil(keep_fraction * tau.size)
        ranked = sorted(range(tau.size), key=lambda i: (-abs(tau[i]), i))
        keep = set(ranked[:k])
        vectors.append([tau[i] if i in keep else 0.0 for i in range(tau.size)])
    merged = []
    for i in range(base.size):
        column = [v[i] for v in vectors]
        total = sum(column)
        if total > 0:
            sign = 1.0
        elif total < 0:
            sign = -1.0
        else:
            merged.append(base[i])
            continue
        matching = [c for c in column if (c > 0) == (sign > 0) and c != 0.0]
        merged.append(base[i] + scale * (sum(matching) / len(matching)))
    flat = np.array(merged)
    out = {}
    offset = 0
    for name in names:
        size = int(np.prod(pretrained[name].shape))
        out[name] = flat[offset : offset + size].reshape(pretrained[name].shape)
        offset += size
    return ParamSet(out)


class TestTiesMerge:
    def test_single_expert_keep_all(self):
        rng = np.random.default_rng(10)
        pretrained, expert = random_backbones(rng, 2)
        merged = ties_merge(pretrained, [expert], 1.0, 1.0)
        assert bitwise_equal(merged, expert.backbone())

    def test_hand_worked_sign_election(self):
        # Post-trim column (+0.9, -0.2, 0): elected sign +, disjoint mean 0.9.
        pretrained = backbone_paramset([("block1.bias", [1.0])])
        experts = [
            backbone_paramset([("block1.bias", [1.9])]),   # tau +0.9
            backbone_paramset([("block1.bias", [0.8])]),   # tau -0.2
            backbone_paramset([("block1.bias", [1.0])]),   # tau 0
        ]
        merged = ties_merge(pretrained, experts, 0.5, 1.0)
        assert merged["block1.bias"][0] == pytest.approx(1.0 + 0.5 * 0.9, abs=1e-7)

    def test_identical_task_vectors_no_conflict(self):
        rng = np.random.default_rng(11)
        pretrained, expert = random_backbones(rng, 2)
        merged = ties_merge(pretrained, [expert, expert, expert], 0.7, 1.0)
        expected = task_arithmetic(pretrained, [expert], 0.7)
        for name in merged:
            np.testing.assert_allclose(merged[name], expected[name], atol=1e-7)

    @pytest.mark.parametrize("keep", [0.25, 0.5, 1.0])
    def test_matches_brute_force_oracle(self, keep):
        rng = np.random.default_rng(12)
        for case in range(34):
            shapes = [("block1.weight", (4, 4)), ("block1.bias", (4,)),
                      ("block2.weight", (3, 4)), ("block2.bias", (3,))]
            pretrained = ParamSet([(n, rng.uniform(-1, 1, size=s)) for n, s in shapes])
            experts = [
                ParamSet([(n, rng.uniform(-1, 1, size=s)) for n, s in shapes])
                for _ in range(3)
            ]
            scale = float(rng.uniform(0.1, 1.0))
            merged = ties_merge(pretrained, experts, scale, keep)
            expected = ties_oracle(pretrained, experts, scale, keep)
            for name in merged:
                assert merged[name].tobytes() == expected[name].tobytes(), (case, name)

    def test_expert_order_invariant_without_threshold_ties(self):
        rng = np.random.default_rng(13)
        pretrained, a, b, c = random_backbones(rng, 4)
        forward = ties_merge(pretrained, [a, b, c], 0.5, 0.5)
        shuffled = ties_merge(pretrained, [b, c, a], 0.5, 0.5)
        assert bitwise_equal(forward, shuffled)

    def test_keep_fraction_range(self):
        rng = np.random.default_rng(14)
        pretrained, expert = random_backbones(rng, 2)
        with pytest.raises(MergeError):
            ties_merge(pretrained, [expert], 1.0, 0.0)
        with pytest.raises(MergeError):
            ties_merge(pretrained, [expert], 1.0, 1.5)


class TestFlatLayout:
    def test_insertion_order_does_not_change_the_merge(self):
        # Every rule lays the backbone out block by block (block 10 after
        # block 2), weight before bias, whatever order its first set lists.
        shapes = (("block1.weight", (3, 2)), ("block1.bias", (3,)),
                  ("block2.weight", (2, 3)), ("block2.bias", (2,)),
                  ("block10.weight", (2, 2)), ("block10.bias", (2,)))
        pretrained, *experts = random_backbones(np.random.default_rng(15), 4, shapes)
        shuffled = ParamSet([list(pretrained.items())[i] for i in (5, 2, 0, 4, 3, 1)])
        merges = [
            lambda pre: weight_average([pre, *experts]),
            lambda pre: task_arithmetic(pre, experts, 0.6),
            lambda pre: ties_merge(pre, experts, 0.6, 0.5),
        ]
        for merge in merges:
            merged = merge(shuffled)
            assert list(merged) == [name for name, _ in shapes]
            assert bitwise_equal(merged, merge(pretrained))


class TestRecipe:
    def test_unknown_algorithm(self):
        with pytest.raises(MergeError, match="unknown algorithm"):
            MergeRecipe(algorithm="bogus")

    def test_required_fields(self):
        with pytest.raises(MergeError):
            MergeRecipe(algorithm="task_arithmetic")
        with pytest.raises(MergeError):
            MergeRecipe(algorithm="ties_merging", scale=0.5, keep_fraction=0.0)

    def test_to_text_round_trips_values(self):
        recipe = MergeRecipe(algorithm="ties_merging", scale=0.4, keep_fraction=0.5)
        text = recipe.to_text()
        assert "algorithm = ties_merging" in text
        assert "scale = 0.4" in text


@pytest.fixture(scope="module")
def tiny_models():
    suite = ms.gen_task_suite(21, 2, 5, 3, 150, 80)
    spec = ModelSpec(5, (8, 8, 6), (3, 3))
    cfg = ms.TrainConfig(iterations=200, seed=21)
    pre = ms.pretrain(spec, suite.mixture, cfg)
    experts = [
        result.params
        for result in ms.train_experts(
            pre.params, [task.train for task in suite.tasks], range(2), spec, cfg
        )
    ]
    return suite, spec, pre.params, experts


class TestGridSearch:

    def test_single_candidate_returned(self, tiny_models):
        suite, spec, pretrained, experts = tiny_models
        vals = [task.validation for task in suite.tasks]
        assert ms.grid_search_scale(pretrained, experts, spec, [0.35], vals) == 0.35

    def test_duplicate_candidates(self, tiny_models):
        suite, spec, pretrained, experts = tiny_models
        vals = [task.validation for task in suite.tasks]
        assert ms.grid_search_scale(pretrained, experts, spec, [0.2, 0.2], vals) == 0.2

    def test_empty_candidates(self, tiny_models):
        suite, spec, pretrained, experts = tiny_models
        with pytest.raises(MergeError):
            ms.grid_search_scale(pretrained, experts, spec, [], [t.validation for t in suite.tasks])


class TestScaleChecks:
    """A non-finite scale, or a finite one whose merge overflows float32,
    is a MergeError that names the scale, with no numpy warning first."""

    MERGES = [
        pytest.param(task_arithmetic, id="ta"),
        pytest.param(functools.partial(ties_merge, keep_fraction=0.5), id="ties"),
    ]

    @staticmethod
    def models():
        # Task vectors of magnitude 1, so scale 1e39 passes float32's 3.4e38.
        pre = backbone_paramset([("block1.weight", [[0.0, 1.0]]), ("block1.bias", [0.5])])
        a = backbone_paramset([("block1.weight", [[1.0, 1.0]]), ("block1.bias", [0.5])])
        b = backbone_paramset([("block1.weight", [[0.0, 2.0]]), ("block1.bias", [-0.5])])
        return pre, [a, b]

    @pytest.mark.parametrize("merge", MERGES)
    @pytest.mark.parametrize(
        "scale, message",
        [
            (1e39, "scale 1e+39: the merged weights overflow float32"),
            (-1e39, "scale -1e+39: the merged weights overflow float32"),
            (1e300, "scale 1e+300: the merged weights overflow float32"),
            (math.nan, "scale nan is not finite"),
            (math.inf, "scale inf is not finite"),
            (-math.inf, "scale -inf is not finite"),
        ],
    )
    def test_merge_error_names_the_scale(self, merge, scale, message):
        pre, experts = self.models()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MergeError, match=re.escape(message)):
                merge(pre, experts, scale)

    @pytest.mark.parametrize("merge", MERGES)
    def test_large_finite_merge_is_kept(self, merge):
        pre, experts = self.models()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merged = merge(pre, experts, 1e38)
        assert np.isfinite(merged["block1.weight"]).all()

    @pytest.mark.parametrize("merge", MERGES)
    def test_grid_search_rejects_bad_candidates(self, tiny_models, merge):
        suite, spec, pretrained, experts = tiny_models
        vals = [task.validation for task in suite.tasks]
        with pytest.raises(MergeError, match="scale nan is not finite"):
            ms.grid_search_scale(pretrained, experts, spec, [0.3, math.nan], vals, merge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MergeError, match=re.escape("scale 1e+45: the merged weights")):
                ms.grid_search_scale(pretrained, experts, spec, [0.3, 1e45], vals, merge)


class TestAdaMerging:
    def test_zero_task_vectors_are_a_fixed_point(self):
        rng = np.random.default_rng(22)
        spec = ModelSpec(4, (5, 3), (2, 2))
        backbone = init_backbone(spec, rng)
        expert_entries = dict(backbone)
        pretrained = ParamSet(backbone)
        experts = []
        for t in range(2):
            entries = dict(expert_entries)
            entries[f"head.{t}.weight"] = rng.standard_normal((2, 3))
            entries[f"head.{t}.bias"] = np.zeros(2)
            experts.append(ParamSet(entries))
        inputs = [rng.standard_normal((30, 4)) for _ in range(2)]
        cfg = ms.TrainConfig(iterations=20, seed=22)
        result = ms.ada_merge(pretrained, experts, spec, inputs, cfg)
        np.testing.assert_array_equal(result.coefficients, np.full((2, 2), 0.3))
        assert bitwise_equal(result.params, pretrained.backbone())

    def test_coefficient_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        spec = ModelSpec(4, (5, 3), (2, 2))
        pretrained = ParamSet(init_backbone(spec, rng))
        experts = []
        for t in range(2):
            entries = init_backbone(spec, rng)
            entries[f"head.{t}.weight"] = rng.standard_normal((2, 3))
            entries[f"head.{t}.bias"] = rng.standard_normal(2)
            experts.append(ParamSet(entries))
        batches = [rng.standard_normal((4, 7)) for _ in range(2)]
        coeff = rng.uniform(0.1, 0.5, size=(2, 2))
        pre64, taus = task_vectors(pretrained, experts)

        def loss_at(c):
            return ada_loss_and_gradient(pre64, taus, experts, spec, c, batches)[0]

        _, analytic = ada_loss_and_gradient(pre64, taus, experts, spec, coeff, batches)
        eps = 1e-4
        numeric = np.zeros_like(coeff)
        for i in range(coeff.shape[0]):
            for j in range(coeff.shape[1]):
                up = coeff.copy()
                up[i, j] += eps
                down = coeff.copy()
                down[i, j] -= eps
                numeric[i, j] = (loss_at(up) - loss_at(down)) / (2 * eps)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        assert (np.abs(analytic - numeric) / scale).max() < 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        spec = ModelSpec(4, (5, 3), (2,))
        pretrained = ParamSet(init_backbone(spec, rng))
        entries = init_backbone(spec, np.random.default_rng(25))
        entries["head.0.weight"] = rng.standard_normal((2, 3))
        entries["head.0.bias"] = np.zeros(2)
        expert = ParamSet(entries)
        inputs = [rng.standard_normal((40, 4))]
        cfg = ms.TrainConfig(iterations=30, seed=9)
        a = ms.ada_merge(pretrained, [expert], spec, inputs, cfg)
        b = ms.ada_merge(pretrained, [expert], spec, inputs, cfg)
        assert bitwise_equal(a.params, b.params)
        assert a.entropies == b.entropies


def _reference_ada_loss_and_gradient(pretrained, experts, spec, coefficients, batches):
    """The AdaMerging objective as it ran before tasks were stacked: a
    merge per name and task, one 2-D pass per task, and per-name sums."""
    names = list(spec.backbone_shapes())
    pre64 = {n: np.asarray(pretrained[n], dtype=np.float64) for n in names}
    taus = [{n: np.asarray(e[n], dtype=np.float64) - pre64[n] for n in names} for e in experts]
    merged64 = {}
    for name in names:
        value = pre64[name].copy()
        for task, tau in enumerate(taus):
            value += coefficients[int(name[5:name.index(".")]) - 1, task] * tau[name]
        merged64[name] = value
    num_tasks = len(experts)
    loss = 0.0
    grads = {}
    for task, x in enumerate(batches):
        x64 = np.asarray(x, dtype=np.float64)
        layers = forward_layers(merged64, spec, x64)
        head_w = np.asarray(experts[task][f"head.{task}.weight"], dtype=np.float64)
        head_b = np.asarray(experts[task][f"head.{task}.bias"], dtype=np.float64)
        entropy, dlogits = entropy_loss_and_adjoint(head_w @ layers[-1] + head_b[:, None])
        loss += entropy
        for name, grad in backbone_adjoint_grads(
            merged64, spec, x64, layers, head_w.T @ dlogits
        ).items():
            grads[name] = grads[name] + grad / num_tasks if name in grads else grad / num_tasks
    coeff_grad = np.zeros_like(coefficients)
    for name in names:
        for task, tau in enumerate(taus):
            coeff_grad[int(name[5:name.index(".")]) - 1, task] += float(
                (grads[name] * tau[name]).sum()
            )
    return loss / num_tasks, coeff_grad, merged64


def _ada_instance(seed, head_dims=(2, 3, 2)):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(4, (6, 5, 3), head_dims)
    pretrained = ParamSet(init_backbone(spec, rng))
    experts = []
    for t, classes in enumerate(head_dims):
        entries = init_backbone(spec, rng)
        entries[f"head.{t}.weight"] = rng.standard_normal((classes, 3))
        entries[f"head.{t}.bias"] = rng.standard_normal(classes)
        experts.append(ParamSet(entries))
    return rng, spec, pretrained, experts


class TestStackedAdaMerging:
    """The stacked objective and ada_merge equal the per-task loop, bit
    for bit."""

    @pytest.mark.parametrize("column_major", [True, False])
    def test_objective_matches_per_task_loop(self, column_major):
        # Task 1's 3-class head runs in its own group beside tasks 0 and 2.
        rng, spec, pretrained, experts = _ada_instance(90)
        batches = [rng.standard_normal((7, 4)) for _ in range(3)]
        batches = [b.T if column_major else np.ascontiguousarray(b.T) for b in batches]
        coeff = rng.uniform(0.1, 0.5, size=(3, 3))
        pre64, taus = task_vectors(pretrained, experts)
        loss, grad = ada_loss_and_gradient(pre64, taus, experts, spec, coeff, batches)
        want_loss, want_grad, _ = _reference_ada_loss_and_gradient(
            pretrained, experts, spec, coeff, batches
        )
        assert isinstance(loss, float)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_stacked_batches_equal_the_list_form(self):
        rng, spec, pretrained, experts = _ada_instance(91, head_dims=(2, 2, 2))
        stacked = rng.standard_normal((3, 4, 6))
        coeff = rng.uniform(0.1, 0.5, size=(3, 3))
        pre64, taus = task_vectors(pretrained, experts)
        got = ada_loss_and_gradient(pre64, taus, experts, spec, coeff, stacked)
        want = ada_loss_and_gradient(pre64, taus, experts, spec, coeff, list(stacked))
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_ada_merge_matches_per_task_loop(self):
        rng, spec, pretrained, experts = _ada_instance(92)
        pools = [rng.standard_normal((n, 4)) for n in (30, 45, 20)]
        cfg = ms.TrainConfig(iterations=40, batch_size=8, seed=93)
        result = ms.ada_merge(pretrained, experts, spec, pools, cfg)
        coefficients = np.full((3, 3), 0.3)
        adam = cfg.make_adam()
        entropies = []
        for batches in random_batches(pools, cfg.batch_size, cfg.iterations, [cfg.seed, 4]):
            loss, grad, _ = _reference_ada_loss_and_gradient(
                pretrained, experts, spec, coefficients, batches
            )
            entropies.append(loss)
            adam.step({"coefficients": coefficients}, {"coefficients": grad})
        merged = _reference_ada_loss_and_gradient(
            pretrained, experts, spec, coefficients, [p.T for p in pools]
        )[2]
        assert result.entropies == tuple(entropies)
        assert result.coefficients.tobytes() == coefficients.tobytes()
        assert bitwise_equal(result.params, ParamSet(merged))

    def test_precomputed_heads_change_nothing(self):
        # ada_merge passes the stacked heads it computed once; the result
        # is bitwise that of stacking them inside the call.
        rng, spec, pretrained, experts = _ada_instance(98)
        batches = [rng.standard_normal((6, 4)).T for _ in range(3)]
        batches[1] = rng.standard_normal((4, 4)).T  # its own batch-width group
        coeff = rng.uniform(0.1, 0.5, size=(3, 3))
        pre64, taus = task_vectors(pretrained, experts)
        want = ada_loss_and_gradient(pre64, taus, experts, spec, coeff, batches)
        got = ada_loss_and_gradient(
            pre64, taus, experts, spec, coeff, batches, _stacked_heads(experts, spec)
        )
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_block_names_are_formatted_once_per_spec(self, monkeypatch):
        # The per-step path reads the spec's cached names: the number of
        # formatted names does not grow with the number of steps.
        calls = []

        def counting_block_name(layer, kind):
            calls.append((layer, kind))
            return f"block{layer}.{kind}"

        rng, spec, pretrained, experts = _ada_instance(99, head_dims=(2, 2, 2))
        monkeypatch.setattr(network, "block_name", counting_block_name)
        spec = ModelSpec(spec.input_dim, spec.layer_dims, spec.head_dims)  # fresh cache
        pools = [rng.standard_normal((20, 4)) for _ in range(3)]
        ms.ada_merge(pretrained, experts, spec, pools, ms.TrainConfig(iterations=3, seed=1))
        after_three = len(calls)
        ms.ada_merge(pretrained, experts, spec, pools, ms.TrainConfig(iterations=30, seed=1))
        assert after_three == 2 * spec.num_layers
        assert len(calls) == after_three

    def test_depends_on_expert_order(self):
        # Batch draws are seeded by task position, so swapping two experts
        # (with their pools) does not just swap their coefficient columns.
        rng, spec, pretrained, experts = _ada_instance(94, head_dims=(2, 2, 2))
        pools = [rng.standard_normal((25, 4)) for _ in range(3)]
        cfg = ms.TrainConfig(iterations=10, seed=95)
        base = ms.ada_merge(pretrained, experts, spec, pools, cfg)
        order = [1, 0, 2]
        swapped = ms.ada_merge(
            pretrained,
            [
                ParamSet(
                    (name.replace(f"head.{old}.", f"head.{new}."), value)
                    for name, value in experts[old].items()
                )
                for new, old in enumerate(order)
            ],
            spec, [pools[t] for t in order], cfg,
        )
        assert not np.array_equal(swapped.coefficients[:, order], base.coefficients)

    def test_divergence_is_a_merge_error(self):
        # A first Adam step of about 1e200 overflows the merged weights.
        rng, spec, pretrained, experts = _ada_instance(96)
        pools = [rng.standard_normal((25, 4)) for _ in range(3)]
        cfg = ms.TrainConfig(learning_rate=1e200, iterations=5, seed=97)
        with pytest.raises(MergeError, match="non-finite entropy at iteration 2"):
            ms.ada_merge(pretrained, experts, spec, pools, cfg)


def test_grid_search_scale_pinned_on_reference_fixture(ref_scale):
    assert ref_scale == 0.4


def test_every_merge_is_shape_compatible_with_pretrained(ref_pretrained, ref_experts, ref_suite, ref_spec):
    backbone = ref_pretrained.params.backbone()
    cfg = ms.TrainConfig(iterations=5, seed=0)
    merges = [
        weight_average(ref_experts),
        task_arithmetic(ref_pretrained.params, ref_experts, 0.4),
        ties_merge(ref_pretrained.params, ref_experts, 0.4, 0.5),
        ms.ada_merge(
            ref_pretrained.params, ref_experts, ref_spec, ref_suite.test_inputs(), cfg
        ).params,
    ]
    shapes = {name: value.shape for name, value in backbone.items()}
    for merged in merges:
        assert {name: value.shape for name, value in merged.items()} == shapes
