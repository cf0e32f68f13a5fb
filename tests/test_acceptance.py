"""Acceptance gate: every exit criterion on the pinned reference fixture.

The fixture is the suite from conftest (seed 42, 4 tasks, 16-dim inputs,
5 classes) with backbone widths [32,32,32,32,32,16], rank-16 adapters,
L1 alignment, Adam(1e-3), batch 16.  Golden accuracies were pinned on the
first verified run and are asserted within +-0.5 accuracy points; run
with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.
"""

import numpy as np
import pytest
from click.testing import CliRunner

import merge_surgeon as ms
from merge_surgeon.bias import LossKind, alignment_loss_and_grad, representation_bias
from merge_surgeon.cli import main as cli_main
from merge_surgeon.merging import ada_loss_and_gradient, task_vectors
from merge_surgeon.network import (
    ModelSpec,
    classifier_loss_and_grads,
    forward_layers,
    init_backbone,
)
from merge_surgeon.surgery import surgery_gradients
from merge_surgeon.tensors import ParamSet, bitwise_equal

from conftest import ADA_ITERS, RANK, SURGERY_ITERS, SEED, TASKS
from test_merging import ties_oracle
from test_network import relative_error, small_instance

# Golden averages pinned on the first verified fixture run; criterion 7
# asserts them within +-0.5 accuracy points.
GOLDEN_ACC_MERGED = 0.4389
GOLDEN_ACC_V1 = 0.6284
GOLDEN_ACC_V2 = 0.9011
GOLDEN_TOLERANCE = 0.005

WILD_SEED = 4242
STREAM_FRACTION = 0.1


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} ({name}): {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def surgery_cfg():
    return ms.TrainConfig(iterations=SURGERY_ITERS, seed=SEED)


@pytest.fixture(scope="module")
def bias_pre(ref_spec_m, ref_merged_m, ref_experts_m, ref_inputs_m):
    return ms.layerwise_bias_report(
        ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m, LossKind.L1
    )


# Module-level aliases of the session fixtures keep the signatures short.
@pytest.fixture(scope="module")
def ref_spec_m(ref_spec):
    return ref_spec


@pytest.fixture(scope="module")
def ref_merged_m(ref_merged):
    return ref_merged


@pytest.fixture(scope="module")
def ref_experts_m(ref_experts):
    return ref_experts


@pytest.fixture(scope="module")
def ref_inputs_m(ref_suite):
    return ref_suite.test_inputs()


@pytest.fixture(scope="module")
def v1_result(ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m, surgery_cfg):
    return ms.train_surgery(
        ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m,
        ms.LAST_LAYER, LossKind.L1, surgery_cfg, rank=RANK,
    )


@pytest.fixture(scope="module")
def v2_result(ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m, surgery_cfg):
    return ms.train_surgery(
        ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m,
        ms.ALL_LAYERS, LossKind.L1, surgery_cfg, rank=RANK,
    )


@pytest.fixture(scope="module")
def bias_v1(ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m, v1_result):
    return ms.layerwise_bias_report(
        ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m,
        LossKind.L1, stack=v1_result.stack,
    )


@pytest.fixture(scope="module")
def bias_v2(ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m, v2_result):
    return ms.layerwise_bias_report(
        ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m,
        LossKind.L1, stack=v2_result.stack,
    )


@pytest.fixture(scope="module")
def fixture_accuracies(ref_merged_m, ref_heads, ref_spec_m, ref_test_sets, v1_result, v2_result):
    none = ms.evaluate(ref_merged_m, ref_heads, ref_spec_m, ref_test_sets, model_id="merged")
    v1 = ms.evaluate(
        ref_merged_m, ref_heads, ref_spec_m, ref_test_sets,
        stack=v1_result.stack, model_id="merged", stack_id="v1",
    )
    v2 = ms.evaluate(
        ref_merged_m, ref_heads, ref_spec_m, ref_test_sets,
        stack=v2_result.stack, model_id="merged", stack_id="v2",
    )
    return none, v1, v2


def test_criterion_01_merging_identities(ref_pretrained, ref_experts_m):
    expert = ref_experts_m[0]
    averaged = ms.weight_average([expert, expert, expert])
    identity_avg = bitwise_equal(averaged, expert.backbone())

    at_zero = ms.task_arithmetic(ref_pretrained.params, ref_experts_m, 0.0)
    identity_ta = bitwise_equal(at_zero, ref_pretrained.params.backbone())

    single_ties = ms.ties_merge(ref_pretrained.params, [expert], 1.0, 1.0)
    identity_ties = bitwise_equal(single_ties, expert.backbone())

    _criterion(
        1, "merging identities",
        identity_avg and identity_ta and identity_ties,
        f"avg={identity_avg} ta0={identity_ta} ties1={identity_ties}",
    )


def test_criterion_02_ties_oracle_equivalence():
    rng = np.random.default_rng(202)
    keeps = (0.25, 0.5, 1.0)
    mismatches = 0
    for case in range(100):
        shapes = [("block1.weight", (4, 4)), ("block1.bias", (4,)),
                  ("block2.weight", (3, 4)), ("block2.bias", (3,))]  # 35 params
        pretrained = ParamSet([(n, rng.uniform(-1, 1, size=s)) for n, s in shapes])
        experts = [
            ParamSet([(n, rng.uniform(-1, 1, size=s)) for n, s in shapes]) for _ in range(3)
        ]
        keep = keeps[case % len(keeps)]
        scale = float(rng.uniform(0.1, 1.0))
        merged = ms.ties_merge(pretrained, experts, scale, keep)
        expected = ties_oracle(pretrained, experts, scale, keep)
        for name in merged:
            if merged[name].tobytes() != expected[name].tobytes():
                mismatches += 1
    _criterion(2, "ties oracle equivalence", mismatches == 0, f"mismatches={mismatches}/100")


def test_criterion_03_gradient_checks():
    # Backbone cross-entropy gradients.
    worst_backbone = 0.0
    for seed in (301, 302):
        spec, params, x, labels = small_instance(seed)
        _, grads = classifier_loss_and_grads(params, spec, 0, x, labels)
        eps = 1e-3
        for name in params:
            numeric = np.zeros_like(params[name])
            flat = numeric.reshape(-1)
            for i in range(flat.size):
                for sign in (1, -1):
                    bumped = {k: v.copy() for k, v in params.items()}
                    bumped[name].reshape(-1)[i] += sign * eps
                    loss, _ = classifier_loss_and_grads(bumped, spec, 0, x, labels)
                    flat[i] += sign * loss / (2 * eps)
            worst_backbone = max(worst_backbone, relative_error(grads[name], numeric))

    # AdaMerging coefficient gradients.
    rng = np.random.default_rng(303)
    spec = ModelSpec(4, (5, 3), (2, 2))
    pretrained = ParamSet(init_backbone(spec, rng))
    experts = []
    for t in range(2):
        entries = init_backbone(spec, rng)
        entries[f"head.{t}.weight"] = rng.standard_normal((2, 3))
        entries[f"head.{t}.bias"] = rng.standard_normal(2)
        experts.append(ParamSet(entries))
    batches = [rng.standard_normal((4, 6)) for _ in range(2)]
    coeff = rng.uniform(0.1, 0.5, size=(2, 2))
    pre64, taus = task_vectors(pretrained, experts)
    _, analytic = ada_loss_and_gradient(pre64, taus, experts, spec, coeff, batches)
    numeric = np.zeros_like(coeff)
    eps = 1e-4
    for i in range(2):
        for j in range(2):
            up, down = coeff.copy(), coeff.copy()
            up[i, j] += eps
            down[i, j] -= eps
            numeric[i, j] = (
                ada_loss_and_gradient(pre64, taus, experts, spec, up, batches)[0]
                - ada_loss_and_gradient(pre64, taus, experts, spec, down, batches)[0]
            ) / (2 * eps)
    worst_ada = relative_error(analytic, numeric)

    # Adapter gradients (block-coordinate, the training default).
    spec2 = ModelSpec(4, (5, 4), (3,))
    merged = ParamSet(init_backbone(spec2, np.random.default_rng(304)))
    expert = ParamSet(init_backbone(spec2, np.random.default_rng(305)))
    x = np.random.default_rng(306).standard_normal((4, 6)) + 0.25
    adapters = {}
    arng = np.random.default_rng(307)
    for layer, width in ((1, 5), (2, 4)):
        adapters[layer] = {
            "down": arng.uniform(-0.5, 0.5, size=(2, width)),
            "up": arng.uniform(-0.3, 0.3, size=(width, 2)),
        }
    merged64 = spec2.backbone64(merged)
    targets = forward_layers(spec2.backbone64(expert), spec2, x)
    losses, analytic_adapter = surgery_gradients(
        merged64, spec2, adapters, x, targets, LossKind.L1
    )
    worst_adapter = 0.0
    eps = 1e-6
    for layer, pair in adapters.items():
        for field in ("down", "up"):
            numeric = np.zeros_like(pair[field])
            for i in range(numeric.shape[0]):
                for j in range(numeric.shape[1]):
                    samples = []
                    for sign in (1, -1):
                        bumped = {
                            l: {k: v.copy() for k, v in p.items()} for l, p in adapters.items()
                        }
                        bumped[layer][field][i, j] += sign * eps
                        bumped_losses, _ = surgery_gradients(
                            merged64, spec2, bumped, x, targets, LossKind.L1
                        )
                        samples.append(bumped_losses[layer])
                    numeric[i, j] = (samples[0] - samples[1]) / (2 * eps)
            worst_adapter = max(
                worst_adapter, relative_error(analytic_adapter[layer][field], numeric)
            )

    ok = worst_backbone < 1e-3 and worst_ada < 1e-3 and worst_adapter < 1e-3
    _criterion(
        3, "gradient checks", ok,
        f"backbone={worst_backbone:.2e} ada={worst_ada:.2e} adapter={worst_adapter:.2e}",
    )


def test_criterion_04_bias_metric_consistency():
    rng = np.random.default_rng(400)
    z = rng.standard_normal((8, 13)) + 0.2
    identical_ok = all(
        representation_bias(z, z.copy(), kind) == pytest.approx(0.0, abs=1e-12)
        for kind in LossKind
    )
    shift_ok = all(
        representation_bias(z + c, z, LossKind.L1) == pytest.approx(abs(c), abs=1e-6)
        for c in (0.3, -1.25)
    )
    a = rng.standard_normal((8, 13))
    b = rng.standard_normal((8, 13))
    loss_matches_metric = all(
        alignment_loss_and_grad(a, b, kind)[0]
        == pytest.approx(representation_bias(a, b, kind), abs=1e-6)
        for kind in (LossKind.L1, LossKind.MSE)
    )
    _criterion(
        4, "bias metric", identical_ok and shift_ok and loss_matches_metric,
        f"identical={identical_ok} shift={shift_ok} loss==bias={loss_matches_metric}",
    )


def test_criterion_05_ada_merging_descent(ref_pretrained, ref_experts_m, ref_spec_m, ref_inputs_m):
    cfg = ms.TrainConfig(iterations=ADA_ITERS, seed=SEED)
    result = ms.ada_merge(ref_pretrained.params, ref_experts_m, ref_spec_m, ref_inputs_m, cfg)
    initial, final = result.entropies[0], result.entropies[-1]
    _criterion(
        5, "ada-merging entropy descent", final < 0.95 * initial,
        f"entropy {initial:.4f} -> {final:.4f} (ratio {final / initial:.3f})",
    )


def test_criterion_06_bias_reduction(bias_pre, bias_v1, bias_v2):
    pre_last = bias_pre.layer_means()[-1]
    v1_last = bias_v1.layer_means()[-1]
    v2_last = bias_v2.layer_means()[-1]
    v1_ok = v1_last <= 0.6 * pre_last
    # Every layer of every task must improve under the all-layer stack.
    v2_all_ok = bool((bias_v2.values <= bias_pre.values).all())
    v2_vs_v1_ok = v2_last <= v1_last
    _criterion(
        6, "bias reduction", v1_ok and v2_all_ok and v2_vs_v1_ok,
        f"last-layer {pre_last:.3f} -> v1 {v1_last:.3f} (ratio {v1_last / pre_last:.3f})"
        f" -> v2 {v2_last:.3f}; all-layers-improved={v2_all_ok}",
    )


def test_criterion_07_accuracy_ordering(fixture_accuracies):
    none, v1, v2 = fixture_accuracies
    ordering_ok = v2.average >= v1.average >= none.average
    gap_ok = v2.average - none.average >= 0.02
    golden_ok = (
        abs(none.average - GOLDEN_ACC_MERGED) <= GOLDEN_TOLERANCE
        and abs(v1.average - GOLDEN_ACC_V1) <= GOLDEN_TOLERANCE
        and abs(v2.average - GOLDEN_ACC_V2) <= GOLDEN_TOLERANCE
    )
    _criterion(
        7, "accuracy ordering", ordering_ok and gap_ok and golden_ok,
        f"none {none.average:.4f} <= v1 {v1.average:.4f} <= v2 {v2.average:.4f}"
        f" (goldens {GOLDEN_ACC_MERGED}/{GOLDEN_ACC_V1}/{GOLDEN_ACC_V2})",
    )


def test_criterion_08_capacity_trend(
    ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m, surgery_cfg, bias_v1
):
    rank2 = ms.train_surgery(
        ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m,
        ms.LAST_LAYER, LossKind.L1, surgery_cfg, rank=2,
    )
    bias_rank2 = ms.layerwise_bias_report(
        ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m,
        LossKind.L1, stack=rank2.stack,
    )
    high = bias_v1.layer_means()[-1]
    low = bias_rank2.layer_means()[-1]
    _criterion(
        8, "capacity trend", high <= low,
        f"rank16 last-layer bias {high:.3f} <= rank2 {low:.3f}",
    )


def test_criterion_09_loss_function_robustness(
    ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m, ref_heads, ref_test_sets,
    surgery_cfg, fixture_accuracies,
):
    _, _, v2_l1 = fixture_accuracies
    averages = {"l1": v2_l1.average}
    for kind in (LossKind.MSE, LossKind.NEG_COSINE):
        result = ms.train_surgery(
            ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m,
            ms.ALL_LAYERS, kind, surgery_cfg, rank=RANK,
        )
        averages[kind.value] = ms.evaluate(
            ref_merged_m, ref_heads, ref_spec_m, ref_test_sets, stack=result.stack
        ).average
    span = max(averages.values()) - min(averages.values())
    _criterion(
        9, "loss-function robustness", span <= 0.03,
        "accuracies " + " ".join(f"{k}={v:.4f}" for k, v in averages.items())
        + f" span={span:.4f}",
    )


def test_criterion_10_online_streaming(
    ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m, ref_heads, ref_test_sets,
    surgery_cfg, fixture_accuracies,
):
    none, _, _ = fixture_accuracies
    streamed = ms.stream_train_surgery(
        ref_merged_m, ref_experts_m, ref_spec_m, ref_inputs_m,
        STREAM_FRACTION, ms.ALL_LAYERS, LossKind.L1, surgery_cfg, rank=RANK,
    )
    accuracy = ms.evaluate(
        ref_merged_m, ref_heads, ref_spec_m, ref_test_sets, stack=streamed.stack
    ).average
    _criterion(
        10, "online streaming", accuracy > none.average,
        f"stream({STREAM_FRACTION}) {accuracy:.4f} > merged {none.average:.4f}"
        f" ({len(streamed.losses)} single-pass iterations)",
    )


def test_criterion_11_wild_data(
    ref_merged_m, ref_experts_m, ref_spec_m, ref_heads, ref_test_sets,
    surgery_cfg, fixture_accuracies, ref_suite,
):
    none, _, v2 = fixture_accuracies
    wild_suite = ms.gen_task_suite(
        WILD_SEED, TASKS, ref_suite.dim, ref_suite.num_classes,
        ref_suite.n_train, ref_suite.n_test,
    )
    pool = wild_suite.mixture.features
    result = ms.train_surgery(
        ref_merged_m, ref_experts_m, ref_spec_m, [pool] * TASKS,
        ms.ALL_LAYERS, LossKind.L1, surgery_cfg, rank=RANK,
    )
    accuracy = ms.evaluate(
        ref_merged_m, ref_heads, ref_spec_m, ref_test_sets, stack=result.stack
    ).average
    improves = accuracy > none.average
    below_test_data = accuracy < v2.average
    _criterion(
        11, "wild-data regime", improves and below_test_data,
        f"merged {none.average:.4f} < wild {accuracy:.4f} < test-data {v2.average:.4f}",
    )


def test_fixture_surgery_losses_strictly_decrease(v1_result, v2_result):
    # Supporting golden check on the same fixture stacks the criteria use.
    assert v1_result.losses[-1] < v1_result.losses[0]
    assert v2_result.losses[-1] < v2_result.losses[0]


def test_criterion_12_pipeline_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("MERGE_SURGEON_THREADS", "1")
    config = tmp_path / "reference.cfg"
    config.write_text(ms.RunConfig().to_text(), encoding="utf-8")
    runner = CliRunner()
    manifests = []
    for name in ("golden", "replay"):
        run_dir = tmp_path / name
        result = runner.invoke(
            cli_main,
            ["pipeline", "--config", str(config), "--run-dir", str(run_dir)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        manifests.append((run_dir / "manifest.txt").read_bytes())
    identical = manifests[0] == manifests[1]
    has_hashes = b"file.checkpoints/merged.msrg" in manifests[0]
    _criterion(
        12, "pipeline determinism", identical and has_hashes,
        f"manifest bytes identical={identical} ({len(manifests[0])} bytes)",
    )
