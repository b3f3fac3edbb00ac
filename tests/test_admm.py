import math
from dataclasses import replace

import numpy as np
import pytest

from vqcompress.admm import (ADMMConfig, ADMMState, BaselineMode, CompressionMask,
                             baseline_compress, build_mask, check_stop,
                             compose_params, frozen_slots, mask_size,
                             run_cqcp_admm, update_lambda, vanilla_train)
from vqcompress.circfile import load_reference
from vqcompress.circuit import Circuit, Gate, MeasurementSpec, const, theta
from vqcompress.data import Dataset, generate_synthetic
from vqcompress.errors import ConfigError
from vqcompress.experiment import ExperimentConfig, run_experiment
from vqcompress.gates import FOUR_PI, GateKind, wrap_params
from vqcompress.lut import CompressionLevel, LevelTag, build_lut, level_distance
from vqcompress.recl import ReconstructedLUT, reconstruct_lut
from vqcompress.training import TrainConfig, init_params, sgd_train
from vqcompress.transpile import standalone_gate_depth, tcd

PI = math.pi


def three_gate_circuit():
    gates = [Gate(GateKind.RX, (0,), (theta(0),)),
             Gate(GateKind.RY, (1,), (theta(1),)),
             Gate(GateKind.CRX, (0, 1), (theta(2),))]
    return Circuit(2, [], gates, MeasurementSpec(2))


def warm_and_recon(circ, ds, tcfg):
    """The warm start and its one ReCL sweep, as run_experiment makes them."""
    warm = vanilla_train(circ, ds, tcfg)
    return warm, reconstruct_lut(circ, warm, build_lut(circ), ds.train)


def recon_for(circ, values, depths):
    recon = ReconstructedLUT()
    for gi, (v, d) in enumerate(zip(values, depths)):
        recon.levels[gi] = CompressionLevel(d, (v,), LevelTag.PRUNE if d == 0
                                            else LevelTag.QUANTIZE)
        recon.metrics[gi] = 1.0
    return recon


def test_config_validation():
    with pytest.raises(ConfigError):
        ADMMConfig(target_ratio=1.5)
    with pytest.raises(ConfigError):
        ADMMConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        ADMMConfig(rho=-1.0)


def test_mask_trivial_ratios():
    circ = three_gate_circuit()
    recon = recon_for(circ, [0.0, 0.0, 0.0], [0, 0, 0])
    th, lam = np.array([0.3, 0.2, 0.1]), np.zeros(3)
    none = build_mask(th, lam, recon, circ, ADMMConfig(target_ratio=0.0), 11)
    assert none.count == 0
    every = build_mask(th, lam, recon, circ, ADMMConfig(target_ratio=1.0), 11)
    assert every.count == 3 and every.bits.all()


def test_mask_hand_computed_scores():
    # alpha=0.5, ratio=1/3: score = 0.5*dist/(2pi) + 0.5*depth/11
    circ = three_gate_circuit()
    recon = recon_for(circ, [0.0, PI, 0.0], [0, 2, 0])
    th = np.array([0.4, PI + 0.2, 2.0])
    lam = np.zeros(3)
    cfg = ADMMConfig(target_ratio=1 / 3, alpha=0.5)
    mask = build_mask(th, lam, recon, circ, cfg, 11)
    expected = [0.5 * 0.4 / (2 * PI),
                0.5 * 0.2 / (2 * PI) + 0.5 * 2 / 11,
                0.5 * 2.0 / (2 * PI)]
    assert np.allclose(mask.scores, expected)
    assert mask.count == 1 and mask.bits[int(np.argmin(expected))]


def test_mask_distance_wraps_and_uses_lambda():
    circ = three_gate_circuit()
    recon = recon_for(circ, [0.0, 0.0, 0.0], [0, 0, 0])
    th = np.array([FOUR_PI - 0.1, 2.0, 2.0])
    lam = np.array([0.0, -1.9, 0.0])  # pulls gate 1 to 0.1 effective
    mask = build_mask(th, lam, recon, circ, ADMMConfig(target_ratio=2 / 3), 11)
    assert mask.bits[0] and mask.bits[1] and not mask.bits[2]


def test_mask_cardinality_invariant():
    circ = load_reference("syn4")
    n = len(circ.trainable_indices())
    recon = recon_for(circ, [0.0] * n, [0] * n)
    rng = np.random.default_rng(0)
    for ratio in (0.0, 0.25, 0.5, 0.85, 1.0):
        mask = build_mask(rng.uniform(0, FOUR_PI, n), np.zeros(n), recon, circ,
                          ADMMConfig(target_ratio=max(ratio, 1e-9)) if ratio else
                          ADMMConfig(target_ratio=0.0), 11)
        assert mask.count == mask_size(ratio, n) if ratio else mask.count == 0


def test_project_z_cases():
    circ = three_gate_circuit()
    recon = recon_for(circ, [0.0, PI, 2 * PI], [0, 2, 5])
    state = ADMMState(theta=np.array([0.1, 3.0, 6.0]), z=np.array([9.0, 9.0, 9.0]),
                      lam=np.zeros(3))
    all_mask = CompressionMask(np.array([True, True, True]), np.zeros(3))
    assert np.allclose(compose_params(state.z, all_mask, recon, circ), [0.0, PI, 2 * PI])
    no_mask = CompressionMask(np.array([False, False, False]), np.zeros(3))
    assert np.allclose(compose_params(state.z, no_mask, recon, circ), [9.0, 9.0, 9.0])
    one = CompressionMask(np.array([True, False, False]), np.zeros(3))
    assert np.allclose(compose_params(state.z, one, recon, circ), [0.0, 9.0, 9.0])


def test_update_lambda_formula():
    state = ADMMState(theta=np.array([1.5, 2.0]), z=np.array([1.0, 2.0]),
                      lam=np.array([0.2, -0.3]))
    lam = update_lambda(state, rho=1.0)
    assert np.allclose(lam, [0.7, -0.3])
    # repeated application grows linearly while theta and z stay fixed
    for _ in range(3):
        state.lam = update_lambda(state, rho=1.0)
    assert state.lam[0] == pytest.approx(0.2 + 3 * 0.5)


def test_update_lambda_uses_circular_residual():
    state = ADMMState(theta=np.array([FOUR_PI - 0.1]), z=np.array([0.1]),
                      lam=np.array([0.0]))
    lam = update_lambda(state, rho=1.0)
    assert lam[0] == pytest.approx(-0.2, abs=1e-12)


def test_check_stop_cases():
    a = ADMMState(np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.zeros(2))
    same = ADMMState(np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.zeros(2))
    assert check_stop(a, same, 1e-4)
    moved = ADMMState(np.array([2.0, 2.0]), np.array([3.0, 4.0]), np.zeros(2))
    assert not check_stop(a, moved, 1e-4)
    # boundary is strict: squared step norm exactly equal to zeta fails
    eps = ADMMState(np.array([1.01, 2.0]), np.array([3.0, 4.0]), np.zeros(2))
    from vqcompress.gates import circ_residual
    exact = float(np.sum(circ_residual(eps.theta, a.theta) ** 2))
    assert not check_stop(a, eps, exact)
    assert check_stop(a, eps, exact * (1 + 1e-12))


def test_ratio_zero_reproduces_vanilla_bit_for_bit():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=2)
    tcfg = TrainConfig(seed=2, epochs=20)
    warm = vanilla_train(circ, ds, tcfg)
    report = run_experiment(ExperimentConfig(methods=("CompVQC",), seed=2, train=tcfg,
                                             admm=ADMMConfig(target_ratio=0.0)))
    res = report.results["CompVQC"]
    assert np.array_equal(res.params, warm)
    assert res.mask.count == 0
    assert tcd(circ, res.params) == tcd(circ, warm)


def test_masked_parameters_exactly_at_levels_after_finalize():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=1)
    tcfg = TrainConfig(seed=1, epochs=25)
    warm, recon = warm_and_recon(circ, ds, tcfg)
    res = run_cqcp_admm(circ, ds, recon,
                        ADMMConfig(target_ratio=0.5, max_iters=3, epochs_per_iter=5,
                                   retrain_epochs=10),
                        tcfg, warm)
    trainable = circ.trainable_indices()
    assert res.mask.count == mask_size(0.5, len(trainable))
    masked_depths = []
    for pos, gi in enumerate(trainable):
        if res.mask.bits[pos]:
            level = res.recon.levels[gi]
            slot = circ.layers[gi].theta_slots[0]
            assert res.params[slot] == level.value[0]
            masked_depths.append((circ.layers[gi].kind, level))
    # compressed angles hit their special templates when transpiled
    for kind, level in masked_depths:
        assert standalone_gate_depth(kind, level.value) == level.depth


def test_compose_and_frozen_slots():
    circ = three_gate_circuit()
    recon = recon_for(circ, [0.0, PI, 2 * PI], [0, 2, 5])
    mask = CompressionMask(np.array([True, False, True]), np.zeros(3))
    composed = compose_params(np.array([1.0, 2.0, 3.0]), mask, recon, circ)
    assert np.allclose(composed, [0.0, 2.0, 2 * PI])
    assert list(frozen_slots(mask, circ)) == [True, False, True]


def test_compose_sets_every_angle_of_a_level_or_raises():
    # U3(t0, t1, t2) takes its level's three angles; U3(t3, 0.7, t4) has two
    # slots for a level's three angles, and composing it must not write
    # level angle j into slot j whatever angle that slot drives
    gates = [Gate(GateKind.U3, (0,), (theta(0), theta(1), theta(2))),
             Gate(GateKind.U3, (1,), (theta(3), const(0.7), theta(4)))]
    circ = Circuit(2, [], gates, MeasurementSpec(2))
    recon = ReconstructedLUT()
    for gi in (0, 1):
        recon.levels[gi] = CompressionLevel(0, (0.0, 0.0, 0.0), LevelTag.PRUNE)
    params = np.arange(1.0, 6.0)
    composed = compose_params(params, CompressionMask(np.array([True, False]), np.zeros(2)),
                              recon, circ)
    assert list(composed) == [0.0, 0.0, 0.0, 4.0, 5.0]
    with pytest.raises(ValueError):
        compose_params(params, CompressionMask(np.array([False, True]), np.zeros(2)), recon, circ)


def test_report_records_present():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=3)
    tcfg = TrainConfig(seed=3, epochs=15)
    warm, recon = warm_and_recon(circ, ds, tcfg)
    res = run_cqcp_admm(circ, ds, recon,
                        ADMMConfig(target_ratio=0.5, max_iters=4, epochs_per_iter=4,
                                   retrain_epochs=5), tcfg, warm)
    assert 1 <= len(res.records) <= 4
    for rec in res.records:
        assert rec.tcd > 0 and rec.theta_z_gap >= 0 and 0 <= rec.acc <= 1


def test_increasing_rho_shrinks_theta_z_gap():
    # rho values stay in the SGD-stable regime (lr * rho < 2); beyond it the
    # inner quadratic solve diverges and the anchor cannot bind
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=4)
    tcfg = TrainConfig(seed=4, epochs=15)
    warm, recon = warm_and_recon(circ, ds, tcfg)
    gaps = []
    for rho in (0.002, 0.2, 20.0):
        res = run_cqcp_admm(circ, ds, recon,
                            ADMMConfig(target_ratio=0.5, rho=rho, max_iters=4,
                                       epochs_per_iter=5, retrain_epochs=2),
                            replace(tcfg, learning_rate=0.02), warm)
        gaps.append(res.records[-1].theta_z_gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_zero_only_pruning_ratio_zero_is_vanilla():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=5)
    tcfg = TrainConfig(seed=5, epochs=15)
    warm = vanilla_train(circ, ds, tcfg)
    report = run_experiment(ExperimentConfig(methods=("ZeroOnlyPruning",), seed=5, train=tcfg,
                                             admm=ADMMConfig(target_ratio=0.0)))
    res = report.results["ZeroOnlyPruning"]
    assert np.array_equal(res.params, warm)
    assert res.mask.count == 0


def test_zero_only_pruning_masks_nearest_to_zero():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=6)
    tcfg = TrainConfig(seed=6, epochs=12)
    warm = vanilla_train(circ, ds, tcfg)
    res = baseline_compress(BaselineMode.ZERO_ONLY_PRUNING, circ, ds, None,
                            ADMMConfig(target_ratio=0.3, retrain_epochs=5), tcfg, warm)
    trainable = circ.trainable_indices()
    dists = [min(warm[circ.layers[gi].theta_slots[0]],
                 FOUR_PI - warm[circ.layers[gi].theta_slots[0]]) for gi in trainable]
    chosen = set(np.flatnonzero(res.mask.bits))
    k = mask_size(0.3, len(trainable))
    assert chosen == set(np.argsort(dists, kind="stable")[:k])
    for pos, gi in enumerate(trainable):
        if res.mask.bits[pos]:
            assert res.params[circ.layers[gi].theta_slots[0]] == 0.0


def _u3_circuit():
    gates = [Gate(GateKind.U3, (0,), (theta(0), theta(1), theta(2))),
             Gate(GateKind.CRY, (0, 1), (theta(3),)),
             Gate(GateKind.RY, (1,), (theta(4),)),
             Gate(GateKind.RX, (0,), (theta(5),))]
    return Circuit(2, [], gates, MeasurementSpec(2))


@pytest.mark.parametrize("name", ["syn4", "u3"])
def test_zero_only_pruning_matches_hand_written_oracle(name):
    # the arithmetic Zero-Only-Pruning had before it became a zero-level LUT:
    # unnormalized distance to all-zero angles, lowest k with ties to the earlier
    # gate, frozen slots zeroed with np.where, then the seeded frozen retrain
    circ = load_reference("syn4") if name == "syn4" else _u3_circuit()
    ds = generate_synthetic(4, 100, seed=13)
    if name == "u3":
        ds = Dataset(ds.train[:30], ds.test, 2)
    tcfg = TrainConfig(seed=13, epochs=8)
    cfg = ADMMConfig(target_ratio=0.5, retrain_epochs=6)
    warm = vanilla_train(circ, ds, tcfg)
    trainable = circ.trainable_indices()
    slots = [list(circ.layers[gi].theta_slots) for gi in trainable]
    dists = [level_distance(tuple(0.0 for _ in s), wrap_params(warm[s])) for s in slots]
    order = sorted(range(len(trainable)), key=lambda p: (dists[p], p))
    bits = np.zeros(len(trainable), dtype=bool)
    for p in order[:mask_size(cfg.target_ratio, len(trainable))]:
        bits[p] = True
    frozen = np.zeros(circ.n_thetas, dtype=bool)
    for p in np.flatnonzero(bits):
        frozen[slots[p]] = True
    retrain = replace(tcfg, epochs=cfg.retrain_epochs, seed=tcfg.seed + 999_983)
    expected = sgd_train(circ, np.where(frozen, 0.0, warm), ds.train, retrain, frozen=frozen)

    res = baseline_compress(BaselineMode.ZERO_ONLY_PRUNING, circ, ds, None, cfg, tcfg, warm)
    assert np.array_equal(res.mask.bits, bits)
    assert np.array_equal(res.mask.scores, dists)
    assert np.array_equal(res.params, expected)
    assert res.records == [] and res.converged


def test_prune_only_lut_restriction():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=7)
    th = init_params(circ, TrainConfig(seed=7))
    recon = reconstruct_lut(circ, th, build_lut(circ), ds.train)
    pruned = recon.restricted(LevelTag.PRUNE)
    # every kind has a prune level, so every trainable gate keeps an entry
    assert sorted(pruned.levels) == circ.trainable_indices()
    for gi, pairs in pruned.swept.items():
        assert pairs == [(m, lv) for m, lv in recon.swept[gi] if lv.tag is LevelTag.PRUNE]
        assert pruned.levels[gi].tag is LevelTag.PRUNE
        if circ.layers[gi].kind is GateKind.RZ:
            assert [lv.value[0] for _, lv in pairs] == [0.0, 2 * PI]


def test_quant_only_excludes_rz_gates_from_mask():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=7)
    tcfg = TrainConfig(seed=7, epochs=12)
    warm, recon = warm_and_recon(circ, ds, tcfg)
    res = baseline_compress(BaselineMode.QUANT_ONLY, circ, ds, recon,
                            ADMMConfig(target_ratio=1.0, max_iters=2,
                                       epochs_per_iter=3, retrain_epochs=3), tcfg, warm)
    trainable = circ.trainable_indices()
    for pos, gi in enumerate(trainable):
        if circ.layers[gi].kind in (GateKind.RZ, GateKind.CRZ):
            assert not res.mask.bits[pos]  # no quantization levels to project to
        else:
            assert res.mask.bits[pos]


def test_final_circuit_transpiles_shallower_when_masked():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=8)
    tcfg = TrainConfig(seed=8, epochs=20)
    warm, recon = warm_and_recon(circ, ds, tcfg)
    res = run_cqcp_admm(circ, ds, recon,
                        ADMMConfig(target_ratio=0.85, max_iters=5, epochs_per_iter=5,
                                   retrain_epochs=10), tcfg, warm)
    assert res.mask.count > 0
    assert tcd(circ, res.params) < tcd(circ, warm)


def test_pipeline_supports_three_angle_gates():
    # U3 levels are angle triples; masks, projection, and freezing must
    # handle all three slots of a masked gate
    gates = [Gate(GateKind.U3, (0,), (theta(0), theta(1), theta(2))),
             Gate(GateKind.CRY, (0, 1), (theta(3),)),
             Gate(GateKind.RY, (1,), (theta(4),))]
    circ = Circuit(2, [], gates, MeasurementSpec(2))
    ds = generate_synthetic(4, 100, seed=11)
    samples = [s for s in ds.train]
    from vqcompress.data import Dataset
    small = Dataset(samples[:30], ds.test, 2)
    assert GateKind.U3 in build_lut(circ).entries
    tcfg = TrainConfig(seed=11, epochs=5)
    warm, recon = warm_and_recon(circ, small, tcfg)
    res = run_cqcp_admm(circ, small, recon,
                        ADMMConfig(target_ratio=1.0, max_iters=2, epochs_per_iter=2,
                                   retrain_epochs=2), tcfg, warm)
    u3_level = res.recon.levels[0]
    assert len(u3_level.value) == 3
    assert tuple(res.params[:3]) == u3_level.value
