"""The whole pipeline on random circuits.

Each circuit is `conftest.fuzz_circuit`: `random_circuit` (2-4 qubits, 3-11
layer gates of every kind) behind a 4-feature RY encoder, trained on a
40-sample syn4 draw on a toy schedule: the warm start, one ReCL sweep, and
the four compressing methods at one of the ratios 0.3, 0.7 and 1.0.  Every method result must
hold finite parameters, its masked slots exactly at their levels, a depth
that a from-scratch DAG walk of its kept gates agrees with, and a p = 0
noisy accuracy equal to the noiseless one; a second CompVQC run must repeat
the first bit for bit.  The CLI's `report` on a random `.circ` file must
exit 0 and print the same bytes twice.
"""

import numpy as np
import pytest

import oracle
from conftest import fuzz_circuit
from vqcompress.admm import ADMMConfig, BaselineMode, baseline_compress, run_cqcp_admm, \
    vanilla_train
from vqcompress.circuit import Circuit
from vqcompress.cli import main
from vqcompress.data import generate_synthetic
from vqcompress.lut import build_lut
from vqcompress.noise import noisy_accuracy
from vqcompress.recl import reconstruct_lut
from vqcompress.training import TrainConfig, loss_and_accuracy
from vqcompress.transpile import kept_gates, lower_circuit, lowered_depth, tcd

N_CIRCUITS = 30
RATIOS = (0.3, 0.7, 1.0)
TRAIN = TrainConfig(epochs=3, seed=3)


def method_results(circ, dataset, ratio):
    """The warm start and every compressing method's result, CompVQC twice."""
    admm = ADMMConfig(target_ratio=ratio, max_iters=3, epochs_per_iter=3, retrain_epochs=3)
    warm = vanilla_train(circ, dataset.train, TRAIN)
    recon = reconstruct_lut(circ, warm, build_lut(circ), dataset.train)
    results = {mode.value: baseline_compress(mode, circ, dataset.train, recon, admm, TRAIN, warm)
               for mode in BaselineMode}
    results["CompVQC"] = run_cqcp_admm(circ, dataset.train, recon, admm, TRAIN, warm)
    again = run_cqcp_admm(circ, dataset.train, recon, admm, TRAIN, warm)
    return results, again


def faults(circ, dataset, result) -> list[str]:
    """What a method result breaks of the five invariants but repeatability."""
    params, found = result.params, []
    if not np.all(np.isfinite(params)):
        found.append("non-finite params")
    for pos, gi in enumerate(circ.trainable_indices()):
        slots = list(circ.layers[gi].theta_slots)
        if result.mask.bits[pos] and tuple(params[slots]) != result.recon.levels[gi].value:
            found.append(f"masked gate {gi} off its level")
    lowered = lower_circuit(circ, params)
    depths = (tcd(circ, params), lowered_depth(circ.n_qubits, lowered),
              oracle.dag_depth(kept_gates(circ.n_qubits, lowered)))
    if len(set(depths)) != 1:
        found.append(f"depths {depths} disagree")
    ideal = loss_and_accuracy(circ, params, dataset.test)[1]
    noisy = noisy_accuracy(circ, params, dataset.test, 0.0)
    if noisy != ideal:
        found.append(f"p = 0 noisy accuracy {noisy} != noiseless {ideal}")
    return found


def test_random_circuits_through_every_method():
    rng = np.random.default_rng(11)
    dataset = generate_synthetic(4, 40, seed=3)
    found = []
    for i in range(N_CIRCUITS):
        circ = fuzz_circuit(rng)
        results, again = method_results(circ, dataset, RATIOS[i % len(RATIOS)])
        found += [f"circuit {i} {name}: {fault}" for name, result in results.items()
                  for fault in faults(circ, dataset, result)]
        if not (np.array_equal(again.params, results["CompVQC"].params)
                and np.array_equal(again.mask.bits, results["CompVQC"].mask.bits)):
            found.append(f"circuit {i} CompVQC: a second run differs")
    assert not found, "\n".join(found)


def circ_text(circ: Circuit) -> str:
    """A `fuzz_circuit` in the `.circ` file grammar: each of its angles is
    `free`, a feature in the encoder and a theta slot in the layers."""
    def line(g):
        angles = {0: "", 1: " free", 3: " free3"}[len(g.bindings)]
        return f"{g.kind.value} {','.join(map(str, g.qubits))}{angles}"

    return "\n".join([f"qubits {circ.n_qubits}", "#encoder", *map(line, circ.encoder),
                      "#layers", *map(line, circ.layers),
                      f"#measure perqubitz {circ.measurement.n_classes}"]) + "\n"


@pytest.mark.parametrize("seed", [11, 12])
def test_report_on_a_random_circ_file_repeats_byte_for_byte(seed, tmp_path, capsys):
    path = tmp_path / "random.circ"
    path.write_text(circ_text(fuzz_circuit(np.random.default_rng(seed))))
    argv = ["report", "--dataset", "syn4", "--circuit", str(path), "--format", "all",
            "--methods", "Vanilla,ZeroOnlyPruning,PruneOnly,QuantOnly,CompVQC",
            "--epochs", "3", "--max-iters", "3", "--epochs-per-iter", "3",
            "--retrain-epochs", "3", "--noise-p", "0.02"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].count("CompVQC") >= 2
