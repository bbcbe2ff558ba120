"""Smoke runs of the experiment scripts with tiny arguments."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cigl.train import METHODS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_compare_methods_runs():
    proc = run_script("compare_methods.py", "--methods", "cigl,rigl", "--seeds", "1",
                      "--epochs", "2", "--n-test", "300")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("seed 0: cigl: ece=")
    rows = [line.split()[0] for line in proc.stdout.splitlines() if line.startswith(("cigl ", "rigl "))]
    assert rows == ["cigl", "rigl"]


def test_correlation_probe_runs_and_a_dense_net_warns_nothing():
    # 3 epochs of 42 batches reach the topology update at iteration 50 (< update end 63)
    proc = run_script("correlation_probe.py", "--sparsities", "0,0.8", "--seeds", "1",
                      "--epochs", "3", "--draws", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["sparsity", "base", "acc", "masked", "acc", "drop"]
    assert [line.split()[0] for line in lines[1:]] == ["0.00", "0.80"]
    assert "clamped" not in proc.stderr


# `ckpt_digests.py --seed 0` output, recorded with numpy 2.4.6. A change that moves
# any of these bytes must say why; the pinned lines keep every artifact bit-exact.
SEED0_DIGESTS = {
    "cigl": "d44b4e102d5586d84900204fc68175aca34c2e730d3f4220e80afc189fe95ead",
    "rigl": "1246bad8e2a5742067c7830eadf22cb75630b65dc45ed4b7f373d32292467905",
    "rigl_wdp": "41ae863a03ad8aa9acebecbd324b781f399d0dda0d041ddbece87a83216d1712",
    "rigl_mcdp": "c3a4fe5f14598447c9d6aa5d939ec95af49ba029bd2a63cfc7852790d0361159",
    "dense": "96243fc326adeef604ce740a744d3c6999ac5a7d7bb24738b0aca768fed98be3",
    "cigl_no_rm": "91578cf0b1616122d7c905ecfb614949624c1b53811a1c607bf6637c31e06a87",
    "cigl_no_wma": "41ae863a03ad8aa9acebecbd324b781f399d0dda0d041ddbece87a83216d1712",
    "cigl_run": "62db24ef9328cf928b1409c15627e96db4ceb5205ab676ac4d0ba184a04228b5",
    "rigl_mcdp_eval": "72093c95dd2b189848f9c7dd209b2bf468ba30f26c19d3971f02031fc245f353",
    "cigl_eval": "0eb1acf35f6de6cf15053cee978a6cb2431d87b4af4fd6fabe43df7d8e34f1f2",
    "idx_run": "a980592e13a3ecb8a49fc7100e65124096590da65f4ad42c8fe51de4f29daddb",
}


# `ckpt_digests.py --seed 1` output, recorded with numpy 2.4.6: a second seed, so a
# change that keeps the bits of one seed by accident still shows.
SEED1_DIGESTS = {
    "cigl": "e74f0e063168c60606ab247b3286c54c46c97bb9b80eac60aaf52a05300fb89b",
    "rigl": "d36755180cdc1dc065e3176306ba09d4826811bdf6f1f8a0f81691ac99433ed1",
    "rigl_wdp": "781baa95a67545154aaf7728b3d924fe182ab600dbef15c17c1453a31eb432f0",
    "rigl_mcdp": "b1ecf657cd4b529725db754dfbd33e57be513e8fa2e6b4fcea92e2720c068433",
    "dense": "caef43bc955f3754e5551dcd5b4eb22881b067a375b6a9a954b414d99541abdf",
    "cigl_no_rm": "4df1f47c895d10e49a8e849d0c7f5ab8f47df551b1d9377e8643bbe178d6470e",
    "cigl_no_wma": "781baa95a67545154aaf7728b3d924fe182ab600dbef15c17c1453a31eb432f0",
    "cigl_run": "f7caf281146184b0d06f0624f44ce7c381b6d15404ec81755f3ba51f34572af4",
    "rigl_mcdp_eval": "d9816b9491e26ac67338692aa4b47a0840a3631bbd8a0fb3aed7307fb88b8027",
    "cigl_eval": "1c71b8c8620fa794a1f14f263cffc381766cdfb2d48defead493044a238c2afc",
    "idx_run": "8d5e0a8a0e2526c2a8a95ba7ecfa6a7964f5d3d3b65faac655e4f963a2b529ab",
}


def test_ckpt_digests_run_twice_print_the_same_lines():
    runs = [run_script("ckpt_digests.py", "--seed", "0") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in runs[0].stdout.splitlines()]
    assert [row[0] for row in rows] == [*METHODS, "cigl_run", "rigl_mcdp_eval", "cigl_eval",
                                     "idx_run"]
    assert all(len(row) == 2 and re.fullmatch(r"[0-9a-f]{64}", row[1]) for row in rows)
    assert runs[1].stdout == runs[0].stdout
    assert dict(rows) == SEED0_DIGESTS


def test_ckpt_digests_at_seed_1_print_the_pinned_lines():
    proc = run_script("ckpt_digests.py", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == SEED1_DIGESTS


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("sparsity", [0.0, 0.9])
def test_compare_methods_runs_the_acceptance_experiment_config(sparsity):
    import test_acceptance

    compare = load_script("compare_methods")
    for method in METHODS:
        for seed in (0, 7):
            assert (compare.experiment_config(method, seed, 100, sparsity)
                    == test_acceptance.experiment_config(method, seed, sparsity))


def test_compare_methods_draws_the_acceptance_experiment_data():
    import test_acceptance

    compare = load_script("compare_methods")
    for seed in (0, 7):
        for ours, theirs in zip(compare.make_data(seed), test_acceptance.experiment_data(seed)):
            assert ours.features.tobytes() == theirs.features.tobytes()
            assert ours.labels.tobytes() == theirs.labels.tobytes()
            assert ours.n_classes == theirs.n_classes


def test_bench_pairs_summarises_one_tiny_pair_of_this_checkout():
    proc = run_script("bench_pairs.py", str(ROOT), str(ROOT), "--workload", "moons_seeds",
                      "--pairs", "1", "--seconds", "0.01", "--seed", "7", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert lines[0].startswith("pair 1 (parent first) parent/change: ")
    assert [field.split("=")[0] for field in lines[0].split(": ", 1)[1].split()] == names
    assert lines[1] == "workload moons_seeds, seed 7, 1 pairs of 0.01 s runs"
    assert lines[2].split() == ["metric", "better", "parent", "change", "delta", "wins",
                                "parent_iqr"]
    rows = [line.split() for line in lines[3:-1]]
    assert [row[0] for row in rows] == names
    for name, better, parent, change, _, wins, spread in rows:
        assert better in ("lower", "higher") and wins in ("0/1", "1/1") and float(spread) == 0
        assert float(parent) > 0 and float(change) > 0
    quality = {row[0]: row for row in rows if row[0] in ("ok_frac", "test_accuracy", "test_ece")}
    assert all(row[2] == row[3] and row[5] == "0/1" for row in quality.values())
    assert lines[-1] == "same outputs in every pair: yes"
