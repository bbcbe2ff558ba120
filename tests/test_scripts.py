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


# `ckpt_digests.py --seed 0` output, recorded with numpy 2.4.6 on OpenBLAS's SkylakeX
# kernels (another kernel changes every line). A change that moves any of these
# bytes must say why; the pinned lines keep every artifact bit-exact.
SEED0_DIGESTS = {
    "cigl": "a0c5c114842978ad8ccbff3defd0a6436ffec6f741082f579351156d87793721",
    "rigl": "b47308404fd45e9854a94d58487fc7b6bdab1eccd014a122d8a25316bcbcfe29",
    "rigl_wdp": "51cf60a688f5cf99729a8e3ca8058418293af2b9ab4b308b30ce25531609fdff",
    "rigl_mcdp": "6ba04447af5393a0fd020b95dc95acf50b258f2aa7a7a8e0eb233211c08ab371",
    "dense": "96243fc326adeef604ce740a744d3c6999ac5a7d7bb24738b0aca768fed98be3",
    "cigl_no_rm": "b2ada1e175d3369339ed03799a0afe4b7f7747b1e9acb3d4ed6e3acd07aeb355",
    "cigl_no_wma": "51cf60a688f5cf99729a8e3ca8058418293af2b9ab4b308b30ce25531609fdff",
    "cigl_run": "cf747af3140bc85df44bccfe064cbfd4a7359ff729bca30a57cb8b3449082295",
    "rigl_mcdp_eval": "72093c95dd2b189848f9c7dd209b2bf468ba30f26c19d3971f02031fc245f353",
    "cigl_eval": "0eb1acf35f6de6cf15053cee978a6cb2431d87b4af4fd6fabe43df7d8e34f1f2",
    "idx_run": "c79c908823a3a33c85fba25486d9430b9e611e40a78c595225147fb97217e48e",
}


# `ckpt_digests.py --seed 1` output, recorded with numpy 2.4.6 on OpenBLAS's SkylakeX
# kernels: a second seed, so a change that keeps the bits of one seed by accident
# still shows.
SEED1_DIGESTS = {
    "cigl": "5fe1b5b4073befa24f857491aa85dc0379548ee91f5c9ee41c00bf27bdeb0d5c",
    "rigl": "52411a05075be4a1f7e812a15007bc912acc44bb1ce4d80a4ab24febbd22cf14",
    "rigl_wdp": "3632029ac76f83f288f4922bffa1a6c5eb9d71219ac7b84cb0faa63b95f74b68",
    "rigl_mcdp": "31f11d567db53b0597863cc9e59b03112995bfe64ecee1fce5f25db74e74795d",
    "dense": "caef43bc955f3754e5551dcd5b4eb22881b067a375b6a9a954b414d99541abdf",
    "cigl_no_rm": "2c81510a0978808d46e26d59e755615a403d4094eca7c0efa6195b79645d2ca4",
    "cigl_no_wma": "3632029ac76f83f288f4922bffa1a6c5eb9d71219ac7b84cb0faa63b95f74b68",
    "cigl_run": "9e2093eac37fa59c0a93cf7c064cfef58527560d44c098eba151f22a45542d2f",
    "rigl_mcdp_eval": "d9816b9491e26ac67338692aa4b47a0840a3631bbd8a0fb3aed7307fb88b8027",
    "cigl_eval": "1c71b8c8620fa794a1f14f263cffc381766cdfb2d48defead493044a238c2afc",
    "idx_run": "0dcfe8ad0b313012253e3ce147e907849fbda56be0c5ae1fc3cf9f75df292883",
}


def kernel_note(proc):
    """The digest script's `openblas core:` line, for an assertion message."""
    core = [line for line in proc.stderr.splitlines() if line.startswith("openblas core: ")]
    return f"pins recorded on SkylakeX; this run: {core[0] if core else 'no kernel line'}"


def test_ckpt_digests_run_twice_print_the_same_lines():
    runs = [run_script("ckpt_digests.py", "--seed", "0") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in runs[0].stdout.splitlines()]
    assert [row[0] for row in rows] == [*METHODS, "cigl_run", "rigl_mcdp_eval", "cigl_eval",
                                     "idx_run"]
    assert all(len(row) == 2 and re.fullmatch(r"[0-9a-f]{64}", row[1]) for row in rows)
    assert runs[1].stdout == runs[0].stdout
    assert dict(rows) == SEED0_DIGESTS, kernel_note(runs[0])


def test_ckpt_digests_at_seed_1_print_the_pinned_lines():
    proc = run_script("ckpt_digests.py", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == SEED1_DIGESTS, \
        kernel_note(proc)


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
    rows = [line.split() for line in lines[3:-2]]
    assert [row[0] for row in rows] == names
    for name, better, parent, change, _, wins, spread in rows:
        assert better in ("lower", "higher") and wins in ("0/1", "1/1") and float(spread) == 0
        assert float(parent) > 0 and float(change) > 0
    quality = {row[0]: row for row in rows if row[0] in ("ok_frac", "test_accuracy", "test_ece")}
    assert all(row[2] == row[3] and row[5] == "0/1" for row in quality.values())
    assert lines[-2:] == ["same digests in every pair: yes",
                          "same per-seed accuracy and ECE in every pair: yes"]
