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
    "cigl": "495a6f9b86afaa8d5f986f7e52c2a5c9aab54c4fdc4030e61d39923daa5b1997",
    "rigl": "457fb2530f8fc01ff4cd8bd5c1e2114c8cbf2f63780294cbfa04203c8a545250",
    "rigl_wdp": "60eb76b135b28ccd9303b00b2886e050b2afdc34acb588dba67fc711d56e424d",
    "rigl_mcdp": "a731569fe5e16d2aae0d586975d19bfbd2f164ae5d0e5122357d5392b6da1345",
    "dense": "96243fc326adeef604ce740a744d3c6999ac5a7d7bb24738b0aca768fed98be3",
    "cigl_no_rm": "c20bbe8c0c3884b3ac72d9289a72ecf1a78769d986b54c5142f6f9f59c1863ce",
    "cigl_no_wma": "60eb76b135b28ccd9303b00b2886e050b2afdc34acb588dba67fc711d56e424d",
    "cigl_run": "468a19837c6fe95c20805cbaf6dfe4aacde2a4812576b70b950807c7e503c403",
    "rigl_mcdp_eval": "624a75955e31bf6888f42903de4964d0f2ae376c867865f01fc76af480ec1dbe",
    "cigl_eval": "aed41f8c25c14d566aafb6ca6288552a60f454bb9387273fa916d1a8acfc7922",
    "idx_run": "c5a69de763360fff2b5030b44a793ea5dec30f47f1730cd4d9da1f1e0f80aaf8",
}


# `ckpt_digests.py --seed 1` output, recorded with numpy 2.4.6 on OpenBLAS's SkylakeX
# kernels: a second seed, so a change that keeps the bits of one seed by accident
# still shows.
SEED1_DIGESTS = {
    "cigl": "1a4cbacee7677458d6b0f80c956dbb84639bca800f125236c6258a178e93e46e",
    "rigl": "bf2abaf6c13b7fbc9992b9d4fcacb86d2e907f43956102614a0cca96d53ed12e",
    "rigl_wdp": "2b21d7f302d094c323d0d81ade9b842bac5e56370ed05dfdf7a5a86c66f4e001",
    "rigl_mcdp": "bcc303f767da12aedab55e2ac60c6d7109bc27f7942329a8f19b65513c259f49",
    "dense": "caef43bc955f3754e5551dcd5b4eb22881b067a375b6a9a954b414d99541abdf",
    "cigl_no_rm": "f5962d3990ed524d9458222beed8f6090e1f4a9d115081233983effeea209137",
    "cigl_no_wma": "2b21d7f302d094c323d0d81ade9b842bac5e56370ed05dfdf7a5a86c66f4e001",
    "cigl_run": "0855460ae9bb8e7b78aa01ab4375f9b30c8f338e1b5bbb00ac4648a1146c643c",
    "rigl_mcdp_eval": "8f8dbb725e2e2659bf6126c22ba9afb58538e5940550ce0dc5029f5c58532f9a",
    "cigl_eval": "570257715bdf8c1e56ae3534c114513d6219bcdb6df61f0216c916511af15d16",
    "idx_run": "5b662a3e357fca4200aea390ad666cada421f1c495dd9653f1014ec2b00816e3",
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
    rows = [line.split() for line in lines[3:-3]]
    assert [row[0] for row in rows] == names
    for name, better, parent, change, _, wins, spread in rows:
        assert better in ("lower", "higher") and wins in ("0/1", "1/1") and float(spread) == 0
        assert float(parent) > 0 and float(change) > 0
    quality = {row[0]: row for row in rows if row[0] in ("ok_frac", "test_accuracy", "test_ece")}
    assert all(row[2] == row[3] and row[5] == "0/1" for row in quality.values())
    assert lines[-3:] == ["same digests in every pair: yes",
                          "same per-seed accuracy and ECE in every pair: yes",
                          "largest per-seed |change - parent|: test_accuracy 0, test_ece 0"]


def test_bench_pairs_reports_the_largest_per_seed_quality_gap():
    bench_pairs = load_script("bench_pairs")
    pairs = [([(1, 0.75, 0.03), (2, 0.5, 0.02)], [(1, 0.75, 0.03 + 2e-9), (2, 0.5, 0.02)]),
             ([(1, 0.25, 0.01)], [(1, 0.5, 0.01 - 1e-8)])]
    acc_gap, ece_gap = bench_pairs.largest_gaps(pairs)
    assert acc_gap == 0.25 and ece_gap == pytest.approx(1e-8, rel=1e-6)
    assert bench_pairs.largest_gaps([]) == (0.0, 0.0)
