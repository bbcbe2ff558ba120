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


# `ckpt_digests.py --seed 0` output, recorded with numpy 2.4.6, keyed by the OpenBLAS
# kernel the script names on stderr: a float32 GEMM kernel of another vector width
# sums in another order, so every line depends on it. The Haswell and Sandybridge
# lines were recorded with OPENBLAS_CORETYPE set to that kernel, in the script's
# process only, on a machine whose default is SkylakeX.
# A change that moves any of these bytes must say why; the pinned lines keep
# every artifact bit-exact.
SEED0_DIGESTS = {
    "SkylakeX": {
        "cigl": "5ab04800dfd2ae3461797390eb28817380f8090dec1dad0a6f24189199624eab",
        "rigl": "65a1e6a8e1840c27215bf50ade520455f1a752bdeb6ddb21099aee17afebe499",
        "rigl_wdp": "0e8a6e59d52896c25257163f81ae32880c5dba6e3cd509a1add9d96f6bde1493",
        "rigl_mcdp": "0461b1f6cc137bc90851b537fe784cb9f9381eb3cb6185019cbcc45c3421c7fd",
        "dense": "8bc78d3f207733f8a4bab6ba8d77706abbdf5db917d97c720394fb7d277017b9",
        "cigl_no_rm": "e5a53471f9dcd58b681426b76e1e7d0a57109037586165722242056a3013b28d",
        "cigl_no_wma": "0e8a6e59d52896c25257163f81ae32880c5dba6e3cd509a1add9d96f6bde1493",
        "cigl_run": "f17cb63e450542d30507c40b4dc2a8a21808dea31b4af5790686dadd1d0a6580",
        "rigl_mcdp_eval": "4b56c1c5b568aebfcc319c198fa304281e7b54a549570282505361f0a6dcc5f6",
        "cigl_eval": "03ef567c54a684eb8481a4ed763233b54daa08aa34b227665f7c582f8369b58e",
        "idx_run": "abee709297910017f690d76481988266af5d185b97106548d79eaa03e3a23088",
    },
    "Haswell": {
        "cigl": "6723a4aada563de91f355be5ec825f01478974fb620ea5789c1bb5c0fa70f2af",
        "rigl": "b7470364643c2d27719849fe69c59d4131a1bc859c9d29b77347b8dcf4647b8d",
        "rigl_wdp": "7a190188dd82d241ab9d7aa107eaa440bf6799a93cf6c9dcd1c3c870c99eb5eb",
        "rigl_mcdp": "1c26f2768b6838674b69f7a6a8e87870cdc1e375c61c6373d35d7eab374fd310",
        "dense": "46d06567144746569cabb00daae8a2291d33853bc677ba1ca5925c8f66066d6e",
        "cigl_no_rm": "785312c2077914d3586631f39540af168183eab6a69086cfafe855024701a426",
        "cigl_no_wma": "7a190188dd82d241ab9d7aa107eaa440bf6799a93cf6c9dcd1c3c870c99eb5eb",
        "cigl_run": "2de74d1de807173e82fa213c5d46905ab3b0ba6fab18f8d0ac4ab1a285352adb",
        "rigl_mcdp_eval": "9d2b061f49d372c6dec82d04a6f8165972d3a5857e115368887af79c93d2d2c0",
        "cigl_eval": "5acbaba70c6b1650edda613eee8f40ef9fcdf308e122289ce7ddd12f8862b60f",
        "idx_run": "0de0beeb08c29e2428de29f1f59dd426862583df6ec7b8149d918d62e02e5922",
    },
    "Sandybridge": {
        "cigl": "8a117453c420c1b7b8a8c8105e2e582ff4a1cf7a402ee444eace36cd29159dd0",
        "rigl": "d4aeec5b64e985208a5c9d338df6bb426cb6f08a474e6d1ae922ad7463ceae6c",
        "rigl_wdp": "2d31376d2c57343c27e1de6e5c3d87de93097d597fa99e96595db08f3d97a7a8",
        "rigl_mcdp": "e24d4e8717c15a7889f8dda884db52a27fec1f5ff27aa09790fd059e0ea77aa7",
        "dense": "2636d695d2fee2eb51ce439bcc35b9c750760abd7cd1802939e2e31ceeaf0d77",
        "cigl_no_rm": "b39519d8bea5270ba9909af8dba3f6fc84934366b0500d2b837835ee0a044fc2",
        "cigl_no_wma": "2d31376d2c57343c27e1de6e5c3d87de93097d597fa99e96595db08f3d97a7a8",
        "cigl_run": "f00e4677786df4769ab23c2984a846e55fe579d6ce1d30def24e95793aa90d66",
        "rigl_mcdp_eval": "db6fa8ea2c3c8eb0989a2b530bca6c03b107cafff7eee424f3c002019598317d",
        "cigl_eval": "a44ccc63ee173c942c30e0108d0988ed5ff6d7ca8008e94c93d268907fef531c",
        "idx_run": "3908681e280263588e7ff985f12f091f2bf27e1ebf12c336841b912f6dbd1d83",
    },
}


# `ckpt_digests.py --seed 1` output, recorded as above: a second seed, so a change
# that keeps the bits of one seed by accident still shows.
SEED1_DIGESTS = {
    "SkylakeX": {
        "cigl": "486ad26a698486ca66b4b43d75145abfe3a07936c6a9488cc9d6a7bc4c06fb3f",
        "rigl": "ff0273cc15f77560ec7be5bc56885051b1ba3ec1ce6a619d0eef867d131a0bbc",
        "rigl_wdp": "f76db21edfc6d71f26b971e53d94a653ea17a54682134c497a0ce7d88cb52e1d",
        "rigl_mcdp": "0989d001d1ba9cef61610a876213dfa7505847053fc93b7b3900c25ac55e4727",
        "dense": "9c841a20967086148bc4b729a35c9cc57e827cf1fa23f0550f392914671b1044",
        "cigl_no_rm": "5e287bc12ef5026921da52d4318fe9817057bbd28e48f6574b68e18cdf596970",
        "cigl_no_wma": "f76db21edfc6d71f26b971e53d94a653ea17a54682134c497a0ce7d88cb52e1d",
        "cigl_run": "e78713902daa1bb7a03ad222066e04266ccac1fa77435bf721b73ca9b5231ae5",
        "rigl_mcdp_eval": "d9ff8a8ffa28e4d51ad3af14359e72508c178fec8d19ce0e2136a8a19e5bc614",
        "cigl_eval": "6dacd310afb7ec56cb01a3488cef94196504aa66464aefe35ea591f0049a661c",
        "idx_run": "325d6fd7115edd436dc8a93086a5bba2931b86bdd3ec7cc0967c7f06f0795d76",
    },
    "Haswell": {
        "cigl": "a1157e0f4e77d816c37a27d746fed205aff2f308353356fa814e029ec0c717ff",
        "rigl": "37e57330d19423ccef661a6336fe73b2c4dc667ca3aafc9041b3e4f6bea3b95a",
        "rigl_wdp": "5ee1c260f52d3542d5c1468c9d086ac291b0cec35115e2a1802b87e2b457fab4",
        "rigl_mcdp": "82461cecd0eb747efb869b24fcda7b444debbf0ce438da4f5eee35cbd87a31cc",
        "dense": "1fa754d9947633993c3c30bcc2c6843a1bbf9666d8a9501d661a622d7864fffe",
        "cigl_no_rm": "8def9e75c578127f1a42e0e451b6c4a2a0267c5a9af5e51fc217f3d386177aa0",
        "cigl_no_wma": "5ee1c260f52d3542d5c1468c9d086ac291b0cec35115e2a1802b87e2b457fab4",
        "cigl_run": "17ff4f03f646b93a3fa7aeeee726a26c21a02a0ab6e96ad0c9e09bcfe190b2d7",
        "rigl_mcdp_eval": "697e1a5e4063c9978e10c21f660c14c0f26cc45d83fdac10b834b835694d118a",
        "cigl_eval": "9f2106b71f0d3220c1f37c48fad8f7241c13fbeeb5f0a4c509c67be6a7b82de5",
        "idx_run": "4ad07e115773b7fc3fbf2024b3688c1e0db5331e1f8efd41a58e8ae12dbe4c0b",
    },
    "Sandybridge": {
        "cigl": "f6b8d944706b9672796859ee3ba5e7246dcdbea1c6dbab6300e1fc983a3fba62",
        "rigl": "275965a09524e873868d17f44e4c85a68c1692d20cf104d52daa7dde866776bd",
        "rigl_wdp": "8a53fb64b0fa2814fca08d4b20cea3da102b338577733387b44a4f781ac6267a",
        "rigl_mcdp": "49c2752d93cb2de438bd00d550c36837fd09d2e91547e0175cbc17a2f51f78b5",
        "dense": "1062b7a187b88c8d0eaea67caed457a90766b15279018032b6ab4db3ca2c67f6",
        "cigl_no_rm": "c6ccfa479395ec96c36601786861d258d0c38daee4a96c64330e95d86fdd1880",
        "cigl_no_wma": "8a53fb64b0fa2814fca08d4b20cea3da102b338577733387b44a4f781ac6267a",
        "cigl_run": "74cecbfe56ef51c72447d05ef7ac22b33d0462edffa9184fad9b343413649b56",
        "rigl_mcdp_eval": "357770274ed5b0e58210b735ecc357883870f5400b2798312e8cddfd312c013d",
        "cigl_eval": "4f3ce8441cde8e0c34f4225beec10781208de1cde2e93d8465338f111cecbd30",
        "idx_run": "71ea9f5b0050f6223a28cd2c9046781af1c7b5a7a4ac6a08a05de4c5f23de43c",
    },
}


def pins_of_kernel(proc, pins) -> dict:
    """The pinned lines of the OpenBLAS kernel the digest script's stderr
    names; a kernel without pins fails, naming it."""
    cores = [line.removeprefix("openblas core: ") for line in proc.stderr.splitlines()
             if line.startswith("openblas core: ")]
    kernel = cores[0] if cores else "(no `openblas core:` line)"
    assert kernel in pins, f"no digest pins for OpenBLAS kernel {kernel}; pinned: {list(pins)}"
    return pins[kernel]


def test_ckpt_digests_run_twice_print_the_same_lines():
    runs = [run_script("ckpt_digests.py", "--seed", "0") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in runs[0].stdout.splitlines()]
    assert [row[0] for row in rows] == [*METHODS, "cigl_run", "rigl_mcdp_eval", "cigl_eval",
                                     "idx_run"]
    assert all(len(row) == 2 and re.fullmatch(r"[0-9a-f]{64}", row[1]) for row in rows)
    assert runs[1].stdout == runs[0].stdout
    assert dict(rows) == pins_of_kernel(runs[0], SEED0_DIGESTS)


def test_ckpt_digests_at_seed_1_print_the_pinned_lines():
    proc = run_script("ckpt_digests.py", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == \
        pins_of_kernel(proc, SEED1_DIGESTS)


def test_a_kernel_without_digest_pins_fails_naming_it():
    proc = subprocess.CompletedProcess([], 0, "", "openblas core: Zen\n")
    with pytest.raises(AssertionError, match="no digest pins for OpenBLAS kernel Zen;"):
        pins_of_kernel(proc, SEED0_DIGESTS)
    assert pins_of_kernel(subprocess.CompletedProcess([], 0, "", "openblas core: Haswell\n"),
                          SEED0_DIGESTS) is SEED0_DIGESTS["Haswell"]


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
                                "parent_iqr", "verdict"]
    rows = [line.split() for line in lines[3:-3]]
    assert [row[0] for row in rows] == names
    for name, better, parent, change, _, wins, spread, verdict in rows:
        assert better in ("lower", "higher") and wins in ("0/1", "1/1") and float(spread) == 0
        assert float(parent) > 0 and float(change) > 0
        assert verdict in ("gain", "worse", "same")  # one pair has no spread to leave unresolved
    quality = {row[0]: row for row in rows if row[0] in ("ok_frac", "test_accuracy", "test_ece")}
    assert all(row[2] == row[3] and row[5] == "0/1" and row[7] == "same"
               for row in quality.values())
    assert lines[-3:] == ["same digests in every pair: yes",
                          "same per-seed accuracy and ECE in every pair: yes",
                          "largest per-seed |change - parent|: test_accuracy 0, test_ece 0"]


TENTHS = [10 + i / 10 for i in range(10)]  # median 10.45, quartile spread 0.55


@pytest.mark.parametrize("parent, change, better, want", [
    (TENTHS, [x - 1 for x in TENTHS], "lower", "gain"),  # 10/10 wins, gap 1 > spread
    (TENTHS, [x + 3 for x in TENTHS], "lower", "worse"),  # 3 > 0.25 * 10.45
    (TENTHS, [x + 0.1 for x in TENTHS], "lower", "same"),
    (TENTHS, [x - 0.1 for x in TENTHS], "lower", "same"),  # 10/10 wins, gap 0.1 < spread
    ([5, 10, 15] * 3 + [10], [15, 10, 5] * 3 + [10], "higher", "unresolved"),
    # a spread of 6.1 > 0.25 * 3.2, but every change run beats every parent run
    ([1, 1.1, 1.2, 1.3, 1.4, 5, 6, 7, 8, 9], [0.9] * 10, "lower", "same"),
])
def test_bench_pairs_verdict_follows_the_metric_bound(parent, change, better, want):
    bench_pairs = load_script("bench_pairs")
    assert bench_pairs.verdict(parent, change, better, 0.25) == want
    # the same runs negated, with the other direction better
    other = "higher" if better == "lower" else "lower"
    assert bench_pairs.verdict([-x for x in parent], [-x for x in change], other, 0.25) == want


def test_bench_pairs_reports_the_largest_per_seed_quality_gap():
    bench_pairs = load_script("bench_pairs")
    pairs = [([(1, 0.75, 0.03), (2, 0.5, 0.02)], [(1, 0.75, 0.03 + 2e-9), (2, 0.5, 0.02)]),
             ([(1, 0.25, 0.01)], [(1, 0.5, 0.01 - 1e-8)])]
    acc_gap, ece_gap = bench_pairs.largest_gaps(pairs)
    assert acc_gap == 0.25 and ece_gap == pytest.approx(1e-8, rel=1e-6)
    assert bench_pairs.largest_gaps([]) == (0.0, 0.0)


def test_bench_pairs_prints_one_summary_block_per_listed_workload(monkeypatch, capsys):
    bench_pairs = load_script("bench_pairs")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    ran = []

    def fake_run(checkout, workload, args):
        ran.append(workload)
        return {name: 1.0 for name in names}, [{"round": "digest"}, [(1, 0.5, 0.1)]]

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    argv = [str(ROOT), str(ROOT), "--pairs", "2", "--seconds", "1", "--seed", "3", "--workload"]
    bench_pairs.main(argv + ["mnist_sparse,mc_eval"])
    lines = capsys.readouterr().out.splitlines()
    assert ran == ["mnist_sparse"] * 4 + ["mc_eval"] * 4
    half = len(lines) // 2
    assert lines[2] == "workload mnist_sparse, seed 3, 2 pairs of 1 s runs"
    assert lines[half + 2] == "workload mc_eval, seed 3, 2 pairs of 1 s runs"
    bench_pairs.main(argv + ["mc_eval"])
    assert capsys.readouterr().out.splitlines() == lines[half:]
    with pytest.raises(SystemExit):
        bench_pairs.main(argv + ["mc_eval,"])


def test_bench_pairs_compiles_both_checkouts_before_the_first_pair(monkeypatch, tmp_path, capsys):
    bench_pairs = load_script("bench_pairs")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    detail = {"detail": {"digests": {}, "per_seed": [{"seed": 1, "test_accuracy": 0.5,
                                                      "test_ece": 0.1}]}}
    result = {"correct": True, "metrics": {name: {"value": 1.0} for name in names}}
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((Path(cwd), cmd[1:]))
        return subprocess.CompletedProcess(cmd, 0, f"{json.dumps(detail)}\n{json.dumps(result)}\n",
                                           "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    parent = tmp_path / "parent"
    bench_pairs.main([str(parent), str(ROOT), "--pairs", "2", "--seconds", "1", "--seed", "3",
                      "--workload", "mc_eval"])
    compile_args = ["-m", "compileall", "-q", "src"]
    assert calls[:2] == [(parent, compile_args), (ROOT, compile_args)]
    assert [cwd for cwd, _ in calls[2:]] == [parent, ROOT, ROOT, parent]
    assert all(args[0] == "bench/run.py" for _, args in calls[2:])

