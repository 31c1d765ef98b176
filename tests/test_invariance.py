"""Outputs that must not depend on the CPUs or BLAS threads a run may use, or on row order.

Each CPU run is the README walkthrough (synth, fuse by mcb and concat, train-eval
with a saved model) at a size where every feature table is split across CPUs,
a train-eval grid of three cells, which spreads them over forked workers, then
``featurize-text --manifest`` on the fixtures.  The commands run in child
processes, so the CPU set and ``OPENBLAS_NUM_THREADS`` are set only for them.
The kernel check runs the fixture ``featurize-text`` and ``fuse --scheme concat``
the same way, with and without ``OPENBLAS_CORETYPE``.

The row-order checks run a command on the fixtures twice, once with an input
file's rows shuffled, under the same relative paths, and compare every output:
byte for byte, or as a mapping from id to row bytes where the rows follow the
shuffled input's order.

The route checks hold what a command computes a block or a split at a time to
the whole-matrix route: ``fuse`` at any block size, and training and scoring on
a split named by row indices against a copy of that split's rows.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from scenefuse import _split, classifier, cli, sketch
from scenefuse import io as scenefuse_io
from scenefuse.cli import main
from scenefuse.data import Manifest, ManifestRow, join_labeled
from scenefuse.text import RowTable

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
N_TRAIN, N_TEST, DIM = 900, 200, 128


def _commands() -> list[list[str]]:
    synth = ["--n-train", str(N_TRAIN), "--n-test", str(N_TEST), "--dim-a", str(DIM),
             "--dim-b", str(DIM), "--seed", "3"]
    pair = ["--a", "synth/features_a.txt", "--b", "synth/features_b.txt"]
    return [
        ["synth", "--out", "synth", *synth],
        ["fuse", *pair, "--out", "mcb.txt", "--scheme", "mcb", "--d", "1000"],
        ["fuse", *pair, "--out", "concat.txt", "--scheme", "concat"],
        ["train-eval", "--manifest", "synth/manifest.tsv", "--features", "mcb.txt",
         "--epochs", "5", "--save-model", "model.txt", "--report-json", "report.json"],
        ["train-eval", "--manifest", "synth/manifest.tsv", "--cell", "a:acc:synth/features_a.txt",
         "--cell", "concat:acc:concat.txt", "--cell", "mcb:acc:mcb.txt", "--epochs", "3",
         "--report-json", "cells.json"],
        ["featurize-text", "--transcriptions", str(FIXTURES / "transcriptions.jsonl"),
         "--embeddings", str(FIXTURES / "embeddings.txt"),
         "--manifest", str(FIXTURES / "manifest.tsv"), "--out", "text_k{k}.txt",
         "--k", "1", "--k", "3"],
    ]


def _child_env(**values: str) -> dict[str, str]:
    """The environment of a command run in a child: this one with ``src`` first on
    ``PYTHONPATH``, without ``OPENBLAS_CORETYPE``, and with ``values`` set."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**env, **values}


def _run(directory: Path, cpus: set[int], blas_threads: int) -> dict[str, bytes]:
    """Every output file and stdout of the commands, run in ``directory`` on ``cpus``."""
    directory.mkdir()
    env = _child_env(OPENBLAS_NUM_THREADS=str(blas_threads))
    outputs = {}
    for number, argv in enumerate(_commands()):
        done = subprocess.run(
            [sys.executable, "-m", "scenefuse", *argv], cwd=directory, env=env,
            capture_output=True, timeout=300, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        assert (done.returncode, done.stderr) == (0, b""), argv
        outputs[f"stdout {number}"] = done.stdout
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(directory))] = path.read_bytes()
    return outputs


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_outputs_are_byte_identical_on_one_cpu_or_all_and_any_blas_threads(tmp_path):
    assert (N_TRAIN + N_TEST) * DIM >= _split.PARALLEL_MIN  # so every table is split
    every = os.sched_getaffinity(0)
    runs = {
        (name, blas): _run(tmp_path / f"{name}-{blas}", cpus, blas)
        for name, cpus in (("one", {min(every)}), ("all", every))
        for blas in (1, 2)
    }
    first = runs["one", 1]
    assert {"mcb.txt", "concat.txt", "model.txt", "report.json", "cells.json",
            "text_k3.txt"} <= set(first)
    for key, outputs in runs.items():
        assert outputs.keys() == first.keys(), key
        assert [name for name in first if outputs[name] != first[name]] == [], key


def _kernel_run(directory: Path, **kernel: str) -> dict[str, bytes]:
    """Every output file of the fixture ``featurize-text`` and ``fuse --scheme concat``,
    run in ``directory`` with the environment values ``kernel`` set."""
    directory.mkdir()
    env = _child_env(**kernel)
    for argv in (
        ["featurize-text", "--transcriptions", str(FIXTURES / "transcriptions.jsonl"),
         "--embeddings", str(FIXTURES / "embeddings.txt"), "--out", "text_k3.txt", "--k", "3",
         "--threshold", "0.70"],
        ["fuse", "--a", str(FIXTURES / "image_features.txt"), "--b", "text_k3.txt",
         "--out", "fused.txt", "--scheme", "concat"],
    ):
        done = subprocess.run([sys.executable, "-m", "scenefuse", *argv], cwd=directory, env=env,
                              capture_output=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, b""), argv
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_text_features_and_concat_fusion_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks the kernel of a DYNAMIC_ARCH OpenBLAS build (numpy's
    # wheels); a build without it ignores the variable, and the two runs agree trivially
    default = _kernel_run(tmp_path / "default")
    prescott = _kernel_run(tmp_path / "prescott", OPENBLAS_CORETYPE="Prescott")
    assert {"text_k3.txt", "fused.txt"} <= set(default)
    assert default == prescott


def _fixture_chain() -> list[list[str]]:
    """featurize-text, mcb fuse, a two-cell train-eval and vqa on the fixtures, run in place."""
    fixture = {name: str(FIXTURES / name) for name in (
        "transcriptions.jsonl", "embeddings.txt", "manifest.tsv", "image_features.txt", "vqa.jsonl"
    )}
    return [
        ["featurize-text", "--transcriptions", fixture["transcriptions.jsonl"],
         "--embeddings", fixture["embeddings.txt"], "--manifest", fixture["manifest.tsv"],
         "--out", "text_k{k}.txt", "--k", "1", "--k", "3", "--cleaning-report", "cleaning.json"],
        ["fuse", "--a", fixture["image_features.txt"], "--b", "text_k3.txt", "--out", "fused.txt",
         "--scheme", "mcb", "--d", "64"],
        ["train-eval", "--manifest", fixture["manifest.tsv"], "--cell", "mcb:k3:fused.txt",
         "--cell", "text:k1:text_k1.txt", "--report-json", "cells.json"],
        ["vqa", "--vqa", fixture["vqa.jsonl"], "--manifest", fixture["manifest.tsv"],
         "--embeddings", fixture["embeddings.txt"], "--image-features",
         fixture["image_features.txt"], "--text-features", "text_k3.txt",
         "--report-json", "vqa.json"],
    ]


# runs each command of the JSON list argv[1] through cli.main, in one process
_CHAIN = "import json, sys\nfrom scenefuse.cli import main\nfor argv in json.loads(sys.argv[1]):\n" \
    "    assert main(argv) == 0, argv\n"


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # PYTHONHASHSEED moves every str hash, and so the order of any set of strings
    runs = {}
    for seed in ("1", "2"):
        directory = tmp_path / f"seed-{seed}"
        directory.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", _CHAIN, json.dumps(_fixture_chain())], cwd=directory,
            env=_child_env(PYTHONHASHSEED=seed), capture_output=True, timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, b""), seed
        runs[seed] = {"stdout": done.stdout} | {
            path.name: path.read_bytes() for path in sorted(directory.iterdir())
        }
    assert {"text_k1.txt", "text_k3.txt", "cleaning.json", "fused.txt", "cells.json",
            "vqa.json"} <= set(runs["1"])
    assert runs["1"].keys() == runs["2"].keys()
    assert [name for name in runs["1"] if runs["1"][name] != runs["2"][name]] == []


def test_training_commands_never_import_numpy_random(tmp_path):
    # the training streams are splitmix64's; only synth draws from numpy.random
    check = _CHAIN + "assert 'numpy.random' not in sys.modules\n"
    done = subprocess.run([sys.executable, "-c", check, json.dumps(_fixture_chain())],
                          cwd=tmp_path, env=_child_env(), capture_output=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, b"")
    assert {"cells.json", "vqa.json"} <= {path.name for path in tmp_path.iterdir()}


def _shuffled(keys: list) -> list:
    """``keys`` in a fixed order other than their own."""
    order = np.random.default_rng(5).permutation(len(keys))
    assert order.tolist() != sorted(order.tolist())
    return [keys[index] for index in order]


def _shuffle_features(path: Path, out: Path) -> None:
    table = scenefuse_io.load_features(path)
    ids = _shuffled(list(table))
    scenefuse_io.write_features(out, RowTable(ids, table.rows(ids)))


def _shuffle_embeddings(path: Path, out: Path) -> None:
    table = scenefuse_io.load_embeddings(path)
    tokens = _shuffled(list(table))
    scenefuse_io.write_embeddings(out, RowTable(tokens, table.rows(tokens)))


def _shuffle_transcriptions(path: Path, out: Path) -> None:
    records = scenefuse_io.load_transcriptions(path)
    ids = _shuffled(list(records))
    scenefuse_io.write_transcriptions(out, {image_id: records[image_id] for image_id in ids})


def _outputs(directory: Path, monkeypatch, *argv) -> dict[str, bytes]:
    """Every file in ``directory`` and the stdout, after ``scenefuse *argv`` runs there."""
    monkeypatch.chdir(directory)
    with redirect_stdout(io.StringIO()) as stdout:
        assert main([str(a) for a in argv]) == 0
    outputs = {"stdout": stdout.getvalue().encode()}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(directory))] = path.read_bytes()
    return outputs


def _same_outputs(tmp_path, monkeypatch, name: str, shuffle, argv, as_mapping=()) -> None:
    """``argv`` gives the same files and stdout whether input ``name`` is shuffled or not.

    ``name`` is relative to ``tmp_path / "inputs"``, which holds every input; each
    run copies them to a directory of its own.  The feature files ``as_mapping``
    need only map each id to the same row bytes.
    """
    runs = {}
    for run in ("as-is", "shuffled"):
        shutil.copytree(tmp_path / "inputs", tmp_path / run)
        if run == "shuffled":
            shuffle(tmp_path / "inputs" / name, tmp_path / run / name)
            assert (tmp_path / run / name).read_bytes() != (tmp_path / "inputs" / name).read_bytes()
        runs[run] = _outputs(tmp_path / run, monkeypatch, *argv)
    for run, outputs in runs.items():
        del outputs[name]  # the one input that differs
        for out in as_mapping:
            table = scenefuse_io.load_features(tmp_path / run / out)
            outputs[out] = {key: table[key].tobytes() for key in table}
    assert runs["as-is"].keys() == runs["shuffled"].keys()
    assert [key for key in runs["as-is"] if runs["as-is"][key] != runs["shuffled"][key]] == []


def _fixture_inputs(tmp_path) -> Path:
    """``tmp_path / "inputs"``: the fixtures and the fixtures' text features at k=3."""
    shutil.copytree(FIXTURES, tmp_path / "inputs")
    assert main([
        "featurize-text", "--transcriptions", str(FIXTURES / "transcriptions.jsonl"),
        "--embeddings", str(FIXTURES / "embeddings.txt"), "--k", "3",
        "--out", str(tmp_path / "inputs" / "text.txt"),
    ]) == 0
    (tmp_path / "inputs" / "text.txt.run.json").unlink()  # it names a path outside the run
    return tmp_path / "inputs"


@pytest.mark.parametrize("scheme", [["mcb", "--d", "64"], ["concat"]], ids=["mcb", "concat"])
def test_fuse_output_does_not_depend_on_the_row_order_of_b(tmp_path, monkeypatch, scheme):
    _fixture_inputs(tmp_path)
    _same_outputs(tmp_path, monkeypatch, "text.txt", _shuffle_features, [
        "fuse", "--a", "image_features.txt", "--b", "text.txt", "--out", "fused.txt",
        "--scheme", *scheme,
    ])


def test_train_eval_report_does_not_depend_on_the_row_order_of_its_features(
    tmp_path, monkeypatch
):
    inputs = _fixture_inputs(tmp_path)
    monkeypatch.chdir(inputs)
    assert main(["fuse", "--a", "image_features.txt", "--b", "text.txt", "--out", "fused.txt",
                 "--scheme", "concat"]) == 0
    _same_outputs(tmp_path, monkeypatch, "fused.txt", _shuffle_features, [
        "train-eval", "--manifest", "manifest.tsv", "--features", "fused.txt", "--epochs", "20",
        "--save-model", "model.txt", "--report-json", "report.json",
    ])


@pytest.mark.parametrize("name, shuffle", [
    ("image_features.txt", _shuffle_features),
    ("text.txt", _shuffle_features),
    ("embeddings.txt", _shuffle_embeddings),
], ids=["image-features", "text-features", "lexicon"])
def test_vqa_output_does_not_depend_on_the_row_order_of_its_tables(
    tmp_path, monkeypatch, name, shuffle
):
    _fixture_inputs(tmp_path)
    _same_outputs(tmp_path, monkeypatch, name, shuffle, [
        "vqa", "--vqa", "vqa.jsonl", "--manifest", "manifest.tsv", "--embeddings", "embeddings.txt",
        "--image-features", "image_features.txt", "--text-features", "text.txt",
        "--mode", "question-image-text", "--report-json", "report.json",
    ])


def test_featurize_text_output_does_not_depend_on_the_row_order_of_the_lexicon(
    tmp_path, monkeypatch
):
    _fixture_inputs(tmp_path)
    _same_outputs(tmp_path, monkeypatch, "embeddings.txt", _shuffle_embeddings, [
        "featurize-text", "--transcriptions", "transcriptions.jsonl",
        "--embeddings", "embeddings.txt", "--manifest", "manifest.tsv",
        "--out", "text_k{k}.txt", "--k", "1", "--k", "3", "--cleaning-report", "cleaning.json",
    ])


def test_featurize_text_rows_without_a_manifest_do_not_depend_on_the_record_order(
    tmp_path, monkeypatch
):
    # without --manifest the rows follow record order, so only each id's row must match
    _fixture_inputs(tmp_path)
    _same_outputs(tmp_path, monkeypatch, "transcriptions.jsonl", _shuffle_transcriptions, [
        "featurize-text", "--transcriptions", "transcriptions.jsonl",
        "--embeddings", "embeddings.txt", "--out", "text_k{k}.txt", "--k", "1", "--k", "3",
        "--cleaning-report", "cleaning.json",
    ], as_mapping=["text_k1.txt", "text_k3.txt"])


def test_featurize_text_output_does_not_depend_on_the_order_of_the_transcriptions(
    tmp_path, monkeypatch
):
    _fixture_inputs(tmp_path)
    _same_outputs(tmp_path, monkeypatch, "transcriptions.jsonl", _shuffle_transcriptions, [
        "featurize-text", "--transcriptions", "transcriptions.jsonl",
        "--embeddings", "embeddings.txt", "--manifest", "manifest.tsv",
        "--out", "text_k{k}.txt", "--k", "1", "--k", "3", "--cleaning-report", "cleaning.json",
    ])


def _aligned_pair(directory: Path, rows: int, dim: int) -> None:
    """``a.txt`` and ``b.txt`` in ``directory``: the same ids, b's in another order."""
    rng = np.random.default_rng(11)
    ids = [f"img-{i:03d}" for i in range(rows)]
    scenefuse_io.write_features(directory / "a.txt", RowTable(ids, rng.standard_normal((rows, dim))))
    scenefuse_io.write_features(
        directory / "b.txt", RowTable(_shuffled(ids), rng.standard_normal((rows, dim)))
    )


@pytest.mark.parametrize("scheme, width", [
    (["concat"], 12),
    (["average"], 6),
    (["mcb", "--d", "1000"], 1000),
    (["mcb", "--d", "1000", "--no-normalize"], 1000),
], ids=["concat", "average", "mcb", "mcb-no-normalize"])
def test_fuse_output_does_not_depend_on_its_block_size(tmp_path, monkeypatch, scheme, width):
    # blocks of 1 row, of 7 rows, the default, and one block of every row: the route
    # that fused both whole matrices at once
    rows = 60
    _aligned_pair(tmp_path, rows, 6)
    argv = ["fuse", "--a", "a.txt", "--b", "b.txt", "--out", "fused.txt", "--scheme", *scheme]
    runs = {}
    # the sketch function that fuses each block
    each_block = "mcb_fuse_batch" if scheme[0] == "mcb" else "fuse_rows"
    for block_rows in (1, 7, None, rows, 10 * rows):
        if block_rows is not None:
            monkeypatch.setattr(_split, "BLOCK", width * block_rows)
        with mock.patch.object(sketch, each_block, wraps=getattr(sketch, each_block)) as fused:
            runs[block_rows] = _outputs(tmp_path, monkeypatch, *argv)
        assert fused.call_count == -(-rows // max(1, _split.BLOCK // width))
        monkeypatch.undo()
    assert all(outputs == runs[None] for outputs in runs.values())


def test_an_mcb_fuse_builds_its_hash_pair_and_support_once(tmp_path, monkeypatch):
    # one row per block: each block's fusion is one convolution, and the support one more
    rows = 60
    _aligned_pair(tmp_path, rows, 6)
    monkeypatch.setattr(_split, "BLOCK", 1000)
    argv = ["fuse", "--a", "a.txt", "--b", "b.txt", "--out", "fused.txt", "--scheme", "mcb",
            "--d", "1000"]
    for command in range(2):  # a second command builds its own
        pair = mock.patch.object(sketch, "make_sketch_params", wraps=sketch.make_sketch_params)
        convolve = mock.patch.object(sketch, "circular_convolve", wraps=sketch.circular_convolve)
        with pair as made, convolve as convolved:
            _outputs(tmp_path, monkeypatch, *argv)
        assert (made.call_count, convolved.call_count) == (2, rows + 1), command


def _train_gathered(model, X, y, cfg):
    """``classifier.train`` as it was when a split held a copy of its rows: ``X`` is that copy."""
    W, b = model.W.copy(), model.b.copy()
    n = X.shape[0]
    history = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = classifier._epoch_order(cfg.seed, epoch, n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, grad_w, grad_b = classifier._loss_grad(W, b, X[idx], y[idx], cfg.l2)
                W -= cfg.learning_rate * grad_w
                b -= cfg.learning_rate * grad_b
                epoch_loss += loss * idx.size
            history.append(epoch_loss / n)
    return W, b, history


def _evaluate_gathered(W, b, X, y, classes: int):
    """``classifier.evaluate`` as it was, on ``X``, a copy of the split's rows."""
    pred = np.argmax(X @ W.T + b, axis=1)
    confusion = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    return float((pred == y).mean()), confusion


@pytest.mark.parametrize("l2", [0.0, 0.01])
def test_a_split_named_by_index_trains_and_scores_as_its_copied_rows_did(l2):
    rng = np.random.default_rng(12)
    ids = [f"img-{i:03d}" for i in range(300)]
    table = RowTable(ids, rng.standard_normal((300, 40)))
    splits = ["train"] * 240 + ["test"] * 60
    manifest = Manifest(rows=tuple(
        ManifestRow(ids[i], f"c{int(table[ids[i]][0] > 0) + 2 * (i % 2)}", splits[i])
        for i in _shuffled(list(range(300)))
    ))
    names = manifest.class_names()
    cfg = classifier.TrainConfig(learning_rate=0.3, epochs=4, batch_size=16, seed=3, l2=l2)
    model = classifier.init_model(table.dim, names, seed=3)
    train_set, test_set = (join_labeled(manifest, table, split) for split in ("train", "test"))
    copies = {split: table.rows(row.image_id for row in manifest.split_rows(split))
              for split in ("train", "test")}

    trained, history = classifier.train(model, train_set, cfg)
    W, b, expected_history = _train_gathered(model, copies["train"], train_set.y, cfg)
    assert (trained.W.tobytes(), trained.b.tobytes()) == (W.tobytes(), b.tobytes())
    assert history == expected_history
    accuracy, confusion = classifier.evaluate(trained, test_set)
    expected_accuracy, expected_confusion = _evaluate_gathered(W, b, copies["test"], test_set.y,
                                                               len(names))
    assert accuracy == expected_accuracy
    assert confusion.tolist() == expected_confusion.tolist()
    got = classifier.loss_and_grad(trained, test_set, l2)
    expected = classifier._loss_grad(W, b, copies["test"], test_set.y, l2)
    assert got[0] == expected[0]
    assert [grad.tobytes() for grad in got[1:]] == [grad.tobytes() for grad in expected[1:]]
