"""Outputs that must not depend on the CPUs or BLAS threads a run may use, or on row order.

Each CPU run is the README walkthrough (synth, fuse by mcb and concat, train-eval
with a saved model) at a size where every feature table is split across CPUs,
then ``featurize-text --manifest`` on the fixtures.  The commands run in child
processes, so the CPU set and ``OPENBLAS_NUM_THREADS`` are set only for them.

The row-order checks run a command on the fixtures twice, once with an input
file's rows shuffled, under the same relative paths, and compare every output:
byte for byte, or as a mapping from id to row bytes where the rows follow the
shuffled input's order.
"""

import io
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from scenefuse import io as scenefuse_io
from scenefuse.cli import main
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
        ["featurize-text", "--transcriptions", str(FIXTURES / "transcriptions.jsonl"),
         "--embeddings", str(FIXTURES / "embeddings.txt"),
         "--manifest", str(FIXTURES / "manifest.tsv"), "--out", "text_k{k}.txt",
         "--k", "1", "--k", "3"],
    ]


def _run(directory: Path, cpus: set[int], blas_threads: int) -> dict[str, bytes]:
    """Every output file and stdout of the commands, run in ``directory`` on ``cpus``."""
    directory.mkdir()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
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
    assert (N_TRAIN + N_TEST) * DIM >= scenefuse_io._PARALLEL_MIN  # so every table is split
    every = os.sched_getaffinity(0)
    runs = {
        (name, blas): _run(tmp_path / f"{name}-{blas}", cpus, blas)
        for name, cpus in (("one", {min(every)}), ("all", every))
        for blas in (1, 2)
    }
    first = runs["one", 1]
    assert {"mcb.txt", "concat.txt", "model.txt", "report.json", "text_k3.txt"} <= set(first)
    for key, outputs in runs.items():
        assert outputs.keys() == first.keys(), key
        assert [name for name in first if outputs[name] != first[name]] == [], key


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
