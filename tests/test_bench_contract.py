"""The benchmark's tracer must keep working against the program.

``perfbench/tracing.py`` wraps scenefuse's public functions by name and reads
their arguments and results; ``perfbench/workloads.py`` names the functions a
traced run of each workload must record.  This runs each workload's chain of
commands at fixture size under that tracer and checks the workload's names
against that chain's spans alone, so a refactor that renames a traced function,
changes a type a counter reads or moves a traced call out of one workload's
commands fails here rather than in a traced benchmark run.
"""

from scenefuse.cli import main


def test_every_command_runs_under_the_tracer_and_records_expected_spans(
    fixtures_dir, tmp_path, perfbench
):
    tracing, workloads = perfbench("tracing"), perfbench("workloads")
    synth, text = tmp_path / "synth", tmp_path / "text_k{k}.txt"
    fused = {scheme: tmp_path / f"fused_{scheme}.txt" for scheme in ("mcb", "concat")}
    text_fused = tmp_path / "fused_text_concat.txt"
    chains = {
        "synth_mcb": [
            ["synth", "--out", synth, "--n-train", 40, "--n-test", 20, "--dim-a", 6, "--dim-b", 5,
             "--classes", 3, "--seed", 1],
            ["fuse", "--a", synth / "features_a.txt", "--b", synth / "features_b.txt",
             "--out", fused["mcb"], "--scheme", "mcb", "--d", 64],
            ["fuse", "--a", synth / "features_a.txt", "--b", synth / "features_b.txt",
             "--out", fused["concat"], "--scheme", "concat"],
            ["train-eval", "--manifest", synth / "manifest.tsv", "--cell", f"mcb:acc:{fused['mcb']}",
             "--cell", f"concat:acc:{fused['concat']}", "--report-json", tmp_path / "report.json",
             "--epochs", 5],
        ],
        "text_topic": [
            ["featurize-text", "--transcriptions", fixtures_dir / "transcriptions.jsonl",
             "--embeddings", fixtures_dir / "embeddings.txt",
             "--manifest", fixtures_dir / "manifest.tsv", "--out", text, "--k", 1, "--k", 3],
            ["fuse", "--a", fixtures_dir / "image_features.txt", "--b", tmp_path / "text_k3.txt",
             "--out", text_fused, "--scheme", "concat"],
            ["train-eval", "--manifest", fixtures_dir / "manifest.tsv",
             "--cell", f"image:acc:{fixtures_dir / 'image_features.txt'}",
             "--cell", f"text-k3:acc:{tmp_path / 'text_k3.txt'}",
             "--cell", f"concat-k3:acc:{text_fused}",
             "--report-json", tmp_path / "text_report.json", "--epochs", 5],
        ],
        "vqa_answers": [
            ["vqa", "--vqa", fixtures_dir / "vqa.jsonl", "--manifest", fixtures_dir / "manifest.tsv",
             "--embeddings", fixtures_dir / "embeddings.txt",
             "--image-features", fixtures_dir / "image_features.txt",
             "--text-features", tmp_path / "text_k3.txt", "--report-json", tmp_path / "vqa.json",
             "--epochs", 5],
        ],
    }
    assert sorted(chains) == sorted(workloads.WORKLOADS)

    missing = {}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, commands in chains.items():  # in order: vqa reads the text chain's features
            (tmp_path / name).mkdir()
            expected = workloads.WORKLOADS[name](tmp_path / name, 0).expected
            tracer.reset()
            assert [main([str(a) for a in argv]) for argv in commands] == [0] * len(commands)
            # the reduction a traced benchmark run applies; a function with no calls is
            # "missing" there
            _, calls = tracing.per_layer(tracer.spans, wall=1.0)
            missing[name] = sorted(fn for fn in expected if not calls.get(fn))
    finally:
        tracer.uninstall()
    assert missing == dict.fromkeys(chains, [])
