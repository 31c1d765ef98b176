"""The benchmark's tracer must keep working against the program.

``perfbench/tracing.py`` wraps scenefuse's public functions by name and reads
their arguments and results; ``perfbench/workloads.py`` names the functions a
traced run must record.  This runs every CLI command at fixture size under
that tracer, so a refactor that renames a traced function or changes a type a
counter reads fails here rather than in a traced benchmark run.
"""

from scenefuse.cli import main


def test_every_command_runs_under_the_tracer_and_records_expected_spans(
    fixtures_dir, tmp_path, perfbench
):
    tracing, workloads = perfbench("tracing"), perfbench("workloads")
    expected = set()
    for name, build in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        expected.update(build(tmp_path / name, 0).expected)

    synth, text = tmp_path / "synth", tmp_path / "text_k{k}.txt"
    fused = {scheme: tmp_path / f"fused_{scheme}.txt" for scheme in ("mcb", "concat")}
    commands = [
        ["synth", "--out", synth, "--n-train", 40, "--n-test", 20, "--dim-a", 6, "--dim-b", 5,
         "--classes", 3, "--seed", 1],
        ["featurize-text", "--transcriptions", fixtures_dir / "transcriptions.jsonl",
         "--embeddings", fixtures_dir / "embeddings.txt", "--manifest", fixtures_dir / "manifest.tsv",
         "--out", text, "--k", 1, "--k", 3],
        ["fuse", "--a", synth / "features_a.txt", "--b", synth / "features_b.txt",
         "--out", fused["mcb"], "--scheme", "mcb", "--d", 64],
        ["fuse", "--a", synth / "features_a.txt", "--b", synth / "features_b.txt",
         "--out", fused["concat"], "--scheme", "concat"],
        ["train-eval", "--manifest", synth / "manifest.tsv", "--cell", f"mcb:acc:{fused['mcb']}",
         "--cell", f"concat:acc:{fused['concat']}", "--report-json", tmp_path / "report.json",
         "--epochs", 5],
        ["vqa", "--vqa", fixtures_dir / "vqa.jsonl", "--manifest", fixtures_dir / "manifest.tsv",
         "--embeddings", fixtures_dir / "embeddings.txt",
         "--image-features", fixtures_dir / "image_features.txt",
         "--text-features", tmp_path / "text_k3.txt", "--report-json", tmp_path / "vqa.json",
         "--epochs", 5],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [main([str(a) for a in argv]) for argv in commands]
    finally:
        tracer.uninstall()

    assert codes == [0] * len(commands)
    # the reduction a traced benchmark run applies; a function with no calls is "missing" there
    _, calls = tracing.per_layer(tracer.spans, wall=1.0)
    assert sorted(name for name in expected if not calls.get(name)) == []
