"""Tests of the artifact digests: the command list runs, a change shows, and
the digests match the committed manifest ``checks/digests.txt``.

    python -m pytest checks/tests
"""
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import artifacts  # noqa: E402

SRC = artifacts.ROOT / "src"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    artifacts.write_inputs(path)
    return path


@pytest.fixture(scope="module")
def out(tmp_path_factory, inputs):
    return artifacts.run(SRC, tmp_path_factory.mktemp("run"), inputs)


def test_the_list_holds_the_exact_small_graphs(inputs):
    labels = [label for label, _ in artifacts.commands(inputs)]
    assert len(labels) == len(set(labels))  # one --out directory each
    assert sum(label.startswith("exact_g") for label in labels) == 32


def test_every_command_runs_and_writes(out, inputs):
    # the failing commands exit with their codes and write nothing
    codes = (out / "exit_codes.txt").read_text().split("\n")[:-1]
    expected = {label: artifacts.FAILING.get(label, (None, 0))[1]
                for label, _ in artifacts.commands(inputs)}
    assert sorted(set(expected.values())) == [0, 2, 3]
    assert codes == [f"{code} {label}" for label, code in expected.items()]
    for label, code in expected.items():
        assert any((out / label).iterdir()) == (code == 0), label


def test_differing_lists_changed_and_one_sided_paths():
    a = {"same": "1", "changed": "2", "only_a": "3"}
    b = {"same": "1", "changed": "4", "only_b": "5"}
    assert artifacts.differing(a, b) == ["changed", "only_a", "only_b"]


def test_a_changed_writer_shows_in_its_files_alone(out, inputs, tmp_path):
    # a copy whose JSON writer ends files with one more blank line differs in
    # every JSON file and in nothing else
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    harness = src / "fdst" / "harness.py"
    text = harness.read_text()
    old = '        fh.write("\\n")\n'
    assert text.count(old) == 1
    harness.write_text(text.replace(old, old + old))
    changed = artifacts.digests(artifacts.run(src, tmp_path / "run", inputs))
    expected = artifacts.digests(out)
    assert artifacts.differing(expected, changed) == sorted(
        path for path in expected if path.endswith(".json"))


def test_a_passing_run_prints_no_error_line(capfd):
    # the FAILING commands' error lines stay in the runner's captured stderr
    assert artifacts.main(["--src", str(SRC)]) == 0
    out, err = capfd.readouterr()
    assert "error:" not in err
    lines = out.splitlines()
    assert lines and all(len(line.split("  ")[0]) == 64 for line in lines)


def test_a_failing_run_shows_the_runner_stderr(inputs, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "fdst" / "cli.py"
    cli.write_text(cli.read_text() + 'raise RuntimeError("cli broken")\n')
    with pytest.raises(SystemExit, match="cli broken"):
        artifacts.run(src, tmp_path / "run", inputs)


def test_the_artifacts_match_the_manifest(out):
    recorded, expected = artifacts.read_manifest()
    if recorded != artifacts.numpy_version():
        pytest.skip(f"numpy {artifacts.numpy_version()} is not the manifest's {recorded}: "
                    "the simulate and exact inputs come from numpy's random streams")
    diff = artifacts.differing(expected, artifacts.digests(out))
    assert not diff, (f"{len(diff)} artifacts differ from {artifacts.MANIFEST.name} "
                      f"(run checks/artifacts.py --write if that is intended): "
                      + ", ".join(diff))


def test_one_changed_byte_names_its_artifact(out, tmp_path):
    found = artifacts.digests(out)
    manifest = tmp_path / "digests.txt"
    artifacts.write_manifest(found, manifest)
    assert artifacts.read_manifest(manifest) == (artifacts.numpy_version(), found)
    for path in found:
        data = bytearray((out / path).read_bytes())
        data[-1] ^= 1  # one flipped bit in any file changes its digest
        changed = tmp_path / "changed"
        changed.write_bytes(data)
        changed_found = {**found, path: artifacts.digest(changed)}
        assert artifacts.differing(artifacts.read_manifest(manifest)[1], changed_found) == [path]
