"""The artifact registry: every committed BENCH file is registered, and
the one writer and the digest manifest behave (no real generator runs)."""

import hashlib
import json
import pathlib
import subprocess

import pytest

from repro.harness.__main__ import main
from repro.harness.artifacts import (
    ARTIFACTS,
    MANIFEST,
    Artifact,
    regenerate,
    write_json,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _git(*args: str) -> subprocess.CompletedProcess:
    try:
        result = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True
        )
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if result.returncode == 128:
        pytest.skip("not a git checkout")
    return result


class TestRegistryCoversTheTree:
    def test_every_committed_bench_file_is_registered(self):
        tracked = set(_git("ls-files", "BENCH_*").stdout.split())
        byte_files = {f for a in ARTIFACTS.values() for f in a.files}
        assert tracked == byte_files | {MANIFEST}

    def test_digest_files_are_gitignored_and_in_the_manifest(self):
        manifest = json.loads((ROOT / MANIFEST).read_text())
        digests = [f for a in ARTIFACTS.values() for f in a.digests]
        assert digests
        for name in digests:
            assert _git("check-ignore", "-q", name).returncode == 0, name
        assert sorted(manifest) == sorted(digests)
        for entry in manifest.values():
            assert set(entry) == {"bytes", "sha256"}

    def test_no_file_is_registered_twice(self):
        names = [
            f for a in ARTIFACTS.values() for f in a.files + a.digests
        ]
        assert len(names) == len(set(names))


def _synthetic(payload_path, dump_path, *, value=1):
    write_json(payload_path, {"b": value, "a": {"d": 2.5, "c": None}})
    dump_path.write_bytes(b"dump \x00" * value)
    return f"synthetic {value}"


def _registry():
    return {
        "first": Artifact(
            _synthetic, ("BENCH_a.json",), digests=("BENCH_a.bin",)
        ),
        "second": Artifact(
            lambda payload, dump: _synthetic(payload, dump, value=3),
            ("BENCH_b.json",), digests=("BENCH_b.bin",),
        ),
    }


class TestRegenerate:
    def test_manifest_records_the_written_bytes(self, tmp_path):
        reports = regenerate(directory=tmp_path, registry=_registry())
        assert reports == {"first": "synthetic 1", "second": "synthetic 3"}
        manifest = json.loads((tmp_path / MANIFEST).read_text())
        for name in ("BENCH_a.bin", "BENCH_b.bin"):
            data = (tmp_path / name).read_bytes()
            assert manifest[name] == {
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }

    def test_the_writer_sorts_keys(self, tmp_path):
        regenerate(["first"], tmp_path, registry=_registry())
        assert (tmp_path / "BENCH_a.json").read_text() == (
            '{\n  "a": {\n    "c": null,\n    "d": 2.5\n  },\n  "b": 1\n}\n'
        )
        assert (tmp_path / MANIFEST).read_text().endswith("}\n")

    def test_a_subset_keeps_the_other_entries(self, tmp_path):
        regenerate(directory=tmp_path, registry=_registry())
        before = json.loads((tmp_path / MANIFEST).read_text())
        (tmp_path / "BENCH_b.bin").write_bytes(b"edited by hand")
        regenerate(["first"], tmp_path, registry=_registry())
        after = json.loads((tmp_path / MANIFEST).read_text())
        assert after == before

    def test_unknown_name_runs_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="unknown artifacts: nope"):
            regenerate(["first", "nope"], tmp_path, registry=_registry())
        assert list(tmp_path.iterdir()) == []


class TestArtifactsCommand:
    def test_unknown_artifact_exits_2(self, capsys):
        assert main(["artifacts", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown artifacts: bogus" in err
        assert "usage:" in err

    def test_takes_no_flags(self, capsys):
        assert main(["artifacts", "--workers=2"]) == 2
        assert "artifacts takes no flags" in capsys.readouterr().err

    def test_must_be_invoked_alone(self, capsys):
        assert main(["table1", "artifacts"]) == 2
        assert "invoked alone" in capsys.readouterr().err

    def test_documented_in_usage(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert f"artifacts [{'|'.join(ARTIFACTS)} ...]" in out
        for removed in ("bench-json", "bench-cache", "loadtest"):
            assert removed not in out
