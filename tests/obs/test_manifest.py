"""Run manifests: identity, determinism, atomic write, rendering."""

import hashlib
import json

import pytest

from repro.errors import SchemaError
from repro.obs.manifest import (
    build_manifest,
    file_digest,
    load_manifest,
    manifest_rows,
    write_manifest,
)


class TestDigest:
    def test_file_digest_matches_hashlib(self, tmp_path):
        path = tmp_path / "input.jsonl"
        path.write_bytes(b"hello\n")
        assert file_digest(path) == hashlib.sha256(b"hello\n").hexdigest()


class TestBuild:
    def test_run_id_is_stable_for_the_same_logical_run(self):
        a = build_manifest("fig4", 7, config_fingerprint=("x", 1),
                           deterministic=True)
        b = build_manifest("fig4", 7, config_fingerprint=("x", 1),
                           deterministic=True)
        assert a["run_id"] == b["run_id"]
        c = build_manifest("fig4", 8, config_fingerprint=("x", 1),
                           deterministic=True)
        assert c["run_id"] != a["run_id"]

    def test_deterministic_omits_created_at(self):
        det = build_manifest("e", 0, deterministic=True)
        assert "created_at" not in det
        wall = build_manifest("e", 0, deterministic=False)
        assert "created_at" in wall

    def test_inputs_are_digested(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        path.write_bytes(b"row\n")
        manifest = build_manifest("e", 0, inputs=[path], deterministic=True)
        assert manifest["inputs"][str(path)] == file_digest(path)

    def test_extra_fields_merge(self):
        manifest = build_manifest("e", 0, deterministic=True,
                                  extra={"outcome_cached": True})
        assert manifest["outcome_cached"] is True


class TestWriteLoad:
    def test_roundtrip_and_no_tmp_residue(self, tmp_path):
        manifest = build_manifest("e", 3, deterministic=True)
        out = write_manifest(manifest, tmp_path / "manifest.json")
        assert load_manifest(out) == manifest
        assert list(tmp_path.iterdir()) == [out]

    def test_two_deterministic_writes_are_byte_identical(self, tmp_path):
        a = write_manifest(build_manifest("e", 3, deterministic=True),
                           tmp_path / "a.json")
        b = write_manifest(build_manifest("e", 3, deterministic=True),
                           tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_load_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            load_manifest(bad)
        nope = tmp_path / "nope.json"
        nope.write_text(json.dumps({"schema": 1}))
        with pytest.raises(SchemaError):
            load_manifest(nope)


class TestRows:
    def test_rows_cover_provenance_and_degradations(self):
        manifest = build_manifest(
            "fig4", 7, deterministic=True,
            degradations=[{"kind": "starved_slice", "detail": "too few"}],
            ingest={"mode": "lenient", "n_rows": 100, "n_good": 98,
                    "n_bad": 2, "reasons": {"json-decode": 2}},
        )
        rows = dict(manifest_rows(manifest))
        assert rows["experiment"] == "fig4"
        assert rows["seed"] == 7
        assert rows["degradations"] == 1
        assert rows["  starved_slice"] == "too few"
        assert rows["ingest mode"] == "lenient"
        assert rows["ingest n_good"] == 98
        assert rows["ingest rejected[json-decode]"] == 2
        assert "package[numpy]" in rows
