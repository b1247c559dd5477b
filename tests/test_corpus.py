import json
from pathlib import Path

import pytest

from rfensemble.errors import ConfigError

from corpus import GoldenRecord, check_record, load_corpus, regenerate_goldens

CORPUS = Path(__file__).resolve().parents[1] / "goldens"


def test_corpus_loads_and_every_record_has_provenance():
    records = load_corpus(CORPUS)
    assert len(records) >= 8
    for record in records:
        assert record.provenance
        assert set(record.tolerance) == set(record.expected)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
def test_every_golden_regenerates_within_tolerance(path):
    record = json.loads(path.read_text())
    report = check_record(GoldenRecord(**{**record, "path": path}))
    assert report.error == ""
    assert report.passed, report.diffs


def test_zero_tolerance_mc_record_fails():
    # a fresh Monte Carlo draw (different seed) cannot reproduce a pinned
    # value exactly: tolerances on MC records are necessary
    base = json.loads((CORPUS / "majority_vote_k3_reference.json").read_text())
    config = dict(base["config"], seed=base["config"]["seed"] + 1, samples=10**6)
    record = GoldenRecord(
        name="mc_zero_tolerance_demo",
        kind="mc_estimate",
        config=config,
        expected=base["expected"],
        tolerance={"estimate": 0.0},
        provenance="demonstration record",
    )
    report = check_record(record)
    assert not report.passed


def test_regenerate_does_not_overwrite_by_default(tmp_path):
    src = CORPUS / "mp_moments_gamma_half.json"
    work = tmp_path / "corpus"
    work.mkdir()
    target = work / src.name
    target.write_text(src.read_text())
    before = target.read_text()
    reports = regenerate_goldens(work, overwrite=False)
    assert all(r.passed for r in reports)
    assert target.read_text() == before


def test_regenerate_overwrite_rewrites_value(tmp_path):
    src = json.loads((CORPUS / "mp_moments_gamma_half.json").read_text())
    src["expected"]["mean"] = 123.0  # stale value
    work = tmp_path / "corpus"
    work.mkdir()
    target = work / "mp_moments_gamma_half.json"
    target.write_text(json.dumps(src))
    reports = regenerate_goldens(work, overwrite=True)
    assert not reports[0].passed  # stale value reported as failing
    refreshed = json.loads(target.read_text())
    assert refreshed["expected"]["mean"] != 123.0
    assert all(r.passed for r in regenerate_goldens(work, overwrite=False))


def test_record_requires_provenance_and_tolerances():
    with pytest.raises(ConfigError):
        GoldenRecord(name="x", kind="mc_estimate", config={}, expected={"a": 1.0}, tolerance={}, provenance="p")
    with pytest.raises(ConfigError):
        GoldenRecord(name="x", kind="mc_estimate", config={}, expected={}, tolerance={}, provenance="")
