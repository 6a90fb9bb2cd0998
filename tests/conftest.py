"""Shared fixtures: tiny datasets, raw-data discovery, random fixture maker."""

import os
import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # tests/oracles.py

from fairbench.dataset import TabularDataset


def data_root() -> Path:
    return Path(os.environ.get("FAIRBENCH_DATA", Path(__file__).parent / "data"))


def raw_file(name: str):
    """Path to a user-supplied raw benchmark file, or None (tests skip)."""
    path = data_root() / name
    return path if path.is_file() else None


def pytest_runtest_logreport(report):
    """One PASS/FAIL/SKIP line per acceptance criterion."""
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        verdict = {"passed": "PASS", "failed": "FAIL"}.get(report.outcome, "SKIP")
        print(f"[{verdict}] {name}")
    elif report.when == "setup" and report.skipped:
        reason = report.longrepr[2] if isinstance(report.longrepr, tuple) else ""
        print(f"[SKIP] {name} ({reason.removeprefix('Skipped: ')})")


requires_german = pytest.mark.skipif(
    raw_file("german.data") is None,
    reason="german.data not supplied (set FAIRBENCH_DATA)",
)
requires_adult = pytest.mark.skipif(
    raw_file("adult.data") is None,
    reason="adult.data not supplied (set FAIRBENCH_DATA)",
)


@pytest.fixture
def tiny_dataset():
    """8 rows, group a favorable-heavy; the reweighing hand-example fixture."""
    features = np.arange(16, dtype=float).reshape(8, 2)
    labels = np.array([1, 1, 1, 0, 1, 0, 0, 0])
    protected = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    return TabularDataset(features, labels, protected, np.ones(8), ("f0", "f1"), "tiny")


def random_metric_fixture(rng, require_group_confusions=False, max_n=20):
    """Small random dataset + scores; groups non-empty, optionally per-group pos/neg."""
    while True:
        n = int(rng.integers(6, max_n + 1))
        labels = rng.integers(0, 2, n)
        protected = rng.integers(0, 2, n)
        if not (np.any(protected == 0) and np.any(protected == 1)):
            continue
        if require_group_confusions:
            ok = all(
                np.any((protected == g) & (labels == y)) for g in (0, 1) for y in (0, 1)
            )
            if not ok:
                continue
        weights = rng.uniform(0.1, 3.0, n)
        features = rng.normal(size=(n, int(rng.integers(1, 4))))
        scores = rng.uniform(0.0, 1.0, n)
        return features, labels, protected, weights, scores


def flip_first_feature(entry: Path):
    """Flip the highest mantissa bit of features[0, 0] in the full cache entry at `entry`.

    The stream is decompressed, changed and compressed again, so the entry
    still parses to a dataset of the right size: only its key tells it from
    the dataset it held.
    """
    blob = entry.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    body = bytearray(zlib.decompress(blob[16 + header_len:]))
    body[6] ^= 0x08
    entry.write_bytes(blob[:16 + header_len] + zlib.compress(bytes(body), 1))
