"""The direct group-chained exchange — the one apply path.

``replay_files`` (file-shard prep) and ``apply_epoch`` (Dataset-block
prep) both run prep tasks → one chained merge link per pid-group
(one state file per pid) → the manifest commit. These tests check that path against the independent
serial oracles: final state, quarantine side output, Override mode,
crash-resume reconvergence, and byte-identity of the two entry points.
"""

import glob
import os

import pandas as pd
import pytest

import ray.data

from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines.replay import (
    apply_epoch,
    read_state,
    replay_files,
    serial_oracle_replay,
)
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.manifest import MANIFEST_FORMAT, StateStore

DIRECT_CFG = EngineConfig(
    num_partitions=8, epoch_max_events=15_000, batch_size=4096
)


@pytest.fixture(scope="module")
def change_log(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("changes"))
    return generate_change_stream(
        out,
        GeneratorConfig(
            seed=29, n_keys=1_500, n_events=60_000, events_per_file=7_500,
            malformed_frac=0.004, evolve_at_frac=0.5,
        ),
    )


def _final(store) -> pd.DataFrame:
    return (
        read_state(store)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


def _oracle(files) -> pd.DataFrame:
    raw = pd.concat([pd.read_parquet(f) for f in files], ignore_index=True)
    return (
        serial_oracle_replay(raw)
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


def test_replay_quarantines_every_malformed_row(change_log, tmp_path):
    """Manifest counts and the quarantine side output both account for
    exactly the generator's malformed rows."""
    store = StateStore(str(tmp_path / "store"))
    manifests = replay_files(change_log["files"], store, DIRECT_CFG)
    assert sum(m["counts"]["quarantined"] for m in manifests) == change_log[
        "n_malformed"
    ]
    assert sum(
        m["counts"]["input_events"] - m["counts"]["applied_events"]
        for m in manifests
    ) == change_log["n_malformed"]
    q = glob.glob(
        os.path.join(store.quarantine_dir, "**/*.parquet"), recursive=True
    )
    qrows = sum(len(pd.read_parquet(f)) for f in q)
    assert qrows == change_log["n_malformed"]


def test_direct_matches_serial_oracle(change_log, tmp_path):
    store = StateStore(str(tmp_path / "store"))
    replay_files(change_log["files"], store, DIRECT_CFG)
    engine = _final(store)
    cols = ["repo", "path", "commit", "lang", "content"]
    pd.testing.assert_frame_equal(engine[cols], _oracle(change_log["files"])[cols])
    # the state keeps plain string columns end to end
    assert all(dt == object for dt in engine[["repo", "lang"]].dtypes)


def test_direct_crash_resume_reconverges(change_log, tmp_path):
    """Crash before a manifest commit mid-chain; the re-run (also direct)
    must overwrite orphan state files and reconverge."""
    full = StateStore(str(tmp_path / "full"))
    replay_files(change_log["files"], full, DIRECT_CFG)
    expected = _final(full)

    class CrashingStore(StateStore):
        def __init__(self, root, crash_at):
            super().__init__(root)
            self.crash_at = crash_at

        def commit_epoch(self, epoch, *a, **k):
            if epoch >= self.crash_at:
                raise RuntimeError("simulated crash before manifest commit")
            return super().commit_epoch(epoch, *a, **k)

    crash_root = str(tmp_path / "crash")
    with pytest.raises(RuntimeError):
        replay_files(
            change_log["files"], CrashingStore(crash_root, 2), DIRECT_CFG
        )
    store = StateStore(crash_root)
    assert store.latest_epoch() == 1  # epochs 0-1 committed, 2+ lost
    leftover = glob.glob(
        os.path.join(store.state_dir, "epoch=2", "*.parquet")
    )
    assert leftover  # orphan partition files from the in-flight wave

    replay_files(change_log["files"], store, DIRECT_CFG)
    cols = ["repo", "path", "commit", "content"]
    pd.testing.assert_frame_equal(expected[cols], _final(store)[cols])


def test_apply_epoch_direct_single(change_log, tmp_path):
    """apply_epoch (repair, quarantine replay, bootstrap) runs one
    epoch of a Dataset through the same chain: its state matches the
    serial oracle and its count the quarantine side output."""
    files = change_log["files"][:2]
    store = StateStore(str(tmp_path / "s"))
    m = apply_epoch(ray.data.read_parquet(files), store, 0, DIRECT_CFG)
    q = glob.glob(os.path.join(store.quarantine_dir, "epoch=0", "*.parquet"))
    assert sum(len(pd.read_parquet(f)) for f in q) == m["counts"]["quarantined"]
    assert m["format"] == MANIFEST_FORMAT and m["num_partitions"] == 8
    cols = ["repo", "path", "commit", "content"]
    pd.testing.assert_frame_equal(_final(store)[cols], _oracle(files)[cols])


def test_apply_epoch_and_replay_files_write_identical_state(change_log, tmp_path):
    """One epoch through apply_epoch and through replay_files, on two
    fresh stores: byte-identical state files, equal manifest counts."""
    files = change_log["files"][:2]
    rows = sum(len(pd.read_parquet(f)) for f in files)
    a = StateStore(str(tmp_path / "a"))
    ma = apply_epoch(
        ray.data.read_parquet(files), a, 0, DIRECT_CFG,
        (files[0], files[-1]), input_rows=rows,
    )
    b = StateStore(str(tmp_path / "b"))
    (mb,) = replay_files(files, b, DIRECT_CFG)
    assert ma["counts"] == mb["counts"]
    fa, fb = a.partition_files(0), b.partition_files(0)
    assert sorted(fa) == sorted(fb) and fa
    for pid in fa:
        with open(fa[pid], "rb") as x, open(fb[pid], "rb") as y:
            assert x.read() == y.read(), pid


def test_direct_override_mode(tmp_path):
    """Override coalesce (no combiner; column-wise last non-empty wins)
    through apply_epoch, one epoch per log file, equals the serial
    Override oracle (replay_files is checked against it in
    test_override_mode)."""
    from test_override_mode import CFG, _serial_override_oracle, _write_log

    df, files = _write_log(tmp_path, rng_seed=47, n_events=10_000)
    store = StateStore(str(tmp_path / "store"))
    for e, f in enumerate(files):
        apply_epoch(ray.data.read_parquet([f]), store, e, CFG, (f, f))
    got = read_state(store).to_pandas()
    oracle = _serial_override_oracle(df)
    assert len(got) == len(oracle)
    for r in got.itertuples():
        o = oracle[(r.repo, r.path)]
        assert r.commit == o["commit"], (r.repo, r.path)
        assert (r.lang if isinstance(r.lang, str) else None) == o["lang"]
        assert (r.content if isinstance(r.content, str) else None) == o["content"]
