"""Validation comparator and quarantine replay."""

import numpy as np
import pandas as pd

import ray.data

from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines.replay import (
    read_state,
    replay_files,
)
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.stages.validate import snapshot_state, validate_store
from cosmwasm_etl_ray.state.manifest import StateStore
from cosmwasm_etl_ray.state.quarantine import pending_files, replay_quarantine

CFG = EngineConfig(num_partitions=8, epoch_max_events=20_000, batch_size=4096)


def _log(tmp_path, **kw):
    defaults = dict(
        seed=17, n_keys=800, n_events=30_000, events_per_file=10_000,
        malformed_frac=0.005, evolve_at_frac=None,
    )
    defaults.update(kw)
    return generate_change_stream(str(tmp_path / "log"), GeneratorConfig(**defaults))


def test_validation_passes_on_correct_replay(tmp_path):
    log = _log(tmp_path)
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"], store, CFG)
    bad = validate_store(store, log["files"], CFG)
    assert bad.empty, bad.head()


def test_validation_detects_corruption(tmp_path):
    log = _log(tmp_path)
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"], store, CFG)
    # corrupt one state partition: bump a commit
    pid, f = sorted(store.partition_files().items())[0]
    df = pd.read_parquet(f)
    df.loc[df.index[0], "content"] = "CORRUPTED"
    df.to_parquet(f, index=False)
    bad = validate_store(store, log["files"], CFG)
    assert len(bad) == 1
    # and the exception set suppresses it (ST2 validation exceptions)
    key = (bad.iloc[0]["repo"], bad.iloc[0]["path"])
    assert validate_store(store, log["files"], CFG, exceptions={key}).empty


def test_snapshot_state_written(tmp_path):
    log = _log(tmp_path)
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"], store, CFG)
    path = snapshot_state(store)
    snap = pd.read_parquet(path)
    assert {"repo", "live_paths", "total_chars", "max_commit"} <= set(snap.columns)
    assert snap["live_paths"].sum() == read_state(store).count()


def test_quarantine_replay_applies_fixed_rows(tmp_path):
    log = _log(tmp_path, malformed_frac=0.02)
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"], store, CFG)
    n_pending = len(pending_files(store))
    assert n_pending > 0
    before = read_state(store).count()

    def fix(rows: pd.DataFrame) -> pd.DataFrame:
        # repair the empty commit deterministically: very high sequence
        rows = rows.copy()
        blank = rows["commit"] == ""
        rows.loc[blank, "commit"] = [
            f"{9_000_000_000 + i:010d}" for i in range(int(blank.sum()))
        ]
        return rows

    manifest = replay_quarantine(store, CFG, fix_fn=fix)
    assert manifest["counts"]["quarantined"] == 0  # everything repaired
    assert pending_files(store) == []  # marked resolved
    after = read_state(store).count()
    assert after >= before  # repaired upserts landed
    # idempotent: nothing pending → no-op
    assert replay_quarantine(store, CFG) is None


def test_versioned_normalizer_dispatch_by_commit_range():
    """Era-dependent parse logic (mapper-by-height-range graft)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from cosmwasm_etl_ray.stages.versioned import VersionedNormalizer

    def era1(t):  # old era: lang lowercased
        return t.set_column(
            t.schema.get_field_index("lang"), "lang", pc.utf8_lower(t["lang"])
        )

    def era2(t):  # new era: lang uppercased
        return t.set_column(
            t.schema.get_field_index("lang"), "lang", pc.utf8_upper(t["lang"])
        )

    vn = VersionedNormalizer([("", era1), ("0000000005", era2)])
    t = pa.table(
        {
            "commit": pa.array([f"{i:010d}" for i in range(1, 9)]),
            "lang": pa.array(["Go"] * 8),
        }
    )
    out = vn(t).to_pandas().sort_values("commit")
    assert out["lang"].tolist() == ["go"] * 4 + ["GO"] * 4
    # empty input keeps schema
    assert vn(t.slice(0, 0)).schema == t.schema


def test_final_state_invariant_across_partition_counts(tmp_path):
    """Determinism across parallelism levels: the replayed final state
    must be identical for any num_partitions (SURVEY §7.4)."""
    import dataclasses

    log = _log(tmp_path)
    frames = []
    for p in (4, 32):
        store = StateStore(str(tmp_path / f"store-p{p}"))
        replay_files(log["files"], store, dataclasses.replace(CFG, num_partitions=p))
        f = read_state(store).to_pandas()
        frames.append(f[sorted(f.columns)].sort_values(["repo", "path"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(frames[0], frames[1])


def test_validation_exception_flow_auto_excepts(tmp_path):
    """The reference's flagged-token append: the first validation pass
    flags a divergent key AND appends it to the durable exception
    table; the second pass reports clean without operator input."""
    from cosmwasm_etl_ray.stages.validate import (
        load_exceptions,
        validate_and_except,
    )

    log = _log(tmp_path, seed=19)
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"], store, CFG)

    pid, f = sorted(store.partition_files().items())[0]
    df = pd.read_parquet(f)
    df.loc[df.index[0], "content"] = "CORRUPTED"
    df.to_parquet(f, index=False)

    bad1, n_new = validate_and_except(store, log["files"], CFG)
    assert len(bad1) == 1 and n_new == 1
    key = (bad1.iloc[0]["repo"], bad1.iloc[0]["path"])
    assert load_exceptions(store) == {key}

    bad2, n_new2 = validate_and_except(store, log["files"], CFG)
    assert bad2.empty and n_new2 == 0
    # idempotent: the table still holds exactly the one key
    assert load_exceptions(store) == {key}


def test_versioned_first_era_implicit_lower_bound():
    """The first era starts at '' by contract even when its declared
    from_commit is higher — rows below it must flow through era 1, not
    silently vanish (no era's mask would match them otherwise)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from cosmwasm_etl_ray.stages.versioned import VersionedNormalizer

    def lower(t):
        return t.set_column(
            t.schema.get_field_index("lang"), "lang", pc.utf8_lower(t["lang"])
        )

    def upper(t):
        return t.set_column(
            t.schema.get_field_index("lang"), "lang", pc.utf8_upper(t["lang"])
        )

    # first era DECLARED at 5 — rows 1..4 still belong to it
    vn = VersionedNormalizer([("0000000005", lower), ("0000000007", upper)])
    t = pa.table(
        {
            "commit": pa.array([f"{i:010d}" for i in range(1, 9)]),
            "lang": pa.array(["Go"] * 8),
        }
    )
    out = vn(t).to_pandas().sort_values("commit")
    assert len(out) == 8  # nothing dropped
    assert out["lang"].tolist() == ["go"] * 6 + ["GO"] * 2
