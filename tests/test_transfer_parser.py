"""Epoch-driven transfer parser: exactly-once sink, crash resume, and
equality with the one-shot ledger query."""

import glob
import os

import pandas as pd
import pytest

from cosmwasm_etl_ray.pipelines import transfer_parser as tp
from cosmwasm_etl_ray.pipelines.transfer_parser import (
    LEDGER_COLS,
    TransferParserPipeline,
)

SF = "/root/testdata/sf0.001"
SF01 = os.path.join(os.path.dirname(SF), "sf0.01")


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df[LEDGER_COLS]
        .sort_values(LEDGER_COLS, kind="stable")
        .reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
def test_epoch_run_matches_one_shot_query(tmp_path):
    from cosmwasm_etl_ray.pipelines.queries_transfers import transfer_ledger

    pipe = TransferParserPipeline(SF, str(tmp_path / "store"), n_epochs=3)
    results = pipe.run()
    assert all(not r["skipped"] for r in results)
    got = _sorted(pipe.ledger().to_pandas())
    want = _sorted(transfer_ledger(SF).to_pandas())
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_crash_resume_and_idempotent_rerun(tmp_path):
    root = str(tmp_path / "store")
    pipe = TransferParserPipeline(SF, root, n_epochs=3)
    plan = pipe.plan_epochs()
    assert len(plan) == 3

    # "crash" after epoch 0: only the first epoch commits; a stray tmp
    # file for epoch 1 simulates a mid-write death (no manifest)
    pipe.run_epoch(0, *plan[0])
    os.makedirs(os.path.join(root, "epoch=1"), exist_ok=True)
    with open(os.path.join(root, "epoch=1", "part-00000.parquet.tmp.999"), "w") as f:
        f.write("garbage")
    assert pipe.store.committed_epochs() == [0]

    # a fresh process resumes: epoch 0 skips, 1 and 2 run
    pipe2 = TransferParserPipeline(SF, root, n_epochs=3)
    results = pipe2.run()
    assert [r["skipped"] for r in results] == [True, False, False]
    rows_after_resume = pipe2.ledger().count()

    # full re-run is a pure no-op (every epoch already committed)
    results = TransferParserPipeline(SF, root, n_epochs=3).run()
    assert all(r["skipped"] for r in results)
    assert pipe2.ledger().count() == rows_after_resume

    # the stray tmp never became visible data
    visible = glob.glob(os.path.join(root, "epoch=*", "*.parquet"))
    assert all(".tmp." not in f for f in visible)


@pytest.mark.usefixtures("ray_session")
def test_quarantine_rides_the_epoch(tmp_path):
    """Malformed (noise) logs land as dead-letter files under the same
    epoch, counted in its manifest; the total matches the
    transfer_quarantine query and re-runs don't duplicate."""
    from cosmwasm_etl_ray.pipelines.queries_transfers import (
        transfer_quarantine,
    )

    root = str(tmp_path / "store")
    pipe = TransferParserPipeline(SF, root, n_epochs=2)
    pipe.run()
    qfiles = glob.glob(os.path.join(root, "quarantine", "epoch=*", "*.parquet"))
    assert qfiles
    q_rows = sum(len(pd.read_parquet(f)) for f in qfiles)
    manifest_q = sum(
        pipe.store.manifest(e)["counts"]["quarantined"]
        for e in pipe.store.committed_epochs()
    )
    expected = transfer_quarantine(SF).count()
    assert q_rows == manifest_q == expected

    # committed epochs skip entirely: no rewrite, no duplication
    TransferParserPipeline(SF, root, n_epochs=2).run()
    q_rows2 = sum(
        len(pd.read_parquet(f))
        for f in glob.glob(os.path.join(root, "quarantine", "epoch=*", "*.parquet"))
    )
    assert q_rows2 == q_rows


@pytest.mark.usefixtures("ray_session")
def test_rowgroup_stats_pruning(tmp_path):
    """With a tx-ordered multi-row-group source, each epoch's prep plan
    touches only the row groups whose stats intersect its tx range —
    and the pruned run still produces the identical ledger."""
    import pyarrow.parquet as pq

    from cosmwasm_etl_ray.pipelines.transfer_parser import (
        _plan_epoch_shards,
    )

    src = str(tmp_path / "src")
    os.makedirs(src)
    t = pq.read_table(os.path.join(SF, "lineitem.parquet"))
    t = t.sort_by("l_orderkey")
    pq.write_table(t, os.path.join(src, "lineitem.parquet"), row_group_size=512)
    path = os.path.join(src, "lineitem.parquet")
    n_rg = pq.read_metadata(path).num_row_groups
    assert n_rg >= 8

    # a middle third of the key space must plan to a strict subset
    hi_key = int(t["l_orderkey"][-1].as_py()) + 1
    lo, hi = hi_key // 3, 2 * hi_key // 3
    planned = {
        rg
        for _, rgs in _plan_epoch_shards(path, lo, hi, 4, target_rows=512)
        for rg in rgs
    }
    assert planned and len(planned) < n_rg

    # and planned runs stay contiguous (one seek per read_row_groups)
    for _, rgs in _plan_epoch_shards(path, lo, hi, 4, target_rows=10**9):
        assert rgs == list(range(rgs[0], rgs[-1] + 1))

    from cosmwasm_etl_ray.pipelines.queries_transfers import transfer_ledger

    pipe = TransferParserPipeline(src, str(tmp_path / "store"), n_epochs=4)
    pipe.run()
    pd.testing.assert_frame_equal(
        _sorted(pipe.ledger().to_pandas()),
        _sorted(transfer_ledger(SF).to_pandas()),
    )


@pytest.mark.usefixtures("ray_session")
def test_epoch_locality_of_elimination(tmp_path):
    """Different epoch counts must give the identical ledger — the
    per-tx eliminator cannot see across txs, so epoch boundaries
    (which split BETWEEN txs) cannot change the result."""
    a = TransferParserPipeline(SF, str(tmp_path / "a"), n_epochs=1)
    b = TransferParserPipeline(SF, str(tmp_path / "b"), n_epochs=5)
    a.run()
    b.run()
    pd.testing.assert_frame_equal(
        _sorted(a.ledger().to_pandas()), _sorted(b.ledger().to_pandas())
    )


@pytest.mark.usefixtures("ray_session")
def test_single_partition_exchange(tmp_path):
    """num_partitions=1: the prep task returns one (ledger, quarantine)
    pair plus the counts (num_returns=2), and the one pid is one run —
    the same ledger must come out."""
    from cosmwasm_etl_ray.pipelines.queries_transfers import transfer_ledger

    pipe = TransferParserPipeline(
        SF, str(tmp_path / "store"), n_epochs=2, num_partitions=1
    )
    results = pipe.run()
    assert all(not r["skipped"] for r in results)
    got = _sorted(pipe.ledger().to_pandas())
    want = _sorted(transfer_ledger(SF).to_pandas())
    pd.testing.assert_frame_equal(got, want)


def test_empty_store_ledger_schema(tmp_path):
    """ledger() before any committed epoch returns the REAL dtypes
    (string pair/token/ttype), not an all-int64 placeholder."""
    pipe = TransferParserPipeline(SF, str(tmp_path / "store"), n_epochs=2)
    sch = pipe.ledger().schema()
    types = dict(zip(sch.names, [str(t) for t in sch.types]))
    assert types["pair"] == "string" and types["ttype"] == "string"
    assert types["tx_id"] == "int64" and types["amount"] == "int64"


@pytest.mark.usefixtures("ray_session")
def test_empty_ledger_frame_keeps_its_columns(tmp_path):
    """Before the first commit, ledger().to_pandas() has the six ledger
    columns with their dtypes, so a consumer can select them."""
    pipe = TransferParserPipeline(SF, str(tmp_path / "store"), n_epochs=2)
    df = pipe.ledger().to_pandas()[LEDGER_COLS]
    assert len(df) == 0
    assert {c: str(t) for c, t in df.dtypes.items()} == {
        "tx_id": "int64", "log_idx": "int64", "pair": "object",
        "token": "object", "ttype": "object", "amount": "int64",
    }
    assert pipe.ledger().count() == 0


def test_pid_runs_are_contiguous_sized_and_capped():
    """``compat.row_runs``, which cuts the ledger's pids into file runs
    (and the state reader's file components into tasks): runs tile
    [0, P) in order, there are at most ``cap`` of them, and each holds
    at least max(target, total / cap) rows unless it is the only run."""
    import numpy as np

    from cosmwasm_etl_ray.compat import row_runs

    rng = np.random.default_rng(7)
    cases = [np.zeros(16, np.int64), np.full(16, 99), np.full(16, 100), np.arange(64) * 10]
    cases += [rng.zipf(1.5, size=P).clip(0, 5000) for P in (1, 3, 32, 64) for _ in range(5)]
    for rows in cases:
        for cap in (1, 2, 8, 64):
            runs = row_runs(rows, cap, 100)
            assert runs[0][0] == 0 and runs[-1][1] == len(rows)
            assert [a for a, _ in runs[1:]] == [b for _, b in runs[:-1]]
            assert all(a < b for a, b in runs)
            assert len(runs) <= cap
            target = max(100, -(-int(rows.sum()) // cap))
            if len(runs) > 1:
                assert min(int(rows[a:b].sum()) for a, b in runs) >= target
    assert row_runs(np.full(16, 10), 8, 100) == [(0, 16)]  # a small epoch is one run


@pytest.mark.usefixtures("ray_session")
def test_epoch_with_several_files(tmp_path, monkeypatch):
    """With the row target low, an sf0.01 epoch cuts its pids into
    several runs, one file each and at most task_cap() of them; the
    ledger equals the one-shot query and no tx spans two files."""
    from cosmwasm_etl_ray.compat import task_cap
    from cosmwasm_etl_ray.pipelines.queries_transfers import transfer_ledger

    monkeypatch.setattr(tp, "ROW_GROUP_ROWS", 2000)
    pipe = TransferParserPipeline(SF01, str(tmp_path / "store"), n_epochs=2)
    pipe.run()
    for e in pipe.store.committed_epochs():
        own = [f for f in pipe.epoch_files() if f"epoch={e}{os.sep}" in f]
        assert 1 < len(own) <= task_cap(), (e, own)
    seen: set = set()
    for f in pipe.epoch_files():
        ids = set(pd.read_parquet(f, columns=["tx_id"])["tx_id"])
        assert not ids & seen, f
        seen |= ids
    pd.testing.assert_frame_equal(
        _sorted(pipe.ledger().to_pandas()), _sorted(transfer_ledger(SF01).to_pandas())
    )


@pytest.mark.usefixtures("ray_session")
def test_fresh_pipeline_resumes_later_epochs(tmp_path):
    """One pipeline runs epochs 0..1; a fresh one on the same store
    skips them and runs 2..3. Each small epoch wrote one ledger file,
    and the ledger equals the one-shot query."""
    from cosmwasm_etl_ray.pipelines.queries_transfers import transfer_ledger

    root = str(tmp_path / "store")
    first = TransferParserPipeline(SF, root, n_epochs=4, num_partitions=4)
    for e, (lo, hi) in enumerate(first.plan_epochs()[:2]):
        first.run_epoch(e, lo, hi)
    pipe = TransferParserPipeline(SF, root, n_epochs=4, num_partitions=4)
    assert [r["skipped"] for r in pipe.run()] == [True, True, False, False]
    assert len(pipe.epoch_files()) == 4
    pd.testing.assert_frame_equal(
        _sorted(pipe.ledger().to_pandas()), _sorted(transfer_ledger(SF).to_pandas())
    )


@pytest.mark.usefixtures("ray_session")
def test_crash_orphans_are_never_read(tmp_path, monkeypatch):
    """Epoch 1, cut into several files by a low row target, crashes
    before its manifest: its part files are named by no manifest and
    never read. The resume (one file at the default target) deletes
    them before it writes, and equals the quiet run."""
    quiet = TransferParserPipeline(SF, str(tmp_path / "quiet"), n_epochs=2)
    quiet.run()
    want = _sorted(quiet.ledger().to_pandas())

    root = str(tmp_path / "store")
    pipe = TransferParserPipeline(SF, root, n_epochs=2)
    plan = pipe.plan_epochs()
    pipe.run_epoch(0, *plan[0])
    with monkeypatch.context() as m:
        m.setattr(tp, "ROW_GROUP_ROWS", 50)

        def crash(*a, **k):
            raise OSError("crash before the manifest")

        m.setattr(pipe.store, "commit_epoch", crash)
        with pytest.raises(OSError, match="crash before the manifest"):
            pipe.run_epoch(1, *plan[1])
    orphans = glob.glob(os.path.join(root, "epoch=1", "part-*.parquet"))
    assert len(orphans) > 1 and pipe.store.committed_epochs() == [0]
    assert not set(orphans) & set(pipe.epoch_files())
    lo, hi = plan[0]
    pd.testing.assert_frame_equal(
        _sorted(pipe.ledger().to_pandas()), _sorted(want[(want.tx_id >= lo) & (want.tx_id < hi)])
    )

    resumed = TransferParserPipeline(SF, root, n_epochs=2)
    assert [r["skipped"] for r in resumed.run()] == [True, False]
    own = [f for f in resumed.epoch_files() if f"epoch=1{os.sep}" in f]
    assert len(own) == 1
    assert glob.glob(os.path.join(root, "epoch=1", "*")) == own  # the crashed cut is gone
    assert not [f for f in orphans if f not in own and os.path.exists(f)]
    q = glob.glob(os.path.join(resumed.store.quarantine_dir, "epoch=1", "*"))
    assert [os.path.basename(f) for f in q] in ([], [os.path.basename(own[0])])
    pd.testing.assert_frame_equal(_sorted(resumed.ledger().to_pandas()), want)


@pytest.mark.usefixtures("ray_session")
def test_ledger_reads_past_a_commit_gap(tmp_path):
    """Concurrent waves commit out of order: with epoch 1 in flight the
    ledger holds exactly epochs 0 and 2, and once 1 commits, all."""
    from cosmwasm_etl_ray.pipelines.queries_transfers import transfer_ledger

    want = _sorted(transfer_ledger(SF).to_pandas())
    pipe = TransferParserPipeline(SF, str(tmp_path / "store"), n_epochs=3, num_partitions=4)
    plan = pipe.plan_epochs()
    pipe.run_epoch(0, *plan[0])
    pipe.run_epoch(2, *plan[2])
    gap = (want.tx_id >= plan[1][0]) & (want.tx_id < plan[1][1])
    pd.testing.assert_frame_equal(_sorted(pipe.ledger().to_pandas()), _sorted(want[~gap]))
    pipe.run_epoch(1, *plan[1])
    pd.testing.assert_frame_equal(_sorted(pipe.ledger().to_pandas()), want)


@pytest.mark.usefixtures("ray_session")
def test_concurrent_waves_with_a_reader(tmp_path, monkeypatch):
    """Epoch waves run concurrently, cut into runs by a low row target,
    while a reader thread calls ledger() over and over: every read is
    the union of whole epochs of the quiet run, and the last is all of
    it."""
    import threading
    import time

    monkeypatch.setattr(tp, "ROW_GROUP_ROWS", 200)
    quiet = TransferParserPipeline(SF, str(tmp_path / "quiet"), n_epochs=6, num_partitions=4)
    quiet.run(max_concurrent=1)
    want = _sorted(quiet.ledger().to_pandas())
    plan = quiet.plan_epochs()
    by_epoch = [_sorted(want[(want.tx_id >= lo) & (want.tx_id < hi)]) for lo, hi in plan]

    pipe = TransferParserPipeline(SF, str(tmp_path / "store"), n_epochs=6, num_partitions=4)
    commit = pipe.store.commit_epoch

    def slow_commit(*a, **k):  # hold each partial store long enough to be read
        out = commit(*a, **k)
        time.sleep(0.2)
        return out

    monkeypatch.setattr(pipe.store, "commit_epoch", slow_commit)
    done = threading.Event()
    reads: list = []
    errs: list = []

    def reader():
        try:
            while not done.is_set():
                df = pipe.ledger().to_pandas()
                if len(df):  # an empty ledger converts to a frame without columns
                    reads.append(_sorted(df))
        except Exception as e:  # noqa: BLE001 — recorded and asserted
            errs.append(repr(e))

    t = threading.Thread(target=reader)
    t.start()
    try:
        results = pipe.run(max_concurrent=3)
    finally:
        done.set()
        t.join(timeout=120)
    assert not t.is_alive() and not errs, errs
    assert all(not r["skipped"] for r in results)
    reads.append(_sorted(pipe.ledger().to_pandas()))
    assert any(len(got) < len(want) for got in reads), "no read saw a partial store"
    for got in reads:
        for (lo, hi), whole in zip(plan, by_epoch):
            part = _sorted(got[(got.tx_id >= lo) & (got.tx_id < hi)])
            if len(part):
                pd.testing.assert_frame_equal(part, whole)
    pd.testing.assert_frame_equal(reads[-1], want)


@pytest.mark.usefixtures("ray_session")
def test_missing_committed_file_fails_loudly(tmp_path):
    """A committed epoch whose ledger file is gone makes ledger() raise,
    never return the other epochs' rows as if they were the ledger."""
    pipe = TransferParserPipeline(SF, str(tmp_path / "store"), n_epochs=2)
    pipe.run()
    os.remove(pipe.epoch_files()[0])
    with pytest.raises(Exception, match="No such file|not found|does not exist"):
        pipe.ledger().to_pandas()
