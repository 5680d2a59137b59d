import os
import sys

import pytest
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return SF_DIR


def _write_sparse_log(out_dir: str, seed: int, **gen_kw) -> list[str]:
    """A low-density change log for 8 pids: one 12k-event file over
    2,400 keys writes ~300-row bases, then fourteen 120-event files
    touch ~5% of a pid's rows each, so one-file epochs append links
    and fold on the 4-link bound (epochs 4, 8 and 12)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cosmwasm_etl_ray.config import GeneratorConfig
    from cosmwasm_etl_ray.sources.generator import generate_change_stream

    gen = generate_change_stream(
        os.path.join(out_dir, "gen"),
        GeneratorConfig(seed=seed, n_keys=2_400, n_events=120 * 114,
                        events_per_file=120, **gen_kw),
    )["files"]
    head = os.path.join(out_dir, "changes-00000.parquet")
    pq.write_table(
        pa.concat_tables([pq.read_table(f) for f in gen[:100]], promote_options="permissive"), head
    )
    files = [head]
    for i, f in enumerate(gen[100:], start=1):
        files.append(os.path.join(out_dir, f"changes-{i:05d}.parquet"))
        os.replace(f, files[-1])
    return files


def _rewrite_every_epoch(files: list[str], store, cfg) -> None:
    """Reference writer: copy-on-write at every epoch of
    ``plan_epochs(files, cfg)``, serially in the driver — each touched
    pid's whole state is rewritten through MergeWithState onto its one
    prior FILE (a bare path always folds), so every entry is a base."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from cosmwasm_etl_ray.pipelines.replay import plan_epochs
    from cosmwasm_etl_ray.stages.merge import MergeWithState
    from cosmwasm_etl_ray.stages.normalize import FlagAndPartition

    for e, batch in enumerate(plan_epochs(files, cfg)):
        t = pa.concat_tables([pq.read_table(f) for f in batch], promote_options="permissive")
        t = FlagAndPartition(cfg.num_partitions)(t)
        merge = MergeWithState(
            store.state_dir, e, store.partition_files(), quarantine_root=store.quarantine_dir
        )
        stats = [
            merge(t.filter(pc.equal(t["pid"], p))).to_pylist()[0]
            for p in sorted(pc.unique(t["pid"]).to_pylist())
        ]
        q = sum(s["quarantined"] for s in stats)
        store.commit_epoch(
            e,
            {s["pid"]: {k: s[k] for k in ("file", "rows", "live_rows")} for s in stats},
            (batch[0], batch[-1]),
            {"input_events": t.num_rows, "applied_events": t.num_rows - q,
             "quarantined": q, "touched_partitions": len(stats)},
            num_partitions=cfg.num_partitions,
        )


@pytest.fixture(scope="session")
def write_sparse_log():
    return _write_sparse_log


@pytest.fixture(scope="session")
def rewrite_every_epoch():
    return _rewrite_every_epoch
