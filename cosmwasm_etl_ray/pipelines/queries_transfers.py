"""Transfer-ledger pipelines: the M6-M12 mapper family end to end.

``transfer_ledger`` runs the full chain —

    raw logs (sources/rawlogs.py, encoded + scrambled + version-split)
      -> decode_raw_logs (S5 version-gated, M8 canonicalizing, failed
         txs skipped)
      -> TransferMapperFamily actor pool (M6 wasm signed vs pair set,
         M7 native multi-coin explode, M9 initial provide, M11 burns
         via lp->pair, M16 amount-asset split)
      -> eliminate_duplicate_transfers (M12 pop-list consume per tx)

and the oracle SQL rebuilds the same ledger from FIRST PRINCIPLES over
``lineitem`` — it never round-trips the attr-string encoding, so the
engine's encode -> decode -> map -> eliminate path is checked against
an independent derivation (the same discipline as
``sources/changes.py``'s CHANGES_CTE).

``transfer_pair_flows`` aggregates the ledger per (pair, token, ttype)
— the pool-level rollup the reference's aggregator derives from parsed
txs (/root/reference/aggregator/srcDataTypes.go).
"""

from __future__ import annotations

import pandas as pd

import ray.data

from cosmwasm_etl_ray.pipelines.transfer_parser import LEDGER_COLS
from cosmwasm_etl_ray.sources.rawlogs import raw_logs_from_lineitem
from cosmwasm_etl_ray.stages.transfers import (
    TransferMapperFamily,
    decode_raw_logs_batch,
    eliminate_duplicate_transfers,
)

# one materialized ledger per sf_dir, shared by transfer_ledger /
# transfer_pair_flows in the same process (a Dataset consumed twice
# re-executes its upstream); bench.py clears this per sweep
_LEDGER_CACHE: dict[str, "ray.data.Dataset"] = {}


def _ledger_ds(sf_dir: str) -> "ray.data.Dataset":
    if sf_dir in _LEDGER_CACHE:
        return _LEDGER_CACHE[sf_dir]
    decoded = raw_logs_from_lineitem(sf_dir).map_batches(
        decode_raw_logs_batch, batch_format="pyarrow"
    )
    # autoscaling pool with min 1: never deadlocks a small CPU budget
    # (a fixed size equal to num_cpus starves the read/shard tasks)
    mapped = decoded.map_batches(
        TransferMapperFamily, batch_format="pyarrow", concurrency=(1, 8)
    )
    out = eliminate_duplicate_transfers(mapped).materialize()
    _LEDGER_CACHE[sf_dir] = out
    return out


def transfer_ledger(sf_dir: str) -> "ray.data.Dataset":
    return _ledger_ds(sf_dir).select_columns(LEDGER_COLS)


def transfer_quarantine(sf_dir: str) -> "ray.data.Dataset":
    """Malformed logs (no amount attr after decode — the noise kind)
    surfaced as a quarantine side output instead of a silent drop
    (M13's ambiguity->quarantine path in the transfer domain,
    /root/reference/pkg/eventlog/util.go:58-114). Failed txs are
    SKIPPED, not quarantined — only decodable-but-unmappable logs
    land here."""
    import pyarrow.compute as pc

    decoded = raw_logs_from_lineitem(sf_dir).map_batches(
        decode_raw_logs_batch, batch_format="pyarrow"
    )
    return decoded.map_batches(
        lambda t: t.filter(pc.is_null(t["amount_str"])).select(
            ["tx_id", "log_idx", "kind", "contract"]
        ),
        batch_format="pyarrow",
    )


def transfer_ledger_epochs(sf_dir: str) -> "ray.data.Dataset":
    """The SAME ledger produced through the epoch-driven exactly-once
    sink (`pipelines/transfer_parser.py`) instead of the one-shot
    pipeline — the gate hash-checks the parse->partitioned-write->
    manifest->read-back path against the identical oracle."""
    import shutil
    import tempfile

    from cosmwasm_etl_ray.pipelines.transfer_parser import (
        TransferParserPipeline,
    )

    root = tempfile.mkdtemp(prefix="transfer_parser_", dir="/tmp")
    try:
        pipe = TransferParserPipeline(sf_dir, root, n_epochs=4)
        pipe.run()
        return pipe.ledger().select_columns(LEDGER_COLS).materialize()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def transfer_ledger_resumed(sf_dir: str) -> "ray.data.Dataset":
    """The epoch-sink ledger written by two pipeline objects: one runs
    epochs 0..1, then a fresh one on the same store runs ``run()``,
    which skips the committed epochs and resumes 2..3 — the gate
    hash-checks that the resumed store reads exactly the one-shot
    ledger."""
    import shutil
    import tempfile

    from cosmwasm_etl_ray.pipelines.transfer_parser import (
        TransferParserPipeline,
    )

    root = tempfile.mkdtemp(prefix="transfer_resume_", dir="/tmp")
    try:
        first = TransferParserPipeline(sf_dir, root, n_epochs=4)
        for e, (lo, hi) in enumerate(first.plan_epochs()[:2]):
            first.run_epoch(e, lo, hi)
        pipe = TransferParserPipeline(sf_dir, root, n_epochs=4)
        pipe.run()
        return pipe.ledger().select_columns(LEDGER_COLS).materialize()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def transfer_pair_flows(sf_dir: str) -> pd.DataFrame:
    from cosmwasm_etl_ray.functions.agg import grouped_agg

    return grouped_agg(
        _ledger_ds(sf_dir),
        keys=["pair", "token", "ttype"],
        spec={"net_amount": ("amount", "sum_checked"), "n": ("amount", "count")},
        final="driver",
    )


# ---------------------------------------------------------------- SQL

# The ledger from first principles (formulas of sources/rawlogs.py).
_LEDGER_CTE = """
li AS (
    SELECT l_orderkey AS ok, CAST(l_linenumber AS BIGINT) AS ln,
           l_partkey AS pk, l_suppkey AS sk, CAST(l_quantity AS BIGINT) AS q
    FROM lineitem
    WHERE l_orderkey % 53 <> 0              -- failed txs skipped (code != 0)
),
ext AS (
    SELECT ok, ln,
           (ok*31 + ln*17) % 10 AS kdet,
           (ok + ln) % 2 AS dir,
           'pair_' || lpad(CAST(pk % 29 AS VARCHAR), 2, '0') AS pair,
           'lp_'   || lpad(CAST(pk % 29 AS VARCHAR), 2, '0') AS lp,
           'tok_'  || lpad(CAST(sk % 13 AS VARCHAR), 2, '0') AS tok,
           'tok_'  || lpad(CAST((sk+1) % 13 AS VARCHAR), 2, '0') AS tok2,
           q*1000 + pk % 997 AS amt,
           (q*1000 + pk % 997) // 2 + 1 AS amt2,
           (q*1000 + pk % 997) - (q*1000 + pk % 997) % 7 AS net,
           (pk % 29) % 3 <> 0 AS reg,       -- pair registered in the key set
           sk % 13 = 7 AS excl              -- skip-listed CW20 token
    FROM li
),
transfers_raw AS (
        SELECT ok AS tx_id, ln*2 AS log_idx, pair, tok AS token,
               CASE WHEN dir = 0 THEN amt ELSE -amt END AS amount
        FROM ext WHERE kdet <= 3 AND reg AND NOT excl
    UNION ALL                               -- native coin 1 (no skip list)
        SELECT ok, ln*2, pair, tok, CASE WHEN dir = 0 THEN amt ELSE -amt END
        FROM ext WHERE kdet IN (4, 5) AND reg
    UNION ALL                               -- native coin 2
        SELECT ok, ln*2, pair, tok2, CASE WHEN dir = 0 THEN amt2 ELSE -amt2 END
        FROM ext WHERE kdet IN (4, 5) AND reg
    UNION ALL                               -- the action's duplicate transfer
        SELECT ok, ln*2 + 1, pair, tok,
               CASE WHEN dir = 0 THEN amt ELSE -net END
        FROM ext WHERE kdet = 6 AND reg AND NOT excl
),
actions AS (
    SELECT ok AS tx_id, ln*2 AS log_idx, pair, tok AS token,
           'provide' AS ttype,
           CASE WHEN dir = 0 THEN amt ELSE -amt END AS amount
    FROM ext WHERE kdet = 6 AND reg
),
others AS (
        SELECT ok AS tx_id, ln*2 AS log_idx, pair, lp AS token,
               'initial_provide' AS ttype, amt AS amount
        FROM ext WHERE kdet = 7 AND dir = 0 AND reg
    UNION ALL                               -- pair-sender burns dropped
        SELECT ok, ln*2, pair, lp, 'burn', -amt
        FROM ext WHERE kdet = 8 AND dir = 0 AND reg
),
pop AS (
    SELECT tx_id, pair, token,
           CASE WHEN amount >= 0 THEN amount
                ELSE -((-amount) - ((-amount) % 7)) END AS amount,
           count(*) AS n_pop
    FROM actions GROUP BY 1, 2, 3, 4
),
ranked AS (
    SELECT t.*,
           row_number() OVER (PARTITION BY tx_id, pair, token, amount
                              ORDER BY log_idx) AS rn
    FROM transfers_raw t
),
ledger AS (
        SELECT r.tx_id, r.log_idx, r.pair, r.token,
               'transfer' AS ttype, r.amount
        FROM ranked r
        LEFT JOIN pop p ON p.tx_id = r.tx_id AND p.pair = r.pair
                       AND p.token = r.token AND p.amount = r.amount
        WHERE p.n_pop IS NULL OR r.rn > p.n_pop
    UNION ALL
        SELECT tx_id, log_idx, pair, token, ttype, amount FROM actions
    UNION ALL
        SELECT tx_id, log_idx, pair, token, ttype, amount FROM others
)
"""

QUERIES = {
    "transfer_ledger": transfer_ledger,
    "transfer_pair_flows": transfer_pair_flows,
    "transfer_quarantine": transfer_quarantine,
    "transfer_ledger_epochs": transfer_ledger_epochs,
    "transfer_ledger_resumed": transfer_ledger_resumed,
}

ORACLE_SQL = {
    "transfer_ledger": f"""
WITH {_LEDGER_CTE.strip()}
SELECT tx_id, log_idx, pair, token, ttype, amount FROM ledger
""",
    # identical result through the epoch sink
    "transfer_ledger_epochs": f"""
WITH {_LEDGER_CTE.strip()}
SELECT tx_id, log_idx, pair, token, ttype, amount FROM ledger
""",
    # identical result through the epoch sink, resumed by a second pipeline
    "transfer_ledger_resumed": f"""
WITH {_LEDGER_CTE.strip()}
SELECT tx_id, log_idx, pair, token, ttype, amount FROM ledger
""",
    "transfer_pair_flows": f"""
WITH {_LEDGER_CTE.strip()}
SELECT pair, token, ttype,
       CAST(sum(amount) AS BIGINT) AS net_amount,
       CAST(count(*) AS BIGINT) AS n
FROM ledger GROUP BY pair, token, ttype
""",
    # noise logs are exactly the kdet=9 rows of non-failed txs
    "transfer_quarantine": """
SELECT l_orderkey AS tx_id,
       CAST(l_linenumber AS BIGINT) * 2 AS log_idx,
       'noise' AS kind,
       'junk' AS contract
FROM lineitem
WHERE l_orderkey % 53 <> 0
  AND (l_orderkey*31 + CAST(l_linenumber AS BIGINT)*17) % 10 = 9
""",
}
