"""Normalize / validate / route stage — the parse front of the engine.

Graft of the reference's per-height parse step: rule-based event
classification (/root/reference/pkg/eventlog/finder.go:36-116) becomes
a vectorized validity + op classification over Arrow batches; the
ambiguity → quarantine path (/root/reference/pkg/eventlog/util.go:58-114,
/root/reference/parser/dex/quarantine.go:18-27) becomes a side filter
producing a dead-letter Dataset that preserves the raw row for
deterministic replay.

All functions are pure per-batch transforms (stateless map_batches,
batch_format="pyarrow", zero-copy in).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from cosmwasm_etl_ray.functions.hashing import assign_partition

_VALID_OPS = ("insert", "update", "delete")


def _valid_mask(batch: pa.Table) -> pa.Array:
    """A row is valid iff commit is a non-empty string of ASCII digits
    (what ``^[0-9]+$`` accepts, without the regex) and op is a known op.
    Malformed rows are the quarantine side output."""
    ok_commit = pc.fill_null(pc.ascii_is_decimal(batch["commit"]), False)
    ok_op = pc.is_in(batch["op"], value_set=pa.array(_VALID_OPS))
    ok_key = pc.and_(
        pc.invert(pc.is_null(batch["repo"])), pc.invert(pc.is_null(batch["path"]))
    )
    return pc.and_(pc.and_(ok_commit, ok_op), ok_key).combine_chunks()


def valid_events(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    return ds.map_batches(
        lambda t: t.filter(_valid_mask(t)), batch_format="pyarrow"
    )


def quarantine_events(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Dead-letter rows, raw payload preserved + error tag (the
    ParseQuarantine analogue). Replay = fix + feed back through
    valid_events in a later epoch."""

    def q(t: pa.Table) -> pa.Table:
        bad = t.filter(pc.invert(_valid_mask(t)))
        return bad.append_column(
            "error", pa.array(["invalid_commit_or_op"] * len(bad), type=pa.string())
        )

    return ds.map_batches(q, batch_format="pyarrow")


def flag(batch: pa.Table, ruleset=None) -> pa.Table:
    """Adds ``valid`` (bool): the compiled ``_valid_mask``, or with a
    ruleset its classification, after its mappers rewrite their rows."""
    if ruleset is None:
        return batch.append_column("valid", _valid_mask(batch))
    batch = ruleset.apply_mappers(ruleset.classify(batch))
    return batch.drop_columns(["rule_type"])


class FlagAndPartition:
    """Single-pass front stage: adds ``valid`` (bool) and ``pid``.

    Invalid (quarantine) rows keep flowing through the SAME shuffle as
    valid ones and are split out inside the merge stage — one read of
    the input instead of three (valid pass, quarantine count pass,
    quarantine write pass).

    With ``ruleset`` (a stages.rules.RuleSet), classification runs
    through the declarative registry instead: ``valid`` = matched any
    rule, rule mappers rewrite their rows, and the transient
    ``rule_type`` column is dropped before the shuffle. The default
    (no ruleset) is the compiled fast path, behaviorally identical to
    ``rules.default_cdc_rules()`` (asserted in tests)."""

    def __init__(self, num_partitions: int, ruleset=None):
        self.p = num_partitions
        self.ruleset = ruleset

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = flag(batch, self.ruleset)
        pid = assign_partition(batch["repo"], batch["path"], self.p)
        return batch.append_column("pid", pa.array(pid, type=pa.int32()))
