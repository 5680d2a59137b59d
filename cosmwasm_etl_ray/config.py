"""Engine configuration.

The reference configures via Viper YAML + env overrides
(/root/reference/configs/config.go:88-110); here a frozen dataclass is
enough — every pipeline entry point takes an explicit config object.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for the CDC replay engine — six, none of which selects
    an execution path or a state layout: every epoch runs the one
    direct pid-chained exchange (pipelines/replay.py), whatever the
    entry point, and each merge link appends to or folds its pid's
    state chain by the chain's own row counts (stages/merge.appends —
    a policy with module constants, not a knob).

    num_partitions is the analogue of the reference's fixed key space
    partitioning decision: it is FIXED independently of cluster size so
    the partition → state-file mapping is stable across epochs and
    cluster sizes (determinism requirement, SURVEY.md §7.4). 64 keeps
    per-partition state files reasonable at bench scale; at 100 TB you
    would raise it (e.g. 4096) — it bounds max parallelism of the merge
    stage and the size of one state partition, not correctness.
    """

    # keyed-upsert core
    num_partitions: int = 64

    # epoching: max change events pulled per epoch (the analogue of the
    # reference's height-batch limit, GetParsedTxsWithLimit
    # /root/reference/pkg/db/parser/repository.go:143-164 — batches are
    # sliced on commit boundaries, never splitting one commit)
    epoch_max_events: int = 2_000_000

    # minimum rows per prep task (large epochs raise it to keep
    # ≤ 2×NCPU prep tasks per epoch) and the store-less fold's
    # combiner batch
    batch_size: int = 32_768

    # validation cadence (reference: every 1000 heights,
    # /root/reference/configs/parser.config.go:9-12)
    validation_interval_epochs: int = 4

    # Override column-coalesce semantics (reference ParsedTx.Override,
    # /root/reference/parser/dex/dto.go:45-95): when True, a null/empty
    # column in an update inherits the previous value column-wise.
    # When False (default), updates are whole-row LWW. The coalesce is
    # not associative, so in Override mode every link folds onto the
    # pid's whole state (a base) instead of appending.
    override_coalesce: bool = False

    # Declarative rule registry (stages/rules.RuleSet) — the user
    # extension surface (/root/reference/pkg/eventlog/rule.go:15-22):
    # None means the built-in CDC protocol via the compiled fast path
    # (behaviorally identical to stages.rules.default_cdc_rules()).
    rules: object | None = None


DEFAULT_CONFIG = EngineConfig()


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic synthetic change-stream generator parameters.

    Mirrors FIXTURES.md §1: Zipf-skewed keys, mid-stream key creation,
    malformed rows for quarantine, additive schema evolution. Fixed
    seed → byte-identical output for a given (seed, n_events).
    """

    seed: int = 42
    n_keys: int = 10_000
    n_events: int = 100_000
    n_repos: int = 40
    zipf_a: float = 1.3          # repo popularity skew
    delete_frac: float = 0.08
    malformed_frac: float = 0.002
    # additive schema evolution: the `mode` column appears from this
    # fraction of the stream onward (None → no evolution)
    evolve_at_frac: float | None = 0.5
    content_len: int = 200
    events_per_file: int = 50_000
