"""Prep encodes a shard's keys once: ``assign_partition`` and price's
``_repo_shard`` (distinct strings hashed once) equal their per-row
formulas, ``_prep_split``
equals flag → per-row pid → ``fold_lww_arrow`` over the valid rows →
stable split, and ``_valid_mask``'s commit check agrees with the regex
it replaced."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from cosmwasm_etl_ray.functions.hashing import assign_partition, stable_hash64
from cosmwasm_etl_ray.pipelines.price_direct import _repo_shard
from cosmwasm_etl_ray.pipelines.replay import _pid_groups, _prep_split
from cosmwasm_etl_ray.stages.merge import fold_lww_arrow
from cosmwasm_etl_ray.stages.normalize import _valid_mask
from cosmwasm_etl_ray.stages.rules import Rule, RuleSet, default_cdc_rules

P = 64
LONG = "x" * 299 + "é"


def _row_pid(repo: list, path: list, n: int) -> np.ndarray:
    """The per-row formula: null → "", stable_hash64 per row, % P."""
    cols = [np.array(["" if v is None else v for v in c], dtype=object) for c in (repo, path)]
    return (stable_hash64(*cols) % np.uint64(n)).astype(np.int32)


def _keys(n: int, seed: int) -> tuple[list, list]:
    rng = np.random.default_rng(seed)
    pool = ["", "r0", "r1", "dé/jà", "日本語", "emoji-🙂", LONG, None, "None"]
    repo = [pool[i] for i in rng.integers(0, len(pool), n)]
    path = [pool[i] if i < len(pool) else f"p{i}" for i in rng.integers(0, 40, n)]
    return repo, path


@pytest.mark.parametrize("n_partitions", [1, 7, P])
def test_assign_partition_equals_per_row_hash(n_partitions):
    repo, path = _keys(3000, 5)
    want = _row_pid(repo, path, n_partitions)
    r, p = pa.array(repo, pa.string()), pa.array(path, pa.string())
    inputs = {
        "arrow": (r, p),
        "chunked": (pa.chunked_array([r[:1000], r[1000:]]),
                    pa.chunked_array([p[:10], p[10:2500], p[2500:]])),
        "large_string": (r.cast(pa.large_string()), p.cast(pa.large_string())),
        "dictionary": (pa.chunked_array([r[:1500].dictionary_encode(),
                                         r[1500:].dictionary_encode()]),
                       p.dictionary_encode()),
        "numpy": (np.array(repo, dtype=object), np.array(path, dtype=object)),
    }
    # price's repo shard, per row: stable_hash64(repo) % S, null hashed as None
    want_repo = (stable_hash64(np.array(repo, dtype=object)) % np.uint64(n_partitions)).astype(np.int32)
    for name, (a, b) in inputs.items():
        got = assign_partition(a, b, n_partitions)
        assert got.dtype == np.int32, name
        np.testing.assert_array_equal(got, want, err_msg=name)
        np.testing.assert_array_equal(_repo_shard(a, n_partitions), want_repo, err_msg=name)
    assert assign_partition(pa.array([], pa.string()), pa.array([], pa.string()), 8).size == 0


def _shard(n: int, seed: int) -> pa.Table:
    """Keys with nulls, "" and non-ASCII, many commit ties, ~10%
    malformed commits and unknown ops, some 'modify' rows for the
    ruleset's mapper."""
    rng = np.random.default_rng(seed)
    repo, path = _keys(n, seed + 1)
    commit = [f"{c:06d}" for c in rng.integers(0, 50, n)]
    for i in np.flatnonzero(rng.random(n) < 0.05):
        commit[i] = ["", "12a", " 12", None, "１２"][i % 5]
    op = [["insert", "update", "delete", "weird", "modify"][i]
          for i in rng.choice(5, n, p=[0.3, 0.4, 0.15, 0.05, 0.1])]
    return pa.table({
        "repo": pa.array(repo, pa.string()),
        "path": pa.array(path, pa.string()),
        "commit": pa.array(commit, pa.string()),
        "op": pa.array(op, pa.string()),
        "content": pa.array([f"c{i}" for i in range(n)], pa.string()),
    })


def _ruleset(name: str):
    """None, a mapper that rewrites 'modify' rows, or one rule that
    admits null keys (so null codes reach the combiner)."""
    if name == "compiled":
        return None
    if name == "null_keys":
        return RuleSet([Rule("any_key", {"commit": ("re", r"^[0-9]+$")})])

    def to_update(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("op")
        return t.set_column(i, "op", pa.array(["update"] * t.num_rows, pa.string()))

    base = {"commit": ("re", r"^[0-9]+$"), "repo": None, "path": None}
    return default_cdc_rules().with_rule(Rule("modify", {**base, "op": "modify"}, mapper=to_update))


def _reference(t: pa.Table, bounds: list[int], ruleset, combine: bool):
    """The prep output from first principles: flag, per-row pid, the
    LWW winners of the valid rows (fold_lww_arrow) kept in input order
    with every invalid row, then a stable split by pid-group."""
    if ruleset is None:
        t = t.append_column("valid", _valid_mask(t))
    else:
        t = ruleset.apply_mappers(ruleset.classify(t)).drop_columns(["rule_type"])
    pid = _row_pid(t["repo"].to_pylist(), t["path"].to_pylist(), bounds[-1])
    t = t.append_column("pid", pa.array(pid, pa.int32()))
    valid = np.array([bool(v) for v in t["valid"].to_pylist()])
    if combine and valid.any():
        pos = t.append_column("_pos", pa.array(np.arange(t.num_rows)))
        won = fold_lww_arrow(pos.filter(pa.array(valid)))["_pos"].to_numpy()
        keep = np.sort(np.concatenate([won, np.flatnonzero(~valid)]))
        t, pid = t.take(pa.array(keep)), pid[keep]
    group = np.searchsorted(bounds, pid, "right") - 1
    parts = [t.filter(pa.array(group == g)) for g in range(len(bounds) - 1)]
    parts = [p if p.num_rows else None for p in parts]
    return parts[0] if len(parts) == 1 else tuple(parts)


def _same(got, want) -> bool:
    got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
    return len(got) == len(want) and all(
        (a is None and b is None) or (a is not None and b is not None and a.equals(b))
        for a, b in zip(got, want)
    )


@pytest.mark.parametrize("combine", [True, False])
@pytest.mark.parametrize("rules", ["compiled", "modify", "null_keys"])
@pytest.mark.parametrize("G", [1, 3, 16])
def test_prep_split_equals_per_row_reference(combine, rules, G):
    bounds = _pid_groups(P, G)
    ruleset = _ruleset(rules)
    t = _shard(4000, 11)
    invalid = t.set_column(2, "commit", pa.array(["bad"] * t.num_rows, pa.string()))
    for shard in (t, invalid, t.slice(0, 0), t.slice(0, 1)):
        want = _reference(shard, bounds, ruleset, combine)
        assert _same(_prep_split(shard, bounds, ruleset, combine), want)
    folded = _prep_split(t, bounds, ruleset, combine)
    rows = sum(p.num_rows for p in ([folded] if G == 1 else folded) if p is not None)
    assert (rows < t.num_rows) == combine  # the shard does have duplicate keys


@pytest.mark.parametrize("value", ["", "12a", " 12", "12\n", "１２", None, "0", "0123456789"])
def test_valid_mask_commit_check_agrees_with_regex(value):
    t = pa.table({
        "repo": ["r"], "path": ["p"], "op": ["insert"],
        "commit": pa.array([value], pa.string()),
    })
    regex = pc.match_substring_regex(pc.coalesce(t["commit"], pa.scalar("")), r"^[0-9]+$")
    assert _valid_mask(t).to_pylist() == regex.to_pylist()
    assert _valid_mask(t).to_pylist() == [value is not None and value.isascii() and value.isdigit()]
