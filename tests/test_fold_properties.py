"""Property-based tests (hypothesis): the distributed fold must equal
the serial oracle for ARBITRARY event sequences, under arbitrary
batch splits, and remain associative. This is the strongest correctness
evidence the fold can get without a cluster.

No Ray needed — the fold functions are pure; the end-to-end Ray path is
covered by tests/test_replay_end_to_end.py.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from cosmwasm_etl_ray.stages.merge import fold_lww_arrow, fold_override, fold_partial_arrow

# non-ASCII keys pin that the fold's key order (Arrow compares UTF-8
# bytes) is code-point order: U+FFFD sorts below U+1F600 here, above
# it in UTF-16
KEYS = [
    ("r0", "a"), ("r0", "b"), ("r1", "a"), ("r1", "c"), ("r2", "z"),
    ("r0", "é"), ("é", "a"), ("中", "\ufffd"), ("中", "\U0001F600"), ("r1", "a\u00e9"),
]


def events_strategy(allow_empty_cols=False):
    val = st.text(alphabet="xyzé中\U0001F600", min_size=0 if allow_empty_cols else 1, max_size=3)
    return st.lists(
        st.tuples(
            st.sampled_from(range(len(KEYS))),
            st.integers(min_value=0, max_value=99),        # commit
            st.sampled_from(["insert", "update", "delete"]),
            val,                                            # lang
            val,                                            # content
        ),
        min_size=0,
        max_size=60,
    )


def to_df(events):
    rows = []
    for ki, commit, op, lang, content in events:
        r, p = KEYS[ki]
        rows.append(
            {
                "repo": r,
                "path": p,
                "commit": f"{commit:010d}",
                "op": op,
                "lang": "" if op == "delete" else lang,
                "content": "" if op == "delete" else content,
            }
        )
    return pd.DataFrame(
        rows, columns=["repo", "path", "commit", "op", "lang", "content"]
    )


def serial_lww(df: pd.DataFrame) -> dict:
    state = {}
    for row in df.sort_values("commit", kind="stable").to_dict("records"):
        k = (row["repo"], row["path"])
        if row["op"] == "delete":
            state.pop(k, None)
        else:
            state[k] = (row["commit"], row["lang"], row["content"])
    return state


def serial_override(df: pd.DataFrame) -> dict:
    state = {}
    for row in df.sort_values("commit", kind="stable").to_dict("records"):
        k = (row["repo"], row["path"])
        if row["op"] == "delete":
            state.pop(k, None)
            continue
        cur = state.get(k, (None, None, None))
        lang = row["lang"] if row["lang"] else cur[1]
        content = row["content"] if row["content"] else cur[2]
        state[k] = (row["commit"], lang, content)
    return state


def lww(df: pd.DataFrame) -> pd.DataFrame:
    """fold_lww_arrow on a frame (tombstones kept)."""
    return fold_lww_arrow(pa.Table.from_pandas(df, preserve_index=False)).to_pandas()


def combine(df: pd.DataFrame) -> pd.DataFrame:
    """The prep combiner on a frame whose rows are all valid."""
    t = pa.Table.from_pandas(df, preserve_index=False)
    t = t.append_column("valid", pa.array(np.ones(len(df), bool)))
    return fold_partial_arrow(t).drop_columns(["valid"]).to_pandas()


def engine_state(df: pd.DataFrame, fold) -> dict:
    out = fold(df)
    out = out[out["op"] != "delete"]
    return {
        (r.repo, r.path): (
            r.commit,
            r.lang if isinstance(r.lang, str) else None,
            r.content if isinstance(r.content, str) else None,
        )
        for r in out.itertuples()
    }


@settings(max_examples=200, deadline=None)
@given(events_strategy())
def test_lww_fold_equals_serial_oracle(events):
    df = to_df(events)
    # serial oracle applies in (commit, input-order); make commits
    # unique per key so the tie-break question is separated out
    df = df.drop_duplicates(["repo", "path", "commit"], keep="last")
    assert engine_state(df, lww) == serial_lww(df)


@settings(max_examples=200, deadline=None)
@given(events_strategy(), st.integers(min_value=1, max_value=5))
def test_lww_fold_split_invariance(events, n_splits):
    """fold(concat(combine(chunk_i))) == fold(whole) for any split —
    the combiner → merge correctness property."""
    df = to_df(events)
    whole = engine_state(df, lww)
    chunks = np.array_split(df, n_splits)
    partials = pd.concat(
        [combine(c.reset_index(drop=True)) for c in chunks if len(c)], ignore_index=True
    ) if len(df) else df
    assert engine_state(partials, lww) == whole


@settings(max_examples=200, deadline=None)
@given(events_strategy(allow_empty_cols=True))
def test_override_fold_equals_serial_oracle(events):
    df = to_df(events)
    df = df.drop_duplicates(["repo", "path", "commit"], keep="last")
    got = engine_state(df, fold_override)
    expect = serial_override(df)
    assert got == expect


@settings(max_examples=200, deadline=None)
@given(events_strategy())
def test_arrow_fold_equals_pandas_fold_any_sequence(events):
    """fold_lww_arrow picks the same winners, in the same key order, as
    a pandas reference for ARBITRARY sequences (including commit ties:
    later input position wins in both; Python orders str by code
    point)."""
    df = to_df(events)
    if df.empty:
        return
    expect = (
        df.sort_values("commit", kind="stable")
        .drop_duplicates(["repo", "path"], keep="last")
        .sort_values(["repo", "path"], kind="stable")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(lww(df), expect)


@settings(max_examples=100, deadline=None)
@given(events_strategy(), st.integers(min_value=1, max_value=5))
def test_arrow_fold_split_invariance(events, n_splits):
    """Arrow-fold(concat(Arrow-fold(chunk_i))) == Arrow-fold(whole)."""
    df = to_df(events)
    if df.empty:
        return
    t = pa.Table.from_pandas(df, preserve_index=False)
    whole = fold_lww_arrow(t).to_pandas()
    chunks = [
        pa.Table.from_pandas(c.reset_index(drop=True), preserve_index=False)
        for c in np.array_split(df, n_splits)
        if len(c)
    ]
    partials = pa.concat_tables([fold_lww_arrow(c) for c in chunks])
    refold = fold_lww_arrow(partials).to_pandas()
    pd.testing.assert_frame_equal(refold, whole)


# ---------------------------------------------- range-join bucket math


@given(
    st.integers(min_value=1, max_value=10_000).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.integers(min_value=0, max_value=10**9),      # start
            st.integers(min_value=0, max_value=w),          # span <= width
            st.integers(min_value=-2 * 10_000, max_value=3 * 10_000),  # ts offset
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_range_join_bucket_cover(params):
    """The replication invariant functions/joins.range_join relies on:
    for any interval with span <= width, every contained ts falls in
    bucket(start) or bucket(end) — so <= 2 replicas never miss a
    match, for ANY start alignment and span."""
    w, s, span, off = params
    e = s + span
    ts = s + off
    if not (s <= ts <= e):
        return  # only contained points must be covered
    assert ts // w in (s // w, e // w)
