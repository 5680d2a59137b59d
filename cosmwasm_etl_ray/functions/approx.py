"""Approximate distinct counting (HyperLogLog) as a Ray Data combiner.

The 100-TB shape for COUNT(DISTINCT x) GROUP BY g when x's cardinality
is corpus-scale: every batch contracts to at most ``groups x m``
register rows (register index, max leading-zero rank), registers merge
by elementwise max — an associative, commutative, idempotent fold, so
the result is IDENTICAL under any partitioning, batch order, or retry
(the same order-free-fold discipline as the replay's LWW merge). The
exchange never carries rows, only registers.

Determinism: the only randomness in HLL is the hash; ours is the
engine-wide ``stable_hash64`` (SipHash per column), so estimates are
reproducible across runs and cluster sizes. Estimator = the standard
HyperLogLog of Flajolet et al. (2007) with the small-range
linear-counting correction; with m=1024 registers the standard error
is 1.04/sqrt(m) ~ 3.3%.

Leading-zero ranks use the LOW 52 bits of the hash (exactly
representable in float64) so frexp gives floor(log2) without epsilon;
the register index takes the top 10.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

HLL_P = 10
HLL_M = 1 << HLL_P  # 1024 registers
_W_BITS = 52  # rank bits: exactly representable in float64
_W_MASK = np.uint64((1 << _W_BITS) - 1)
# alpha_m for m >= 128 (Flajolet et al., Fig. 3)
_ALPHA = 0.7213 / (1.0 + 1.079 / HLL_M)


def _rho(w: np.ndarray) -> np.ndarray:
    """1 + leading zeros of w within _W_BITS bits; w == 0 -> max rank."""
    out = np.full(len(w), _W_BITS + 1, dtype=np.int64)
    nz = w != 0
    if nz.any():
        # frexp: w = mant * 2^e with mant in [0.5, 1) -> floor(log2) = e-1,
        # exact for integers < 2^53
        _, e = np.frexp(w[nz].astype(np.float64))
        out[nz] = _W_BITS - (e.astype(np.int64) - 1)
    return out


def hll_partial(group: np.ndarray, hashed: np.ndarray) -> pd.DataFrame:
    """One batch -> its register maxima: (group, register, rho) rows,
    <= groups x m of them regardless of batch size."""
    idx = (hashed >> np.uint64(_W_BITS)).astype(np.int64) % HLL_M
    rho = _rho(hashed & _W_MASK)
    df = pd.DataFrame({"g": group, "reg": idx, "rho": rho})
    return df.groupby(["g", "reg"], sort=False)["rho"].max().reset_index()


def hll_estimate(regs: pd.DataFrame) -> pd.DataFrame:
    """Merged registers -> per-group estimate. ``regs`` holds the
    global max rho per (g, reg); absent registers are zero."""
    rows = []
    for g, sub in regs.groupby("g", sort=False):
        m_vals = np.zeros(HLL_M, dtype=np.int64)
        m_vals[sub["reg"].to_numpy()] = sub["rho"].to_numpy()
        est = _ALPHA * HLL_M * HLL_M / np.sum(np.exp2(-m_vals.astype(np.float64)))
        zeros = int((m_vals == 0).sum())
        if est <= 2.5 * HLL_M and zeros:
            est = HLL_M * np.log(HLL_M / zeros)  # linear counting
        rows.append({"g": g, "hll_est": float(est)})
    return pd.DataFrame(rows)


def hll_fold(g: pd.DataFrame) -> pd.DataFrame:
    """Register-max fold (idempotent — also the coalescing pre-fold
    that bounds exchange input by groups x m per batch, not per
    block)."""
    return g.groupby(["g", "reg"], sort=False, as_index=False)["rho"].max()


def approx_distinct(
    ds: "ray.data.Dataset",
    partial_fn,
    shards: int = 8,
) -> pd.DataFrame:
    """Distributed HLL: ``partial_fn(df) -> (g, reg, rho)`` register
    rows per batch (caller controls what is hashed), register-max
    exchange by group, then the tiny estimate fold (groups x m rows)."""
    from cosmwasm_etl_ray.functions.agg import shard_exchange

    def reduce_shard(g: pd.DataFrame) -> pd.DataFrame:
        merged = hll_fold(g)
        return hll_estimate(merged)

    part = ds.map_batches(partial_fn, batch_format="pandas").map_batches(
        hll_fold, batch_format="pandas", batch_size=64 * HLL_M
    )
    res = shard_exchange(part, ["g"], reduce_shard, shards).to_pandas()
    if res.empty:  # Ray to_pandas drops columns on ANY empty dataset
        return pd.DataFrame(columns=["g", "hll_est"])
    return res.sort_values("g").reset_index(drop=True)


# ------------------------------------------------ mergeable quantile sketch

QSKETCH_K = 200  # summary points per block per group


def qsketch_partial(
    group: np.ndarray, values: np.ndarray, k: int = QSKETCH_K
) -> pd.DataFrame:
    """One batch -> per-group equi-depth summaries: <= k+1 weighted
    points per group. A block's summary carries at most n_i/(k+1) rank
    uncertainty, and summed over blocks that is n/(k+1) total — the
    deterministic mergeable-summary bound (no randomness anywhere, so
    the merged estimate is partition-invariant up to summary content,
    and the CONTRACT below is graded on the true measured rank).
    Small groups (n <= k+1) keep every value: exact."""
    if not len(group):  # np.r_[True, ...] below would fabricate a run
        return pd.DataFrame(
            {"g": [], "v": pd.Series([], dtype="float64"),
             "w": pd.Series([], dtype="float64")}
        )
    out_g, out_v, out_w = [], [], []
    order = np.argsort(group, kind="stable")
    sg, sv = group[order], values[order]
    bounds = np.flatnonzero(np.r_[True, sg[1:] != sg[:-1]])
    for i, s in enumerate(bounds):
        e = bounds[i + 1] if i + 1 < len(bounds) else len(sg)
        v = np.sort(sv[s:e])
        n = len(v)
        if n <= k + 1:
            pts, w = v, np.ones(n)
        else:
            ranks = np.round(np.linspace(0, n - 1, k + 1)).astype(np.int64)
            pts, w = v[ranks], np.full(k + 1, n / (k + 1.0))
        out_g.append(np.full(len(pts), sg[s], dtype=object))
        out_v.append(pts)
        out_w.append(w)
    if not out_g:
        return pd.DataFrame({"g": [], "v": [], "w": pd.Series([], dtype="float64")})
    return pd.DataFrame(
        {
            "g": np.concatenate(out_g),
            "v": np.concatenate(out_v).astype(np.float64),
            "w": np.concatenate(out_w),
        }
    )


def qsketch_estimate(points: pd.DataFrame, qs_e2: list[int]) -> pd.DataFrame:
    """Merged summary points -> per-group quantile estimates (value at
    weighted rank q*W in the value-sorted point list)."""
    rows = []
    for g, sub in points.groupby("g", sort=False):
        sub = sub.sort_values("v")
        cum = sub["w"].cumsum().to_numpy()
        vals = sub["v"].to_numpy()
        total = cum[-1]
        row = {"g": g}
        for q in qs_e2:
            i = int(np.searchsorted(cum, q * total / 100.0))
            row[f"p{q:02d}"] = float(vals[min(i, len(vals) - 1)])
        rows.append(row)
    return pd.DataFrame(rows)


def grouped_quantile_sketch(
    ds: "ray.data.Dataset",
    partial_fn,
    qs_e2: list[int],
    shards: int = 8,
) -> pd.DataFrame:
    """Distributed mergeable-summary quantiles: ``partial_fn(df) ->
    (g, v, w)`` summary rows per batch, one candidates-only exchange
    by group, the tiny estimate fold on merged points. Two streaming
    passes nowhere — ONE pass; the caller grades the estimate's true
    rank with its own count pass when it needs a contract."""
    from cosmwasm_etl_ray.functions.agg import shard_exchange

    def reduce_shard(g: pd.DataFrame) -> pd.DataFrame:
        return qsketch_estimate(g, qs_e2)

    def recollapse(g: pd.DataFrame) -> pd.DataFrame:
        # coalescing re-summarization: collapse many blocks' point sets
        # back to <= k+1 equi-WEIGHT points per group, so the shard
        # task's input is bounded per coalesced batch, not per block.
        # Each collapse of weight W adds <= W/(k+1) rank error; one
        # extra level doubles the budget to 2n/(k+1) — still 1% at
        # k=200, graded anyway by the caller's true-rank contract.
        rows_g, rows_v, rows_w = [], [], []
        for grp, sub in g.groupby("g", sort=False):
            if len(sub) <= QSKETCH_K + 1:
                rows_g.append(sub["g"].to_numpy(object))
                rows_v.append(sub["v"].to_numpy())
                rows_w.append(sub["w"].to_numpy())
                continue
            sub = sub.sort_values("v")
            cum = sub["w"].cumsum().to_numpy()
            total = cum[-1]
            targets = np.linspace(0, total, QSKETCH_K + 1)
            idx = np.minimum(np.searchsorted(cum, targets), len(cum) - 1)
            rows_g.append(np.full(QSKETCH_K + 1, grp, dtype=object))
            rows_v.append(sub["v"].to_numpy()[idx])
            rows_w.append(np.full(QSKETCH_K + 1, total / (QSKETCH_K + 1.0)))
        if not rows_g:
            return g
        return pd.DataFrame(
            {
                "g": np.concatenate(rows_g),
                "v": np.concatenate(rows_v),
                "w": np.concatenate(rows_w),
            }
        )

    part = ds.map_batches(partial_fn, batch_format="pandas").map_batches(
        recollapse, batch_format="pandas", batch_size=65536
    )
    res = shard_exchange(part, ["g"], reduce_shard, shards).to_pandas()
    if res.empty:  # Ray to_pandas drops columns on ANY empty dataset
        return pd.DataFrame(columns=["g"] + [f"p{q:02d}" for q in qs_e2])
    return res.sort_values("g").reset_index(drop=True)


# ------------------------------------------------- heavy hitters (Misra-Gries)

MG_K = 256  # summary size: catches every key with freq > n/(k+1)


def mg_compress(counts: pd.Series, k: int = MG_K) -> pd.Series:
    """Misra-Gries compression of an exact count vector to <= k
    entries: subtract the (k+1)-largest count from all, drop the
    non-positive. Each compression undercounts every key by at most
    n_batch/(k+1), and summing summaries then re-compressing keeps the
    TOTAL undercount <= n/(k+1) (the mergeable-summaries bound) — so
    any key with true frequency > n/(k+1) is guaranteed to survive.
    The guarantee is a FRACTION of the stream, independent of key
    cardinality and corpus size."""
    if len(counts) <= k:
        return counts
    v = counts.to_numpy()
    cut = np.partition(v, len(v) - k - 1)[len(v) - k - 1]
    out = counts - cut
    return out[out > 0]


def heavy_hitters(
    ds: "ray.data.Dataset",
    key_fn,
    phi_e4: int,
    k: int = MG_K,
) -> pd.DataFrame:
    """EXACT keys-with-frequency > phi (phi_e4 = fraction in 1e-4
    units) at any scale: Misra-Gries proposes candidates (<= k+1
    summary rows leave each block, whatever the key cardinality), one
    tiny exchange merges the summaries, then a broadcast count pass
    verifies candidates exactly — sketch proposes, exact pass
    disposes, so the answer is value-exact while nothing key-space-
    sized ever shuffles. Requires phi > 1/(k+1) (asserted): below that
    the sketch can miss a qualifying key.

    An exact per-key count pre-aggregation would find the hot set by
    paying a key-cardinality shuffle; at corpus-scale cardinality this
    sketch finds the same hot set for a k-row exchange."""
    assert phi_e4 * (k + 1) > 10_000, "phi must exceed the sketch bound 1/(k+1)"

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = mg_compress(key_fn(df).value_counts(), k)
        return pd.DataFrame(
            {"key": c.index.to_numpy(object), "n": c.to_numpy(np.int64),
             "g": np.zeros(len(c), dtype=np.int64)}
        )

    def merge_shard(g: pd.DataFrame) -> pd.DataFrame:
        c = mg_compress(g.groupby("key", sort=False)["n"].sum(), k)
        return pd.DataFrame(
            {"key": c.index.to_numpy(object), "n_est": c.to_numpy(np.int64)}
        )

    def recompress(g: pd.DataFrame) -> pd.DataFrame:
        # intermediate tree level: merge-compress MANY block summaries
        # back to <= k+1 rows (MG summaries are mergeable with the same
        # bound under pairwise merge+compress), so the final merge task
        # sees <= k+1 rows per coalesced batch, not per block — the
        # single-task ceiling no longer grows with block count
        c = mg_compress(g.groupby("key", sort=False)["n"].sum(), k)
        return pd.DataFrame(
            {"key": c.index.to_numpy(object), "n": c.to_numpy(np.int64),
             "g": np.zeros(len(c), dtype=np.int64)}
        )

    from cosmwasm_etl_ray.functions.agg import shard_exchange

    summaries = ds.map_batches(partial, batch_format="pandas").map_batches(
        recompress, batch_format="pandas", batch_size=64 * (k + 1)
    )
    cand = shard_exchange(summaries, ["g"], merge_shard, 1).to_pandas()
    cand_ref = ray.put(
        frozenset(cand["key"]) if "key" in cand.columns else frozenset()
    )

    def exact_counts(df: pd.DataFrame) -> pd.DataFrame:
        keys = key_fn(df)
        hit = keys[keys.isin(ray.get(cand_ref))]
        c = hit.value_counts()
        # the stream-size row rides an out-of-band marker COLUMN, not
        # an in-band sentinel key — a genuine data key can be any
        # string without colliding with the total
        return pd.DataFrame(
            {"key": np.r_[c.index.to_numpy(object), [""]],
             "n": np.r_[c.to_numpy(np.int64), [len(df)]],
             "is_total": np.r_[np.zeros(len(c), dtype=bool), [True]]}
        )

    def fold_counts(g: pd.DataFrame) -> pd.DataFrame:
        # per-batch pre-sum: the driver receives <= (k+2) rows per
        # coalesced batch instead of per block
        return g.groupby(["key", "is_total"], sort=False, as_index=False)["n"].sum()

    rows = (
        ds.map_batches(exact_counts, batch_format="pandas")
        .map_batches(fold_counts, batch_format="pandas", batch_size=64 * (k + 2))
        .to_pandas()
    )
    if rows.empty:  # zero-block input never emits a total row
        rows = pd.DataFrame({"key": [], "n": [], "is_total": []})
    total = int(rows.loc[rows["is_total"].astype(bool), "n"].sum())
    agg = (
        rows.loc[~rows["is_total"].astype(bool)]
        .groupby("key", sort=False)["n"]
        .sum()
    )
    keep = agg[agg * 10_000 > phi_e4 * total].sort_values(ascending=False)
    return pd.DataFrame(
        {"key": keep.index.to_numpy(object),
         "n_events": keep.to_numpy(np.int64),
         "share_e4": (keep.to_numpy(np.int64) * 10_000 // max(total, 1))}
    )


# ----------------------------------------------------------- Bloom filter

BLOOM_BITS_LOG2 = 20  # m = 2^20 bits = 128 KiB packed
BLOOM_M = 1 << BLOOM_BITS_LOG2
BLOOM_K = 4  # hash probes (double hashing, Kirsch-Mitzenmacher)
_BLOOM_MASK = np.uint64(BLOOM_M - 1)
_BLOOM_WORDS = BLOOM_M >> 6


def bloom_positions(
    values: np.ndarray, bits_log2: int = BLOOM_BITS_LOG2
) -> np.ndarray:
    """(n, BLOOM_K) bit positions from ONE stable 64-bit hash per
    value: pos_i = (h_lo + i * (h_hi | 1)) & (m - 1). m is a power of
    two so the wrap is a mask, never a modulo (uint64 % has no vector
    unit on this box)."""
    from cosmwasm_etl_ray.functions.hashing import stable_hash64

    h = stable_hash64(np.asarray(values, dtype=object))
    h1 = h & np.uint64(0xFFFFFFFF)
    h2 = (h >> np.uint64(32)) | np.uint64(1)
    i = np.arange(BLOOM_K, dtype=np.uint64)
    mask = np.uint64((1 << bits_log2) - 1)
    return (h1[:, None] + i[None, :] * h2[:, None]) & mask


def bloom_from_positions(
    pos: np.ndarray, bits_log2: int = BLOOM_BITS_LOG2
) -> np.ndarray:
    """Pack bit positions into the m/64-word uint64 register array."""
    words = np.zeros((1 << bits_log2) >> 6, dtype=np.uint64)
    if pos.size:
        flat = pos.reshape(-1)
        np.bitwise_or.at(
            words,
            (flat >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (flat & np.uint64(63)),
        )
    return words


def bloom_probe(words: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vectorized membership: True iff all k bits are set. No false
    negatives ever; false-positive rate ~ (1 - e^(-kn/m))^k (~1e-7 at
    n = 26k, m = 2^20, k = 4). The filter size travels with the
    register array itself (m = 64 * len(words)), so probe and build
    can never disagree on the mask."""
    if len(values) == 0:
        return np.zeros(0, dtype=bool)
    bits_log2 = int(len(words) << 6).bit_length() - 1
    pos = bloom_positions(values, bits_log2)
    bits = (
        words[(pos >> np.uint64(6)).astype(np.int64)] >> (pos & np.uint64(63))
    ) & np.uint64(1)
    return (bits == 1).all(axis=1)


def build_bloom(
    ds: "ray.data.Dataset", column: str, bits_log2: int = BLOOM_BITS_LOG2
) -> np.ndarray:
    """Distributed Bloom build: each batch contracts to ONE fixed-size
    packed register row (m/64 uint64 words as bytes) — bitwise OR is
    associative, commutative, and idempotent, the same order-free-fold
    discipline as the HLL registers, so the result is identical under
    any partitioning or retry. The exchange carries 128 KiB sketches,
    never values; the driver ORs one row per block (a tree fold is a
    drop-in if the block count ever dominates).

    A saturated filter never returns wrong answers (callers verify
    positives exactly) but stops PRUNING — size ``bits_log2`` at
    ~10 bits per expected distinct item; past 50% fill this warns so
    the degradation is loud, not silent."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        words = bloom_from_positions(
            bloom_positions(df[column].to_numpy(), bits_log2), bits_log2
        )
        return pd.DataFrame({"words": [words.tobytes()]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = np.zeros((1 << bits_log2) >> 6, dtype=np.uint64)
    for b in parts["words"]:
        out |= np.frombuffer(b, dtype=np.uint64)
    fill = np.unpackbits(out.view(np.uint8)).sum() / (1 << bits_log2)
    if fill > 0.5:
        import warnings

        warnings.warn(
            f"Bloom filter {fill:.0%} full (m=2^{bits_log2}, k={BLOOM_K}): "
            f"false-positive rate ~{fill ** BLOOM_K:.2f} — pruning is "
            "degenerating; rebuild with a larger bits_log2",
            RuntimeWarning,
            stacklevel=2,
        )
    return out
