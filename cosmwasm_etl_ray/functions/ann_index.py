"""Persistent IVF index: build ONCE, query many — the 100 TB shape for
similarity search.

``ivf_topk`` (functions/similarity.py) trains its coarse quantizer and
scans the whole corpus per call — right for ad-hoc queries, wrong for a
serving path. Here the corpus is indexed once into LIST-PARTITIONED
Parquet (hive layout ``list_id=<l>/``) plus a tiny sidecar (centroids +
params); a query probes its n_probe nearest lists and the read prunes
to exactly those partitions — I/O scales with n_probe/n_lists of the
corpus, not the corpus.

Build is a normal streaming pipeline (sample → k-means on the driver →
broadcast centroids → map_batches assign → partitioned write); the
index is immutable and versioned by directory (rebuild = write a new
dir, swap the pointer — the same idempotent-artifact discipline as the
state manifests).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

import ray
import ray.data

from cosmwasm_etl_ray.functions.similarity import (
    _embedding_matrix,
    _kmeans_lite,
    _normalize,
)
from cosmwasm_etl_ray.state import durable


def build_ivf_index(
    db: "ray.data.Dataset",
    index_dir: str,
    n_lists: int = 16,
    seed: int = 11,
    train_cap: int = 4096,
) -> dict:
    """Index a (vec_id, embedding) dataset. Returns the sidecar meta."""
    from cosmwasm_etl_ray.functions.similarity import train_sample

    # the build consumes db three times (count, train sample, assign +
    # write); a lazy upstream would re-execute per pass — materialize
    # once (blocks spill to the object store's disk at scale)
    db = db.materialize()
    n = db.count()
    sample_df = train_sample(db, train_cap, seed, min_rows=n_lists, n=n)
    sample = _normalize(np.array(sample_df["embedding"].tolist()))
    centroids = _kmeans_lite(sample, n_lists, seed=seed)
    cref = ray.put(centroids)

    _coalesced(
        db.map_batches(_make_assigner(cref), batch_format="pandas",
                       concurrency=(1, 8)),
        n,
    ).write_parquet(index_dir, partition_cols=["list_id"])
    meta = {
        "n_lists": int(len(centroids)),
        "dim": int(centroids.shape[1]),
        "seed": seed,
        "n_vectors": int(n),
        "centroids": centroids.tolist(),
    }
    durable.write_json(os.path.join(index_dir, "_meta.json"), meta)
    return meta


def _make_assigner(cref):
    """The shared centroid-assignment stage (build and append must
    agree bit-for-bit on list routing)."""

    class Assign:
        def __init__(self):
            self.centroids = ray.get(cref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            X = _normalize(_embedding_matrix(batch))
            batch = batch.copy()
            assign = np.argmax(X @ self.centroids.T, axis=1).astype("int32")
            batch["list_id"] = assign
            batch["list_assign"] = assign
            return batch

    return Assign


def append_ivf_index(db: "ray.data.Dataset", index_dir: str) -> dict:
    """Add new vectors to an existing index WITHOUT retraining: assign
    against the frozen quantizer, write a self-contained increment
    generation ``inc-<g>/list_id=*/``, then register it in the sidecar.
    The generation directory is built under a tmp name and renamed
    whole — the directory-granular form of the engine's tmp+rename
    discipline — and readers only glob generations the sidecar
    registers, so a crash anywhere leaves the increment invisible and
    a re-run (same g) sweeps the stale dir and overwrites. Probe I/O
    still prunes by list path across base + increments. The trade vs a
    rebuild: new vectors live in the old centroid geometry, so recall
    degrades as the appended distribution drifts — the sidecar's
    n_appended/n_vectors ratio is the rebuild trigger (the same
    grow-then-rebuild discipline as the reference's route cache,
    /root/reference/aggregator/router.go:106-143)."""
    with open(os.path.join(index_dir, "_meta.json")) as f:
        meta = json.load(f)
    cref = ray.put(np.array(meta["centroids"], dtype=np.float64))

    db = db.materialize()  # consumed twice: count + assigned write
    n_new = db.count()
    gen = int(meta.get("n_increments", 0))
    final_dir = os.path.join(index_dir, f"inc-{gen}")
    tmp_dir = durable.tmp_path(final_dir)
    _coalesced(
        db.map_batches(_make_assigner(cref), batch_format="pandas",
                       concurrency=(1, 8)),
        n_new,
    ).write_parquet(tmp_dir, partition_cols=["list_id"])
    os.makedirs(tmp_dir, exist_ok=True)  # an empty increment still renames
    # replaces an uncommitted prior attempt (crash after rename, before
    # sidecar register)
    durable.commit(tmp_dir, final_dir)

    meta["n_increments"] = gen + 1
    meta["n_vectors"] = int(meta["n_vectors"]) + int(n_new)
    meta["n_appended"] = int(meta.get("n_appended", 0)) + int(n_new)
    durable.write_json(os.path.join(index_dir, "_meta.json"), meta)
    return meta


def _coalesced(ds: "ray.data.Dataset", n_rows: int) -> "ray.data.Dataset":
    """Bound the file count of a hive-partitioned index write: each
    write task emits one file PER partition value it sees, so T tasks
    × V values explodes into tiny files (measured: 4011 files for a
    32k-row LSH bucket table — 9 s of the 13 s probe was file-open
    overhead). Target ~64k rows per write task; the probe read then
    opens a handful of files per partition instead of dozens."""
    return ds.repartition(max(1, min(64, int(n_rows) // 65536)))


def _empty_topk() -> "ray.data.Dataset":
    """Zero-neighbor result with the (query_id, neighbor_id, rank)
    schema — read_parquet([]) raises, so empty probe sets short-circuit
    here (probe_minhash_index guards the same way)."""
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "query_id": pd.Series(dtype="int64"),
                "neighbor_id": pd.Series(dtype="int64"),
                "rank": pd.Series(dtype="int64"),
            }
        )
    )


def query_ivf_index(
    index_dir: str,
    queries_df: pd.DataFrame,
    k: int = 10,
    n_probe: int = 4,
) -> "ray.data.Dataset":
    """Exact-cosine top-k over each query's n_probe nearest lists. The
    Parquet read is PARTITION-PRUNED to the union of probed lists;
    per-query probe masks keep the semantics identical to ivf_topk with
    the same quantizer."""
    with open(os.path.join(index_dir, "_meta.json")) as f:
        meta = json.load(f)
    centroids = np.array(meta["centroids"], dtype=np.float64)

    Q = _normalize(np.array(queries_df["embedding"].tolist()))
    qids = queries_df["vec_id"].to_numpy()
    qprobe = np.argsort(-(Q @ centroids.T), axis=1)[:, :n_probe]  # (q, probe)
    needed = sorted({int(v) for v in qprobe.ravel()})

    # PATH-level pruning: only the probed lists' files are read
    import glob as _glob

    # base generation + every REGISTERED increment (inc dirs not in the
    # sidecar are invisible — crash-safe by construction)
    roots = [index_dir] + [
        os.path.join(index_dir, f"inc-{g}")
        for g in range(int(meta.get("n_increments", 0)))
    ]
    probe_files = [
        f
        for r in roots
        for l in needed
        for f in sorted(
            _glob.glob(os.path.join(r, f"list_id={l}", "*.parquet"))
        )
    ]
    if not probe_files:  # every probed list empty: zero neighbors,
        return _empty_topk()  # like the in-memory twin — not a crash
    lists = ray.data.read_parquet(probe_files)
    ref = ray.put((qids, Q, qprobe))

    class Probe:
        def __init__(self):
            self.qids, self.Q, self.qprobe = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            X = _normalize(_embedding_matrix(batch))
            ids = batch["vec_id"].to_numpy()
            xlist = batch["list_assign"].to_numpy()  # stored, not recomputed
            rows = []
            for qi in range(len(self.qids)):
                mask = np.isin(xlist, self.qprobe[qi])
                if not mask.any():
                    continue
                sims = self.Q[qi] @ X[mask].T
                for j, s in zip(ids[mask], sims):
                    rows.append((self.qids[qi], j, s))
            return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "cos"])

    partials = lists.map_batches(
        Probe, batch_format="pandas", batch_size=4096, concurrency=(1, 8)
    )

    return partials.groupby("query_id").map_groups(
        _topk_reducer("cos", k), batch_format="pandas"
    )


# --------------------------------------------------------------- LSH index


def build_lsh_index(
    db: "ray.data.Dataset",
    index_dir: str,
    n_planes: int = 4,
    n_tables: int = 16,
    seed: int = 23,
) -> dict:
    """Persistent LSH tables — the build-once twin of ``lsh_topk``
    (which regenerates planes and rescans the corpus per call; the
    reference's route cache persists and rebuilds only on growth,
    /root/reference/pkg/dex/router/route_info.go:106-143 — the same
    discipline applied to the sketch family).

    Layout (storage-honest: tables hold IDS, vectors live once):
      ``buckets/tb=<table*2^planes+bucket>/`` — (vec_id) inverted
        lists, hive-partitioned so a probe reads only matching buckets
      ``vectors/`` — the (vec_id, embedding) primary store
      ``_meta.json`` — planes + params (versioned sidecar; rebuild =
        new dir + pointer swap, like the state manifests)
    """
    rng = np.random.default_rng(seed)
    # three consumers below (dim probe, bucket write, vector write) —
    # materialize once instead of re-executing a lazy upstream per pass
    db = db.materialize()
    # peek one row for the dimension (cheap; schema-only would not
    # carry the list length)
    dim = len(db.limit(1).to_pandas()["embedding"].iloc[0])
    planes = rng.standard_normal((n_tables, n_planes, dim))
    pref = ray.put(planes)
    pow2 = 1 << np.arange(n_planes)
    width = 1 << n_planes

    class BucketLists:
        def __init__(self):
            self.planes = ray.get(pref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            X = _normalize(_embedding_matrix(batch))
            ids = batch["vec_id"].to_numpy()
            parts = []
            for t in range(len(self.planes)):
                b = ((X @ self.planes[t].T) > 0) @ pow2
                parts.append(
                    pd.DataFrame({"tb": t * width + b, "vec_id": ids})
                )
            return pd.concat(parts, ignore_index=True)

    n = db.count()
    _coalesced(
        db.map_batches(BucketLists, batch_format="pandas", concurrency=(1, 8)),
        n * n_tables,
    ).write_parquet(os.path.join(index_dir, "buckets"), partition_cols=["tb"])
    _coalesced(db, n).write_parquet(os.path.join(index_dir, "vectors"))

    meta = {
        "n_planes": n_planes,
        "n_tables": n_tables,
        "seed": seed,
        "dim": dim,
        "planes": planes.tolist(),
    }
    durable.write_json(os.path.join(index_dir, "_meta.json"), meta)
    return meta


def query_lsh_index(
    index_dir: str,
    queries_df: pd.DataFrame,
    k: int = 10,
) -> "ray.data.Dataset":
    """Approximate top-k against a persistent LSH index: compute the
    query buckets from the stored planes, read ONLY those bucket
    partitions (path pruning), resolve candidate ids → vectors with a
    distributed hash join against the primary store, exact-cosine rank.
    Same candidate set as ``lsh_topk`` with the same planes."""
    import glob as _glob

    from cosmwasm_etl_ray.functions.joins import hash_join

    with open(os.path.join(index_dir, "_meta.json")) as f:
        meta = json.load(f)
    planes = np.array(meta["planes"], dtype=np.float64)
    n_planes = meta["n_planes"]
    pow2 = 1 << np.arange(n_planes)
    width = 1 << n_planes

    Q = _normalize(np.array(queries_df["embedding"].tolist()))
    qids = queries_df["vec_id"].to_numpy()
    qtb = np.stack(
        [t * width + (((Q @ planes[t].T) > 0) @ pow2) for t in range(len(planes))],
        axis=1,
    )  # (q, tables)

    # tb → probing query ids (tiny, broadcast)
    tb_to_q: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        for tb in qtb[qi]:
            tb_to_q.setdefault(int(tb), []).append(int(qids[qi]))
    needed = sorted(tb_to_q)
    probe_files = [
        f
        for tb in needed
        for f in sorted(
            _glob.glob(os.path.join(index_dir, "buckets", f"tb={tb}", "*.parquet"))
        )
    ]
    if not probe_files:  # no corpus vector shares any query bucket
        return _empty_topk()
    mref = ray.put(tb_to_q)

    class Expand:
        """bucket rows → distinct (query_id, vec_id) candidates.
        Partition pruning strips the hive key from file contents, so
        the tb value is recovered from the FILE PATH column."""

        def __init__(self):
            self.tb_to_q = ray.get(mref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            tbs = (
                batch["path"]
                .str.extract(r"tb=(\d+)", expand=False)
                .astype("int64")
                .to_numpy()
            )
            ids = batch["vec_id"].to_numpy()
            out_q, out_v = [], []
            for tb, vid in zip(tbs, ids):
                for q in self.tb_to_q.get(int(tb), ()):
                    out_q.append(q)
                    out_v.append(vid)
            return pd.DataFrame({"query_id": out_q, "vec_id": out_v}).drop_duplicates()

    cands = ray.data.read_parquet(probe_files, include_paths=True).map_batches(
        Expand, batch_format="pandas", concurrency=(1, 8)
    )

    vectors = ray.data.read_parquet(os.path.join(index_dir, "vectors"))
    joined = hash_join(
        cands,
        vectors,
        on="vec_id",
        left_cols={"query_id": "int64", "vec_id": "int64"},
        right_cols=["vec_id", "embedding"],
        # a candidate pair may arrive from several tables/files —
        # global dedup rides the join bucket, no extra shuffle
        left_fold=lambda l: l.drop_duplicates(["query_id", "vec_id"]),
    )

    qref = ray.put((qids, Q))

    class Score:
        def __init__(self):
            self.qids, self.Q = ray.get(qref)
            self.qrow = {int(q): i for i, q in enumerate(self.qids)}

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            X = _normalize(_embedding_matrix(batch))
            qi = np.array([self.qrow[int(q)] for q in batch["query_id"]])
            cos = np.einsum("ij,ij->i", self.Q[qi], X)
            return pd.DataFrame(
                {
                    "query_id": batch["query_id"].to_numpy(),
                    "neighbor_id": batch["vec_id"].to_numpy(),
                    "cos": cos,
                }
            )

    partials = joined.map_batches(
        Score, batch_format="pandas", batch_size=4096, concurrency=(1, 8)
    )

    return partials.groupby("query_id").map_groups(
        _topk_reducer("cos", k), batch_format="pandas"
    )


# ---------------------------------------------------------------- PQ index


def _kmeans_l2(X: np.ndarray, k: int, iters: int = 12, seed: int = 11) -> np.ndarray:
    """Deterministic L2 k-means for PQ sub-quantizers (subvectors are
    not unit-norm, so the cosine variant doesn't apply)."""
    rng = np.random.default_rng(seed)
    k = min(k, len(X))
    centroids = X[rng.choice(len(X), size=k, replace=False)].copy()
    for _ in range(iters):
        d2 = -2.0 * (X @ centroids.T) + (centroids**2).sum(1)[None, :]
        assign = d2.argmin(1)
        for c in range(k):
            members = X[assign == c]
            if len(members):
                centroids[c] = members.mean(0)
    return centroids


def _topk_reducer(score_col: str, k: int):
    """Named per-query top-k reducer factory (map_groups needs a fn
    with ``__name__``): ONE tie-break rule — score desc, neighbor_id
    asc — for every ANN serving path, so indexed/composite variants
    cannot silently diverge."""

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [score_col, "neighbor_id"], ascending=[False, True], kind="stable"
        ).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "neighbor_id", "rank"]]

    return final_topk


def _train_codebooks(S: np.ndarray, m: int, seed: int) -> np.ndarray:
    """One 256-centroid L2 sub-quantizer per d/m-dim slice of the
    training sample. (m, kc, d/m); kc < 256 only for tiny corpora."""
    d = S.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    ds_ = d // m
    return np.stack(
        [_kmeans_l2(S[:, j * ds_:(j + 1) * ds_], 256, seed=seed + j) for j in range(m)]
    )


def _encode_codes(X: np.ndarray, cb: np.ndarray) -> dict:
    """PQ-encode normalized vectors against the codebooks → one uint8
    column per subspace (shared by the PQ and IVF+PQ builders)."""
    out = {}
    mm, _, dd = cb.shape
    for j in range(mm):
        sub = X[:, j * dd:(j + 1) * dd]
        c = cb[j]
        d2 = -2.0 * (sub @ c.T) + (c**2).sum(1)[None, :]
        out[f"c{j}"] = d2.argmin(1).astype("uint8")
    return out


def _adc_tables(Q: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Per-query subspace inner-product lookup tables: T[j][q, c] =
    <q_slice_j, codebook_j[c]> — summing over j approximates q·x."""
    m, _, ds_ = cb.shape
    return np.stack([Q[:, j * ds_:(j + 1) * ds_] @ cb[j].T for j in range(m)])


def _adc_scores(T: np.ndarray, batch: pd.DataFrame) -> np.ndarray:
    """(q, batch) approximate inner products via m table gathers."""
    mm = T.shape[0]
    codes = [batch[f"c{j}"].to_numpy() for j in range(mm)]
    s = T[0][:, codes[0]].copy()
    for j in range(1, mm):
        s += T[j][:, codes[j]]
    return s


def build_pq_index(
    db: "ray.data.Dataset",
    index_dir: str,
    m: int = 8,
    seed: int = 11,
    train_cap: int = 4096,
) -> dict:
    """Product-quantization index: each normalized vector compresses to
    m uint8 codes (one 256-centroid sub-quantizer per d/m-dim slice),
    so the serving artifact is m bytes/vector instead of 8·d — 64× at
    d=64, m=8. Sub-quantizers train on the same bounded deterministic
    sample as IVF; codes write as m uint8 columns (vectorized gathers
    at query time). The full-precision embeddings never need to be
    read again for search — the compression is what makes a 10^10-
    vector corpus scannable from memory-speed storage."""
    from cosmwasm_etl_ray.functions.similarity import train_sample

    db = db.materialize()
    n = db.count()
    sample_df = train_sample(db, train_cap, seed, min_rows=m, n=n)
    S = _normalize(np.array(sample_df["embedding"].tolist()))
    d = S.shape[1]
    codebooks = _train_codebooks(S, m, seed)
    cref = ray.put(codebooks)

    class Encode:
        def __init__(self):
            self.cb = ray.get(cref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            X = _normalize(_embedding_matrix(batch))
            out = {"vec_id": batch["vec_id"].to_numpy().astype("int64")}
            out.update(_encode_codes(X, self.cb))
            return pd.DataFrame(out)

    os.makedirs(index_dir, exist_ok=True)
    _coalesced(
        db.map_batches(Encode, batch_format="pandas", concurrency=(1, 8)), n
    ).write_parquet(os.path.join(index_dir, "codes"))
    meta = {
        "kind": "pq",
        "m": int(m),
        "dim": int(d),
        "seed": seed,
        "n_vectors": int(n),
        "codebooks": codebooks.tolist(),
    }
    durable.write_json(os.path.join(index_dir, "_meta.json"), meta)
    return meta


def query_pq_index(
    index_dir: str, queries_df: pd.DataFrame, k: int = 10
) -> "ray.data.Dataset":
    """Asymmetric-distance top-k over the CODES ONLY: per query an
    (m × kc) table of subspace inner products against the codebooks;
    each code batch scores as m table gathers + adds (pure numpy
    indexing, no per-row work). Approximate by construction — grade it
    with a recall contract, like every sketch in this repo."""
    with open(os.path.join(index_dir, "_meta.json")) as f:
        meta = json.load(f)
    cb = np.array(meta["codebooks"], dtype=np.float64)  # (m, kc, ds)
    Q = _normalize(np.array(queries_df["embedding"].tolist()))
    qids = queries_df["vec_id"].to_numpy()
    T = _adc_tables(Q, cb)
    ref = ray.put((qids, T))

    class Score:
        def __init__(self):
            self.qids, self.T = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids = batch["vec_id"].to_numpy()
            s = _adc_scores(self.T, batch)  # (q, n)
            kk = min(k, s.shape[1])
            idx = np.argpartition(-s, kk - 1, axis=1)[:, :kk]
            rows = []
            for qi in range(len(self.qids)):
                for j in idx[qi]:
                    rows.append((self.qids[qi], ids[j], s[qi, j]))
            return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "adc"])

    # base codes + every REGISTERED increment (unregistered dirs are
    # invisible — crash-safe by construction, like the IVF increments)
    import glob as _glob

    roots = [os.path.join(index_dir, "codes")] + [
        os.path.join(index_dir, f"codes-inc-{g}")
        for g in range(int(meta.get("n_increments", 0)))
    ]
    # read_parquet accepts ONE dir or a list of FILES — expand the dirs
    code_files = [
        f for r in roots for f in sorted(_glob.glob(os.path.join(r, "*.parquet")))
    ]
    codes_ds = ray.data.read_parquet(code_files)
    partials = codes_ds.map_batches(
        Score, batch_format="pandas", batch_size=8192, concurrency=(1, 8)
    )
    return partials.groupby("query_id").map_groups(
        _topk_reducer("adc", k), batch_format="pandas"
    )


def query_pq_index_rerank(
    index_dir: str,
    queries_df: pd.DataFrame,
    db: "ray.data.Dataset",
    k: int = 10,
    candidates: int = 50,
) -> "ray.data.Dataset":
    """Two-stage retrieval, the canonical ANN serving shape: stage 1
    scans only the PQ codes and keeps each query's top ``candidates``
    by asymmetric distance; stage 2 re-scores JUST those rows with
    exact cosine and emits the exact-ranked top k. COMPUTE is
    candidate-bounded (the q×|corpus| matmul never happens); the
    embedding READ here is still a corpus scan with a per-batch
    membership cut, because ``db`` is an arbitrary Dataset — at scale
    stage 2 should fetch candidates by id from a key-partitioned
    store (`replay.lookup_state` is that shape). Buys back the recall
    the 32× code compression gives up."""
    cand = (
        query_pq_index(index_dir, queries_df, k=candidates)
        .to_pandas()  # q × candidates rows — small by construction
    )
    cand_pairs = cand[["query_id", "neighbor_id"]]
    need_ids = np.sort(cand_pairs["neighbor_id"].unique())

    Q = _normalize(np.array(queries_df["embedding"].tolist()))
    qids = queries_df["vec_id"].to_numpy()
    ref = ray.put((qids, Q, cand_pairs, need_ids))

    class Rerank:
        def __init__(self):
            self.qids, self.Q, self.pairs, self.need = ray.get(ref)
            self.by_q = {
                int(q): set(map(int, g["neighbor_id"]))
                for q, g in self.pairs.groupby("query_id", sort=False)
            }

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            m = batch["vec_id"].isin(self.need)
            if not m.any():
                return pd.DataFrame(
                    {"query_id": pd.Series(dtype="int64"),
                     "neighbor_id": pd.Series(dtype="int64"),
                     "cos": pd.Series(dtype="float64")}
                )
            batch = batch[m]
            X = _normalize(_embedding_matrix(batch))
            ids = batch["vec_id"].to_numpy()
            sims = self.Q @ X.T
            rows = []
            for qi, qid in enumerate(self.qids):
                allowed = self.by_q.get(int(qid), set())
                for j, nid in enumerate(ids):
                    if int(nid) in allowed:
                        rows.append((qid, nid, sims[qi, j]))
            return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "cos"])

    scored = db.map_batches(
        Rerank, batch_format="pandas", batch_size=8192, concurrency=(1, 8)
    )
    return scored.groupby("query_id").map_groups(
        _topk_reducer("cos", k), batch_format="pandas"
    )


def build_ivfpq_index(
    db: "ray.data.Dataset",
    index_dir: str,
    n_lists: int = 16,
    m: int = 16,
    seed: int = 11,
    train_cap: int = 4096,
) -> dict:
    """IVF+PQ composite — the two scale levers in one artifact: codes
    are hive-partitioned by coarse list (probe reads prune to
    n_probe/n_lists of the FILES) and each vector inside is m uint8 PQ
    codes (each file is 32× smaller than raw embeddings). Probe IO =
    (n_probe/n_lists) × (m/8d) of a brute full-precision scan. One
    training sample feeds both quantizers."""
    from cosmwasm_etl_ray.functions.similarity import train_sample

    db = db.materialize()
    n = db.count()
    sample_df = train_sample(db, train_cap, seed, min_rows=max(n_lists, m), n=n)
    S = _normalize(np.array(sample_df["embedding"].tolist()))
    d = S.shape[1]
    centroids = _kmeans_lite(S, n_lists, seed=seed)
    codebooks = _train_codebooks(S, m, seed)
    ref = ray.put((centroids, codebooks))

    class AssignEncode:
        def __init__(self):
            self.centroids, self.cb = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            X = _normalize(_embedding_matrix(batch))
            assign = np.argmax(X @ self.centroids.T, axis=1).astype("int64")
            out = {
                "vec_id": batch["vec_id"].to_numpy().astype("int64"),
                # hive write strips the partition column from the files;
                # keep an in-file duplicate for the per-query probe mask
                "list_id": assign,
                "list_assign": assign,
            }
            out.update(_encode_codes(X, self.cb))
            return pd.DataFrame(out)

    os.makedirs(index_dir, exist_ok=True)
    _coalesced(
        db.map_batches(AssignEncode, batch_format="pandas", concurrency=(1, 8)), n
    ).write_parquet(os.path.join(index_dir, "codes"), partition_cols=["list_id"])
    meta = {
        "kind": "ivfpq",
        "n_lists": int(len(centroids)),
        "m": int(m),
        "dim": int(d),
        "seed": seed,
        "n_vectors": int(n),
        "centroids": centroids.tolist(),
        "codebooks": codebooks.tolist(),
    }
    durable.write_json(os.path.join(index_dir, "_meta.json"), meta)
    return meta


def query_ivfpq_index(
    index_dir: str,
    queries_df: pd.DataFrame,
    k: int = 10,
    n_probe: int = 8,
) -> "ray.data.Dataset":
    """ADC top-k over only the probed lists' code files (path-pruned
    read of compressed codes — neither the corpus width nor the full
    precision is ever touched)."""
    import glob as _glob

    with open(os.path.join(index_dir, "_meta.json")) as f:
        meta = json.load(f)
    centroids = np.array(meta["centroids"], dtype=np.float64)
    cb = np.array(meta["codebooks"], dtype=np.float64)
    Q = _normalize(np.array(queries_df["embedding"].tolist()))
    qids = queries_df["vec_id"].to_numpy()
    qprobe = np.argsort(-(Q @ centroids.T), axis=1)[:, :n_probe]
    needed = sorted({int(v) for v in qprobe.ravel()})
    probe_files = [
        f
        for l in needed
        for f in sorted(
            _glob.glob(os.path.join(index_dir, "codes", f"list_id={l}", "*.parquet"))
        )
    ]
    if not probe_files:
        return _empty_topk()
    T = _adc_tables(Q, cb)
    ref = ray.put((qids, T, qprobe))

    class Score:
        def __init__(self):
            self.qids, self.T, self.qprobe = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ids = batch["vec_id"].to_numpy()
            xlist = batch["list_assign"].to_numpy()
            s = _adc_scores(self.T, batch)
            rows = []
            for qi in range(len(self.qids)):
                mask = np.isin(xlist, self.qprobe[qi])
                if not mask.any():
                    continue
                sq = s[qi][mask]
                idm = ids[mask]
                kk = min(k, len(sq))
                top = np.argpartition(-sq, kk - 1)[:kk]
                for j in top:
                    rows.append((self.qids[qi], idm[j], sq[j]))
            return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "adc"])

    partials = ray.data.read_parquet(probe_files).map_batches(
        Score, batch_format="pandas", batch_size=8192, concurrency=(1, 8)
    )
    return partials.groupby("query_id").map_groups(
        _topk_reducer("adc", k), batch_format="pandas"
    )


def append_pq_index(db: "ray.data.Dataset", index_dir: str) -> dict:
    """Add vectors to a PQ index WITHOUT retraining: encode against
    the frozen codebooks into a self-contained increment directory
    ``codes-inc-<g>`` (built under a tmp name, renamed whole, then
    registered in the sidecar — the same directory-granular commit as
    append_ivf_index, so a crash leaves the increment invisible).
    Quantization drift discipline is identical to IVF append: the
    sidecar's n_appended/n_vectors ratio is the rebuild trigger."""
    with open(os.path.join(index_dir, "_meta.json")) as f:
        meta = json.load(f)
    cref = ray.put(np.array(meta["codebooks"], dtype=np.float64))

    class Encode:
        def __init__(self):
            self.cb = ray.get(cref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            X = _normalize(_embedding_matrix(batch))
            out = {"vec_id": batch["vec_id"].to_numpy().astype("int64")}
            out.update(_encode_codes(X, self.cb))
            return pd.DataFrame(out)

    db = db.materialize()  # consumed twice: count + encode/write
    n_new = db.count()
    gen = int(meta.get("n_increments", 0))
    final_dir = os.path.join(index_dir, f"codes-inc-{gen}")
    tmp_dir = durable.tmp_path(final_dir)
    _coalesced(
        db.map_batches(Encode, batch_format="pandas", concurrency=(1, 8)), n_new
    ).write_parquet(tmp_dir)
    os.makedirs(tmp_dir, exist_ok=True)  # an empty increment still renames
    durable.commit(tmp_dir, final_dir)  # replaces a stale uncommitted attempt

    meta["n_increments"] = gen + 1
    meta["n_vectors"] = int(meta["n_vectors"]) + int(n_new)
    meta["n_appended"] = int(meta.get("n_appended", 0)) + int(n_new)
    durable.write_json(os.path.join(index_dir, "_meta.json"), meta)
    return meta
