"""The benchmark's workloads, driven through the public API only.

Each workload generates its inputs from the seed with the
``repro.workloads`` generators, computes its correctness reference by
serial execution on a fresh ``Engine`` (untimed), builds its engine or
service in :meth:`Workload.setup` (timed as ``setup_s``), and runs a
closed loop in :meth:`Workload.measure`.

* ``ejoin-strings`` — the paper's dirty-string integration (Sec. II-A-2):
  a fresh ``Engine`` per query, so the embed-once store starts cold and
  ``embed_batch`` does most of the work.
* ``ejoin-vectors`` — pre-embedded ``TENSOR`` columns on a warm engine;
  the blocked GEMM scan, top-k sink and engine morsels do the work.
* ``ejoin-int8`` — the same top-10 joins under the documented
  ``default_precision="int8"`` setting, the only path through the int8
  store and quantized join.
* ``serve-topk`` — closed-loop client threads on ``QueryService.submit``;
  admission, caches, coalescer and the exact rescore do the work.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

import repro
from repro.relational import Col
from repro.relational.column import Column
from repro.workloads import embedding_like_vectors, generate_dirty_strings

DIM = 256
#: The embedding geometry of the repository's own precision figure
#: (fig_quant): 1024 clusters with unit noise.  The generator's default
#: (128 clusters, noise 0.25) packs each cluster at cosine ~0.998.
GEOMETRY = dict(rank=48, n_clusters=1024, noise=1.0)
LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Op:
    """One measured operation; :meth:`Workload.check` fills ``ok``/``recall``."""

    query: object
    latency_s: float
    out: object      # the result, or the exception the call raised
    rows: int        # probe-side rows joined (1 per served selection)
    ok: bool = False # bit-identical to serial (int8: recall at the gate)
    recall: float = 0.0


def vector_table(vectors: np.ndarray, id_name: str = "id") -> repro.Table:
    return repro.Table.from_columns(
        [
            Column(repro.Field(id_name, repro.DataType.INT64), np.arange(len(vectors))),
            Column(repro.Field("emb", repro.DataType.TENSOR, dim=vectors.shape[1]), vectors),
        ]
    )


def same_columns(a: repro.Table, b: repro.Table) -> bool:
    """The bit-identical-to-serial contract: every column ``np.array_equal``."""
    if a.schema.names != b.schema.names:
        return False
    return all(np.array_equal(a.array(n), b.array(n)) for n in a.schema.names)


def pair_recall(out: repro.Table, ref: repro.Table, left: str, right: str) -> float:
    want = set(zip(ref.array(left).tolist(), ref.array(right).tolist()))
    if not want:
        return 1.0
    got = set(zip(out.array(left).tolist(), out.array(right).tolist()))
    return len(want & got) / len(want)


class Workload:
    """Inputs plus the closed loop over them.

    A subclass generates its inputs in ``__init__`` (``toy`` picks toy
    sizes) and provides ``reference()`` (untimed), ``setup()`` (timed),
    ``stream`` (the query cycle), ``run(query)``, ``probe_rows(query)``
    and ``check(query, result) -> (ok, recall)``.
    """

    name = ""
    #: Lone caller: latencies are back to back, so throughput is derived
    #: from their sum; a served workload divides by the wall window.
    lone = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.engine: repro.Engine | None = None
        self.service = None

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown(drain=True, timeout_s=30.0)
        self.engine = self.service = None

    def measure(self, seconds: float, tracer=None) -> list[Op]:
        """Closed loop over the query stream for ``seconds`` (at least one op).

        Each result is checked between queries, outside the timed region
        and outside every traced span, and then dropped.
        """
        ops: list[Op] = []
        end = time.perf_counter() + seconds
        i = 0
        while not ops or time.perf_counter() < end:
            query = self.stream[i % len(self.stream)]
            ops.append(self._timed(query, tracer, i))
            self.verify(ops[-1:])
            i += 1
        return ops

    def _timed(self, query, tracer, qid) -> Op:
        start = time.perf_counter()
        try:
            out = self.run(query) if tracer is None else tracer.query(qid, self.run, query)
        except Exception as exc:  # a failed operation, counted, never dropped
            out = exc
        return Op(query, time.perf_counter() - start, out, self.probe_rows(query))

    def verify(self, ops: list[Op]) -> None:
        """Check, then drop, every result not checked yet."""
        for op in ops:
            if isinstance(op.out, Exception):
                traceback.print_exception(op.out, file=sys.stderr)
            elif op.out is not None:
                op.ok, op.recall = self.check(op.query, op.out)
            op.out = None


# ---------------------------------------------------------------------------
# ejoin-strings
# ---------------------------------------------------------------------------
def generated_vocabulary(n: int, rng: np.random.Generator) -> list[str]:
    """``n`` distinct pseudo-words of 5-10 letters."""
    words: set[str] = set()
    while len(words) < n:
        length = int(rng.integers(5, 11))
        words.add("".join(LETTERS[i] for i in rng.integers(0, 26, length)))
    return sorted(words)


class StringsWorkload(Workload):
    name = "ejoin-strings"

    def __init__(self, seed: int, toy: bool) -> None:
        super().__init__(seed)
        n_vocab, n_feed = (512, 256) if toy else (8192, 4096)
        rng = np.random.default_rng(seed)
        words = generated_vocabulary(n_vocab, rng)
        topics = {f"t{i}": words[i : i + 64] for i in range(0, len(words), 64)}
        data = generate_dirty_strings(
            n_feed=n_feed,
            topics=topics,
            misspelling_rate=1.0,
            plural_rate=0.0,
            synonym_rate=0.0,
            seed=seed,
        )
        self.vocab, self.feed = data.catalog, data.feed
        self.model = repro.HashingEmbedder(dim=64, seed=seed)
        # Filter at the median view count, so every seed joins about half
        # of the feed.
        views = self.feed.array("views")
        self.stream = [int(np.median(views))]
        self._rows = {t: int(np.count_nonzero(views > t)) for t in self.stream}

    def _engine(self) -> repro.Engine:
        catalog = repro.Catalog()
        catalog.register("vocab", self.vocab)
        catalog.register("feed", self.feed)
        engine = repro.Engine(catalog)
        engine.models.register("hash", self.model)
        return engine

    def _query(self, engine: repro.Engine, views: int):
        return (
            engine.query("feed")
            .where(Col("views") > views)
            .ejoin("vocab", left_on="text", right_on="word", model="hash", top_k=1)
            .select(["l_id", "r_id", "similarity"])
        )

    def reference(self) -> None:
        self.ref = {v: self._query(self._engine(), v).execute() for v in self.stream}

    def setup(self) -> None:
        self.engine = self._engine()
        self._query(self.engine, self.stream[0]).execute()

    def run(self, views: int) -> repro.Table:
        # A fresh engine per query: the embed-once store starts cold.
        return self._query(self._engine(), views).execute()

    def probe_rows(self, views: int) -> int:
        return self._rows[views]

    def check(self, views: int, table: repro.Table) -> tuple[bool, float]:
        ref = self.ref[views]
        return same_columns(table, ref), pair_recall(table, ref, "l_id", "r_id")


# ---------------------------------------------------------------------------
# ejoin-vectors / ejoin-int8
# ---------------------------------------------------------------------------
class VectorsWorkload(Workload):
    name = "ejoin-vectors"
    precision = "fp32"

    def __init__(self, seed: int, toy: bool) -> None:
        super().__init__(seed)
        n_probe, n_build = (128, 2048) if toy else (2048, 16384)
        # One draw split in two, so both sides share the cluster geometry.
        vectors, _ = embedding_like_vectors(
            n_probe + n_build, DIM, seed=seed, **GEOMETRY
        )
        self.probe, self.build = vectors[:n_probe], vectors[n_probe:]
        # A threshold that keeps ~16 matches per probe row, from a sample.
        sample = self.probe[:128] @ self.build.T
        self.threshold = float(np.quantile(sample, 1.0 - 16.0 / n_build))
        self.model = repro.HashingEmbedder(dim=DIM, seed=seed)
        # Two top-10 joins per threshold join keep the median in one mode.
        self.stream = ["topk", "threshold", "topk"]

    def _engine(self) -> repro.Engine:
        catalog = repro.Catalog()
        catalog.register("probe", vector_table(self.probe))
        catalog.register("build", vector_table(self.build))
        engine = repro.Engine(catalog)
        engine.models.register("enc", self.model)
        return engine

    def _query(self, engine: repro.Engine, kind: str):
        cond = {"top_k": 10} if kind == "topk" else {"threshold": self.threshold}
        return (
            engine.query("probe")
            .ejoin("build", left_on="emb", right_on="emb", model="enc", **cond)
            .select(["l_id", "r_id", "similarity"])
        )

    def reference(self) -> None:
        repro.configure(default_precision="fp32")
        engine = self._engine()
        self.ref = {k: self._query(engine, k).execute() for k in dict.fromkeys(self.stream)}

    def setup(self) -> None:
        repro.configure(default_precision=self.precision)
        self.engine = self._engine()
        self._query(self.engine, self.stream[0]).execute()

    def run(self, kind: str) -> repro.Table:
        return self._query(self.engine, kind).execute()

    def probe_rows(self, kind: str) -> int:
        return len(self.probe)

    def check(self, kind: str, table: repro.Table) -> tuple[bool, float]:
        ref = self.ref[kind]
        return same_columns(table, ref), pair_recall(table, ref, "l_id", "r_id")


class Int8Workload(VectorsWorkload):
    name = "ejoin-int8"
    precision = "int8"

    def __init__(self, seed: int, toy: bool) -> None:
        super().__init__(seed, toy)
        # The planner keeps fp32 for threshold joins, so top-k only.
        self.stream = ["topk"]

    def check(self, kind: str, table: repro.Table) -> tuple[bool, float]:
        recall = pair_recall(table, self.ref[kind], "l_id", "r_id")
        return recall >= repro.get_config().default_min_recall, recall


# ---------------------------------------------------------------------------
# serve-topk
# ---------------------------------------------------------------------------
class ServeWorkload(Workload):
    name = "serve-topk"
    lone = False
    HOT_SHARE = 0.3

    def __init__(self, seed: int, toy: bool) -> None:
        super().__init__(seed)
        n_corpus, n_hot, n_cold = (4096, 8, 256) if toy else (49152, 32, 4096)
        vectors, _ = embedding_like_vectors(
            n_corpus + n_hot + n_cold, DIM, seed=seed, **GEOMETRY
        )
        self.corpus = vectors[:n_corpus]
        #: Query vectors: ids < n_hot are the hot set, the rest are cold.
        self.queries = vectors[n_corpus:]
        self.n_hot = n_hot
        self.clients = max(1, len(os.sched_getaffinity(0)))
        self.model = repro.HashingEmbedder(dim=DIM, seed=seed)

    def _engine(self) -> repro.Engine:
        catalog = repro.Catalog()
        catalog.register("docs", vector_table(self.corpus, "doc_id"))
        engine = repro.Engine(catalog)
        engine.models.register("enc", self.model)
        return engine

    def _query(self, engine: repro.Engine, qid: int):
        return (
            engine.query("docs")
            .esimilar("emb", self.queries[qid], model="enc", top_k=10)
            .select(["doc_id", "similarity"])
        )

    def _draw(self, rng: np.random.Generator) -> int:
        if rng.random() < self.HOT_SHARE:
            return int(rng.integers(self.n_hot))
        return self.n_hot + int(rng.integers(len(self.queries) - self.n_hot))

    def reference(self) -> None:
        # Computed after the run, for the query ids actually served.
        self.ref_engine = self._engine()
        self.ref: dict[int, repro.Table] = {}

    def setup(self) -> None:
        self.engine = self._engine()
        self.service = self.engine.serve()
        self.service.submit(self._query(self.engine, 0))
        self._round = 0

    def run(self, qid: int) -> repro.Table:
        return self.service.submit(self._query(self.engine, qid))

    def probe_rows(self, qid: int) -> int:
        return 1

    def measure(self, seconds: float, tracer=None) -> list[Op]:
        """``clients`` closed-loop threads for ``seconds``."""
        self._round += 1
        results: list[list[Op]] = [[] for _ in range(self.clients)]
        end = time.perf_counter() + seconds

        def client(c: int) -> None:
            rng = np.random.default_rng((self.seed, self._round, c))
            while time.perf_counter() < end:
                results[c].append(
                    self._timed(self._draw(rng), tracer, f"{c}-{len(results[c])}")
                )

        threads = [threading.Thread(target=client, args=(c,)) for c in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [op for ops in results for op in ops]

    def check(self, qid: int, table) -> tuple[bool, float]:
        ref = self.ref.get(qid)
        if ref is None:
            ref = self.ref[qid] = self._query(self.ref_engine, qid).execute()
        want = set(ref.array("doc_id").tolist())
        recall = len(want & set(table.array("doc_id").tolist())) / max(1, len(want))
        return same_columns(table, ref), recall


WORKLOADS = {
    w.name: w for w in (StringsWorkload, VectorsWorkload, Int8Workload, ServeWorkload)
}
