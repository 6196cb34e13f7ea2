"""Batched top-K event retrieval index (paper Section 4 at scale).

The production design of Section 4 makes recommendation time be
dominated by similarity lookups over pre-computed vectors.  A Python
loop of per-event cosine calls cannot hold that property past a few
thousand candidates; the standard large-scale answer (two-tower
retrieval à la TransNets / JNET) is a maintained *index*: one
contiguous matrix of event vectors that a user vector is scored
against with a single matrix-vector product.

:class:`EventIndex` is that structure, in-process:

* rows live in one contiguous ``float64`` matrix, L2-normalized at
  insert time, with the residual per-row scale kept so indexed scores
  reproduce :func:`repro.nn.cosine.cosine_similarity` exactly
  (``u·e / ((‖u‖+ε)(‖e‖+ε))``) instead of a subtly different cosine;
* upsert/remove are O(1): a dict maps ``event_id → row``, removal
  compacts by swapping the last row into the hole, and capacity grows
  by amortized doubling so inserts never reallocate per call;
* a candidate pool becomes rows in one pass — :meth:`EventIndex.resolve`
  sweeps the dict at C speed over the whole id array, never one locked
  lookup per event — and at most once per *row-layout epoch*: the
  :class:`ResolvedPool` it returns stays valid until a row is inserted
  or removed, and the scoring entrances take it back in place of ids;
* each entry is keyed by an ``(event_id, version)`` fingerprint —
  upserting an unchanged version is a cheap no-op, a new version
  overwrites the row in place ("recomputed upon important information
  change", Section 4);
* activity windows (``created_at``/``starts_at``) are kept in aligned
  arrays so ``at_time`` eligibility is one vectorized comparison, not
  a per-event ``is_active`` loop — one time for a whole cohort;
* one query scores a pool *in place* whenever its eligible rows are
  at least a quarter of the live rows (:data:`_IN_PLACE_SHARE`, the
  measured crossover): one GEMV over the live rows of the matrix, then
  a pick of the pool's scores — never a per-request copy of the
  matrix.  Only a smaller pool gathers its rows before the product.
  Every in-place pool therefore gives an event the same score, bit for
  bit: ``scores(query)[row]``, whichever other rows the pool holds.  A
  cohort's GEMM runs in place only over a whole pool: its product and
  pick grow with the queries while the copy does not, so its crossover
  lies far above a quarter.

The index owns no model and no metrics of its own —
:class:`~repro.core.service.RepresentationService` maintains it and
exports :class:`IndexStats` through ``repro.obs``.  The one exception
is *request tracing*: when a :class:`repro.obs.trace.Tracer` is
installed, the scoring entry points emit ``repro_index_lock_wait``
(time spent waiting to acquire ``_lock``) and
``repro_index_gemv``/``repro_index_gemm`` stage spans, so per-request
latency attribution can separate lock contention from kernel time.
With no tracer, the cost is one module-global ``None`` check.

Thread safety: every public method holds ``self._lock`` (an
``RLock`` — scoring methods re-enter through :meth:`score_ids`), so
concurrent mutators and rankers see consistent row/matrix state.  The
row-mapping internals are ``# guarded-by: _lock`` annotated and the
discipline is enforced statically by RPR401/RPR402
(:mod:`repro.analysis.locks`).  The compound serving read — check the
pool's epoch (resolve it again if rows moved since), filter by
activity, GEMV/GEMM — must be atomic (a concurrent swap-with-last
``remove`` moves rows between the steps), which is what
:meth:`score_ids` / :meth:`score_ids_batch` provide.  The epoch is
bumped under the same lock by every insert, ``remove`` and ``clear``;
an in-place upsert (``"fresh"``/``"refreshed"``) moves no row and leaves
it alone.  A :class:`ResolvedPool` is immutable and may be held across
calls and threads: a stale one costs a new resolve, never a wrong row.
The scoring entrances hand back the pool they scored, whose ``absent``
names the ids with no row, so a caller learns what is missing from the
pass that scored the rest.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from repro.entities import Event
from repro.nn.cosine import COSINE_EPS
from repro.obs.trace import active as _trace_active
from repro.obs.trace import record_stage, span

__all__ = ["IndexStats", "ResolvedPool", "EventIndex", "top_k_order"]

_INITIAL_CAPACITY = 64

# Score one query's pool in place (one GEMV over the live rows, then a
# pick of the pool's scores) when its rows are at least this share of
# the live rows; gather them first below it.  At dim 32 the two cost the
# same at a quarter (12.6 vs 12.6 µs at 2 000 rows, 33.5 vs 31.7 at
# 5 048, 240 vs 249 at 20 000); at the whole index the gather loses 184
# vs 36 µs at 5 048 rows and 848 vs 245 at 20 000.  A cohort's GEMM is
# not ruled by it: at 8 queries the gather still wins at half the rows
# of 20 000 (619 vs 724 µs), at 32 queries at 99.7 % (4.2 vs 5.5 ms).
_IN_PLACE_SHARE = 0.25

# Row-layout epochs of every index in the process come off one counter,
# so a pool resolved by one index never looks current to another.
_EPOCHS = count()


@dataclass
class IndexStats:
    """Mutation counters, observable for serving capacity planning.

    ``inserts`` are first-time rows; ``refreshes`` are version-change
    overwrites; ``fresh_skips`` are upserts whose version was already
    current (the warm fast path); ``compactions`` count removals that
    had to swap-with-last (i.e. removals of interior rows); ``grows``
    count capacity doublings.
    """

    inserts: int = 0
    refreshes: int = 0
    fresh_skips: int = 0
    removes: int = 0
    compactions: int = 0
    grows: int = 0


class ResolvedPool(NamedTuple):
    """A candidate pool as rows of one :class:`EventIndex`, good for one
    row-layout epoch.

    ``positions`` index the ``ids`` that have a row and ``rows`` are
    those rows, aligned; ``absent`` index the ids with none — never
    indexed, or a remover won the race.  ``whole`` says the rows are
    exactly the live rows in order, so the matrix is scored in place
    with no pick and an activity filter reads its columns as slices.
    For one query, any pool holding at least :data:`_IN_PLACE_SHARE`
    of the live rows is scored in place too, then picked; a smaller one
    — and a cohort's pool that is not whole — is gathered.
    """

    ids: np.ndarray
    rows: np.ndarray
    positions: np.ndarray
    absent: np.ndarray
    whole: bool
    epoch: int


def top_k_order(
    scores: np.ndarray, event_ids: np.ndarray, k: int | None = None
) -> np.ndarray:
    """Indices of ``scores`` ordered by ``(-score, event_id)``, top ``k``.

    Reproduces the brute-force ranking contract exactly, including
    tie-breaks: equal scores order by ascending event id, and fully
    equal keys keep input order (``np.lexsort`` is stable).  When
    ``k`` is given, ``np.argpartition`` preselects the top-``k`` score
    values in O(n) — candidates tied with the k-th score are all kept
    through the partition so boundary ties still break by id.
    """
    n = int(scores.shape[0])
    if k is None or k >= n:
        selected = np.arange(n)
    else:
        top = np.argpartition(scores, n - k)[n - k :]
        kth = scores[top].min()
        selected = np.flatnonzero(scores >= kth)
    order = np.lexsort((event_ids[selected], -scores[selected]))
    return selected[order][:k]


@dataclass
class EventIndex:
    """Contiguous, incrementally maintained event-vector index."""

    initial_capacity: int = _INITIAL_CAPACITY
    stats: IndexStats = field(default_factory=IndexStats)

    def __post_init__(self) -> None:
        if self.initial_capacity < 1:
            raise ValueError(
                f"initial_capacity must be >= 1, got {self.initial_capacity}"
            )
        # Reentrant: score_ids holds the lock while calling the locked
        # public scoring methods.
        self._lock = threading.RLock()
        self._rows: dict[int, int] = {}  # guarded-by: _lock
        self._versions: dict[int, str] = {}  # guarded-by: _lock
        self._size = 0  # guarded-by: _lock
        # Row-layout epoch: moves whenever an id gains, loses or changes
        # its row, i.e. whenever a ResolvedPool could go stale.
        self._epoch = next(_EPOCHS)  # guarded-by: _lock
        self._dim: int | None = None  # guarded-by: _lock
        # Row-aligned storage, allocated lazily at the first upsert
        # (the vector dimension is only known then).
        self._matrix: np.ndarray | None = None  # guarded-by: _lock
        self._scales: np.ndarray | None = None  # guarded-by: _lock
        self._ids: np.ndarray | None = None  # guarded-by: _lock
        self._created: np.ndarray | None = None  # guarded-by: _lock
        self._starts: np.ndarray | None = None  # guarded-by: _lock
        self._events: list[Event] = []  # guarded-by: _lock

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def __contains__(self, event_id: int) -> bool:
        with self._lock:
            return event_id in self._rows

    @property
    def dim(self) -> int | None:
        """Vector dimensionality, ``None`` until the first upsert."""
        with self._lock:
            return self._dim

    @property
    def capacity(self) -> int:
        with self._lock:
            return 0 if self._matrix is None else self._matrix.shape[0]

    def version(self, event_id: int) -> str | None:
        """Stored version fingerprint, ``None`` when absent."""
        with self._lock:
            return self._versions.get(event_id)

    def row_of(self, event_id: int) -> int:
        """Current row of an event (rows move under compaction)."""
        with self._lock:
            return self._rows[event_id]

    def resolve(self, event_ids: Sequence[int] | np.ndarray) -> ResolvedPool:
        """The pool's rows at the current epoch, found in one pass.

        The one place ids become rows: a C-speed ``dict.get`` sweep
        under a single lock hold (duplicate, negative and never-seen
        ids are all fine).  Rows move under concurrent mutation the
        moment the lock is released — that bumps the epoch, and the
        atomic :meth:`score_ids` resolves a stale pool again.
        """
        ids = np.asarray(event_ids, dtype=np.int64)
        keys = ids.tolist()
        with self._lock:
            found = np.fromiter(
                map(self._rows.get, keys, repeat(-1)), dtype=np.intp, count=len(keys)
            )
            positions = np.flatnonzero(found >= 0)
            rows = found[positions]
            # The live rows, in order: score the matrix itself, no gather.
            whole = rows.size == self._size and np.array_equal(
                rows, np.arange(self._size)
            )
            return ResolvedPool(
                ids, rows, positions, np.flatnonzero(found < 0), whole, self._epoch
            )

    @property
    def events(self) -> list[Event]:
        """The indexed event objects (copy, row order)."""
        with self._lock:
            return list(self._events)

    @property
    def event_ids(self) -> np.ndarray:
        """Event ids row-aligned with :attr:`vectors` (copy)."""
        with self._lock:
            if self._ids is None:
                return np.empty(0, dtype=np.int64)
            return self._ids[: self._size].copy()

    @property
    def vectors(self) -> np.ndarray:
        """Read-only view of the live L2-normalized rows.

        A *view*, not a copy — zero-cost for parity tests, but its
        contents track concurrent mutation; lock-consistent reads go
        through :meth:`score_ids`.
        """
        with self._lock:
            if self._matrix is None:
                return np.empty((0, 0), dtype=np.float64)
            view = self._matrix[: self._size]
            view.flags.writeable = False
            return view

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def _allocate(self, dim: int) -> None:
        capacity = max(self.initial_capacity, 1)
        self._dim = dim
        self._matrix = np.zeros((capacity, dim), dtype=np.float64)
        self._scales = np.zeros(capacity, dtype=np.float64)
        self._ids = np.zeros(capacity, dtype=np.int64)
        self._created = np.zeros(capacity, dtype=np.float64)
        self._starts = np.zeros(capacity, dtype=np.float64)

    def _grow(self) -> None:
        capacity = self.capacity * 2
        for name in ("_matrix", "_scales", "_ids", "_created", "_starts"):
            old = getattr(self, name)
            shape = (capacity, *old.shape[1:])
            new = np.zeros(shape, dtype=old.dtype)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)
        self.stats.grows += 1

    def upsert(
        self, event: Event, version: str, vector: np.ndarray | None = None
    ) -> str:
        """Insert or refresh one event row; returns what happened.

        Returns ``"fresh"`` (version already current — only the
        activity window and event reference are refreshed; ``vector``
        may be omitted), ``"refreshed"`` (version changed, row
        overwritten in place) or ``"inserted"`` (new row appended,
        doubling capacity as needed).  All three are O(1) amortized.
        """
        values = (
            None if vector is None else np.asarray(vector, dtype=np.float64)
        )
        if values is not None and values.ndim != 1:
            raise ValueError(f"vector must be 1-D, got shape {values.shape}")
        event_id = event.event_id
        norm = 0.0 if values is None else float(np.sqrt(values @ values))
        if not math.isfinite(norm):
            # One NaN row scale empties every truncated ranking over a
            # pool holding the row: top_k_order's k-th score becomes
            # NaN and no score compares >= it.
            raise ValueError(
                f"event {event_id}: vector must be finite, with a finite norm"
            )
        with self._lock:
            row = self._rows.get(event_id)
            if row is not None and self._versions[event_id] == version:
                # Content fingerprint unchanged ⇒ the vector is current.
                # Times are not version-covered, so keep them up to date.
                self._created[row] = event.created_at
                self._starts[row] = event.starts_at
                self._events[row] = event
                self.stats.fresh_skips += 1
                return "fresh"
            if values is None:
                raise ValueError(
                    f"event {event_id} is new or stale in the index; "
                    "upsert requires its vector"
                )
            if self._matrix is None:
                self._allocate(values.shape[0])
            if values.shape[0] != self._dim:
                raise ValueError(
                    f"vector dim {values.shape[0]} != index dim {self._dim}"
                )
            if row is None:
                if self._size == self.capacity:
                    self._grow()
                row = self._size
                self._size += 1
                self._rows[event_id] = row
                self._events.append(event)
                self._epoch = next(_EPOCHS)
                self.stats.inserts += 1
                outcome = "inserted"
            else:
                self._events[row] = event
                self.stats.refreshes += 1
                outcome = "refreshed"
            if norm > 0.0:
                self._matrix[row] = values / norm
            else:
                self._matrix[row] = 0.0
            self._scales[row] = norm / (norm + COSINE_EPS)
            self._ids[row] = event_id
            self._created[row] = event.created_at
            self._starts[row] = event.starts_at
            self._versions[event_id] = version
            return outcome

    def remove(self, event_id: int) -> bool:
        """Drop an event in O(1) by swapping the last row into its slot."""
        with self._lock:
            row = self._rows.pop(event_id, None)
            if row is None:
                return False
            del self._versions[event_id]
            last = self._size - 1
            if row != last:
                self._matrix[row] = self._matrix[last]
                self._scales[row] = self._scales[last]
                self._ids[row] = self._ids[last]
                self._created[row] = self._created[last]
                self._starts[row] = self._starts[last]
                self._events[row] = self._events[last]
                self._rows[int(self._ids[last])] = row
                self.stats.compactions += 1
            self._events.pop()
            self._size = last
            self._epoch = next(_EPOCHS)
            self.stats.removes += 1
            return True

    def clear(self) -> None:
        """Drop every row (storage is kept for reuse)."""
        with self._lock:
            self._rows.clear()
            self._versions.clear()
            self._events.clear()
            self._size = 0
            self._epoch = next(_EPOCHS)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def _select(self, array: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
        return array[: self._size] if rows is None else array[rows]

    def activity_mask(
        self, at_time: float, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized ``Event.is_active`` over (a subset of) the rows."""
        with self._lock:
            created = self._select(self._created, rows)
            starts = self._select(self._starts, rows)
            return (created <= at_time) & (at_time < starts)

    def scores(
        self, query: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Cosine of ``query`` against (a subset of) the rows.

        One matrix-vector product; numerically equal to
        :func:`repro.nn.cosine.cosine_similarity` per pair — the unit
        rows carry a residual ``‖e‖/(‖e‖+ε)`` scale so the training
        epsilon convention is reproduced, not approximated.
        """
        values = np.asarray(query, dtype=np.float64)
        norm = np.sqrt(values @ values) + COSINE_EPS
        with self._lock:
            if self._matrix is None:
                return np.empty(0, dtype=np.float64)
            dots = self._select(self._matrix, rows) @ values
            # repro: noqa[RPR101] fused GEMV form of nn.cosine; parity-tested <= 1e-9 vs pair_cosine
            dots *= self._select(self._scales, rows) / norm
            return dots

    def scores_batch(
        self, queries: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Cosine of a ``(m, dim)`` query matrix against the rows.

        A single GEMM: the multi-user serving primitive.  Returns
        shape ``(m, n_rows)``.
        """
        values = np.asarray(queries, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"queries must be 2-D, got shape {values.shape}")
        # Per-row dot products, not (values * values).sum(axis=1): the
        # pairwise summation of .sum() rounds differently from the BLAS
        # dot used by the single-user path, which made batch scores
        # diverge from rank_events in the last ulp of the denominator.
        norms = np.fromiter(
            (float(row @ row) for row in values),
            dtype=np.float64,
            count=values.shape[0],
        )
        np.sqrt(norms, out=norms)
        norms += COSINE_EPS
        with self._lock:
            if self._matrix is None:
                return np.empty((values.shape[0], 0), dtype=np.float64)
            dots = values @ self._select(self._matrix, rows).T
            scales = self._select(self._scales, rows)
            dots *= scales[None, :] / norms[:, None]
            return dots

    def _eligible_rows(
        self, pool: ResolvedPool, at_time: float | None
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """``(positions, rows, whole)`` of the pool's present ids that
        are active at ``at_time``, under the held lock."""
        positions, rows = pool.positions, pool.rows
        if at_time is None or not rows.size:
            return positions, rows, pool.whole
        keep = self.activity_mask(at_time, None if pool.whole else rows)
        rows = rows[keep]
        return positions[keep], rows, pool.whole and rows.size == self._size

    def _score_ids(
        self,
        kernel: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
        stage: str,
        query: np.ndarray,
        pool: ResolvedPool | Sequence[int] | np.ndarray,
        at_time: float | None,
    ) -> tuple[np.ndarray, np.ndarray, ResolvedPool]:
        """Epoch check → activity filter → ``kernel`` under one lock hold.

        Done separately, a concurrent swap-with-last ``remove`` can
        move a row between resolve and score, silently scoring the
        wrong event.  One query's rows, when at least
        :data:`_IN_PLACE_SHARE` of the live rows, are scored in place
        and picked; fewer are gathered, as is a cohort's unless whole.
        """
        traced = _trace_active()
        wait_start = time.perf_counter() if traced else 0.0
        with self._lock:
            if traced:
                record_stage(
                    "repro_index_lock_wait",
                    time.perf_counter() - wait_start,
                )
            if not isinstance(pool, ResolvedPool):
                pool = self.resolve(pool)
            elif pool.epoch != self._epoch:
                pool = self.resolve(pool.ids)
            positions, rows, whole = self._eligible_rows(pool, at_time)
            with span(stage) if traced else nullcontext():
                if whole:
                    scores = kernel(query, None)
                elif np.ndim(query) == 1 and rows.size >= _IN_PLACE_SHARE * self._size:
                    scores = kernel(query, None)[rows]
                else:
                    scores = kernel(query, rows)
            return positions, scores, pool

    def score_ids(
        self,
        query: np.ndarray,
        pool: ResolvedPool | Sequence[int] | np.ndarray,
        at_time: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, ResolvedPool]:
        """Atomic resolve → activity filter → GEMV for one user.

        ``pool`` is event ids, or the :class:`ResolvedPool` an earlier
        call returned: at an unchanged epoch nothing is resolved, at a
        newer one its ids are, under this same lock hold.  Returns
        ``(positions, scores, resolved)``: indices into the pool's ids
        that were present (and active when ``at_time`` is given), their
        cosine scores, aligned, and the pool as scored — pass it back
        next time; ``resolved.absent`` are the ids that had no row.
        """
        return self._score_ids(self.scores, "repro_index_gemv", query, pool, at_time)

    def score_ids_batch(
        self,
        queries: np.ndarray,
        pool: ResolvedPool | Sequence[int] | np.ndarray,
        at_time: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, ResolvedPool]:
        """Atomic resolve → activity filter → GEMM for a user cohort.

        Returns ``(positions, score_matrix, resolved)`` with
        ``score_matrix`` of shape ``(num_users, len(positions))``; same
        pool, ``at_time`` and atomicity contract as :meth:`score_ids`.
        """
        return self._score_ids(
            self.scores_batch, "repro_index_gemm", queries, pool, at_time
        )

    # ------------------------------------------------------------------
    # invariants (test/debug support)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``RuntimeError`` on internal inconsistency.

        Explicit raises (not ``assert``) so the checks survive ``-O``
        and carry a description of what broke; cheap enough for tests.
        """
        with self._lock:
            if not (self._size == len(self._rows) == len(self._versions)):
                raise RuntimeError(
                    f"size bookkeeping diverged: size={self._size}, "
                    f"rows={len(self._rows)}, versions={len(self._versions)}"
                )
            if len(self._events) != self._size:
                raise RuntimeError(
                    f"event list length {len(self._events)} != "
                    f"size {self._size}"
                )
            if sorted(self._rows.values()) != list(range(self._size)):
                raise RuntimeError(
                    "row indices are not a dense 0..size-1 range"
                )
            for event_id, row in self._rows.items():
                if int(self._ids[row]) != event_id:
                    raise RuntimeError(
                        f"id column mismatch at row {row}: "
                        f"{int(self._ids[row])} != {event_id}"
                    )
                if self._events[row].event_id != event_id:
                    raise RuntimeError(
                        f"event record mismatch at row {row} "
                        f"for id {event_id}"
                    )
            if self._size:
                live = self._matrix[: self._size]
                norms = np.sqrt((live * live).sum(axis=1))
                if not np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0)):
                    raise RuntimeError(
                        "live rows are neither unit-norm nor zero"
                    )
                if not np.isfinite(self._scales[: self._size]).all():
                    raise RuntimeError("a live row has a non-finite scale")

