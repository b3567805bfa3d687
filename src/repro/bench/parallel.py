"""Process-parallel grid execution for the experiment harness.

The paper's evaluation grids are embarrassingly parallel: every
(workload, mechanism) cell is an independent, seeded discrete-event
simulation, and the GIL only serializes threads *inside* one run
(DESIGN.md's ``repro_why``), not separate interpreter processes. This
module fans :meth:`Harness.grid` cells out over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* the parent first serves every cell it can from the in-memory and
  persistent caches, so a warm cache dispatches no workers at all;
* each worker's initializer rebuilds a private :class:`Harness` from a
  pickled payload — the (possibly non-default) board, the harness
  knobs, and the parent's **profile table** (the profile-sharing fast
  path: ``profile_workload`` re-compresses real data with pure-Python
  codecs, the single most repeated cost, so it is computed once in the
  parent, persisted, and shipped instead of recomputed per process);
* workers write their results into the shared persistent cache
  (atomic ``os.replace`` makes concurrent writers safe), and the parent
  merges the returned :class:`RunResult` objects back into its
  in-memory caches, so follow-up reads (Fig 8 re-reading Fig 7's grid)
  stay free.

Determinism: a cell's numbers depend only on the harness configuration
and the cell's seeds, never on which process ran it or in what order —
``run_grid`` with ``jobs=4``, ``jobs=1`` and a warm cache all return
identical results (tested in ``tests/test_parallel_cache.py``).
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import Harness, WorkloadSpec
from repro.runtime.metrics import RunResult

__all__ = ["run_grid", "resolve_jobs"]


def resolve_jobs(jobs: int) -> int:
    """Clamp a requested worker count to the machine's core count.

    Oversubscribing DES workers only adds context-switch overhead and
    memory pressure (each worker rebuilds a full harness), so a request
    past ``os.cpu_count()`` is clamped with a :class:`RuntimeWarning`
    rather than honored.
    """
    jobs = max(1, jobs)
    available = os.cpu_count() or 1
    if jobs > available:
        warnings.warn(
            f"requested jobs={jobs} exceeds cpu_count={available}; "
            f"clamping to {available}",
            RuntimeWarning,
            stacklevel=3,
        )
        return available
    return jobs


#: the per-process harness a worker builds in its initializer
_WORKER_HARNESS: Optional[Harness] = None


def _worker_initialize(payload_bytes: bytes) -> None:
    """Rebuild board/codec/harness state inside a fresh worker process."""
    global _WORKER_HARNESS
    payload = pickle.loads(payload_bytes)
    cache = None
    if payload["cache_directory"] is not None:
        from repro.bench.cache import ResultCache

        cache = ResultCache(
            payload["cache_directory"], salt=payload["cache_salt"]
        )
    harness = Harness(
        board=payload["board"],
        repetitions=payload["repetitions"],
        batches_per_repetition=payload["batches_per_repetition"],
        profile_batches=payload["profile_batches"],
        seed=payload["seed"],
        cache=cache,
        jobs=1,  # workers never nest process pools
        trace_dir=payload["trace_dir"],
    )
    for key, profile in payload["profiles"].items():
        if profile.fingerprint() != payload["fingerprints"][key]:
            raise RuntimeError(
                f"profile {profile.codec_name}-{profile.dataset_name} "
                "was corrupted in transport to the worker"
            )
    harness._profiles.update(payload["profiles"])
    _WORKER_HARNESS = harness


def _run_chunk(
    cells: Sequence[Tuple[WorkloadSpec, str]],
    repetitions: Optional[int],
    config_overrides: Dict,
) -> List[RunResult]:
    """Run several cells in one worker task, in submission order.

    One task per *chunk* instead of per cell amortizes future/pickle
    round-trips, and every cell of the chunk reuses the worker harness's
    shipped profile table (the profile-sharing fast path) and in-memory
    caches without re-entering the pool's task queue.
    """
    return [
        _WORKER_HARNESS.run(
            spec, mechanism, repetitions=repetitions, **config_overrides
        )
        for spec, mechanism in cells
    ]


def _shipping_payload(harness: Harness, specs) -> bytes:
    """Pickle everything a worker needs to rebuild the harness."""
    for spec in specs:
        harness.profile(spec)  # profile-sharing fast path: compute once
    return pickle.dumps(
        {
            "board": harness.board,
            "repetitions": harness.repetitions,
            "batches_per_repetition": harness.batches_per_repetition,
            "profile_batches": harness.profile_batches,
            "seed": harness.seed,
            "trace_dir": harness.trace_dir,
            "cache_directory": (
                str(harness.cache.directory)
                if harness.cache is not None
                else None
            ),
            "cache_salt": (
                harness.cache.salt if harness.cache is not None else None
            ),
            "profiles": dict(harness._profiles),
            "fingerprints": {
                key: profile.fingerprint()
                for key, profile in harness._profiles.items()
            },
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def run_grid(
    harness: Harness,
    specs: Sequence[WorkloadSpec],
    mechanisms: Sequence[str],
    jobs: Optional[int] = None,
    **config_overrides,
) -> Dict[Tuple[str, str], RunResult]:
    """Run a (workload × mechanism) grid, fanning misses out over
    ``jobs`` worker processes in chunks of cells.

    Drop-in equivalent of the serial :meth:`Harness.grid` loop: same
    return shape, same numbers, and every computed cell lands in the
    harness's caches. ``jobs`` is clamped to the machine's core count
    (:func:`resolve_jobs`). Each worker task runs ``pending // (4 *
    jobs)`` cells (at least one), which keeps about four waves of tasks
    per worker — large enough to amortize dispatch,
    small enough that one slow cell cannot idle the pool. On a
    single-core machine, or when the uncached remainder is too small to
    make a second worker task, the parent falls back to the plain
    serial loop (no pool, no pickling).
    """
    specs = list(specs)
    mechanisms = list(mechanisms)
    jobs = harness.jobs if jobs is None else jobs
    jobs = resolve_jobs(jobs)
    repetitions = config_overrides.pop("repetitions", None)

    results: Dict[Tuple[str, str], RunResult] = {}
    pending = []
    for spec in specs:
        for mechanism in mechanisms:
            cached = harness.cached_run(
                spec, mechanism, repetitions, config_overrides
            )
            if cached is not None:
                results[(spec.label, mechanism)] = cached
            else:
                pending.append((spec, mechanism))

    chunk = max(1, len(pending) // (4 * jobs))
    chunks = [
        pending[start:start + chunk]
        for start in range(0, len(pending), chunk)
    ]

    if jobs <= 1 or len(chunks) <= 1:
        for spec, mechanism in pending:
            results[(spec.label, mechanism)] = harness.run(
                spec, mechanism, repetitions=repetitions, **config_overrides
            )
        return results

    payload = _shipping_payload(
        harness, list(dict.fromkeys(spec for spec, _ in pending))
    )
    workers = min(jobs, len(chunks))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_initialize,
        initargs=(payload,),
    ) as pool:
        futures = [
            (cells, pool.submit(
                _run_chunk, cells, repetitions, dict(config_overrides)
            ))
            for cells in chunks
        ]
        for cells, future in futures:
            for (spec, mechanism), result in zip(cells, future.result()):
                results[(spec.label, mechanism)] = result
                harness.store_run(
                    spec, mechanism, repetitions, config_overrides, result
                )
    return results
