"""The pair driver shared by the pairwise suites."""

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor


def _workers():
    """DENDRON_WORKERS, clamped to between 1 and the CPU count."""
    try:
        wanted = int(os.environ.get("DENDRON_WORKERS", ""))
    except ValueError:
        return 1
    return max(1, min(wanted, os.cpu_count() or 1))


def _pair_stride(build, bounds, check, start, step, corpus=None):
    """Run check(corpus, i, j, memo) over the pair indices start,
    start + step, ... of an n x n product; a pool worker builds its own
    corpus from the bounds.  memo is one dict for the whole stride, which
    a check may fill with what its pairs share (the factorization and
    equivariant checks do); it is dropped when the stride returns."""
    if corpus is None:
        corpus = build(*bounds)
    memo = {}
    counts, failures = [], []
    for k in range(start, len(corpus) ** 2, step):
        count, bad = check(corpus, *divmod(k, len(corpus)), memo)
        counts.append(count)
        failures.extend(bad)
    return counts, failures


def _run_pairs(build, bounds, check):
    """Run check(corpus, i, j, memo) over every ordered pair of
    build(*bounds), with one memo per stride (see `_pair_stride`).

    Worker w of N takes every N-th pair from w, so the heavy pairs at the
    end of the size-sorted corpus are shared out; a corpus is never
    pickled, since the objects in it cache their hashes.  Returns the
    corpus, the per-pair counts in pair order and the failures in a fixed
    order.
    """
    corpus = build(*bounds)
    total = len(corpus) ** 2
    parts = max(1, min(_workers(), total))
    if parts == 1:
        results = [_pair_stride(build, bounds, check, 0, 1, corpus)]
    else:
        with ProcessPoolExecutor(
                max_workers=parts,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futs = [pool.submit(_pair_stride, build, bounds, check, w, parts)
                    for w in range(parts)]
            results = [f.result() for f in futs]
    counts = [None] * total
    for w, (cs, _) in enumerate(results):
        counts[w::parts] = cs
    failures = sorted((f for _, fs in results for f in fs),
                      key=lambda r: (r["src"], r["dst"], r.get("reason", ""),
                                     json.dumps(r.get("map"),
                                                sort_keys=True)))
    return corpus, counts, failures
