"""Deterministic chunked reductions.

Chunk boundaries depend only on the chunk length, and worker threads only
change who computes a chunk, never the order results come back in.  The
partial results (the histogram pass) are integer counts, whose sums do not
depend on order, so single- and multi-threaded runs agree to the last bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def chunk_spans(lo: int, hi: int, chunk: int = 1 << 20) -> list[tuple[int, int]]:
    """Half-open spans covering [lo, hi) with fixed boundaries."""
    if chunk < 1:
        raise ValueError("chunk < 1")
    return [(a, min(a + chunk, hi)) for a in range(lo, hi, chunk)]


def map_ordered(fn, spans, threads: int = 1):
    """fn over spans, yielded one at a time in span order for any thread count."""
    if threads <= 1 or len(spans) <= 1:
        for a, b in spans:
            yield fn(a, b)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(lambda ab: fn(*ab), spans)

