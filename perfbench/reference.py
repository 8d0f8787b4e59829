"""The reference computation that run.py scales its timed metrics by.

run.py starts this as a helper process and writes it a line whenever it
wants a timing; the helper runs the computation once and answers with its
seconds, and stops at the end of its input.  It runs in a process of its
own so that its memory stays out of the benchmark's peak_rss_mb.
"""

import sys
from fractions import Fraction
from time import perf_counter


def reference_s() -> float:
    """Time one fixed computation in the idiom alexarr runs in: a few MB of
    fresh dict entries keyed by tuples, exact rationals, products of ints.
    The allocation and the working set matter: a neighbour contending for
    memory or the shared cache slows alexarr, and a kernel that fits in the
    core's own cache would miss it.  Touches no alexarr code."""
    start = perf_counter()
    table = {(i, j): Fraction(i - j, j + 1) for i in range(160) for j in range(1, 120)}
    acc = 0
    for (i, j), v in table.items():
        acc += table.get((j, i), 0).numerator * v.denominator
    return perf_counter() - start


if __name__ == "__main__":
    for _ in sys.stdin:
        print(reference_s(), flush=True)
