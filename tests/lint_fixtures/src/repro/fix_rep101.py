"""REP101 fixture: unpicklable callables entering the pool through wrappers.

``fix_rep101_direct`` holds the zero-hop ``parallel_map(lambda ...)`` case;
these calls go through the forwarding wrappers in ``fix_rep101_worker``,
which only the inter-procedural pass can connect to the pool boundary.
"""

from repro.fix_rep101_worker import run_distributed, run_wrapped


def square(x):
    return x * x


def violations(items):
    first = run_distributed(lambda x: x + 1, items)  # flagged: lambda through a wrapper

    def local_fn(x):
        return x - 1

    second = run_wrapped(local_fn, items)  # flagged: closure through two wrappers
    return first, second


def suppressed(items):
    return run_distributed(lambda x: x, items)  # repro: noqa[REP101] fixture: waiver syntax under test


def compliant(items):
    return run_wrapped(square, items)
