"""REP101 fixture, zero-hop case: unpicklable callables handed straight to the pool."""
from repro.parallel import parallel_map, run_sweep
from repro.resilience import supervised_map


def square(x):
    return x * x


def violations(items, specs):
    doubled = parallel_map(lambda x: 2 * x, items, jobs=2)  # flagged: lambda

    def local_fn(x):  # closure: defined inside this function
        return x + 1

    bumped = parallel_map(local_fn, items, jobs=2)  # flagged: closure
    mapped = supervised_map(lambda x: x, items, 2)  # flagged: lambda
    closed = supervised_map(local_fn, items, 2)  # flagged: closure
    return doubled, bumped, mapped, closed, run_sweep(specs, jobs=2)  # fine: specs are data


def suppressed(items):
    return parallel_map(lambda x: x, items)  # repro: noqa[REP101] fixture: waiver syntax under test


def compliant(items):
    return parallel_map(square, items, jobs=2)
