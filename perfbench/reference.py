"""A fixed pure-Python workload that runs no checker code.

The benchmark times it in a process of its own just before and just after
each check, and divides the check's times by the mean of the two: the speed
this shared machine gives one process drifts from one minute to the next,
and the ratio drifts much less than either time.  Interning tuples in a dict
of a few hundred thousand entries loads the interpreter and the memory
hierarchy much as the explorer does, so it tracks the checker's speed better
than a loop that fits in cache.

Prints the workload's time in seconds.
"""

import time

ENTRIES = 250_000


def reference_s() -> float:
    t0 = time.perf_counter()
    index: dict = {}
    order: list = []
    for i in range(ENTRIES):
        key = (i, i % 7, "s", i & 1 == 0, i * 3)
        if key not in index:
            index[key] = len(order)
            order.append(key)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(reference_s())
