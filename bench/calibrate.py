"""A fixed amount of pure-Python work, timed by run.py between the CLI ops.

It imports nothing from decltrace, so no change to the package can change
its time: only the host can.  run.py starts it the way it starts a CLI op
and takes the median of its wall times over a run as that run's measure of
the host's speed.  The work mixes what the CLI spends its time on:
interpreter start, closure over a relation held as sets of pairs, a
dynamic program over bitmasks, and sorting and formatting tuples.

Prints one checksum, which run.py compares with ``CHECKSUM``.
"""

CHECKSUM = 488608

N = 150
BITS = 15


def closure() -> int:
    pairs = {(i, (i * 7 + 3) % N) for i in range(N)} | {(i, i + 1) for i in range(N - 1)}
    above = {i: {b for a, b in pairs if a == i} for i in range(N)}
    for k in range(N):
        for i in range(N):
            if k in above[i]:
                above[i] |= above[k]
    return sum(len(s) for s in above.values())


def subset_dp() -> int:
    need = [1 << (x - 1) if x % 3 == 0 and x else 0 for x in range(BITS)]
    ways = [0] * (1 << BITS)
    ways[0] = 1
    for placed in range(1 << BITS):
        w = ways[placed]
        if w:
            for x in range(BITS):
                bit = 1 << x
                if not placed & bit and not need[x] & ~placed:
                    ways[placed | bit] += w
    return ways[-1] % 1_000_003


def sort_and_format() -> int:
    rows = sorted(
        (len(t), t) for t in ((j % 9, (j * 31) % 17, (j * 7) % 5)[: 1 + j % 3] for j in range(12_000))
    )
    return sum(len(" ".join(f"a{x}" for x in t)) for _, t in rows)


def work() -> int:
    return closure() + subset_dp() + sort_and_format()


if __name__ == "__main__":
    print(work())
