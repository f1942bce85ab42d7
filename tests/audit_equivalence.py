"""The audit's one walk per level counts what the per-k counts count, at n = 8.

    PYTHONPATH=src python tests/audit_equivalence.py

Tier-1 compares these routes at n <= 7; the audit's default bound counts
level 8 too.  This counts the audit's groups (the nine distributions, the
eight equidist coordinates and the pointwise pairs) over OP_8^k for every k
by ``stats.level_counts``, which walks OP_7 once, by one
``stats.value_counts`` call per k, and partition by partition over
``stats.sweep_all(8, ...)``, which builds every child and so counts no
group once per parent.  It prints each k whose counts differ and a summary
line, and exits 1 if any does.  It needs neither pytest nor hypothesis, so
it runs under any Python the package supports.
"""

from __future__ import annotations

import platform
import sys

from opstats import checks, stats

N = 8


def audit_groups() -> tuple[tuple, ...]:
    """The groups of ``checks._audit_level`` at an n with the equidist
    coordinates."""
    pairs = tuple(pair for _, check_pairs in checks.POINTWISE for pair in check_pairs)
    exprs = checks.SIX_STATS + checks.BMAJ_STATS + checks.EQUIDIST[0] + checks.EQUIDIST[1]
    return tuple((e,) for e in exprs) + (pairs,)


def swept_counts(groups: tuple[tuple, ...]) -> dict[int, list[dict]]:
    """The counts of ``groups`` over OP_N^k for each k, one partition at a
    time."""
    counts = {k: [{} for _ in groups] for k in range(1, N + 1)}
    for blocks, values in stats.sweep_all(N, [e for group in groups for e in group]):
        start = 0
        for c, group in zip(counts[len(blocks)], groups):
            stop = start + len(group)
            v = values[start] if len(group) == 1 else values[start:stop]
            c[v] = c.get(v, 0) + 1
            start = stop
    return counts


def main() -> int:
    groups = audit_groups()
    walked = stats.level_counts(N, groups)
    swept = swept_counts(groups)
    differ = [k for k in range(1, N + 1)
              if not walked.get(k) == stats.value_counts(N, k, groups) == swept[k]]
    for k in differ:
        print(f"n={N} k={k}: the one walk, the per-k counts and the sweep differ")
    print(f"Python {platform.python_version()}: {len(differ)} differences "
          f"over {len(groups)} groups at n={N}, k=1..{N}")
    return 1 if differ or sorted(walked) != list(range(1, N + 1)) else 0


if __name__ == "__main__":
    sys.exit(main())
