"""Partition-count kernel.

Counts expressions of a vector as nonnegative integer combinations of a
fixed list of positive roots, graded by the total number of roots used.
Every vector, roots included, is given by its k coefficients in the
simple roots, so the count lives on the positive cone Z_{>=0}^k: the
recursion drops a branch as soon as a coefficient goes negative, or
stays positive where no remaining root can lower it.  Counts are
arbitrary-precision integers.
"""

from __future__ import annotations

from operator import sub

# Kept as a constant: benchmark logs record it, and their comparison
# refuses runs whose kernels differ.
BACKEND = "python"


class PartitionContext:
    """Fixed root list plus a memo table shared across queries."""

    __slots__ = ("roots", "lead", "memo")

    def __init__(self, roots):
        # reverse-lex order: the roots from index i on are all zero before
        # the first nonzero coefficient of roots[i], so each branch knows
        # which coefficients must already be spent
        self.roots = tuple(sorted((tuple(r) for r in roots), reverse=True))
        if any(min(r) < 0 or not any(r) for r in self.roots):
            raise ValueError("every root must be a nonzero nonnegative coefficient vector")
        k = len(self.roots[0]) if self.roots else 0
        self.lead = tuple(next(j for j, x in enumerate(r) if x) for r in self.roots) + (k,)
        self.memo = {}

    def counts(self, beta):
        """Map (number of roots used) -> (number of expressions of beta)."""
        beta = tuple(beta)
        if min(beta, default=0) < 0:
            return {}
        return dict(self._rec(beta, 0))

    def _rec(self, beta, idx):
        if any(beta[: self.lead[idx]]):
            return {}  # a coefficient no remaining root covers
        if idx == len(self.roots):
            return {0: 1}
        key = (beta, idx)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        root = self.roots[idx]
        out = {}
        cur = beta
        t = 0
        while min(cur) >= 0:
            for e, c in self._rec(cur, idx + 1).items():
                e += t
                out[e] = out.get(e, 0) + c
            cur = tuple(map(sub, cur, root))
            t += 1
        self.memo[key] = out
        return out
