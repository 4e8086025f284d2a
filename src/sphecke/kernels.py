"""Partition-count kernel.

Counts expressions of a lattice vector as nonnegative integer
combinations of a fixed ordered list of positive roots, graded by the
total number of roots used.  Counts are arbitrary-precision integers.
"""

from __future__ import annotations

# Kept as a constant: benchmark logs record it, and their comparison
# refuses runs whose kernels differ.
BACKEND = "python"


class PartitionContext:
    """Fixed root list plus a memo table shared across queries."""

    __slots__ = ("roots", "heights", "height_form", "memo")

    def __init__(self, roots, height_form):
        # stable order: the memo is only valid for one ordering
        self.roots = tuple(tuple(r) for r in roots)
        self.heights = tuple(
            sum(h * x for h, x in zip(height_form, r)) for r in self.roots
        )
        if any(h <= 0 for h in self.heights):
            raise ValueError("height form must be positive on every root")
        self.height_form = tuple(height_form)
        self.memo = {}

    def counts(self, beta):
        """Map (number of roots used) -> (number of expressions of beta)."""
        beta = tuple(beta)
        h = sum(a * b for a, b in zip(self.height_form, beta))
        return dict(self._rec(beta, h, 0))

    def _rec(self, beta, h, idx):
        if h == 0:
            return {0: 1} if not any(beta) else {}
        if h < 0 or idx == len(self.roots):
            return {}
        key = (beta, idx)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        root = self.roots[idx]
        hr = self.heights[idx]
        if idx == len(self.roots) - 1:
            # last root: beta must be an exact multiple
            t, r = divmod(h, hr)
            out = {t: 1} if r == 0 and beta == tuple(t * x for x in root) else {}
            self.memo[key] = out
            return out
        out = {}
        cur = beta
        ch = h
        t = 0
        while ch >= 0:
            for e, c in self._rec(cur, ch, idx + 1).items():
                e += t
                out[e] = out.get(e, 0) + c
            cur = tuple(a - b for a, b in zip(cur, root))
            ch -= hr
            t += 1
        self.memo[key] = out
        return out

    def memo_size(self):
        return len(self.memo)
