"""Proportional selection: per-vertex origin→amount provenance vectors.

When a transfer does not drain the source buffer, every origin component of
the source vector contributes the same fraction of its mass.  A vector is a
dict from origin slot to amount until a transfer involves a row, or two dicts
holding ``PROMOTE_FRACTION · n_slots`` entries between them (and at least
``PROMOTE_MIN``, below which a dict loop beats NumPy's per-call cost).  Its
destination then becomes a NumPy float64 row, UNKNOWN in the last column, and
a drained vector is an empty dict again.  NumPy is imported on the first
promotion.  Both forms apply the same float operations to each amount, so
they agree exactly.  Budget vectors never promote; ``prop-dense`` promotes
every destination.

Under a window of W interactions two banks of vectors, odd and even, both
take every update.  After interaction n, a multiple of W, one bank is reset
to ``{UNKNOWN: |B_v|}`` for every v: the odd bank at odd multiples, the even
bank at even ones.  Snapshots read the least recently reset bank, so mass
born within the last W interactions is attributed to its true origin.

Amounts that fall to the dust threshold (``epsilon``) leave the vector, and
``math.fsum`` adds them up in any order.  Under a scope, budget or window the
dust is folded into the UNKNOWN entry; otherwise it is booked in ``dropped``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import UNKNOWN, ConfigError, EngineBase, Interaction, Policy, vertex_error

PROMOTE_FRACTION = 0.15  # dicts holding this share of n_slots entries between them ...
PROMOTE_MIN = 48  # ... and at least this many transfer into a row


def densify(entries: Sequence[tuple[int, float]], n_slots: int) -> list[float]:
    """Expand a sparse vector to a dense amount list (UNKNOWN excluded)."""
    out = [0.0] * n_slots
    for o, amt in entries:
        if o != UNKNOWN:
            out[o] += amt
    return out


class ProportionalSparseEngine(EngineBase):
    """Proportional policy over origin→amount dicts, promoted to rows when near-dense."""

    def __init__(
        self, n_vertices: int, scope=None, epsilon: float = 1e-9, budget=None, window=None,
        dense: bool = False,
    ) -> None:
        if (scope is not None) + (budget is not None) + (window is not None) > 1:
            raise ConfigError("selective/grouped, window and budget are mutually exclusive")
        if window is not None and window < 1:
            raise ConfigError("window must be a positive interaction count")
        super().__init__(n_vertices, epsilon)
        self.policy = Policy.PROP_DENSE if dense else Policy.PROP_SPARSE
        self.scope = scope
        self.budget = budget
        self.window = window
        self.n_slots = scope.n_slots if scope is not None else n_vertices
        self._slot_of = scope.slot_of if scope is not None else list(range(n_vertices))
        self._fold_dust = scope is not None or budget is not None or window is not None
        limit = max(PROMOTE_MIN, PROMOTE_FRACTION * self.n_slots)
        self._promote_at = -1 if dense else math.inf if budget is not None else limit
        self.promoted_rows = 0
        # a window resets bank 0 (odd) at odd multiples of W, bank 1 (even) at even ones
        self.banks = [[{} for _ in range(n_vertices)] for _ in range(1 if window is None else 2)]
        self.reset_at = [0] * len(self.banks)  # interaction count at each bank's last reset
        self.dropped = [0.0] * n_vertices
        self.shrinks = [0] * n_vertices

    def process(self, r: Interaction) -> None:
        s, d, _, rq = r
        if s < 0 or d < 0:
            raise vertex_error(self.n_vertices)
        for vectors in self.banks:
            vs, vd = vectors[s], vectors[d]
            before = len(vs) + len(vd) if d != s else len(vd)
            if type(vd) is dict and (type(vs) is _Row or before >= self._promote_at):
                vectors[d] = _Row(vd, self.n_slots + 1)
                self.promoted_rows += 1
            if type(vectors[s]) is dict:
                self._transfer(vectors, r)
            else:
                self._transfer_rows(vectors, r)
            if self.budget is not None and len(vectors[d]) > self.budget.capacity:
                vectors[d] = dict(self.budget.shrink(vectors[d].items()))
                self.shrinks[d] += 1
            after = len(vectors[s]) + len(vectors[d]) if d != s else len(vectors[d])
            self.entries += after - before
        if self.entries > self.peak_entries:
            self.peak_entries = self.entries
        self._settle(s, d, rq)
        window = self.window
        if window is not None and self.interactions_processed % window == 0:
            # every vertex keeps its whole total, as UNKNOWN mass, in the reset
            # bank; UNKNOWN is exempt from dust, so sub-epsilon totals stay too
            b = self._oldest_bank()
            bank = self.banks[b]
            freed = sum(len(vec) for vec in bank)
            kept = 0
            for v, total in enumerate(self.totals):
                bank[v] = {UNKNOWN: total} if total > 0.0 else {}
                kept += len(bank[v])
            self.entries += kept - freed
            if self.entries > self.peak_entries:
                self.peak_entries = self.entries
            self.reset_at[b] = self.interactions_processed

    def _transfer(self, vectors: list, r: Interaction) -> None:
        """Apply one interaction from a dict source; the destination is a dict or a row."""
        s, d, _, rq = r
        epsilon = self.epsilon
        source_total = self.totals[s]
        vs = vectors[s]
        if rq >= source_total:
            vectors[s] = {}
            self._newborn(vs, s, d, rq - source_total)
            vd = vectors[d]
            for o, q in vs.items():
                vd[o] = vd.get(o, 0.0) + q
        else:
            alpha = rq / source_total
            keep = 1.0 - alpha
            residual: dict[int, float] = {}
            dust = []
            for o, q in vs.items():
                q *= keep
                if q > epsilon or o == UNKNOWN:
                    residual[o] = q
                else:
                    dust.append(q)
            self._dust(residual, dust, s)
            vectors[s] = residual
            vd = vectors[d]  # the residual itself on a self-interaction
            dust = []
            for o, q in vs.items():
                q = vd.get(o, 0.0) + q * alpha
                if q > epsilon or o == UNKNOWN:
                    vd[o] = q
                else:
                    dust.append(q)
            self._dust(vd, dust, d)

    def _transfer_rows(self, vectors: list, r: Interaction) -> None:
        """``_transfer`` for a row source, with the same float operations, row-wide;
        ``process()`` has made the destination a row too."""
        s, d, _, rq = r
        source_total = self.totals[s]
        src, dst = vectors[s], vectors[d]
        if rq >= source_total:
            self._newborn(src, s, d, rq - source_total)
            if d != s:
                dst.amounts += src.amounts
                vectors[s] = {}
        else:
            alpha = rq / source_total
            moved = src.amounts * alpha
            src.amounts *= 1.0 - alpha
            self._dust(src, src.scrub(self.epsilon), s)
            dst.amounts += moved  # the residual itself on a self-interaction
        self._dust(dst, dst.scrub(self.epsilon), d)

    def _newborn(self, vec, s: int, d: int, newborn: float) -> None:
        """Credit the source's shortfall to its own slot before a drain moves ``vec`` to ``d``."""
        if newborn > 0.0:
            slot = self._slot_of[s]
            q = vec.get(slot, 0.0) + newborn
            if q > self.epsilon:
                vec[slot] = q
            else:
                self._dust(vec, [q], d)

    def _dust(self, vec, dust: list[float], v: int) -> None:
        """Fold dust amounts into the vector's UNKNOWN entry, or book them as dropped at ``v``."""
        if not dust:
            return
        mass = math.fsum(dust)
        if not self._fold_dust:
            self.dropped[v] += mass
        elif mass > 0.0:
            vec[UNKNOWN] = vec.get(UNKNOWN, 0.0) + mass

    def _oldest_bank(self) -> int:
        """The least recently reset bank: snapshots read it, and it is reset next."""
        reset_at = self.reset_at
        return reset_at.index(min(reset_at))

    def snapshot(self, v: int) -> list[tuple[int, float]]:
        """The vertex's entries (origin, amount) in the bank snapshots read, sorted by origin."""
        if not 0 <= v < self.n_vertices:
            return []
        return sorted(self.banks[self._oldest_bank()][v].items())

    def total_dropped(self) -> float:
        return sum(self.dropped)


class _Row:
    """A promoted vector, read and written like a dict: ``amounts`` holds one column per
    origin slot and UNKNOWN in the last, and ``entries`` counts its non-zero amounts."""

    __slots__ = ("amounts", "entries")

    def __init__(self, vec: dict, width: int) -> None:
        import numpy as np

        self.amounts = np.zeros(width)
        self.amounts[list(vec)] = list(vec.values())
        self.entries = len(vec)

    def __len__(self) -> int:
        return self.entries

    def get(self, o: int, default: float = 0.0) -> float:
        return float(self.amounts[o]) or default

    def __setitem__(self, o: int, q: float) -> None:
        self.entries += (q != 0.0) - (self.get(o) != 0.0)
        self.amounts[o] = q

    def items(self):
        """(origin, amount) for every non-zero amount, by column: UNKNOWN comes last."""
        (idx,) = self.amounts.nonzero()
        origins = idx.tolist()
        if origins and origins[-1] == len(self.amounts) - 1:
            origins[-1] = UNKNOWN
        return zip(origins, self.amounts[idx].tolist())

    def scrub(self, epsilon: float) -> list[float]:
        """Recount ``entries``; zero the real amounts in (0, epsilon] and return them."""
        import numpy as np

        real = self.amounts[:-1]
        self.entries = int(np.count_nonzero(self.amounts))
        kept = int(np.count_nonzero(real > epsilon)) + bool(self.amounts[UNKNOWN])
        if kept == self.entries:
            return []
        dust = (real > 0.0) & (real <= epsilon)
        amounts = real[dust].tolist()
        real[dust] = 0.0
        self.entries = kept
        return amounts
