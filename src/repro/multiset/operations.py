"""Multiset machinery from the Appendix of Welch & Lynch (1988).

The fault-tolerant averaging function at the heart of the clock
synchronization algorithm is defined on *multisets* of real numbers:

* ``reduce(U)`` removes the ``f`` largest and ``f`` smallest elements,
* ``mid(U)`` returns the midpoint of the range of ``U``,
* ``diam(U)`` is the diameter ``max(U) - min(U)``,
* ``x_distance(U, V, x)`` is the minimum, over injections ``c`` from ``U``
  into ``V``, of the number of elements of ``U`` that are *not* matched to an
  element of ``V`` within ``x`` (Appendix, definition of ``d_x``).

The lemmas of the Appendix (21-24) are also provided as checkable
predicates/bounds so that property-based tests and the analysis code can
verify them numerically on concrete multisets.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "Multiset",
    "mid",
    "reduce_multiset",
    "drop_smallest",
    "drop_largest",
    "diam",
    "x_distance",
    "fault_tolerant_midpoint",
    "fault_tolerant_mean",
    "lemma21_bounds_hold",
    "lemma23_bound_holds",
    "lemma24_bound",
    "lemma24_holds",
]


class Multiset:
    """A finite collection of real numbers in which repeats are allowed.

    The class is a thin, immutable wrapper over a sorted tuple.  It exists so
    that the operations of the Appendix read like the paper (``U.reduce(f)``,
    ``U.mid()``, ``U.diam()``) while still being cheap to construct from any
    iterable of numbers.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float]):
        self._values = tuple(_sorted_values(values))

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __contains__(self, item: float) -> bool:
        return float(item) in self._values

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Multiset):
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"Multiset({list(self._values)!r})"

    @property
    def values(self) -> Tuple[float, ...]:
        """The elements in non-decreasing order."""
        return self._values

    # -- Appendix operations ----------------------------------------------
    def min(self) -> float:
        """Smallest value, ``min(U)`` in the paper."""
        self._require_nonempty("min")
        return self._values[0]

    def max(self) -> float:
        """Largest value, ``max(U)`` in the paper."""
        self._require_nonempty("max")
        return self._values[-1]

    def diam(self) -> float:
        """Diameter ``max(U) - min(U)``."""
        self._require_nonempty("diam")
        return self._values[-1] - self._values[0]

    def mid(self) -> float:
        """Midpoint of the range: ``(max(U) + min(U)) / 2``."""
        self._require_nonempty("mid")
        return (self._values[0] + self._values[-1]) / 2.0

    def mean(self) -> float:
        """Arithmetic mean (used by the mean-variant of the algorithm)."""
        self._require_nonempty("mean")
        return sum(self._values) / len(self._values)

    def drop_smallest(self, count: int = 1) -> "Multiset":
        """Return ``s^count(U)``: remove ``count`` occurrences of the minimum."""
        self._check_drop(count)
        return Multiset(self._values[count:])

    def drop_largest(self, count: int = 1) -> "Multiset":
        """Return ``l^count(U)``: remove ``count`` occurrences of the maximum."""
        self._check_drop(count)
        if count == 0:
            return Multiset(self._values)
        return Multiset(self._values[:-count])

    def reduce(self, f: int) -> "Multiset":
        """``reduce(U) = l^f(s^f(U))``: drop the ``f`` largest and ``f`` smallest.

        Requires ``len(U) >= 2f + 1`` as in the paper so that the reduced
        multiset is non-empty.
        """
        _check_reduce(len(self._values), f)
        if f == 0:
            return Multiset(self._values)
        return Multiset(self._values[f:-f])

    def shift(self, r: float) -> "Multiset":
        """Return ``U + r``, the multiset with ``r`` added to every element."""
        return Multiset(v + r for v in self._values)

    # -- helpers ------------------------------------------------------------
    def _require_nonempty(self, op: str) -> None:
        if not self._values:
            raise ValueError(f"{op}() of an empty multiset is undefined")

    def _check_drop(self, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count > len(self._values):
            raise ValueError(
                f"cannot drop {count} elements from a multiset of size {len(self._values)}"
            )


def _sorted_values(values: Iterable[float]) -> List[float]:
    """The values as floats in non-decreasing order; NaN is refused."""
    ordered = sorted(map(float, values))
    if any(map(math.isnan, ordered)):
        raise ValueError("multisets of clock values may not contain NaN")
    return ordered


def _check_reduce(size: int, f: int) -> None:
    """``reduce`` needs ``f >= 0`` and ``|U| >= 2f + 1``."""
    if f < 0:
        raise ValueError(f"f must be non-negative, got {f}")
    if size < 2 * f + 1:
        raise ValueError(
            f"reduce requires |U| >= 2f+1; got |U|={size}, f={f}"
        )


# ---------------------------------------------------------------------------
# Module-level functional forms (used by the algorithm code, which follows the
# paper's pseudo-code subroutine names).
# ---------------------------------------------------------------------------

def mid(values: Iterable[float]) -> float:
    """Midpoint of the range spanned by ``values`` (paper subroutine ``mid``)."""
    return Multiset(values).mid()


def reduce_multiset(values: Iterable[float], f: int) -> Multiset:
    """Remove the ``f`` largest and ``f`` smallest elements (paper ``reduce``)."""
    return Multiset(values).reduce(f)


def drop_smallest(values: Iterable[float], count: int = 1) -> Multiset:
    """Functional form of :meth:`Multiset.drop_smallest`."""
    return Multiset(values).drop_smallest(count)


def drop_largest(values: Iterable[float], count: int = 1) -> Multiset:
    """Functional form of :meth:`Multiset.drop_largest`."""
    return Multiset(values).drop_largest(count)


def diam(values: Iterable[float]) -> float:
    """Diameter of ``values``."""
    return Multiset(values).diam()


def fault_tolerant_midpoint(values: Iterable[float], f: int) -> float:
    """The paper's averaging function: ``mid(reduce(values, f))``.

    Every update calls it, so it sorts and NaN-scans the values once and
    reads the two ends of the reduced range in place; the result and the
    errors are those of ``Multiset(values).reduce(f).mid()``.
    """
    ordered = _sorted_values(values)
    size = len(ordered)
    _check_reduce(size, f)
    return (ordered[f] + ordered[size - 1 - f]) / 2.0


def fault_tolerant_mean(values: Iterable[float], f: int) -> float:
    """The mean variant discussed in Section 7: ``mean(reduce(values, f))``."""
    return reduce_multiset(values, f).mean()


# ---------------------------------------------------------------------------
# x-distance (Appendix) and the multiset lemmas as checkable predicates.
# ---------------------------------------------------------------------------

def x_distance(u: Iterable[float], v: Iterable[float], x: float) -> int:
    """The x-distance ``d_x(U, V)`` between two multisets.

    ``d_x(U, V)`` is the minimum, over injections ``c : U -> V``, of the number
    of elements ``u`` of ``U`` with ``|u - c(u)| > x``.  It requires
    ``|U| <= |V|``.

    The optimal injection for multisets of reals pairs values in sorted order
    greedily; we compute the exact optimum with a small assignment search when
    the inputs are tiny and fall back to the sorted-order greedy matching
    (which is optimal for this interval-matching problem) otherwise.
    """
    U = Multiset(u)
    V = Multiset(v)
    if len(U) > len(V):
        raise ValueError(
            f"x_distance requires |U| <= |V|; got |U|={len(U)}, |V|={len(V)}"
        )
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if len(U) <= 7 and len(V) <= 7:
        return _x_distance_exact(U.values, V.values, x)
    return _x_distance_matching(U.values, V.values, x)


def _x_distance_exact(u: Sequence[float], v: Sequence[float], x: float) -> int:
    """Brute-force over injections; only used for very small inputs."""
    best = len(u)
    indices = range(len(v))
    for assignment in itertools.permutations(indices, len(u)):
        unmatched = sum(1 for ui, vi in zip(u, assignment) if abs(ui - v[vi]) > x)
        best = min(best, unmatched)
        if best == 0:
            return 0
    return best


def _x_distance_matching(u: Sequence[float], v: Sequence[float], x: float) -> int:
    """Maximum bipartite matching on the 'within x' compatibility graph.

    Because both multisets are sorted and compatibility is an interval
    condition (``|u_i - v_j| <= x``), a greedy sweep that pairs each ``u_i``
    with the smallest still-unused compatible ``v_j`` yields a maximum
    matching.
    """
    matched = 0
    j = 0
    used = [False] * len(v)
    for ui in u:
        # advance j past values that are too small to ever match again
        while j < len(v) and v[j] < ui - x:
            j += 1
        k = j
        while k < len(v) and v[k] <= ui + x:
            if not used[k]:
                used[k] = True
                matched += 1
                break
            k += 1
    return len(u) - matched


def lemma21_bounds_hold(u: Iterable[float], w: Iterable[float], f: int, x: float) -> bool:
    """Check Lemma 21 on concrete multisets.

    If ``|U| = n``, ``|W| >= n - f``, ``d_x(W, U) = 0`` and ``n >= 3f + 1``, then
    ``max(reduce(U)) <= max(W) + x`` and ``min(reduce(U)) >= min(W) - x``.

    Returns ``True`` when the *conclusion* holds; callers are expected to have
    established the hypotheses (the property tests construct inputs that do).
    """
    U = Multiset(u)
    W = Multiset(w)
    reduced = U.reduce(f)
    return reduced.max() <= W.max() + x + 1e-12 and reduced.min() >= W.min() - x - 1e-12


def lemma23_bound_holds(u: Iterable[float], v: Iterable[float], f: int, x: float) -> bool:
    """Check the conclusion of Lemma 23: ``min(reduce(U)) - max(reduce(V)) <= 2x``."""
    U = Multiset(u)
    V = Multiset(v)
    return U.reduce(f).min() - V.reduce(f).max() <= 2 * x + 1e-12


def lemma24_bound(w: Iterable[float], x: float) -> float:
    """The Lemma 24 bound ``diam(W)/2 + 2x`` for given witness multiset ``W``."""
    return Multiset(w).diam() / 2.0 + 2.0 * x


def lemma24_holds(
    u: Iterable[float], v: Iterable[float], w: Iterable[float], f: int, x: float
) -> bool:
    """Check the conclusion of Lemma 24 on concrete multisets.

    ``|mid(reduce(U)) - mid(reduce(V))| <= diam(W)/2 + 2x`` whenever
    ``d_x(W, U) = d_x(W, V) = 0`` and ``|U| = |V| = n``, ``|W| >= n - f``,
    ``n >= 3f + 1``.
    """
    U = Multiset(u)
    V = Multiset(v)
    lhs = abs(U.reduce(f).mid() - V.reduce(f).mid())
    return lhs <= lemma24_bound(w, x) + 1e-9


def select_nonfaulty_window(values: List[float], f: int) -> Tuple[float, float]:
    """Return (low, high) bounds that any reduced multiset must fall within.

    This is the operational content of Lemma 6: after discarding the ``f``
    highest and ``f`` lowest entries, every remaining value lies between some
    pair of non-faulty values.  Used by the analysis code to sanity-check runs.
    """
    ms = reduce_multiset(values, f)
    return ms.min(), ms.max()
