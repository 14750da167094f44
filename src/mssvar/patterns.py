"""Exclusion-restriction patterns for structural matrix rows.

A pattern is a string over ``{*, 0}``: ``*`` marks a free entry, ``0`` an
exclusion restriction.  Each pattern maps to a selection matrix ``V``
(``r x N``, one unit entry per row, at most one per column) so that a free
coefficient vector ``b`` of length ``r`` expands to a full row ``b @ V``;
``Pattern.free_idx`` holds the columns of those unit entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Pattern:
    mask: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not any(self.mask):
            raise ValueError(f"pattern {self.spec!r} restricts every entry")

    @property
    def N(self) -> int:
        return len(self.mask)

    # computed once per pattern: the sweep reads both for every row draw
    @cached_property
    def r(self) -> int:
        return int(sum(self.mask))

    @cached_property
    def free_idx(self) -> np.ndarray:
        idx = np.flatnonzero(np.asarray(self.mask))
        idx.flags.writeable = False
        return idx

    @property
    def spec(self) -> str:
        return "".join("*" if m else "0" for m in self.mask)


def parse_pattern(text: str) -> Pattern:
    text = text.strip()
    if not text or any(ch not in "*0" for ch in text):
        raise ValueError(f"pattern {text!r} must be a non-empty string over {{*, 0}}")
    return Pattern(mask=tuple(ch == "*" for ch in text))


def lower_triangular_pattern(n: int, N: int) -> Pattern:
    """Row ``n`` (0-based) of a lower-triangular structure."""
    return parse_pattern("*" * (n + 1) + "0" * (N - n - 1))


@dataclass(frozen=True)
class PatternSet:
    """Per-equation lists of admissible patterns.

    Equations with more than one pattern carry a data-driven restriction
    indicator; single-pattern equations are fixed.
    """

    equations: tuple[tuple[Pattern, ...], ...]

    def __post_init__(self) -> None:
        N = len(self.equations)
        for n, pats in enumerate(self.equations):
            if not pats:
                raise ValueError(f"equation {n + 1} declares no pattern")
            for pat in pats:
                if pat.N != N:
                    raise ValueError(
                        f"equation {n + 1}: pattern {pat.spec} has length {pat.N}, expected {N}"
                    )
            specs = [pat.spec for pat in pats]
            if len(set(specs)) != len(specs):
                raise ValueError(f"equation {n + 1}: duplicate patterns")

    @property
    def N(self) -> int:
        return len(self.equations)

    def K(self, n: int) -> int:
        return len(self.equations[n])

    @property
    def tvi_equations(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.N) if self.K(n) > 1)

    @cached_property
    def cofactor_gathers(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """``cofactor_gather(N, n)`` for every equation n, built once."""
        return tuple(cofactor_gather(self.N, n) for n in range(self.N))


def cofactor_gather(N: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices that gather the N minors of row ``n`` of an
    N x N matrix ``B`` as ``B[rows, cols]``, shape (N, N - 1, N - 1), and the
    cofactor signs ``(-1)^(n + i)``; minor i drops row n and column i."""
    keep = np.arange(N)
    rows = np.delete(keep, n)[None, :, None]
    cols = np.array([np.delete(keep, i) for i in range(N)]).reshape(N, 1, N - 1)
    signs = (-1.0) ** (n + keep)
    for a in (rows, cols, signs):
        a.flags.writeable = False
    return rows, cols, signs


def build_pattern_set(
    declarations: dict[int, list[str]] | None,
    N: int,
) -> PatternSet:
    """Build a PatternSet from per-equation declarations (0-based keys).

    Undeclared equations default to the corresponding lower-triangular row.
    """
    declarations = declarations or {}
    for n in declarations:
        if not 0 <= n < N:
            raise ValueError(f"equation index {n} out of range for N={N}")
    equations = []
    for n in range(N):
        if n in declarations:
            equations.append(tuple(parse_pattern(s) for s in declarations[n]))
        else:
            equations.append((lower_triangular_pattern(n, N),))
    return PatternSet(equations=tuple(equations))


def apply_pattern(b: np.ndarray, pattern: Pattern) -> np.ndarray:
    """Expand free coefficients into a full structural row."""
    b = np.asarray(b, dtype=float)
    if b.shape != (pattern.r,):
        raise ValueError(f"expected {pattern.r} free coefficients, got shape {b.shape}")
    row = np.zeros(pattern.N)
    row[pattern.free_idx] = b
    return row
