"""The exact coefficient ring Z[q^{1/4}, q^{-1/4}].

Elements are finite maps from quarter-exponents (integers counting
multiples of 1/4) to arbitrary-precision integer coefficients. A single
quarter grain covers every exponent the construction needs: integer powers
for n odd, half-integer powers for n even, and the q^{3/4}-type scalings
appearing in the even-case residue normalization.
"""

from __future__ import annotations

from math import gcd


class QLaurent:
    """Exact Laurent polynomial in q^(1/4) with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: int) -> "QLaurent":
        return QLaurent({0: c})

    @staticmethod
    def q_power(quarters: int, coeff: int = 1) -> "QLaurent":
        """coeff * q^(quarters/4)."""
        return QLaurent({quarters: coeff})

    @staticmethod
    def from_nonzero(terms: dict[int, int]) -> "QLaurent":
        """Wrap terms that hold no zero coefficient, skipping the filter pass."""
        out = object.__new__(QLaurent)
        out.terms = terms
        return out

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, QLaurent) and self.terms == other.terms

    def __add__(self, other: "QLaurent") -> "QLaurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return QLaurent(out)

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return QLaurent(out)

    def __neg__(self) -> "QLaurent":
        return QLaurent({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "QLaurent") -> "QLaurent":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QLaurent(out)

    def shift(self, quarters: int) -> "QLaurent":
        """Multiply by q^(quarters/4)."""
        return QLaurent.from_nonzero({e + quarters: c for e, c in self.terms.items()})

    # -- queries -----------------------------------------------------------

    def min_quarters(self) -> int:
        if not self.terms:
            raise ValueError("zero element has no minimal exponent")
        return min(self.terms)

    def is_integer_poly(self) -> bool:
        """True iff all exponents are nonnegative whole powers of q."""
        return all(e >= 0 and e % 4 == 0 for e in self.terms)

    def constant_coeff(self) -> int:
        return self.terms.get(0, 0)

    # -- substitutions -----------------------------------------------------

    def subst_q_power(self, num: int) -> "QLaurent":
        """q |-> q^num (num may be negative, e.g. the q |-> q^{-deg p} map)."""
        return QLaurent({e * num: c for e, c in self.terms.items()})

    def eval_int(self, q0: int) -> int:
        """Exact evaluation at an integer q0; requires whole exponents and
        an integer value."""
        low = 0
        for e in self.terms:
            if e % 4:
                raise ValueError(f"fractional exponent {e}/4 at rational point")
            low = min(low, e // 4)
        # the value is num / q0^(-low), both integers
        num = sum(c * q0 ** (e // 4 - low) for e, c in self.terms.items())
        den = q0**-low
        if num % den:
            g = gcd(num, den)
            raise ValueError(f"non-integer value {num // g}/{den // g}")
        return num // den

    # -- presentation ------------------------------------------------------

    def serialize(self) -> str:
        """Canonical "e:c;e:c" form, quarter-exponents ascending."""
        return ";".join(f"{e}:{c}" for e, c in sorted(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            if e == 0:
                bits.append(f"{c}")
            elif e % 4 == 0:
                bits.append(f"{c}*q^{e // 4}")
            else:
                bits.append(f"{c}*q^({e}/4)")
        return " + ".join(bits)


QL_ZERO = QLaurent()
QL_ONE = QLaurent({0: 1})
