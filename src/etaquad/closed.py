"""Closed-form evaluators: each family sums x^2 - D*y^2 over the representations
of one odd integer by x^2 + D*y^2, found by direct enumeration, so a value here
is independent of the coefficient tables it is compared with.
"""

from __future__ import annotations

from operator import index

from .errors import InternalInconsistencyError
from .quadform import QuadForm, representations

CLOSED_FAMILIES = ("L13", "L17", "L35", "L115", "KF", "LEMMA51")


def closed_form(family: str, n: int, a: int | None = None, b: int | None = None) -> int:
    """Evaluate one closed-form coefficient formula by direct enumeration.

    L13:  half-sum of x^2 - 3y^2 over x^2 + 3y^2 = 2n+1   (= coeff (1,3) at n+1)
    L17:  half-sum of x^2 - 7y^2 over x^2 + 7y^2 = 2n+1   (= coeff (1,7) at 2n+1)
    L35:  half-sum of x^2 - 15y^2 over x^2 + 15y^2 = 2n+1 (= coeff (3,5) at 2n+1)
    L115: the same sum                                    (= coeff (1,15) at 4n+1)
    KF:   sum of x^2 - y^2 over x^2 + y^2 = 4n+1, x = 1 (mod 4)  (= coeff (1,1) at n+1)
    LEMMA51(a, b), ab = 3 (mod 4): both sides of the half-sum identity
          sum_{x + a*y = 1 (4)} (x + a*y)(x - b*y) = (1/2) sum (x^2 - ab*y^2)
          over x^2 + ab*y^2 = 2n+1; asserts they agree and returns the value.
    """
    if family not in CLOSED_FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {CLOSED_FAMILIES}")
    if family != "LEMMA51" and (a is not None or b is not None):
        raise ValueError(f"family {family} takes no parameters a, b")
    n = index(n)  # Python ints, so 2n + 1, 4n + 1 and a*b cannot wrap
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if family in ("L13", "L17", "L35", "L115"):
        d = {"L13": 3, "L17": 7, "L35": 15, "L115": 15}[family]
        return _half_sum(d, 2 * n + 1)
    if family == "KF":
        # x = 1 (mod 4) keeps one of each pair (x, y), (-x, y) with odd x
        return _half_sum(1, 4 * n + 1, odd_x=True)
    if a is None or b is None:
        raise ValueError("LEMMA51 needs parameters a and b")
    a, b = index(a), index(b)
    if a < 1 or b < 1 or (a * b) % 4 != 3:
        raise ValueError("LEMMA51 needs a*b = 3 (mod 4)")
    m = 2 * n + 1
    # one enumeration feeds both sides
    pairs = representations(QuadForm(1, 0, a * b), m).pairs
    lhs = sum((x + a * y) * (x - b * y) for x, y in pairs if (x + a * y) % 4 == 1)
    rhs = _half_sum(a * b, m, pairs=pairs)
    if lhs != rhs:
        raise InternalInconsistencyError(
            f"half-sum identity fails at m={m}, (a,b)=({a},{b}): {lhs} != {rhs}"
        )
    return lhs


def _half_sum(d: int, m: int, odd_x: bool = False, pairs=None) -> int:
    """Half the sum of x^2 - d*y^2 over x^2 + d*y^2 = m (over odd x only with
    odd_x); `pairs` passes that representation set when it is already known."""
    if pairs is None:
        pairs = representations(QuadForm(1, 0, d), m).pairs
    total = sum(x * x - d * y * y for x, y in pairs if x % 2 or not odd_x)
    if total % 2:
        raise InternalInconsistencyError(f"odd full sum {total} for D={d}, m={m}")
    return total // 2
