"""Closed-form bounds and exact values for k-page crossing numbers of K_{m,n}.

Everything here is exact integer or rational arithmetic.  The only irrational
quantity in any formula is k^(7/4), and ``_ceil_scaled_k74`` alone rounds it:
ceil(c k^(7/4)) is the integer fourth root of c^4 k^7, rounded up.

* ``asymptotic_bounds`` rounds its denominator k^2 + 2000 k^(7/4) up, so the
  reported lower bound is never overstated;
* ``nonembeddable_width`` is the least w with 4w >= k^2 + 2000 k^(7/4); as 4w
  is an integer, that is the least w with 4w >= k^2 + ceil(2000 k^(7/4)), an
  exact ceiling, never understated.

``consistency_scan`` evaluates every applicable bound over a parameter grid
and *reports* lower>upper violations instead of asserting: the even-k
multiplanar lower bound is implemented verbatim as printed and genuinely
exceeds the exact value at some small n (e.g. k=4, n=12), which the scan is
expected to surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt

from .drawings import _check_ints

Number = int | Fraction

_EXACT_K = range(2, 7)  # the k for which exact_crossing_number is established


def _ints(low: int = 1, **values: object) -> list[int]:
    """``_check_ints``, then the values as Python ints: a numpy integer
    would wrap around silently in the products below."""
    _check_ints(low, **values)
    return [int(v) for v in values.values()]


@dataclass(frozen=True)
class BoundQuery:
    """Parameter bundle for bound evaluation; derived values are recomputed,
    never caller-supplied.

    The integer rule of the bound functions holds: k is a positive integer,
    m and n non-negative ones, all stored as Python ints.
    """

    k: int
    m: int
    n: int

    def __post_init__(self):
        [k] = _ints(k=self.k)
        m, n = _ints(0, m=self.m, n=self.n)
        for name, value in (("k", k), ("m", m), ("n", n)):
            object.__setattr__(self, name, value)  # the dataclass is frozen

    @property
    def ell(self) -> int:
        return (self.k + 1) ** 2 // 4

    @property
    def q(self) -> int:
        return self.n % self.ell

    @property
    def r_mod_k(self) -> int:
        return self.m % self.k

    @property
    def s_mod_k(self) -> int:
        return self.n % self.k


@dataclass(frozen=True)
class BoundValue:
    """A formula evaluation plus whether the formula's validity range covers
    the arguments.

    Invalid values are still reported (for tables), but consistency verdicts
    ignore them.
    """

    value: Number
    valid: bool
    source: str


def zarankiewicz(m: int, n: int) -> int:
    """Z(m,n) = floor(m/2) floor((m-1)/2) floor(n/2) floor((n-1)/2)."""
    m, n = _ints(0, m=m, n=n)
    return (m // 2) * ((m - 1) // 2) * (n // 2) * ((n - 1) // 2)


def riskin_value(m: int, n: int) -> BoundValue:
    """Exact 1-page crossing number of K_{m,n} for every m >= 1, n >= 0:
    (2m^2n^2 - 3mn(m+n) + m^2 + n^2 + 3mn - g^2)/12 with g = gcd(m, n), which
    is Riskin's n(m-1)(2mn-3m-n)/12 plus (m^2 - g^2)/12.  Proved and
    computer-checked here (tests: the least count over all layouts, m + n <= 16):

    * Of two blacks and two whites, one of the two ways to join them crosses
      unless the colours alternate around the circle.  A black pair with A
      whites on one arc alternates with f(A) = A(n-A) white pairs, so a layout
      has C(m,2)C(n,2) - sum f(A) crossings, summed over black pairs.
    * With g_i whites after black i, the pair (i, i+d) has the window sum
      W_{i,d} = g_i + ... + g_{i+d-1} (indices mod m) on one arc, and
      d = 1..m-1 meets each pair twice.  For each d the windows total dn and f
      is concave, so the balanced gaps g_i = floor((i+1)n/m) - floor(in/m),
      whose windows are all floor(dn/m) or its ceiling, maximize every d's
      f-sum at once.
    * With e = dn mod m, those windows' f-sum is dn^2 - (d^2n^2 - e^2)/m - e.
      For d = 0..m-1, e runs over the multiples of g below m, each g times,
      so sum e = m(m-g)/2 and sum e^2 = m(m-g)(2m-g)/6; summing over d and
      halving gives the polynomial.
    """
    [m] = _ints(m=m)
    [n] = _ints(0, n=n)
    g = gcd(m, n)
    value = (2 * m * m * n * n - 3 * m * n * (m + n) + m * m + n * n + 3 * m * n - g * g) // 12
    return BoundValue(value, True, "riskin_value")


def turan_lower(k: int, n: int, s: int) -> int:
    """Clique-partition lower bound q*C((n-q)/s+1, 2) + (s-q)*C((n-q)/s, 2).

    Sound whenever K_{k+1,s+1} has no k-page embedding; the caller asserts
    that hypothesis (s = floor((k+1)^2/4) for k in 2..6, or the general
    non-embeddable width).  Zero for n <= s.
    """
    [s] = _ints(s=s)
    [n] = _ints(0, n=n)
    q = n % s
    c = (n - q) // s
    return q * comb(c + 1, 2) + (s - q) * comb(c, 2)


def exact_crossing_number(k: int, n: int) -> int:
    """Exact k-page crossing number of K_{k+1,n} for k in 2..6.

    Equals the clique-partition bound at s = floor((k+1)^2/4), which the
    blow-up construction attains.  At k=2 this is Z(3,n).
    """
    [k] = _ints(k=k)
    if k not in _EXACT_K:
        raise ValueError(f"exact values are only established for k in {_EXACT_K[0]}..{_EXACT_K[-1]}")
    return turan_lower(k, n, (k + 1) ** 2 // 4)


def _ceil_scaled_k74(scale: int, k: int) -> int:
    """ceil(scale * k^(7/4)) exactly: scale*k^(7/4) = (scale^4 * k^7)^(1/4)."""
    radicand = scale**4 * k**7
    root = isqrt(isqrt(radicand))
    return root if root**4 == radicand else root + 1


def asymptotic_bounds(k: int, n: int) -> tuple[Fraction, Fraction]:
    """Sandwich 2n^2/(k^2 + 2000 k^(7/4)) - n < value <= 2n^2/k^2 + n/2.

    The lower bound's irrational denominator term 2000 k^(7/4) is rounded up
    to the next integer, weakening (never overstating) the reported bound;
    the upper bound is exact.
    """
    k, n = _ints(k=k, n=n)
    denom = k * k + _ceil_scaled_k74(2000, k)
    lower = Fraction(2 * n * n, denom) - n
    upper = Fraction(2 * n * n, k * k) + Fraction(n, 2)
    return lower, upper


def multiplanar_lower_even(k: int, n: int) -> int:
    """Even-k lower bound floor(n/(k(k-1))) * (n - (k/2)(k-1)(floor(..) - 1)).

    Implemented verbatim as printed.  It provably exceeds the exact value at
    some small n (for example k=4, n=12 gives 12 against the exact 6); the
    discrepancy is surfaced by consistency_scan rather than silently patched.
    """
    [k] = _ints(k=k)
    [n] = _ints(0, n=n)
    if k % 2:
        raise ValueError("this bound requires even k")
    blocks = n // (k * (k - 1))
    return blocks * (n - (k // 2) * (k - 1) * (blocks - 1))


def general_lower(k: int, m: int, n: int) -> BoundValue:
    """General lower bound C(m,2) C(n,2) / (3 (3 ceil(k/2) - 1)^2).

    Valid for m >= 6 ceil(k/2) - 1 and n >= max(6 ceil(k/2) - 1, 2 ceil(k/2)^2).
    """
    [k] = _ints(k=k)
    m, n = _ints(0, m=m, n=n)
    r = (k + 1) // 2
    value = Fraction(comb(m, 2) * comb(n, 2), 3 * (3 * r - 1) ** 2)
    valid = m >= 6 * r - 1 and n >= max(6 * r - 1, 2 * r * r)
    return BoundValue(value, valid, "general_lower")


def block_cyclic_bound(k: int, m: int, n: int) -> int:
    """Upper bound (m-r)(n-s)(m-k+r)(n-k+s)/(4k^2) from the block-cyclic drawing."""
    [k] = _ints(k=k)
    m, n = _ints(0, m=m, n=n)
    r = m % k
    s = n % k
    value, rem = divmod((m - r) * (n - s) * (m - k + r) * (n - k + s), 4 * k * k)
    if rem:
        raise ArithmeticError(f"block-cyclic bound for ({k},{m},{n}) not integral")
    return value


def nonembeddable_width(k: int) -> int:
    """ceil(k^2/4 + 500 k^(7/4)), the least w with 4w >= k^2 + 2000 k^(7/4):
    K_{k+1,n} has no k-page embedding for n at or beyond it.  4w is an integer,
    so rounding 2000 k^(7/4) up first (``_ceil_scaled_k74``) keeps w exact."""
    [k] = _ints(k=k)
    return -(-(k * k + _ceil_scaled_k74(2000, k)) // 4)


# ---------------------------------------------------------------------------
# Consistency scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    k: int
    m: int
    n: int
    source: str
    kind: str  # "lower" | "upper" | "exact"
    value: Number
    valid: bool

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "n": self.n,
            "formula": self.source,
            "kind": self.kind,
            "value": _jsonable(self.value),
            "valid": self.valid,
        }


@dataclass(frozen=True)
class ScanViolation:
    k: int
    n: int
    lower_source: str
    lower_value: Number
    upper_source: str
    upper_value: Number

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "lower": {"formula": self.lower_source, "value": _jsonable(self.lower_value)},
            "upper": {"formula": self.upper_source, "value": _jsonable(self.upper_value)},
        }


def _jsonable(v: Number):
    return v if isinstance(v, int) else str(v)


@dataclass(frozen=True)
class ScanReport:
    rows: tuple[ScanRow, ...]
    violations: tuple[ScanViolation, ...]


def family_rows(k: int, n: int) -> list[ScanRow]:
    """Every applicable bound row for the family K_{k+1,n}."""
    k, n = _ints(k=k, n=n)
    rows: list[ScanRow] = []
    m = k + 1
    ell = (k + 1) ** 2 // 4
    if k in _EXACT_K:
        rows.append(ScanRow(k, m, n, "exact_crossing_number", "exact", exact_crossing_number(k, n), True))
        rows.append(ScanRow(k, m, n, "turan_lower", "lower", turan_lower(k, n, ell), True))
    width = nonembeddable_width(k)
    rows.append(ScanRow(k, m, n, "turan_lower_general_width", "lower", turan_lower(k, n, width - 1), True))
    if k % 2 == 0:
        rows.append(ScanRow(k, m, n, "multiplanar_lower_even", "lower", multiplanar_lower_even(k, n), True))
    glb = general_lower(k, m, n)
    rows.append(ScanRow(k, m, n, glb.source, "lower", glb.value, glb.valid))
    lo, hi = asymptotic_bounds(k, n)
    rows.append(ScanRow(k, m, n, "asymptotic_lower", "lower", lo, True))
    rows.append(ScanRow(k, m, n, "asymptotic_upper", "upper", hi, True))
    if k in _EXACT_K and n >= ell:
        # the blow-up of the balanced embedding attains the width-ell bound
        rows.append(ScanRow(k, m, n, "blowup_drawing", "upper", turan_lower(k, n, ell), True))
    rows.append(ScanRow(k, m, n, "block_cyclic_bound", "upper", block_cyclic_bound(k, m, n), True))
    return rows


def general_rows(k: int, m: int, n: int) -> list[ScanRow]:
    """The bound rows for a general K_{m,n}; each row's ``valid`` says whether
    its formula applies at this k."""
    k, m, n = _ints(k=k, m=m, n=n)
    glb = general_lower(k, m, n)
    return [
        ScanRow(k, m, n, glb.source, "lower", glb.value, glb.valid),
        ScanRow(k, m, n, "block_cyclic_bound", "upper", block_cyclic_bound(k, m, n), True),
        ScanRow(k, m, n, "riskin_value_k1", "exact", riskin_value(m, n).value, k == 1),
        ScanRow(k, m, n, "zarankiewicz_k2", "upper", zarankiewicz(m, n), k == 2),
    ]


def consistency_scan(k_range, n_range) -> ScanReport:
    """Evaluate all bounds over the grid and report lower>upper violations.

    Violations are reported, never raised: one printed formula is known to be
    inconsistent at small n, and the report is the designed surface for it.
    Exact values participate on both sides; invalid rows are listed but never
    enter verdicts.
    """
    rows: list[ScanRow] = []
    violations: list[ScanViolation] = []
    for k in k_range:
        for n in n_range:
            here = family_rows(k, n)
            rows.extend(here)
            lowers = [r for r in here if r.kind in ("lower", "exact") and r.valid]
            uppers = [r for r in here if r.kind in ("upper", "exact") and r.valid]
            for lo_row in lowers:
                for hi_row in uppers:
                    if lo_row.source == hi_row.source:
                        continue
                    if lo_row.value > hi_row.value:
                        violations.append(
                            ScanViolation(k, n, lo_row.source, lo_row.value, hi_row.source, hi_row.value)
                        )
    return ScanReport(tuple(rows), tuple(violations))
