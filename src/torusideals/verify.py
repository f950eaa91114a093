"""Aggregated identity sweeps behind the ``verify`` CLI command.

This module is the one place that compares.  The library modules compute
routes to each object; every law checked here (route agreement, the
constant term (-1)^(k//2) of F_k, the product laws at x in {-2, -1, 0, 1,
2}, the special families predicted from the shape of n, the power-of-two
law and degree bound of the defect, the functional equation) is stated in
this module, and each check reports the real expected and actual values
when it fails.

Each suite runs one family of cross-checks over a range of n, counting every
individual comparison and collecting failures instead of raising, so a run
reports all breakage at once.  All sweeps are deterministic.
"""
from __future__ import annotations

from math import gcd

from . import chebfam, divisors, hilbert, series, zeta
from .intpoly import (IntPoly, LaurentPoly, NonDivisibleError, ONE, TWO, X,
                      ZERO, monomial)


class VerifySuiteReport:
    """Pass/fail tally of one suite; process exit code is 0 iff no failures."""

    def __init__(self, suite: str, max_n: int) -> None:
        self.suite = suite
        self.max_n = max_n
        self.passed = 0
        # {"case", "expected", "actual"}, as the JSON report prints them
        self.failures: list[dict[str, str]] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, case: str, ok: bool, expected: object,
              actual: object) -> None:
        """Count a passed check, or record the failure with the expected
        and the actual value."""
        if ok:
            self.passed += 1
        else:
            self.failures.append({"case": case, "expected": str(expected),
                                  "actual": str(actual)})

    def check_all(self, case: str,
                  *parts: tuple[bool, object, object]) -> None:
        """One check of several (ok, expected, actual) parts: passed when
        every part holds, else recorded with the values of the first part
        that fails."""
        for ok, expected, actual in parts:
            if not ok:
                self.check(case, False, expected, actual)
                return
        self.passed += 1

    def equal(self, case: str, expected: object, actual: object) -> None:
        """Check actual == expected; each side is evaluated once, by the
        caller, and both are reported on failure."""
        self.check(case, actual == expected, expected, actual)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "max_n": self.max_n,
            "passed": self.passed,
            "failed": self.failed,
            "failures": self.failures,
        }


DEFAULT_RANGES = {
    "routes": 200,
    "cheb": 64,
    "series": 64,
    "mult": 60,
    "zeta": 500,
    "special": 10000,
}

#: The largest range each suite runs: a measured size at which it took at
#: most about half a minute of CPU and 250 MB (Python 3.11, a shared 2-core
#: host).  ``routes`` took 35.6 s and 140 MB at 1000, ``series`` 17.3 s and
#: 223 MB at 1000 (the series expansion behind both grows faster than N^3
#: in time), ``cheb`` 26.1 s at 700, ``mult`` 21.1 s at 800, ``zeta``
#: 31.4 s at 300000 and ``special`` 18.0 s at 10^6, these four near 16 MB
MAX_RANGES = {
    "routes": 1000,
    "cheb": 700,
    "series": 1000,
    "mult": 800,
    "zeta": 300000,
    "special": 1000000,
}

#: What a route raises on a wrong intermediate: a count that (q-1)^2 does
#: not divide, a quotient that is not palindromic in the basis change, or a
#: packed value that does not fit the slots of its read-back
_ROUTE_ERRORS = (NonDivisibleError, ValueError, OverflowError)


def _quotient(route, n: int) -> object:
    """route(n), or the error of ``_ROUTE_ERRORS`` it raises: a failed
    check that shows the expected value beside the error's message, and
    the other checks still run."""
    try:
        return route(n)
    except _ROUTE_ERRORS as exc:
        return exc


def check_pg_routes(rep: VerifySuiteReport, n: int, series_pg: IntPoly) -> None:
    """Four routes to G_n agree (``series_pg`` is G_n read off the one
    series expansion of the suite), and so does the descending stream that
    text answers print; G_n is monic of degree n - 1, and its d = 1 term
    is +F_{n-1}."""
    p_interval = hilbert.pg_via_interval(n)
    odd, down = hilbert.pg_via_odd_divisors(n), list(p_interval.coeffs[::-1])
    descending = list(hilbert.pg_coeffs(n, True))
    rep.check_all(f"pg interval=odd_divisors n={n}",
                  (odd == p_interval, p_interval, odd),
                  (descending == down, down, descending))
    rep.equal(f"pg interval=roundtrip n={n}", p_interval,
              _quotient(hilbert.pg_roundtrip, n))
    rep.equal(f"pg interval=series n={n}", p_interval, series_pg)
    rep.check(f"pg monic degree n={n}",
              p_interval.is_monic() and p_interval.degree == n - 1,
              f"monic, degree {n - 1}", p_interval)
    first = divisors.odd_divisor_terms(n)[0]
    rep.check(f"decomp d=1 term n={n}",
              first.d == 1 and first.sign == 1 and first.f_index == n - 1,
              "+F_{n-1} from d=1", first)


def _covers(runs: list[tuple[int, int]], size: int) -> tuple:
    """The part of a check that the (value, length) runs cover exactly
    ``size`` coefficients: a carrier strips a zero run at either end, but
    JSON and CSV print every coefficient of the list."""
    return (sum(k for _, k in runs) == size,
            f"runs of {size} coefficients", runs)


def check_counts(rep: VerifySuiteReport, n: int) -> None:
    """Two routes to C_n, the structure of C_n and P_n, the monomial route
    to the centered quotient P_n / q^{n-1}, and the lengths of the run lists
    of C_n and P_n."""
    cn_a = hilbert.cn_via_odd_divisors(n)
    cn_b = hilbert.cn_via_coeff_formula(n)
    rep.equal(f"cn two-route n={n}", cn_a, cn_b)
    rep.check_all(f"cn palindromic monic deg 2n n={n}",
                  (cn_a.is_palindromic() and cn_a.min_exp == 0
                   and cn_a.max_exp == 2 * n and cn_a.coeff(2 * n) == 1,
                   "palindromic monic of degree 2n", cn_a),
                  _covers(hilbert.cn_runs(n), 2 * n + 1))
    pn = _quotient(hilbert.pn_from_cn, n)
    if isinstance(pn, _ROUTE_ERRORS):
        rep.check(f"pn structure n={n}", False, "(q-1)^2 divides C_n", pn)
        return
    rep.check(f"pn structure n={n}",
              pn.is_palindromic() and pn.min_exp == 0
              and pn.max_exp == 2 * n - 2
              and all(c >= 0 for c in pn.coeffs),
              "palindromic degree 2n-2, coefficients >= 0", pn)
    rep.equal(f"pn value at 1 n={n}", sum(divisors.divisors(n)),
              pn.eval_int(1))
    rep.equal(f"cn coefficient-sum law n={n}",
              4 * len(divisors.odd_divisors(n)),
              sum(map(abs, cn_a.coeffs)))
    centered, sequences = pn.shift(-(n - 1)), hilbert.pg_via_sequences(n)
    rep.check_all(f"pg sequence route n={n}",
                  (sequences == centered, centered, sequences),
                  _covers(hilbert.pn_runs(n), 2 * n - 1))


def check_runs(rep: VerifySuiteReport, n: int) -> None:
    """The run/divisor bijection, involution, parity flip and containment."""
    produced = []
    for d in divisors.odd_divisors(n):
        odd_run, even_run = divisors.sequence_for_divisor(n, d)
        produced += [odd_run, even_run]
        rep.check(f"run sums n={n} d={d}",
                  odd_run.total == n and even_run.total == n, n,
                  (odd_run.total, even_run.total))
        rep.check(f"involution n={n} d={d}",
                  divisors.involute(odd_run) == even_run
                  and divisors.involute(even_run) == odd_run,
                  "mutually involute", (odd_run, even_run))
        rep.check(f"parity flip n={n} d={d}",
                  odd_run.is_odd() != even_run.is_odd(),
                  "opposite parity", (odd_run.h, even_run.h))
        pos, neg = ((odd_run, even_run) if odd_run.is_positive()
                    else (even_run, odd_run))
        pos_set, neg_set = set(pos.elements()), set(neg.elements())
        rep.check(f"containment n={n} d={d}",
                  pos_set <= neg_set
                  and len(neg_set - pos_set) == abs(even_run.h - odd_run.h),
                  "positive run inside negative partner",
                  (odd_run, even_run))
    rep.equal(f"bijection n={n}", sorted((s.a, s.h) for s in produced),
              sorted((s.a, s.h) for s in divisors.representations(n)))


def check_a_tail(rep: VerifySuiteReport, n: int) -> None:
    """The interval counts are 1 on the top half of the index range."""
    tail = [divisors.a_coeff(n, i) for i in range((n - 1) // 2, n)]
    rep.check(f"a_coeff tail of ones n={n}", all(a == 1 for a in tail),
              "all 1", tail)


def verify_routes(max_n: int) -> VerifySuiteReport:
    """Every route to the same polynomial agrees, and the count structure
    holds: four ways to G_n, two ways to C_n, the monomial route to the
    centered quotient, and the run/divisor combinatorics behind them."""
    rep = VerifySuiteReport("routes", max_n)
    for n, series_pg in enumerate(series.pg_from_series(max_n), start=1):
        check_pg_routes(rep, n, series_pg)
        check_counts(rep, n)
        check_runs(rep, n)
        check_a_tail(rep, n)
    return rep


def verify_cheb(max_n: int) -> VerifySuiteReport:
    """Both polynomial families, built from their closed forms, agree with
    the three-term recurrence rolled here and with the matrix trace, and
    satisfy their recurrences and substitution identities."""
    rep = VerifySuiteReport("cheb", max_n)
    v_prev, v = X, TWO  # V_{-1} = V_1, V_0
    f_rec = ZERO  # the running sum F_k = F_{k-1} + V_k, with F_{-1} = 0
    f_prev, f, t = ZERO, chebfam.fpoly(0), chebfam.tcheb(0)
    for k in range(max_n + 1):
        f_rec = f_rec + (v if k else ONE)
        if k >= 1:  # each closed form from X^0 up and from X^k down
            for case, rolled, closed, coeffs in (
                    ("tcheb", v, t, chebfam.tcheb_coeffs),
                    ("fpoly", f_rec, f, chebfam.fpoly_coeffs)):
                down = list(rolled.coeffs[::-1])
                descending = list(coeffs(k, True))
                rep.check_all(f"{case} closed k={k}",
                              (closed == rolled, rolled, closed),
                              (descending == down, down, descending))
        rep.equal(f"tcheb trace k={k}", v, _quotient(chebfam.tcheb_trace, k))
        # the constant term (-1)^(k//2), read off F_k and evaluated at 0
        constant = -1 if (k // 2) & 1 else 1
        rep.equal(f"constant term k={k}", (constant, constant),
                  (f.coeff(0), chebfam.fpoly_value(k, 0)))
        # substitution: t(q + 1/q) == q^k + q^-k
        rep.equal(f"tcheb substitution k={k}",
                  monomial(k) + monomial(-k) if k else monomial(0, 2),
                  t.eval_q_plus_qinv())
        f_next, t_next = chebfam.fpoly(k + 1), chebfam.tcheb(k + 1)
        if k >= 1:
            rep.equal(f"f recurrence k={k}", f_next, X * f - f_prev)
        # difference law: V_{r+1} - V_r = (X - 2) F_r, and its Laurent form
        rep.equal(f"difference law k={k}", (X - TWO) * f, t_next - t)
        rep.equal(f"difference law (Laurent) k={k}",
                  LaurentPoly(-1, (1, -2, 1)) * f.eval_q_plus_qinv(),
                  monomial(k + 1) + monomial(-k - 1)
                  - monomial(k) - monomial(-k))
        # leading-coefficient pattern of the running sums
        if k >= 5:
            rep.equal(f"fpoly leading coefficients k={k}",
                      [1, 1, -(k - 1), -(k - 2),
                       (k - 2) * (k - 3) // 2, (k - 3) * (k - 4) // 2],
                      [f.coeff(k - j) for j in range(6)])
        v_prev, v = v, X * v - v_prev
        f_prev, f, t = f, f_next, t_next
    return rep


def verify_series(max_n: int) -> VerifySuiteReport:
    """The generating-function expansions reproduce both families, replay
    the numerator identity, and are stable under deeper truncation."""
    rep = VerifySuiteReport("series", max_n)
    f_gf = series.expand_f_gf(max_n)
    t_gf = series.expand_tcheb_gf(max_n)
    for k in range(max_n + 1):
        rep.equal(f"f gf k={k}", chebfam.fpoly(k), f_gf.coeffs[k])
        rep.equal(f"tcheb gf k={k}", chebfam.tcheb(k), t_gf.coeffs[k])
    # (1 - t^2) / (1 - Xt + t^2) == (1 - t) * (f-family gf)
    den = series.series_from_terms(max_n, {0: ONE, 1: -X, 2: ONE})
    lhs = series.series_mul(
        series.series_from_terms(max_n, {0: ONE, 2: -ONE}),
        series.series_inverse(den))
    rhs = series.series_mul(
        series.series_from_terms(max_n, {0: ONE, 1: -ONE}), f_gf)
    rep.check("numerator identity", lhs == rhs, "equal series", (lhs, rhs))
    # truncation stability of the big product
    half = max(1, max_n // 2)
    big = series.expand_pg_product(max_n)
    small = series.expand_pg_product(half)
    k = next((k for k in range(half + 1)  # the first order that differs
              if big.coeffs[k] != small.coeffs[k]), 0)
    rep.check("truncation stability", big.truncate(half) == small,
              f"t^{k}: {big.coeffs[k]}", f"t^{k}: {small.coeffs[k]}")
    # product expansion against the interval route
    for n, p in enumerate(series.pg_from_series(min(max_n, 64), big), start=1):
        rep.equal(f"pg series n={n}", hilbert.pg_via_interval(n), p)
    return rep


def check_factor_identities(rep: VerifySuiteReport) -> None:
    """G_6 - G_2*G_3 = (X-1)(X+1)^2(X-2)(X+2), G_6 + G_2*G_3 =
    X(X-1)^2(X+1)(X+2), and X(X+1)(X^2-4) divides G_12^2 - G_3^2*G_4^2:
    the divisor is monic with the distinct integer roots 0, -1, 2 and -2,
    so it divides exactly when the square difference is zero at each."""
    pg2, pg3, pg4, pg6, pg12 = map(hilbert.pg_via_interval, (2, 3, 4, 6, 12))
    xm1, xp1, xm2, xp2 = X - ONE, X + ONE, X - TWO, X + TWO
    rep.equal("difference factorization", xm1 * xp1 * xp1 * xm2 * xp2,
              pg6 - pg2 * pg3)
    rep.equal("sum factorization", X * xm1 * xm1 * xp1 * xp2, pg6 + pg2 * pg3)
    square = pg12 * pg12 - (pg3 * pg4) * (pg3 * pg4)
    rep.equal("square-difference divisibility", [0, 0, 0, 0],
              [square.eval_int(x) for x in (0, -1, 2, -2)])


def verify_mult(max_n: int) -> VerifySuiteReport:
    """|G_m(x)| * |G_k(x)| = |G_{mk}(x)| for coprime m, k at x in {-2, -1,
    0, 2}; at x = 1 the left side is 1, 2 or 4 times the right according to
    {m, k} mod 3 ({0, 2} -> 2, {2} -> 4, else 1).  Then the closed factor
    identities and multiplicativity of the odd-divisor count itself.

    Each G_j(x), j <= max_n, is made once per point, and each count of odd
    divisors of j <= 100 once; G_{mk}(x) and the count at mk are made
    afresh for every pair, so the route under test meets every product."""
    rep = VerifySuiteReport("mult", max_n)
    points = (-2, -1, 0, 1, 2)
    pg = {x: [None] + [hilbert.pg_eval_int(j, x) for j in range(1, max_n + 1)]
          for x in points}
    for m in range(1, max_n + 1):
        for k in range(m + 1, max_n + 1):
            if gcd(m, k) != 1:
                continue
            residues = {m % 3, k % 3}
            three_case = 4 if residues == {2} else 2 if residues == {0, 2} else 1
            for x in points:
                factor = three_case if x == 1 else 1
                rep.equal(f"mult x={x} m={m} k={k}",
                          factor * abs(hilbert.pg_eval_int(m * k, x)),
                          abs(pg[x][m]) * abs(pg[x][k]))
    check_factor_identities(rep)
    odd_counts = [0] + [len(divisors.odd_divisors(j)) for j in range(1, 101)]
    for m in range(1, 101):
        for k in range(m + 1, 101):
            if gcd(m, k) == 1:
                rep.equal(f"odd-divisor count multiplicative m={m} k={k}",
                          odd_counts[m] * odd_counts[k],
                          len(divisors.odd_divisors(m * k)))
    return rep


def verify_zeta(max_n: int) -> VerifySuiteReport:
    """Factor counts, exponent symmetry, the functional equation, and
    agreement with the factorization rebuilt from the coefficient formula."""
    rep = VerifySuiteReport("zeta", max_n)
    for n in range(1, max_n + 1):
        z = zeta.local_zeta_factors(n)
        odd_count = len(divisors.odd_divisors(n))
        rep.check(f"factor count n={n}",
                  len(z.numerator) == len(z.denominator) == 2 * odd_count,
                  2 * odd_count, (len(z.numerator), len(z.denominator)))
        rep.check(f"exponent range n={n}",
                  all(0 <= e <= 2 * n for e in z.numerator + z.denominator),
                  "within [0, 2n]", z)
        rep.check(f"functional equation n={n}",
                  zeta.check_functional_equation(z),
                  "exponents invariant under e -> 2n - e", z)
        rep.equal(f"coefficient consistency n={n}", z.cancelled(),
                  zeta.zeta_consistency_with_cn(n))
    z3, z4 = zeta.local_zeta_factors(3), zeta.local_zeta_factors(4)
    rep.equal("n=3 factors", ((1, 2, 4, 5), (0, 3, 3, 6)),
              (z3.numerator, z3.denominator))
    rep.equal("n=4 factors", ((1, 7), (0, 8)), (z4.numerator, z4.denominator))
    return rep


_FAMILY_KINDS = {-1: "+F0", 1: "-F0", -3: "+F1", 3: "-F1"}


def _predicted_kind(n: int) -> str:
    """The defect kind predicted from the shape of n = 2^a * p, p odd:
    "zero" for p = 1, and for a prime p = 2^{a+1} -+ 1 (+-F0) or
    2^{a+1} -+ 3 (+-F1); "other" for every other n."""
    a = (n & -n).bit_length() - 1
    p = n >> a
    if p == 1:
        return "zero"
    kind = _FAMILY_KINDS.get(p - (2 << a))
    return kind if kind and divisors.is_prime(p) else "other"


def _sign_of(index: int | None) -> int:
    """The sign (-1)^{r+1} of a (near-)triangular index r, 0 for None."""
    return 0 if index is None else 1 if index & 1 else -1


def _merged(terms) -> list[tuple[int, int]]:
    """The (c, j) terms of sum c F_j summed by index, ascending, 0s dropped."""
    sums: dict[int, int] = {}
    for c, j in terms:
        sums[j] = sums.get(j, 0) + c
    return [(c, j) for j, c in sorted(sums.items()) if c]


def verify_special(max_n: int) -> VerifySuiteReport:
    """The defect kind read off the odd-divisor terms against the shape of
    n, with the signs of any F_0 and F_1 term against n being triangular
    (n = r(r+1)/2) or near-triangular (n = r(r+3)/2), sign (-1)^{r+1}; the
    power-of-two law on the kind; and on the defect built from the interval
    counts, the power-of-two law, the strict degree bound and its terms
    against the odd-divisor terms with d > 1.

    The defect's laws are read off its F-terms, ``hilbert.defect_terms``,
    with no coefficient made: the terms are summed by index, and since
    every F_j is monic of degree j, the defect is zero when no sum is
    nonzero and otherwise has the largest such index as its degree.  Only
    a failed law expands them, by ``hilbert.approx_defect``."""
    rep = VerifySuiteReport("special", max_n)
    for n in range(1, max_n + 1):
        terms = divisors.odd_divisor_terms(n)
        kind = hilbert.defect_kind(terms)
        f0 = next((t.sign for t in terms if t.f_index == 0), 0)
        f1 = next((t.sign for t in terms if t.f_index == 1), 0)
        rep.equal(f"special families n={n}",
                  (_predicted_kind(n),
                   _sign_of(divisors.triangular_index(n)),
                   _sign_of(divisors.near_triangular_index(n))),
                  (kind, f0, f1))
        if n < 2:
            continue
        is_pow2 = n & (n - 1) == 0
        rep.check(f"power-of-two law n={n}", (kind == "zero") == is_pow2,
                  "zero" if is_pow2 else "nonzero", kind)
        if n > 1000:
            continue
        defect = _merged(hilbert.defect_terms(n))
        if is_pow2:
            ok, expected = not defect, ZERO
        else:  # the last index is the degree
            ok = bool(defect) and 2 * defect[-1][1] < n - 2
            expected = f"nonzero of degree < {n - 2}/2"
        odd = _merged((t.sign, t.f_index) for t in terms if t.d > 1)
        rep.check_all(f"defect degree bound n={n}",
                      (ok, expected, None if ok else hilbert.approx_defect(n)),
                      (defect == odd, odd, defect))
    return rep


SUITES = {
    "routes": verify_routes,
    "cheb": verify_cheb,
    "series": verify_series,
    "mult": verify_mult,
    "zeta": verify_zeta,
    "special": verify_special,
}


def run_suites(names: list[str], max_n: int | None = None) -> list[VerifySuiteReport]:
    """Run the named suites, each at its default range when max_n is None;
    the one place a range is chosen.  A max_n below 1, or past the
    ``MAX_RANGES`` of any named suite, is refused before any suite runs,
    the latter with the largest range that all of them accept."""
    if max_n is not None:
        name = min(names, key=MAX_RANGES.__getitem__)
        if max_n < 1:
            raise ValueError("--max-n must be >= 1")
        if max_n > MAX_RANGES[name]:
            raise ValueError(
                f"--max-n must be <= {MAX_RANGES[name]} for {name}")
    return [SUITES[name](DEFAULT_RANGES[name] if max_n is None else max_n)
            for name in names]
