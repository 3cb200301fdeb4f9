"""Independent slow paths the engines are checked against at test time.

falling_sum and p_prime_sum are the closed forms' reference: the sums
sum_{j=1..n} n!/((n-j)! (a+n)^(j-1)) and sum_{j=1..n} C(n,j) j! a (a+n)^(n-j)
term by term, one big product per term, where moment_lab takes both from
one binary-split Abel sum.

symbolic_counts is count_symbolic's reference: the exponential-formula
recurrence in the shift a, where count_symbolic expands a(a+n)^(n-1) by the
binomial theorem.

dense_fit is the moment identities' reference: A_k and B_k by
undetermined coefficients, an exact solve on the derivation's own re-check
grid, checked on its holdout term by term in Fractions rather than by
SymPoly's evaluator.

gauss_jordan is the exact solve's reference: Fraction Gauss-Jordan
elimination, where solve_exact eliminates fraction-free in integers below
the pivots only.  Both take the first remaining row with a nonzero entry as
the pivot and keep the other rows in input order, so whole results compare
with ==.

convolution_jets is the jet engine's reference.  Write
E_a(z) = sum_m Q(m,a) z^m/m!.  The shift decomposition of Kung & Yan
("Goncarov polynomials and parking functions", JCTA 2003) gives
E_a(z) = prod_{j<a} E_1(x^j z), and the Kreweras convolution (area
enumerator of parking functions = inversion enumerator of trees, Period.
Math. Hungar. 1980) states log E_1(z) = sum_m [m]_x Q(m-1,1) z^m/m!, with
[e]_x = 1 + x + ... + x^{e-1}.  Summed over the a factors, the x^j turn
[m]_x into [am]_x, and differentiating log E_a in z gives one recurrence
for every shift,

    Q(m,a) = sum_{i<m} C(m-1,i) [a(i+1)]_x Q(i,1) Q(m-1-i,a),

which at a = 1 is the Kreweras convolution itself.  Jets are held in the
Taylor basis T_i = Q^(i)(1)/i!, where products are truncated Leibniz
convolutions and the bracket [e]_x is the jet C(e, t+1).  The cost is
O(n^2 K^2) big-by-big products per shift.

derivatives_at_one reads the jets off a polynomial's coefficients, the
falling-factorial sums of the definition, so the jet engine is checked
against the area polynomials as well as against the convolution.

stirling2_rows and fraction_convert_moments are the moment conversion's
reference: the Stirling numbers by the triangular recurrence
S(j,k) = S(j-1,k-1) + k S(j-1,k), where moment_lab uses the explicit sum,
and the raw and central moments by Fraction arithmetic term by term, where
moment_lab works in integers over one common denominator.

sweep_cells is the polynomial engine's resource guard reference: it counts
the live coefficient slots diagonal by diagonal, as the sweep holds them,
where genfun_engine takes the peak from one closed form in n and a.

fraction_ratio_rows and fraction_hist_rows are the decimal rendering's
reference.  Each Airy ratio goes through a reduced Fraction before its one
decimal division, where airy divides the unreduced integers, and pi comes
from PI_110 rather than the engine's constant.  Each histogram x and
density is a chain of Decimal operations on the reduced mean and variance,
sigma from Decimal's own square root, at 30 guard digits, where
moment_lab takes one correctly rounded integer root per value.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import mul

from parkstat.airy import airy_moments
from parkstat.conjecture_fit import MomentAnsatz, _default_points, _moment_data
from parkstat.exactalg import (Inconsistent, LinSys, SolveResult, SymPoly,
                               Underdetermined, UniqueSolution, binomial,
                               binomial_rows, solve_exact, to_sig_str)
from parkstat.genfun_engine import jet_many

# pi to 110 significant digits
PI_110 = ("3.1415926535897932384626433832795028841971693993751058209749445923"
          "078164062862089986280348253421170679821480865")


def falling_sum(n: int, a: int) -> Fraction:
    """sum_{j=1..n} n!/((n-j)! (a+n)^(j-1)), exact; then
    E_area = n(a-2)/2 + falling_sum/2 and E_sum = n(a+n+1)/2 - falling_sum/2."""
    base = a + n
    acc = 0
    ff = 1
    power = base ** (n - 1)
    for j in range(1, n + 1):
        ff *= n - j + 1
        acc += ff * power
        power //= base  # exact: power = base^(n-j) before this line
    return Fraction(acc, base ** (n - 1))


def p_prime_sum(n: int, a: int) -> int:
    """P'(n,a)(1) = a n (a+n+1) (a+n)^(n-1)/2 - sum_j C(n,j) j! a (a+n)^(n-j)/2."""
    head = Fraction(a * n * (a + n + 1) * (a + n) ** (n - 1), 2)
    tail = Fraction(0)
    ff = 1
    for j in range(1, n + 1):
        ff *= n - j + 1  # C(n,j) j! = n!/(n-j)!
        tail += ff * a * (a + n) ** (n - j)
    val = head - tail / 2
    assert val.denominator == 1
    return val.numerator


def symbolic_counts(n_max: int) -> list[SymPoly]:
    """p_m(a) for m = 0..n_max as exact polynomials in the shift a, by the
    exponential formula.

    With E_a(z) = sum_m p_m(a) z^m/m!, the Kung-Yan shift decomposition at
    x = 1 gives E_a(z) = E_1(z)^a, and the exponential formula (see
    genfun_engine) gives

        log E_a(z) = a sum_{m>=1} m p_{m-1}(1) z^m/m!.

    Differentiating E_a = exp(log E_a) and comparing the coefficients of
    z^(m-1)/(m-1)! gives

        p_m(a) = a sum_{i<m} C(m-1,i) (i+1) p_i(1) p_{m-1-i}(a),

    where p_i(1) is the coefficient sum of the p_i already computed.  Each
    p_m is an integer coefficient list in a, and multiplying by a shifts it
    one place: n(n+1)(n+2)/6 multiply-adds in all.
    """
    polys = [[1]]  # polys[m][j] is the coefficient of a^j in p_m(a)
    at_one = [1]   # p_m(1)
    for m in range(1, n_max + 1):
        p = [0] * (m + 1)
        for i in range(m):
            w = binomial(m - 1, i) * (i + 1) * at_one[i]
            for j, c in enumerate(polys[m - 1 - i]):
                p[j + 1] += w * c
        polys.append(p)
        at_one.append(sum(p))
    return [SymPoly.from_univariate(p, "a") for p in polys]


def jet_mul(p: list[int], q: list[int], width: int) -> list[int]:
    """Truncated product of two Taylor jets: (pq)[t] = sum_s p[s] q[t-s]."""
    rq = q[::-1]
    return [sum(map(mul, p, rq[width - 1 - t:])) for t in range(width)]


def add_scaled(acc: list[int], c: int, term: list[int]) -> None:
    for t, v in enumerate(term):
        acc[t] += c * v


def convolution_jets(n_max: int, a: int, width: int,
                     at_one: list[list[int]] | None = None) -> list[list[int]]:
    """Taylor jets of Q(m,a) for m = 0..n_max, by the exponential formula.

    at_one holds the jets of Q(i,1) for i < n_max; None feeds the recurrence
    on its own output, which is valid at a = 1 only.  Each
    lam[i] = [a(i+1)]_x Q(i,1) is formed once, so each term is one jet
    product.
    """
    binom = binomial_rows(n_max)
    jets = [[1] + [0] * (width - 1)]
    ones = jets if at_one is None else at_one
    lam = []
    for m in range(1, n_max + 1):
        bracket = [math.comb(a * m, t + 1) for t in range(width)]
        lam.append(jet_mul(bracket, ones[m - 1], width))
        row = binom[m - 1]
        acc = [0] * width
        for i in range(m):
            add_scaled(acc, row[i], jet_mul(lam[i], jets[m - 1 - i], width))
        jets.append(acc)
    return jets


def reference_jets(targets, order: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """Derivative values (Q(1), ..., Q^(order)(1)) of every state by the
    convolution, one run per shift over the a = 1 run below it."""
    targets = sorted(set(targets))
    width = order + 1
    n_top = max((n for n, _ in targets), default=0)
    ones = convolution_jets(n_top, 1, width)
    runs = {a: ones if a == 1 else
            convolution_jets(max(n for n, b in targets if b == a), a, width, ones)
            for a in {a for _, a in targets if a >= 1}}
    fact = [math.factorial(t) for t in range(width)]
    out = {}
    for n, a in targets:
        if n == 0:
            taylor = [1] + [0] * order
        elif a == 0:
            taylor = [0] * width
        else:
            taylor = runs[a][n]
        out[(n, a)] = tuple(t * f for t, f in zip(taylor, fact))
    return out


def derivatives_at_one(coeffs, order: int) -> tuple[int, ...]:
    """(p(1), p'(1), ..., p^(order)(1)) of the polynomial with coefficients
    `coeffs`, lowest power first, straight from the definition:
    p^(i)(1) = sum_m coeffs[m] m(m-1)...(m-i+1)."""
    return tuple(sum(c * math.perm(m, i) for m, c in enumerate(coeffs))
                 for i in range(order + 1))


def monomials(symbols: tuple[str, ...], deg: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= deg, ordered by total degree and
    then lexicographically, so the system layout is deterministic."""
    if len(symbols) == 1:
        exps = [(d,) for d in range(deg + 1)]
    else:
        exps = [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]
    return sorted(exps, key=lambda e: (sum(e), e))


def dense_fit(k: int, general_a: bool) -> tuple[SymPoly, SymPoly]:
    """(A_k, B_k) of E_k = A_k + B_k E_1 by undetermined coefficients.

    One unknown per monomial of A and B under the default degree bounds,
    one row per sample of the default grid (HOLDOUT_MARGIN more rows than
    unknowns), solved exactly and then verified on the holdout points, term
    by term in Fractions, so it shares no evaluator with the fits' re-check.
    """
    ansatz = MomentAnsatz.default(k, general_a)
    basis_a = monomials(ansatz.symbols, ansatz.deg_a)
    basis_b = monomials(ansatz.symbols, ansatz.deg_b)
    assert len(basis_a) + len(basis_b) == ansatz.unknowns
    samples, holdout = _default_points(ansatz)
    data = _moment_data(samples + holdout, k)
    na = len(basis_a)

    def equation(n, a):  # (coefficients of the unknowns, E_k) at one point
        ek, e1 = data[(n, a)]
        point = (n, a)[:len(ansatz.symbols)]
        powers = [math.prod(v ** e for v, e in zip(point, exps))
                  for exps in basis_a + basis_b]
        return powers[:na] + [p * e1 for p in powers[na:]], ek

    system = LinSys(ansatz.unknowns)
    for n, a in samples:
        system.add_row(*equation(n, a))
    sol = solve_exact(system)
    assert isinstance(sol, UniqueSolution), sol
    for n, a in holdout:
        coeffs, ek = equation(n, a)
        assert sum(c * x for c, x in zip(coeffs, sol.values)) == ek, (n, a)
    return (SymPoly(ansatz.symbols, dict(zip(basis_a, sol.values[:na]))),
            SymPoly(ansatz.symbols, dict(zip(basis_b, sol.values[na:]))))


def gauss_jordan(sys: LinSys) -> SolveResult:
    """solve_exact's result by Fraction Gauss-Jordan elimination.

    Each pivot row is moved up to just below the pivots before it and
    normalised, and its column is cleared in every other row.  The rows
    below the last pivot are the leftover rows in input order, and the first
    of them that reads 0 = nonzero is reported, before any pivotless column.
    """
    if not sys.rows:
        raise ValueError("system has no rows")
    w = sys.width
    mat = [row[:] + [rhs] for row, rhs in sys.rows]
    rank = 0
    free = []
    for col in range(w):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            free.append(col)
            continue
        mat.insert(rank, mat.pop(piv))
        inv = 1 / mat[rank][col]
        prow = mat[rank] = [x * inv for x in mat[rank]]
        for r, row in enumerate(mat):
            f = row[col]
            if r != rank and f:
                mat[r] = [x - f * y for x, y in zip(row, prow)]
        rank += 1
    for r in range(rank, len(mat)):
        if mat[r][w]:
            return Inconsistent(row_index=r)
    if free:
        return Underdetermined(free_column=free[0])
    return UniqueSolution(values=tuple(row[w] for row in mat[:w]))


def diagonal_cells(s: int, n_cap: int) -> int:
    """Coefficient slots held by diagonal s of the polynomial sweep, state
    by state: one for Q(0,s), deg Q(n,s-n) + 1 for each n <= n_cap with
    s-n >= 1, and none for the zero states Q(n,0), n >= 1."""
    cells = 0
    for n in range(0, min(s, n_cap) + 1):
        a = s - n
        if n == 0:
            cells += 1
        elif a >= 1:
            cells += n * (2 * a + n - 3) // 2 + 1
    return cells


def sweep_cells(targets) -> int:
    """The slots the polynomial sweep over `targets` needs: the most that
    two adjacent diagonals hold, scanned over every diagonal, plus the
    harvested polynomials."""
    targets = set(targets)
    n_cap = max(n for n, _ in targets)
    s_max = max(n + a for n, a in targets)
    peak, prev = 0, 1
    for s in range(1, s_max + 1):
        cur = diagonal_cells(s, n_cap)
        peak, prev = max(peak, prev + cur), cur
    return peak + sum(n * (2 * a + n - 3) // 2 + 1
                      for n, a in targets if n >= 1 and a >= 1)


def stirling2_rows(j_max: int) -> list[list[int]]:
    """Rows 0..j_max of S(j,k), k = 0..j, by the triangular recurrence."""
    rows = [[1]]
    for j in range(1, j_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] + k * prev[k] for k in range(1, j + 1)])
    return rows


def fraction_convert_moments(factorial) -> tuple[tuple[Fraction, ...],
                                                 tuple[Fraction, ...]]:
    """(raw, central) from factorial moments, one Fraction operation per
    term: raw_j = sum_k S(j,k) factorial_k, and central_j is the binomial
    expansion of the raw moments about the mean."""
    factorial = [Fraction(x) for x in factorial]
    order = len(factorial)
    stirling = stirling2_rows(order)
    raw = [sum((stirling[j][k] * factorial[k - 1] for k in range(1, j + 1)),
               Fraction(0))
           for j in range(1, order + 1)]
    mean = raw[0] if raw else Fraction(0)
    full_raw = [Fraction(1)] + raw  # raw_0 = 1
    central = [sum(binomial(j, i) * full_raw[i] * (-mean) ** (j - i)
                   for i in range(j + 1))
               for j in range(1, order + 1)]
    return tuple(raw), tuple(central)


def fraction_ratio_rows(order: int, grid) -> list[tuple[int, int, str, str]]:
    """(k, n, ratio, deviation) of asymptotic_check's rows, each ratio from
    the reduced Fraction E_k / (r n^floor(3k/2))."""
    jets = jet_many([(n, 1) for n in grid], order)
    rows = []
    with localcontext() as ctx:
        ctx.prec = 40
        for k, m in enumerate(airy_moments(order), 1):
            for n in grid:
                values = jets[(n, 1)].values
                exact = Fraction(values[k], values[0]) / (m.r * Fraction(n) ** (3 * k // 2))
                ratio = Decimal(exact.numerator) / Decimal(exact.denominator)
                if m.h:
                    ratio /= (2 * +Decimal(PI_110) * n).sqrt()
                rows.append((k, n, to_sig_str(ratio, 20), to_sig_str(abs(ratio - 1), 20)))
    return rows


def fraction_hist_rows(coeffs, precision: int) -> list[tuple[int, int, str, str]]:
    """(area, count, x, density) of the scaled histogram, with x = (m - mean)
    / sigma and density = c sigma / total from the reduced Fractions."""
    total = sum(coeffs)
    mean = Fraction(sum(m * c for m, c in enumerate(coeffs)), total)
    variance = Fraction(sum(m * m * c for m, c in enumerate(coeffs)), total) - mean**2
    rows = []
    with localcontext() as ctx:
        ctx.prec = precision + 30
        sigma = (Decimal(variance.numerator) / Decimal(variance.denominator)).sqrt()
        for m, c in enumerate(coeffs):
            if c:
                x = Decimal((m - mean).numerator) / Decimal((m - mean).denominator) / sigma
                density = Decimal(c) * sigma / Decimal(total)
                rows.append((m, c, to_sig_str(x, precision), to_sig_str(density, precision)))
    return rows
