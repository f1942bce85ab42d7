"""Transfer matrices, symbolic determinants, closed forms, verifiers."""

import math
import random
import sys
import threading

import pytest

from opstats import xfer
from opstats.opart import BoundExceeded, iter_blocks
from opstats.qnum import pq_context, pq_int, q_factorial, q_stirling
from opstats.ring import DEFAULT, ensure_f, series_from_rational
from opstats.stats import WALK_EXPONENTS, Summary, evaluator, fields
from opstats.walks import vertex_count
from opstats.xfer import (
    SymbolicMatrix,
    WeightSpec,
    _det_laplace,
    adjacency,
    build_n,
    build_ndot,
    build_p,
    build_p_k,
    closed_pair,
    closed_series,
    corner,
    det,
    q_gf_transfer,
    q_specialized_series,
    transfer_matrix,
    walk_series,
)

REG = DEFAULT
A, X, Y, T, U, Z, Q = (REG.var(v) for v in "axytuzq")
ONE, ZERO = REG.one, REG.zero
TU = T + U  # [2]_{t,u}


def _det_bareiss(m: SymbolicMatrix):
    """det m by fraction-free (Bareiss) elimination with exact division: the
    independent cross-check of ``det``'s Laplace expansion."""
    n = m.rows
    if n == 0:
        return DEFAULT.one
    a = [list(row) for row in m.entries]
    sign = 1
    prev = DEFAULT.one
    for piv in range(n - 1):
        if a[piv][piv].is_zero():
            for r in range(piv + 1, n):
                if not a[r][piv].is_zero():
                    a[piv], a[r] = a[r], a[piv]
                    sign = -sign
                    break
            else:
                return DEFAULT.zero
        pivot = a[piv][piv]
        for r in range(piv + 1, n):
            for c in range(piv + 1, n):
                num = a[r][c] * pivot - a[r][piv] * a[piv][c]
                a[r][c] = num.divexact(prev)
            a[r][piv] = DEFAULT.zero
        prev = pivot
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def grid(rows):
    return SymbolicMatrix([[coerce(e) for e in row] for row in rows])


def coerce(e):
    return REG.const(e) if isinstance(e, int) else e


def test_adjacency_k1_matches_m1():
    m = transfer_matrix(1, WeightSpec.xytu())
    assert m == grid([
        [1, -A, -A],
        [0, 1 - A, -A],
        [0, 0, 1],
    ])
    # self-loop weight at (0,1) is [1]_{t3,t4} = 1
    adj = adjacency(1, WeightSpec.seven_variable())
    assert adj.entries[1][1] == ONE


def test_build_m2_matches_display():
    expected = grid([
        [1, -A, -A, 0, 0, 0],
        [0, 1 - A, -A, -A * Y * TU, -A * Y * TU, 0],
        [0, 0, 1, 0, -A * X * TU, -A * X * TU],
        [0, 0, 0, 1 - A * (X + Y), -A * (X + Y), 0],
        [0, 0, 0, 0, 1 - A * X, -A * X],
        [0, 0, 0, 0, 0, 1],
    ])
    assert transfer_matrix(2, WeightSpec.xytu()) == expected


def test_transfer_matrix_rejects_negative_k():
    with pytest.raises(ValueError):
        transfer_matrix(-1, WeightSpec.xytu())


def test_build_n2_matches_display():
    ensure_f(2)
    F1, F2 = REG.var("F1"), REG.var("F2")
    expected = grid([
        [X, -A * F1, -A * F1, 0, 0, 0],
        [0, X - A, -A, -A * F2, -A * F2, 0],
        [0, 0, X, 0, -A * F2, -A * F2],
        [0, 0, 0, X - A * (1 + Q), -A * (1 + Q), 0],
        [0, 0, 0, 0, X - A * Q, -A * Q],
        [0, 0, 0, 0, 0, X],
    ])
    assert build_n(2) == expected


def test_build_n_specializes_to_transfer_matrix():
    # x = 1, F_m = [m]_{t,u}, q = z recovers I - a A under the (z,t,u) weights
    tu = pq_context("t", "u")
    for n in range(1, 5):
        ensure_f(n)
        specialized = SymbolicMatrix([
            [
                e.subs({"x": 1, "q": Z, **{f"F{m}": pq_int(m, tu) for m in range(1, n + 1)}})
                for e in row
            ]
            for row in build_n(n).entries
        ])
        assert specialized == transfer_matrix(n, WeightSpec.ztu())


def test_build_p2k2_matches_corrected_display():
    # the display's t^2+tu+t^2 entry is read as [3]_{t,u} = t^2+tu+u^2
    three_tu = pq_int(3, pq_context("t", "u"))
    expected = grid([
        [-A, -A, 0, 0, 0],
        [1 - A, -A, -A * Y * TU, -A * Y * TU, 0],
        [0, 1, 0, -A * X * TU, 0],
        [0, 0, 1 - A * (X + Y), -A * (X + Y), -A * Y ** 2 * three_tu],
        [0, 0, 0, 1 - A * X, -A * X * Y * three_tu],
    ])
    assert build_p_k(2, 2) == expected


def test_p1_and_ndot1():
    assert build_p(1) == grid([[-A, -A], [1 - A, -A]])
    assert det(build_p(1)) == A
    ensure_f(1)
    assert det(build_ndot(1)) == A * REG.var("F1") * X


def test_det_printed_values():
    assert det(transfer_matrix(1, WeightSpec.xytu())) == 1 - A
    ensure_f(2)
    F1, F2 = REG.var("F1"), REG.var("F2")
    assert det(build_ndot(2)) == -(A ** 2) * F1 * F2 * X ** 2 * (X - A)
    # det P_1^1 = det P_1^2 = a^2 y [2]_{t,u}, det P_1^3 = 0
    assert det(build_p_k(1, 1)) == A ** 2 * Y * TU
    assert det(build_p_k(1, 2)) == A ** 2 * Y * TU
    assert det(build_p_k(1, 3)).is_zero()


def test_det_methods_agree():
    import random

    rng = random.Random(7)

    def random_matrix(n, inside=lambda i, j: True, density=0.7):
        return SymbolicMatrix([
            [
                REG.poly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
                if inside(i, j) and rng.random() < density
                else ZERO
                for j in range(n)
            ]
            for i in range(n)
        ])

    for trial in range(20):
        m = random_matrix(rng.randint(1, 5))
        assert det(m) == _det_bareiss(m)
    # upper- and lower-Hessenberg and banded, with zeros inside the band too:
    # the shape of the corners, where memoized minors are looked up again
    for trial in range(30):
        n = rng.randint(2, 7)
        band = rng.randint(1, 2)
        for inside in (
            lambda i, j: j >= i - 1, lambda i, j: i >= j - 1, lambda i, j: abs(i - j) <= band
        ):
            m = random_matrix(n, inside, density=0.8)
            assert det(m) == _det_bareiss(m), (n, m)
    # upper Hessenberg with entries of 1 to 4 terms: the sparsest lines tie on
    # their count and are told apart by their terms, a row or a column
    def uneven(i, j):
        if j < i - 1 or rng.random() < 0.2:
            return ZERO
        return REG.poly({(rng.randint(0, 3), rng.randint(0, 3)): rng.choice([-2, -1, 1, 2])
                         for _ in range(rng.randint(1, 4))})

    for trial in range(30):
        n = rng.randint(2, 7)
        m = SymbolicMatrix([[uneven(i, j) for j in range(n)] for i in range(n)])
        assert det(m) == _det_bareiss(m), (n, m)
    cases = [(name, n, None) for name in xfer.MATRICES if name != "Pk" for n in range(4)]
    cases += [("Pk", n, k) for n in range(1, 4) for k in range(1, n + 3)]
    for name, n, k in cases:
        m = xfer.MATRICES[name](n, k)
        assert det(m) == _det_bareiss(m), (name, n, k)


@pytest.mark.parametrize("generic, bound", [(False, 20_000), (True, 45_000)])
def test_laplace_expands_the_heaviest_sparsest_line(monkeypatch, generic, bound):
    # P_4 and the seven-variable corner of A_4, which specializes to it:
    # expanded along the top row, their first sparsest line, they take
    # 27 984 and 78 554 term pairs; along the heaviest, 15 227 and 33 361
    pairs = 0
    sum_of_products = xfer._sum_of_products

    def counted(products):
        nonlocal pairs
        products = list(products)
        pairs += sum(len(p.terms) * len(q.terms) for c, p, q in products if c)
        return sum_of_products(products)

    monkeypatch.setattr(xfer, "_sum_of_products", counted)
    xfer._HELD.clear()  # a held determinant would be read, not expanded
    spec = WeightSpec.seven_variable() if generic else WeightSpec.xytu()
    d = det(corner(transfer_matrix(4, spec)))
    assert pairs < bound, pairs
    xytu = {"t1": X, "t2": X, "t3": X, "t4": Y, "t5": T, "t6": U, "t7": Y}
    assert (d.subs(xytu) if generic else d) == xfer.minor1_product(4)


def test_det_memo_keeps_only_branching_minors():
    # N_6 is triangular: a memo of every minor would keep each partial
    # product of its diagonal alive until the end
    import tracemalloc

    m = build_n(6)
    xfer._HELD.clear()
    tracemalloc.start()
    try:
        d = det(m)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d == math.prod((m.entries[i][i] for i in range(m.rows)), start=ONE)  # triangular
    assert peak <= 4 * kept, (peak, kept)


def test_minor_and_identity():
    def identity(n):
        return SymbolicMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    m = identity(3)
    assert det(m) == ONE
    assert m.minor(0, 0) == identity(2)
    with pytest.raises(ValueError):
        det(SymbolicMatrix([[ONE, ZERO]]))


def test_empty_matrix_determinant_is_one():
    empty = SymbolicMatrix(())
    assert (empty.rows, empty.cols) == (0, 0)
    assert det(empty) == ONE
    assert _det_bareiss(empty) == ONE
    # the corner of a 1x1 matrix is the empty matrix: P_0 and ndot_0
    assert corner(grid([[A]])) == empty
    assert build_p(0) == empty and build_ndot(0) == empty


def test_main1_builds_one_p_next(monkeypatch):
    calls = []
    build = xfer.build_p
    monkeypatch.setattr(xfer, "build_p", lambda n: calls.append(n) or build(n))
    for n in range(1, 5):
        calls.clear()
        assert xfer.verify_main1(n)
        assert calls == [n + 1], n


def _every_matrix(n_max):
    """(name, n, k) of every MATRICES entry at n <= n_max, Pk at every k."""
    for name in xfer.MATRICES:
        for n in range(n_max + 1):
            if name != "Pk":
                yield name, n, None
            elif n >= 1:
                yield from ((name, n, k) for k in range(1, n + 3))


def test_cached_pencils_equal_fresh_builds(monkeypatch):
    # every family read through the two caches, at a miss and at a hit,
    # equals the same family built anew through the uncached functions
    cases = list(_every_matrix(3))
    cached = [(xfer.MATRICES[name](n, k), xfer.MATRICES[name](n, k)) for name, n, k in cases]
    monkeypatch.setattr(xfer, "out_edges", xfer.out_edges.__wrapped__)
    monkeypatch.setattr(xfer, "_pencil", xfer._pencil.__wrapped__)
    for (name, n, k), (miss, hit) in zip(cases, cached):
        assert miss == hit == xfer.MATRICES[name](n, k), (name, n, k)


def test_out_edges_cannot_be_mutated():
    edges = xfer.out_edges(2, WeightSpec.xytu())
    assert xfer.out_edges(2, WeightSpec.xytu()) is edges  # one build, shared
    assert isinstance(edges, tuple)
    for v, out in edges:
        assert isinstance(out, tuple) and all(isinstance(edge, tuple) for edge in out)
    with pytest.raises(TypeError):
        edges[0] = edges[1]
    with pytest.raises(TypeError):
        edges[0][1][0] = ((0, 0), ONE)


def test_graph_caches_stay_bounded():
    xfer.out_edges.cache_clear()
    xfer._pencil.cache_clear()
    for name, n, k in _every_matrix(4):
        xfer.MATRICES[name](n, k)
    # M, Axy, P and Pk share the xytu D_0..D_5; N and ndot the F-sequence
    # D_0..D_4; A and Az their own D_0..D_4
    for cache in (xfer.out_edges, xfer._pencil):
        info = cache.cache_info()
        assert info.maxsize == xfer.GRAPH_CACHE_SIZE
        assert info.currsize == 6 + 5 + 5 + 5


def test_transfer_series_k1():
    s = q_gf_transfer(1, WeightSpec.seven_variable(), 4)
    assert s.coefficient(0).is_zero()
    for n in range(1, 5):
        assert s.coefficient(n) == ONE


def test_transfer_series_k0():
    s = q_gf_transfer(0, WeightSpec.seven_variable(), 3)
    assert s.coefficient(0) == ONE
    assert all(s.coefficient(n).is_zero() for n in (1, 2, 3))


def test_transfer_series_k2_matches_monomials():
    s = q_gf_transfer(2, WeightSpec.seven_variable(), 4)
    t1, t5, t6 = REG.var("t1"), REG.var("t5"), REG.var("t6")
    assert s.coefficient(2) == t1 * (t5 + t6)
    prefix = REG.index("t1")
    exponents = evaluator(WALK_EXPONENTS)
    for n in range(5):
        counts = {}
        for blocks in iter_blocks(n, 2):
            e = exponents(fields(Summary(blocks)))
            counts[e] = counts.get(e, 0) + 1
        want = REG.poly({(0,) * prefix + e: c for e, c in counts.items()})
        assert s.coefficient(n) == want


def test_transfer_series_k4_matches_monomials():
    # the largest seven-variable matrix within the desk bound (15 x 15)
    s = q_gf_transfer(4, WeightSpec.seven_variable(), 6)
    prefix = REG.index("t1")
    exponents = evaluator(WALK_EXPONENTS)
    for n in range(4, 7):
        counts = {}
        for blocks in iter_blocks(n, 4):
            e = exponents(fields(Summary(blocks)))
            counts[e] = counts.get(e, 0) + 1
        want = REG.poly({(0,) * prefix + e: c for e, c in counts.items()})
        assert s.coefficient(n) == want


#: Each weight spec with its symbolic desk bound on k.
SPECS = (
    (WeightSpec.seven_variable(), xfer.GENERIC_K_BOUND),
    (WeightSpec.xytu(), xfer.SPECIALIZED_K_BOUND),
    (WeightSpec.ztu(), xfer.SPECIALIZED_K_BOUND),
)


def test_walk_series_matches_determinant_route():
    for w, bound in SPECS:
        for k in range(bound + 1):
            assert walk_series(k, w, 6) == q_gf_transfer(k, w, 6), (w.t, k)


def test_walk_series_bound():
    for w, bound in SPECS:
        with pytest.raises(BoundExceeded, match="desk bound"):
            walk_series(bound + 1, w, 2)
        assert walk_series(bound + 1, w, 0, force_large=True).coefficient(0).is_zero()
        with pytest.raises(ValueError, match="order"):
            walk_series(1, w, -1)
        # a negative k is no desk bound, but a plain usage error
        with pytest.raises(ValueError, match="nonnegative") as exc:
            walk_series(-1, w, 2)
        assert type(exc.value) is ValueError


def test_closed_forms_low_order():
    s = closed_series("phi", 1, 3)
    assert [s.coefficient(n) for n in range(4)] == [ZERO, ONE, ONE, ONE]
    # phi_2 coefficient of a^3 specializes to [2]_q! S_q(3,2) at x=q
    s = closed_series("phi", 2, 3)
    got = s.coefficient(3).subs({"x": Q, "y": 1, "t": 1, "u": 1})
    assert got == 2 * Q + 3 * Q ** 2 + Q ** 3
    # g_2 coefficient of a^2 is [2]_{t,u}!
    assert closed_series("g", 2, 2).coefficient(2) == TU
    with pytest.raises(ValueError, match="unknown closed form"):
        closed_series("h", 1, 2)


def test_closed_series_below_order_k_matches_the_whole_pair():
    # below order k closed_series expands the numerator over 1
    for family in xfer.CLOSED_FAMILIES:
        for k in range(6):
            pair = closed_pair(family, k)
            for order in range(k + 2):
                assert closed_series(family, k, order) == series_from_rational(*pair, order), (
                    family, k, order)


def test_closed_phi_equals_direct_expansion():
    # substitution route vs the four-variable closed form
    tx_uy = pq_context(REG.var("t") * REG.var("x"), REG.var("u") * REG.var("y"))
    xy = pq_context("x", "y")
    for k in range(7):
        direct_num = (
            A ** k
            * (X * Y) ** math.comb(k, 2)
            * math.prod((pq_int(i, tx_uy) for i in range(1, k + 1)), start=ONE)
        )
        denom = math.prod((ONE - A * pq_int(i, xy) for i in range(1, k + 1)), start=ONE)
        direct = series_from_rational(direct_num, denom, 8)
        assert closed_series("phi", k, 8) == direct


def test_closed_varphi_equals_direct_expansion():
    tz_u = pq_context(REG.var("t") * REG.var("z"), REG.var("u"))
    zz = pq_context(REG.one, REG.var("z"))
    # the direct side is polynomial in z, so this pins that the substituted
    # pair leaves no negative power of z in any coefficient
    for k in range(7):
        direct_num = (
            A ** k
            * Z ** math.comb(k, 2)
            * math.prod((pq_int(i, tz_u) for i in range(1, k + 1)), start=ONE)
        )
        denom = math.prod((ONE - A * pq_int(i, zz) for i in range(1, k + 1)), start=ONE)
        direct = series_from_rational(direct_num, denom, 8)
        assert closed_series("varphi", k, 8) == direct


def test_q_specialized_series_matches_recurrence():
    for k in range(4):
        s = q_specialized_series(k, 7)
        for n in range(8):
            want = q_factorial(k) * q_stirling(n, k) if n >= k else ZERO
            assert s.coefficient(n) == want


def test_verifiers_small():
    for name in ("detm", "detn", "minor1", "minor2", "conj"):
        assert xfer.verify_det(name, 1) and xfer.verify_det(name, 2), name
    assert xfer.verify_main1(1) and xfer.verify_main1(2)
    for m in range(3):
        assert xfer.verify_lemma_key(2, m)
    assert xfer.verify_lemma_key(4, 3)


def test_eigen_worked_example():
    # scaled by [n+1-m-k]_q! = 1, the n=2, m=k=1 vector is the printed one
    ensure_f(2)
    F2 = REG.var("F2")
    vec = xfer.eigen_row_vector(2, 1, 1)
    qi = Q.inverse()
    assert vec == [ZERO, ONE, ONE, -F2 * qi, -F2 * qi, ZERO]
    assert xfer.verify_eigen(2, 1, 1)
    # n=3, m=k=1: printed entries scaled by [2]_q!
    ensure_f(3)
    F3 = REG.var("F3")
    vec = xfer.eigen_row_vector(3, 1, 1)
    two_q = 1 + Q
    assert vec[0].is_zero()
    assert vec[1] == two_q and vec[2] == two_q
    assert vec[3] == -F2 * qi * two_q and vec[4] == -F2 * qi * two_q
    assert vec[5].is_zero()
    assert vec[6] == F2 * F3 * Q ** -2
    assert vec[7] == F2 * F3 * Q ** -2
    assert vec[8].is_zero() and vec[9].is_zero()
    assert xfer.verify_eigen(3, 1, 1)
    assert xfer.verify_eigen(3, 2, 1)
    with pytest.raises(ValueError):
        xfer.verify_eigen(3, 3, 1)


def test_arc_sizes():
    assert [vertex_count(n) for n in range(5)] == [1, 3, 6, 10, 15]
    assert build_p(2).rows == vertex_count(2) - 1


# -- the held results -------------------------------------------------------------

#: Every series of ``gf`` as a function of (k, order).
SERIES = {
    **{name: (lambda k, order, w=w: walk_series(k, w, order))
       for name, w in (("Q", WeightSpec.seven_variable()), ("Qxy", WeightSpec.xytu()),
                       ("Qz", WeightSpec.ztu()))},
    **{family: (lambda k, order, family=family: closed_series(family, k, order))
       for family in xfer.CLOSED_FAMILIES},
}


def test_held_series_equal_cold_ones():
    # every family at k <= 3, each order 0..9 cold, then asked in shuffled
    # sequences: a held series is sliced, a closed form extended from its
    # held prefix and a walk series recomputed, and each equals the cold one
    rng = random.Random(30)
    for name, series in SERIES.items():
        for k in range(4):
            cold = {}
            for order in range(10):
                xfer._HELD.clear()
                cold[order] = series(k, order)
            for _ in range(3):
                xfer._HELD.clear()
                for order in rng.sample(range(10), 6):
                    got = series(k, order)
                    assert got == cold[order] and got.order == order, (name, k, order)
    assert xfer._HELD.terms <= xfer.HELD_TERMS
    # a closed form grows from the held prefix: its coefficients are kept,
    # and with them the text each has rendered
    xfer._HELD.clear()
    low, high = closed_series("phi", 3, 5), closed_series("phi", 3, 9)
    assert all(a is b for a, b in zip(low.coeffs, high.coeffs))


def test_held_determinants_equal_cold_ones():
    xfer._HELD.clear()
    for name, n, k in _every_matrix(3):
        m = xfer.MATRICES[name](n, k)
        first = det(m)
        assert det(m) is first, (name, n, k)  # held, and read back
        assert first == _det_laplace(m) == _det_bareiss(m), (name, n, k)
    held = xfer._HELD
    assert held.terms == sum(weight for _, weight, _ in held.entries.values()) <= held.budget


def test_held_store_keeps_its_budget_and_evicts_the_oldest():
    held = xfer._Held(64)
    for i in range(40):
        held.hold(i, str(i), 1 + i % 8)
        assert held.terms == sum(w for _, w, _ in held.entries.values()) <= 64
    held.clear()
    held.hold("large", "x", 9)  # more than an eighth of the budget
    assert held.get("large") is None and held.terms == 0
    for key in "abcdefgh":
        held.hold(key, key, 8)
    assert held.terms == 64
    assert held.get("a") == (0, 8, "a")  # read: now the most recently used
    held.hold("i", "i", 8)
    assert list(held.entries) == [*"cdefgh", "a", "i"]  # b, the oldest, went
    # a series of a higher order replaces the held one, a lower one does not
    held.hold("c", "longer", 8, rank=1)
    assert list(held.entries)[-1] == "c"  # and is the most recently used
    held.hold("c", "shorter", 8, rank=0)
    assert held.get("c") == (1, 8, "longer") and held.terms == 64


def test_held_results_are_filled_safely_by_racing_threads(monkeypatch):
    # a store small enough that the threads also race to evict
    monkeypatch.setattr(xfer, "_HELD", xfer._Held(1024))
    matrices = [xfer.MATRICES[name](n, k) for name, n, k in _every_matrix(2)]
    want_dets = [_det_laplace(m) for m in matrices]
    families = ("g", "varphi")
    want = {(family, order): series_from_rational(*closed_pair(family, 3), order)
            for family in families for order in range(10)}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(40):
            xfer._HELD.clear()
            start = threading.Barrier(8)
            errors = []

            def work(i):
                start.wait(timeout=10)
                try:
                    # all at once the same determinant and the same series,
                    # then each thread in an order of its own
                    assert det(matrices[-1]) == want_dets[-1]
                    assert closed_series("g", 3, 9) == want["g", 9]
                    rng = random.Random(trial * 8 + i)
                    for family, order in rng.sample(sorted(want), len(want)):
                        assert closed_series(family, 3, order) == want[family, order]
                    for j in rng.sample(range(len(matrices)), len(matrices)):
                        assert det(matrices[j]) == want_dets[j]
                except Exception as exc:  # collected and asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            held = xfer._HELD
            assert held.terms == sum(weight for _, weight, _ in held.entries.values()) <= 1024
    finally:
        sys.setswitchinterval(old)
