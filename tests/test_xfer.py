"""Transfer matrices, symbolic determinants, closed forms, verifiers."""

import math

import pytest

from opstats import xfer
from opstats.opart import iter_blocks
from opstats.qnum import pq_context, pq_int, q_factorial, q_stirling
from opstats.ring import DEFAULT, ensure_f, series_from_rational
from opstats.stats import WALK_EXPONENTS, Summary, evaluator
from opstats.walks import vertex_count
from opstats.xfer import (
    SymbolicMatrix,
    WeightSpec,
    adjacency,
    build_n,
    build_ndot,
    build_p,
    build_p_k,
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
        assert det(m, "laplace") == det(m, "bareiss")
    # upper- and lower-Hessenberg and banded, with zeros inside the band too:
    # the shape of the corners, where memoized minors are looked up again
    for trial in range(30):
        n = rng.randint(2, 7)
        band = rng.randint(1, 2)
        for inside in (
            lambda i, j: j >= i - 1, lambda i, j: i >= j - 1, lambda i, j: abs(i - j) <= band
        ):
            m = random_matrix(n, inside, density=0.8)
            assert det(m, "laplace") == det(m, "bareiss"), (n, m)
    cases = [(name, n, None) for name in xfer.MATRICES if name != "Pk" for n in range(4)]
    cases += [("Pk", n, k) for n in range(1, 4) for k in range(1, n + 3)]
    for name, n, k in cases:
        m = xfer.MATRICES[name](n, k)
        assert det(m, "laplace") == det(m, "bareiss"), (name, n, k)


def test_det_memo_keeps_only_branching_minors():
    # N_6 is triangular: a memo of every minor would keep each partial
    # product of its diagonal alive until the end
    import tracemalloc

    m = build_n(6)
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
    assert det(empty, "laplace") == ONE
    assert det(empty, "bareiss") == ONE
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
            e = exponents(Summary(blocks))
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
            e = exponents(Summary(blocks))
            counts[e] = counts.get(e, 0) + 1
        want = REG.poly({(0,) * prefix + e: c for e, c in counts.items()})
        assert s.coefficient(n) == want


def test_transfer_bound():
    with pytest.raises(ValueError):
        q_gf_transfer(5, WeightSpec.seven_variable(), 2)
    with pytest.raises(ValueError):
        q_gf_transfer(6, WeightSpec.ztu(), 2)


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
        with pytest.raises(ValueError, match="desk bound"):
            walk_series(bound + 1, w, 2)
        assert walk_series(bound + 1, w, 0, force_large=True).coefficient(0).is_zero()
        with pytest.raises(ValueError, match="order"):
            walk_series(1, w, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            walk_series(-1, w, 2)


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
