import pytest
from hypothesis import given, settings, strategies as st

from ringoids.intlinalg import (AbPresentation, Elimination, IntMatrix,
                                apply_rows, cokernel, determinant,
                                exponent_row, hom_is_isomorphism,
                                hom_kernel_lattice, kernel_presentation,
                                lattice_basis, lattice_contains,
                                lattices_equal, left_kernel_rows, smith_normal_form,
                                solve_row_combinations)

small_matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r).map(
                lambda rows: IntMatrix(r, c, rows))))


def test_snf_diag_2_3():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    U, D, V = smith_normal_form(m)
    assert D.diagonal() == [1, 6]
    assert U.mul(m).mul(V) == D


def test_snf_zero_matrix():
    U, D, V = smith_normal_form(IntMatrix.from_rows([[0]]))
    assert D.diagonal() == [0]


def test_snf_identity():
    m = IntMatrix.identity(3)
    _, D, _ = smith_normal_form(m)
    assert D == IntMatrix.identity(3)


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_snf_properties(m):
    U, D, V = smith_normal_form(m)
    assert U.mul(m).mul(V) == D
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    diag = D.diagonal()
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    assert all(d >= 0 for d in diag)
    assert all(D.entry(i, j) == 0
               for i in range(D.rows) for j in range(D.cols) if i != j)


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[2]])) == AbPresentation.cyclic(2)
    assert cokernel(IntMatrix.zeros(0, 2)) == AbPresentation.free(2)
    assert cokernel(IntMatrix.from_rows([[2, 0], [0, 3]])) == AbPresentation.cyclic(6)


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_cokernel_unimodular_invariance(m, rng):
    # random elementary row/column operations do not change the cokernel
    rows = [list(r) for r in m.data]
    for _ in range(6):
        if m.rows >= 2:
            i, j = rng.randrange(m.rows), rng.randrange(m.rows)
            if i != j:
                q = rng.randint(-3, 3)
                for k in range(m.cols):
                    rows[i][k] += q * rows[j][k]
    transformed = IntMatrix(m.rows, m.cols, rows)
    assert cokernel(transformed) == cokernel(m)
    cols = [list(r) for r in transformed.data]
    for _ in range(6):
        if m.cols >= 2:
            i, j = rng.randrange(m.cols), rng.randrange(m.cols)
            if i != j:
                q = rng.randint(-3, 3)
                for row in cols:
                    row[i] += q * row[j]
    assert cokernel(IntMatrix(m.rows, m.cols, cols)) == cokernel(m)


def test_presentation_equality_is_normal_form():
    a = AbPresentation(2, [(2, 0), (0, 3)])
    b = AbPresentation(1, [(6,)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != AbPresentation(1, [(2,)])
    assert str(b) == "Z/6"
    assert str(AbPresentation(3, [(2, 0, 0)])) == "Z^2 + Z/2"
    assert str(AbPresentation.zero()) == "0"


def test_presentation_torsion_chain():
    p = AbPresentation(3, [(2, 0, 0), (0, 4, 0), (0, 0, 8)])
    assert p.rank == 0
    for a, b in zip(p.torsion, p.torsion[1:]):
        assert b % a == 0


def test_lattice_solvers():
    rows = [[2, 0], [0, 3]]
    assert solve_row_combinations(rows, 2, [[4, 3]]) == [[2, 1]]
    assert solve_row_combinations(rows, 2, [[1, 0]]) == [None]
    assert lattice_contains(rows, 2, [2, 3])
    assert not lattice_contains(rows, 2, [1, 1])
    # dependent rows: several exact solutions exist, and the one returned
    # must reproduce its target
    rows = [[0, 3], [0, 3], [0, 2]]
    [c] = solve_row_combinations(rows, 2, [[0, 2]])
    assert c is not None and len(c) == 3
    assert apply_rows(c, rows, 2) == [0, 2]


def test_exponent_row_adds_repeats_and_cancels_equal_sides():
    index = {"a": 0, "b": 1, "c": 2}
    assert exponent_row(index, ["a", "a", "c"], ["b"]) == [2, -1, 1]
    assert exponent_row(index, minus=["c", "c"]) == [0, 0, -2]
    assert exponent_row(range(3), [2, 0, 2]) == [1, 0, 2]
    assert exponent_row(index) == [0, 0, 0]
    sums = {s: i for i, s in enumerate([(), ("a",), ("a", "b")])}
    side = [("a",), ("a", "b"), ("a",)]
    assert exponent_row(sums, side, side[::-1]) == [0, 0, 0]


def test_exponent_row_never_drops_a_missing_generator():
    with pytest.raises(KeyError):
        exponent_row({"a": 0}, ["a", "b"])
    with pytest.raises(KeyError):
        exponent_row({"a": 0}, minus=["b"])


def test_left_kernel():
    rows = [[1, 2], [2, 4], [0, 0]]
    kern = left_kernel_rows(rows, 2)
    for z in kern:
        assert all(sum(z[i] * rows[i][j] for i in range(3)) == 0 for j in range(2))
    assert len(kern) == 2


def test_lattice_basis_is_equivalent():
    rows = [[2, 0], [0, 3], [2, 3], [4, 6]]
    basis = lattice_basis(rows, 2)
    assert len(basis) == 2
    for r in rows:
        assert lattice_contains(basis, 2, r)
    for b in basis:
        assert lattice_contains(rows, 2, b)


def test_kernel_presentation_of_mod2_reduction():
    # ker(Z -> Z/2) = 2Z, free of rank 1
    pres, basis = kernel_presentation(AbPresentation.free(1),
                                      AbPresentation.cyclic(2), [(1,)])
    assert pres == AbPresentation.free(1)
    assert basis == [[2]] or basis == [[-2]]


def test_hom_iso_checks():
    z, z2, z4 = AbPresentation(1), AbPresentation.cyclic(2), AbPresentation.cyclic(4)
    assert hom_is_isomorphism(AbPresentation(2), AbPresentation(2), [(0, 1), (1, 0)])
    assert not hom_is_isomorphism(z, z, [(2,)])
    # Z/2 -> Z/4 by x -> 2x is injective but not surjective
    assert not hom_is_isomorphism(z2, z4, [(2,)])
    # Z/4 -> Z/2 reduction is surjective but not injective
    assert not hom_is_isomorphism(z4, z2, [(1,)])
    # Z/4 -> Z/4 identity
    assert hom_is_isomorphism(z4, z4, [(1,)])


# References: the per-target solver and the three-part isomorphism test
# (well-defined, surjective, injective through the kernel lattice) that the
# batched solver and the invariant-based test replaced.

def _ref_solve(rows, n, target):
    mat = IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, n)
    U, D, V = smith_normal_form(mat)
    k = mat.rows
    w = [sum(target[i] * V.data[i][j] for i in range(n)) for j in range(n)]
    z = [0] * k
    diag = D.diagonal()
    for j in range(n):
        d = diag[j] if j < len(diag) else 0
        if d:
            if w[j] % d:
                return None
            z[j] = w[j] // d
        elif w[j]:
            return None
    return [sum(z[i] * U.data[i][j] for i in range(k)) for j in range(k)]


def _ref_contains(rows, n, target):
    return _ref_solve(rows, n, target) is not None


def _ref_hom_is_isomorphism(src_rel, tgt_rel, gen_matrix, n_src, n_tgt):
    if not all(_ref_contains(tgt_rel, n_tgt, apply_rows(row, gen_matrix, n_tgt))
               for row in src_rel):
        return False
    onto_rows = [list(r) for r in gen_matrix] + [list(r) for r in tgt_rel]
    if not all(_ref_contains(onto_rows, n_tgt, [int(i == j) for j in range(n_tgt)])
               for i in range(n_tgt)):
        return False
    kernel = hom_kernel_lattice(AbPresentation(n_src, src_rel),
                                AbPresentation(n_tgt, tgt_rel), gen_matrix)
    return all(_ref_contains(src_rel, n_src, row) for row in kernel)


def _int_rows(n, min_rows, max_rows, bound):
    return st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                    min_size=min_rows, max_size=max_rows)


@st.composite
def _lattice_and_targets(draw):
    n = draw(st.integers(0, 4))
    rows = draw(_int_rows(n, 0, 4, 9))
    coeffs = draw(_int_rows(len(rows), 0, 3, 3))
    members = [apply_rows(c, rows, n) for c in coeffs]
    return rows, n, members, draw(_int_rows(n, 0, 3, 9))


@settings(max_examples=300, deadline=None)
@given(_lattice_and_targets())
def test_solve_row_combinations_matches_per_target_solver(case):
    # dependent rows have many exact solutions: compare which targets are
    # solved, and check that each solution reproduces its target
    rows, n, members, others = case
    targets = members + others
    sols = solve_row_combinations(rows, n, targets)
    assert ([c is None for c in sols]
            == [_ref_solve(rows, n, t) is None for t in targets])
    assert None not in sols[:len(members)]
    for target, c in zip(targets, sols):
        if c is not None:
            assert apply_rows(c, rows, n) == target


@st.composite
def _presented_maps(draw):
    """(src relations, n_src, tgt relations, n_tgt, generator matrix); half
    the draws are a change of basis x -> xU onto the transformed relations
    (an isomorphism), sometimes spoiled by one extra target relation."""
    n_src = draw(st.integers(0, 3))
    src_rel = draw(_int_rows(n_src, 0, 3, 6))
    if draw(st.booleans()):
        u = [[int(i == j) for j in range(n_src)] for i in range(n_src)]
        if n_src >= 2:
            ops = draw(st.lists(st.tuples(st.integers(0, n_src - 1),
                                          st.integers(0, n_src - 1),
                                          st.integers(-3, 3)), max_size=4))
            for i, j, q in ops:
                if i != j:
                    u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        tgt_rel = [apply_rows(r, u, n_src) for r in src_rel]
        tgt_rel += draw(_int_rows(n_src, 0, 1, 3))
        return src_rel, n_src, tgt_rel, n_src, u
    n_tgt = draw(st.integers(0, 3))
    tgt_rel = draw(_int_rows(n_tgt, 0, 3, 6))
    gen = draw(_int_rows(n_tgt, n_src, n_src, 4))
    return src_rel, n_src, tgt_rel, n_tgt, gen


@settings(max_examples=400, deadline=None)
@given(_presented_maps())
def test_hom_is_isomorphism_matches_three_part_check(case):
    src_rel, n_src, tgt_rel, n_tgt, gen = case
    src, tgt = AbPresentation(n_src, src_rel), AbPresentation(n_tgt, tgt_rel)
    assert (hom_is_isomorphism(src, tgt, gen)
            == _ref_hom_is_isomorphism(src_rel, tgt_rel, gen, n_src, n_tgt))


@settings(max_examples=300, deadline=None)
@given(_presented_maps())
def test_presentation_queries_match_the_solver(case):
    src_rel, n_src, tgt_rel, n_tgt, gen = case
    tgt = AbPresentation(n_tgt, tgt_rel)
    vectors = ([apply_rows(row, gen, n_tgt) for row in src_rel]
               + [list(row) for row in gen] + [list(row) for row in tgt_rel])
    assert tgt.kills(vectors) == [
        c is not None for c in solve_row_combinations(tgt_rel, n_tgt, vectors)]
    assert (tgt.generated_by(gen)
            == AbPresentation(n_tgt, list(gen) + list(tgt_rel)).is_trivial())


def test_hom_is_isomorphism_reuses_the_target_elimination(morita, monkeypatch):
    # the oracle's comparison maps for F2-modules of rank 1 and 2, where
    # (1) + (1) = (2) gives both presentations relations
    from ringoids import k0_bounded
    from ringoids import intlinalg
    from ringoids.nerve import k0_via_nerve

    objects = list(morita.objects)
    k0 = k0_bounded(morita, 3).presentation
    nerve = k0_via_nerve(morita, 3)
    sums = list(nerve.generator_sums)
    fwd = [[int(s == (a,)) for s in sums] for a in objects]
    index = {a: i for i, a in enumerate(objects)}
    bwd = [exponent_row(index, s) for s in sums]
    built = []

    class CountingElimination(intlinalg.Elimination):
        def __init__(self, rows, n):
            built.append({tuple(row) for row in rows})
            super().__init__(rows, n)

    monkeypatch.setattr(intlinalg, "Elimination", CountingElimination)
    assert hom_is_isomorphism(k0, nerve.abelianized, fwd)
    assert hom_is_isomorphism(nerve.abelianized, k0, bwd)
    assert built  # the onto test presents the small reduced group
    for tgt in (k0, nerve.abelianized):
        assert tgt.relations
        assert not any(set(tgt.relations) <= rows for rows in built)


# ---------------------------------------------------------------------------
# The sparse unit-pivot elimination against the dense Smith normal form.
# ---------------------------------------------------------------------------

def _dense_invariants(rows, n):
    diag = smith_normal_form(IntMatrix.from_rows(rows))[1].diagonal() if rows else []
    nonzero = [d for d in diag if d]
    return n - len(nonzero), tuple(d for d in nonzero if d >= 2)


def _eliminated_invariants(elim):
    # the residue presents the group on the free (never pivoted) columns
    return _dense_invariants(elim.residue_matrix()[1], elim.n - len(elim.pivots))


@st.composite
def _relation_matrices(draw):
    """Up to 12 x 8.  Half the draws plant +-1 entries among small ones;
    the other half have no +-1 entry, so nothing is eliminated."""
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    else:
        entries = st.integers(-9, 9).filter(lambda x: x not in (1, -1))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=12))
    return rows, n


@settings(max_examples=300, deadline=None)
@given(_relation_matrices())
def test_elimination_invariants_match_dense_snf(case):
    rows, n = case
    want = _dense_invariants(rows, n)
    elim = Elimination(rows, n)
    assert _eliminated_invariants(elim) == want
    p = AbPresentation(n, rows)
    assert (p.rank, p.torsion) == want
    for j, unit, row, _ in elim.pivots:
        assert row[j] == unit and unit in (1, -1)
    assert all(row for row, _ in elim.residue)


@settings(max_examples=300, deadline=None)
@given(_relation_matrices(), st.data())
def test_elimination_solver_matches_dense_solver(case, data):
    rows, n = case
    coeffs = data.draw(_int_rows(len(rows), 0, 3, 3))
    targets = [apply_rows(c, rows, n) for c in coeffs]
    targets += data.draw(_int_rows(n, 0, 3, 9))
    ref = [_ref_solve(rows, n, t) for t in targets]
    sols = Elimination(rows, n).solve(targets)
    assert [c is None for c in sols] == [c is None for c in ref]
    for target, c in zip(targets, sols):
        if c is not None:
            assert apply_rows(c, rows, n) == target


def test_elimination_clears_unit_relations():
    # x0 = -x1 and x1 = 2 x2 leave Z/4 on x2 from the last relation
    rows = [[1, 1, 0], [0, 1, -2], [0, 0, 4], [2, 2, 0]]
    elim = Elimination(rows, 3)
    assert len(elim.pivots) == 2
    assert [row for row, _ in elim.residue] == [{2: 4}]
    assert elim.fate[3] is None  # a multiple of the first row vanishes
    assert AbPresentation(3, rows) == AbPresentation.cyclic(4)


def _tamper_pivot_sign(elim):
    j, unit, row, comb = elim.pivots[0]
    elim.pivots[0] = (j, -unit, row, comb)


def _tamper_pivot_entry(elim):
    j, unit, row, comb = elim.pivots[0]
    elim.pivots[0] = (j, unit, {k: x + (k != j) for k, x in row.items()}, comb)


def _tamper_pivot_combination(elim):
    j, unit, row, comb = elim.pivots[-1]
    elim.pivots[-1] = (j, unit, row, {i: -c for i, c in comb.items()})


def _tamper_residue_combination(elim):
    row, comb = elim.residue[0]
    elim.residue[0] = (row, {i: 2 * c for i, c in comb.items()})


def _tamper_fate(elim):
    elim.fate[0] = (0, 1)


@pytest.mark.parametrize("tamper", [_tamper_pivot_sign, _tamper_pivot_entry,
                                    _tamper_pivot_combination,
                                    _tamper_residue_combination, _tamper_fate])
def test_tampered_elimination_raises(tamper):
    rows = [[1, 2, 0, 0], [0, 3, 1, 0], [0, 2, 0, 5], [1, 0, 1, 5]]
    elim = Elimination(rows, 4)
    assert elim.pivots and elim.residue
    tamper(elim)
    with pytest.raises(ArithmeticError):
        elim.certify()


def test_tampered_combination_fails_the_solution_check():
    rows = [[1, 2, 0, 0], [0, 3, 1, 0], [0, 2, 0, 5], [1, 0, 1, 5]]
    elim = Elimination(rows, 4)
    j, unit, row, comb = elim.pivots[0]
    elim.pivots[0] = (j, unit, row, {i: -c for i, c in comb.items()})
    with pytest.raises(ArithmeticError):
        elim.solve([rows[0]])


def echelon_lattice_basis(rows, n):
    """Reference: an independent basis of the row lattice by integer row
    echelon, each new row reduced against the basis row with the same
    pivot column by the extended Euclidean algorithm."""
    basis = []  # kept sorted by pivot column, each row led by its pivot
    for vec in rows:
        vec = list(vec)
        j = 0
        while True:
            while j < n and vec[j] == 0:
                j += 1
            if j == n:
                break
            pos = next((idx for idx, (pj, _) in enumerate(basis) if pj == j), None)
            if pos is None:
                basis.append((j, vec))
                basis.sort(key=lambda t: t[0])
                break
            row = basis[pos][1]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, n):
                    vec[k] -= q * row[k]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, n):
                    rk, vk = row[k], vec[k]
                    row[k] = x * rk + y * vk
                    vec[k] = -bg * rk + ag * vk
    return [row for _, row in basis]


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


@settings(max_examples=300, deadline=None)
@given(_relation_matrices())
def test_lattice_basis_matches_echelon_reference(case):
    rows, n = case
    basis = lattice_basis(rows, n)
    ref = echelon_lattice_basis(rows, n)
    assert len(basis) == len(ref)
    assert lattices_equal(basis, ref, n)
    assert lattices_equal(basis, rows, n)
    # independent: as many rows as the rank of the lattice
    assert len(left_kernel_rows(basis, n)) == 0
