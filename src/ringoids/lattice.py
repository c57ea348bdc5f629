"""Smith normal form of dense integer matrices, and the row-lattice
questions asked outside an `AbPresentation`.

`smith_normal_form` returns its transform certificates.
`solve_row_combinations`, `lattice_contains` and `lattices_equal` go
through `intlinalg.Elimination`; `left_kernel_rows`, `lattice_basis`,
`hom_kernel_lattice` and `kernel_presentation` read a dense Smith normal
form of their own.  `intlinalg` imports this module only when an
elimination leaves a non-empty residue, so a process whose relations all
eliminate compiles none of it.
"""

from __future__ import annotations

from .intlinalg import AbPresentation, Elimination, _sparse


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        data = tuple(tuple(int(x) for x in row) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("entry count does not match %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows_list):
        rows_list = [list(r) for r in rows_list]
        r = len(rows_list)
        c = len(rows_list[0]) if rows_list else 0
        return cls(r, c, rows_list)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        od = other.data
        out = []
        for row in self.data:
            out.append(tuple(
                sum(row[k] * od[k][j] for k in range(self.cols))
                for j in range(other.cols)))
        return IntMatrix(self.rows, other.cols, out)

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.data])


def smith_normal_form(m):
    """Return (U, D, V) with U*m*V = D, U and V unimodular, D diagonal
    with d1 | d2 | ... and every d_i >= 0.  Deterministic pivot choice."""
    r, c = m.rows, m.cols
    a = [list(row) for row in m.data]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_sub(i, j, q):
        ai, aj = a[i], a[j]
        ui, uj = u[i], u[j]
        for k in range(c):
            ai[k] -= q * aj[k]
        for k in range(r):
            ui[k] -= q * uj[k]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_sub(j, k, q):
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(r, c):
        # smallest |entry| pivot in the trailing submatrix (first in scan order)
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        while True:
            # clear column t below the pivot
            restart = False
            for i in range(t + 1, r):
                x = a[i][t]
                if x == 0:
                    continue
                p = a[t][t]
                q = x // p
                row_sub(i, t, q)
                if a[i][t]:
                    row_swap(i, t)
                    restart = True
                    break
            if restart:
                continue
            # clear row t to the right of the pivot
            for j in range(t + 1, c):
                x = a[t][j]
                if x == 0:
                    continue
                p = a[t][t]
                q = x // p
                col_sub(j, t, q)
                if a[t][j]:
                    col_swap(j, t)
                    restart = True
                    break
            if restart:
                continue
            # pivot must divide the rest of the submatrix for the chain
            p = a[t][t]
            bad = None
            for i in range(t + 1, r):
                if any(a[i][j] % p for j in range(t + 1, c)):
                    bad = i
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)  # fold the offending row into row t
        t += 1
    for i in range(min(r, c)):
        if a[i][i] < 0:
            for k in range(c):
                a[i][k] = -a[i][k]
            for k in range(r):
                u[i][k] = -u[i][k]
    U = IntMatrix(r, r, u)
    D = IntMatrix(r, c, a)
    V = IntMatrix(c, c, v)
    if __debug__:
        assert U.mul(m).mul(V) == D, "SNF postcondition U*m*V = D failed"
        diag = D.diagonal()
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1) if diag[i]), \
            "SNF divisibility chain failed"
    return U, D, V


# ---------------------------------------------------------------------------
# Row lattices.  A lattice in Z^n is given by a list of generator rows.
# ---------------------------------------------------------------------------

def _snf_of_rows(rows, n):
    rows = [_sparse(row, n) for row in rows]
    mat = IntMatrix(len(rows), n, [[row.get(j, 0) for j in range(n)] for row in rows])
    return mat, smith_normal_form(mat)


def solve_row_combinations(rows, n, targets):
    """For each target, coefficients c with sum(c_i * rows_i) == target, or
    None when the target is outside the row lattice.  One factorization of
    the rows serves every target: the sparse elimination, then one Smith
    normal form of its residue."""
    if not targets:
        return []
    elim = Elimination(rows, n)
    return [None if c is None else [c.get(i, 0) for i in range(len(elim.rows))]
            for c in elim.solve(targets)]


def lattice_contains(rows, n, target):
    return AbPresentation(n, rows).kills([target])[0]


def lattices_equal(rows_a, rows_b, n):
    return (all(AbPresentation(n, rows_b).kills(rows_a))
            and all(AbPresentation(n, rows_a).kills(rows_b)))


def left_kernel_rows(rows, n):
    """Basis rows of {z : z * M == 0} for the matrix M with the given rows."""
    mat, (U, D, V) = _snf_of_rows(rows, n)
    rank = sum(1 for d in D.diagonal() if d)
    return [list(U.data[i]) for i in range(rank, mat.rows)]


def lattice_basis(rows, n):
    """Independent basis of the row lattice: the first rank rows of U * M
    for the Smith normal form U * M * V = D of the matrix M of the rows.
    U is unimodular, so the rows of U * M = D * V^-1 span the lattice, and
    those past the rank are zero."""
    mat, (U, D, _) = _snf_of_rows(rows, n)
    rank = sum(1 for d in D.diagonal() if d)
    return [list(row) for row in U.mul(mat).data[:rank]]


def hom_kernel_lattice(src, tgt, gen_matrix):
    """Basis rows of {x : x*G in the relation lattice of tgt} plus the
    relation lattice of src, as vectors over the source generators."""
    zk = left_kernel_rows(list(gen_matrix) + list(tgt.relations), tgt.generators)
    projected = [z[:src.generators] for z in zk]
    return lattice_basis(projected + list(src.relations), src.generators)


def kernel_presentation(src, tgt, gen_matrix):
    """Presentation of the kernel of the map src -> tgt of presented groups,
    plus its basis rows (each basis row is a vector over the source
    generators)."""
    basis = hom_kernel_lattice(src, tgt, gen_matrix)
    rel_rows = solve_row_combinations(basis, src.generators, src.relations)
    if None in rel_rows:
        raise ArithmeticError("source relation escapes the kernel lattice")
    return AbPresentation(len(basis), rel_rows), basis
