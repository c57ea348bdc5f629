"""Exact integer linear algebra.

Smith normal form with transform certificates, row-lattice solvers, and
finitely presented abelian groups in (rank, torsion chain) normal form.
All arithmetic is arbitrary-precision Python integers; no floating point.
"""

from __future__ import annotations


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

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r, c):
        return cls(r, c, [[0] * c for _ in range(r)])

    def entry(self, i, j):
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

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

    def __matmul__(self, other):
        return self.mul(other)

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def is_diagonal(self):
        return all(self.data[i][j] == 0
                   for i in range(self.rows) for j in range(self.cols) if i != j)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.data])


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def unimodular_inverse(m):
    """Inverse of a unimodular integer matrix (via the adjugate)."""
    n = m.rows
    det = determinant(m)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = IntMatrix(n - 1, n - 1,
                              [[m.data[p][q] for q in range(n) if q != i]
                               for p in range(n) if p != j])
            row.append((-1) ** (i + j) * determinant(minor))
        adj.append(row)
    if det == -1:
        adj = [[-x for x in row] for row in adj]
    return IntMatrix(n, n, adj)


# ---------------------------------------------------------------------------
# Row lattices.  A lattice in Z^n is given by a list of generator rows.
# ---------------------------------------------------------------------------

def _snf_of_rows(rows, n):
    mat = IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, n)
    if mat.cols != n:
        raise ValueError("row length mismatch")
    return mat, smith_normal_form(mat)


def solve_row_combinations(rows, n, targets):
    """For each target, coefficients c with sum(c_i * rows_i) == target, or
    None when the target is outside the row lattice.  One Smith normal form
    of the rows serves every target."""
    if not targets:
        return []
    mat, (U, D, V) = _snf_of_rows(rows, n)
    k = mat.rows
    diag = D.diagonal()
    diag += [0] * (n - len(diag))
    out = []
    for target in targets:
        w = [sum(target[i] * V.data[i][j] for i in range(n)) for j in range(n)]
        if any(w[j] % d if d else w[j] for j, d in enumerate(diag)):
            out.append(None)
            continue
        z = [w[j] // d if d else 0 for j, d in enumerate(diag[:k])] + [0] * (k - n)
        out.append([sum(z[i] * U.data[i][j] for i in range(k)) for j in range(k)])
    return out


def lattice_contains(rows, n, target):
    return solve_row_combinations(rows, n, [target])[0] is not None


def lattices_equal(rows_a, rows_b, n):
    return (None not in solve_row_combinations(rows_b, n, rows_a)
            and None not in solve_row_combinations(rows_a, n, rows_b))


def left_kernel_rows(rows, n):
    """Basis rows of {z : z * M == 0} for the matrix M with the given rows."""
    mat, (U, D, V) = _snf_of_rows(rows, n)
    rank = sum(1 for d in D.diagonal() if d)
    return [list(U.data[i]) for i in range(rank, mat.rows)]


def lattice_basis(rows, n):
    """Independent basis of the row lattice, by integer row echelon."""
    basis = []  # kept sorted by pivot column, each row led by its pivot
    for vec in rows:
        vec = list(vec)
        j = 0
        while True:
            while j < n and vec[j] == 0:
                j += 1
            if j == n:
                break
            pos = None
            for idx, (pj, _) in enumerate(basis):
                if pj == j:
                    pos = idx
                    break
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


# ---------------------------------------------------------------------------
# Finitely presented abelian groups.
# ---------------------------------------------------------------------------

class AbPresentation:
    """Finitely presented abelian group, normalized by Smith normal form.

    Two presentations compare equal exactly when their normal forms
    (free rank, torsion divisibility chain) coincide.
    """

    __slots__ = ("generators", "relations", "rank", "torsion")

    def __init__(self, generators, relations=()):
        self.generators = int(generators)
        self.relations = tuple(tuple(int(x) for x in row) for row in relations)
        for row in self.relations:
            if len(row) != self.generators:
                raise ValueError("relation length does not match generator count")
        if self.relations:
            _, D, _ = smith_normal_form(IntMatrix.from_rows(self.relations))
            diag = D.diagonal()
        else:
            diag = []
        nonzero = [d for d in diag if d]
        self.rank = self.generators - len(nonzero)
        self.torsion = tuple(d for d in nonzero if d >= 2)

    @classmethod
    def free(cls, n):
        return cls(n)

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def cyclic(cls, n):
        return cls(1, [(n,)])

    def direct_sum(self, other):
        rows = [row + (0,) * other.generators for row in self.relations]
        rows += [(0,) * self.generators + row for row in other.relations]
        return AbPresentation(self.generators + other.generators, rows)

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.rank:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def __eq__(self, other):
        if not isinstance(other, AbPresentation):
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "AbPresentation(rank=%d, torsion=%r)" % (self.rank, list(self.torsion))


def cokernel(m):
    """Presentation of Z^cols modulo the row span of m."""
    return AbPresentation(m.cols, m.data)


# ---------------------------------------------------------------------------
# Homomorphisms between presented abelian groups.
#
# A map Z^m/A -> Z^n/B is given by a generator matrix G (m rows, row i is
# the image of the i-th source generator, as a vector over the n target
# generators).
# ---------------------------------------------------------------------------

def hom_well_defined(src_rel, tgt_rel, gen_matrix, n_tgt):
    """Check every source relation maps into the target relation lattice.
    Returns (ok, offending_relation_or_None)."""
    images = [apply_rows(row, gen_matrix, n_tgt) for row in src_rel]
    solutions = solve_row_combinations(tgt_rel, n_tgt, images)
    for row, sol in zip(src_rel, solutions):
        if sol is None:
            return False, row
    return True, None


def apply_rows(vec, matrix, n_out):
    """The integer row vector vec times matrix (n_out columns).  Rows of
    matrix under a zero coefficient are never read."""
    out = [0] * n_out
    for i, c in enumerate(vec):
        if c:
            row = matrix[i]
            for j in range(n_out):
                out[j] += c * row[j]
    return out


def hom_kernel_lattice(src_rel, tgt_rel, gen_matrix, n_src, n_tgt):
    """Basis rows of {x in Z^n_src : x*G in lattice(tgt_rel)} + lattice(src_rel)."""
    stacked = [list(r) for r in gen_matrix] + [list(r) for r in tgt_rel]
    zk = left_kernel_rows(stacked, n_tgt)
    projected = [z[:n_src] for z in zk]
    return lattice_basis(projected + [list(r) for r in src_rel], n_src)


def hom_is_isomorphism(src, tgt, gen_matrix):
    """Whether gen_matrix defines an isomorphism between the presented groups
    src and tgt.  A well-defined map onto tgt with src isomorphic to tgt is
    injective too: finitely generated abelian groups are Noetherian, so a
    surjective endomorphism of one is injective."""
    return (src == tgt
            and hom_well_defined(src.relations, tgt.relations, gen_matrix,
                                 tgt.generators)[0]
            and AbPresentation(tgt.generators,
                               list(gen_matrix) + list(tgt.relations)).is_trivial())


def kernel_presentation(src_rel, tgt_rel, gen_matrix, n_src, n_tgt):
    """Presentation of ker(Z^n_src/A -> Z^n_tgt/B) plus its basis rows
    (each basis row is a vector over the source generators)."""
    basis = hom_kernel_lattice(src_rel, tgt_rel, gen_matrix, n_src, n_tgt)
    rel_rows = solve_row_combinations(basis, n_src, src_rel)
    if None in rel_rows:
        raise ArithmeticError("source relation escapes the kernel lattice")
    return AbPresentation(len(basis), rel_rows), basis
