"""Exact integer linear algebra.

Smith normal form with transform certificates, row-lattice solvers, and
finitely presented abelian groups in (rank, torsion chain) normal form.
All arithmetic is arbitrary-precision Python integers; no floating point.

Relation rows over named generators are written by `exponent_row`.  Every
relation matrix of an `AbPresentation`, and every lattice of
`solve_row_combinations`, first goes through `Elimination`, a certified
sparse unit-pivot elimination (abelian Tietze moves).  Only its residue
reaches the dense Smith normal form.  A presentation keeps its elimination
and answers its own lattice questions from it: whether vectors are zero in
the group (`kills`) and whether rows map onto it (`generated_by`).
`left_kernel_rows` and `lattice_basis` use the dense form directly.
"""

from __future__ import annotations

import heapq
import itertools


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

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

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


# ---------------------------------------------------------------------------
# Row lattices.  A lattice in Z^n is given by a list of generator rows.
# ---------------------------------------------------------------------------

def exponent_row(index, plus=(), minus=()):
    """The relation row +1 per generator in plus, -1 per generator in minus,
    repeats adding up.  index maps a generator to its position: a dict over
    named generators (a missing one raises KeyError), or range(n) when the
    generators are the positions themselves."""
    row = [0] * len(index)
    for g in plus:
        row[index[g]] += 1
    for g in minus:
        row[index[g]] -= 1
    return row


def _snf_of_rows(rows, n):
    mat = IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, n)
    if mat.cols != n:
        raise ValueError("row length mismatch")
    return mat, smith_normal_form(mat)


def _dense_solve(rows, n, targets):
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
        c = [sum(z[i] * U.data[i][j] for i in range(k)) for j in range(k)]
        if apply_rows(c, rows, n) != list(target):
            raise ArithmeticError("solution does not reproduce its target")
        out.append(c)
    return out


def solve_row_combinations(rows, n, targets):
    """For each target, coefficients c with sum(c_i * rows_i) == target, or
    None when the target is outside the row lattice.  One factorization of
    the rows serves every target: the sparse elimination, then one Smith
    normal form of its residue."""
    if not targets:
        return []
    return Elimination(rows, n).solve(targets)


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
    """Independent basis of the row lattice: the first rank rows of U * M
    for the Smith normal form U * M * V = D of the matrix M of the rows.
    U is unimodular, so the rows of U * M = D * V^-1 span the lattice, and
    those past the rank are zero."""
    mat, (U, D, _) = _snf_of_rows(rows, n)
    rank = sum(1 for d in D.diagonal() if d)
    return [list(row) for row in U.mul(mat).data[:rank]]


# ---------------------------------------------------------------------------
# Sparse unit-pivot elimination.  A relation with a +-1 coefficient on a
# generator solves for that generator, which is then substituted out of
# every other relation: the abelian Tietze move, which preserves the group
# (Havas, Holt and Rees, "Recognizing badly presented Z-modules", Linear
# Algebra Appl. 192, 1993; Sims, "Computation with Finitely Presented
# Groups", 1994, ch. 8).  Only the residue reaches the dense Smith normal
# form.  Rows are dicts {column: non-zero entry}.
# ---------------------------------------------------------------------------

def _sparse(row):
    return dict(itertools.compress(enumerate(row), row))


def _add_multiple(acc, q, vec):
    """acc += q * vec, in place, on sparse rows."""
    for k, x in vec.items():
        y = acc.get(k, 0) + q * x
        if y:
            acc[k] = y
        else:
            acc.pop(k, None)


class Elimination:
    """Sparse unit-pivot elimination of the relation rows of Z^n / <rows>.

    It repeatedly takes the rarest column (fewest active rows, lowest index
    on ties) holding a +-1 entry, takes the shortest active row with a unit
    there (lowest index on ties) as pivot, and clears the column from every
    other active row.  Column counts are updated as rows change, never
    recounted.  Pivot rows leave the active set, and rows that reach zero
    vanish.  The distinct non-zero active rows left, up to sign, are the
    residue; they live on the free (never pivoted) columns.

    Each pivot and residue row records the combination of original rows
    that produced it, as a dict {row index: coefficient}.  The constructor
    certifies the elimination and raises ArithmeticError when a check fails:
      - every recorded combination reproduces its pivot or residue row;
      - the substitution map (`substitute`) sends each original row to its
        residue row, up to sign, or to 0 when the row became a pivot or
        vanished, and leaves no pivot column in what it returns;
      - no residue row touches a pivot column.
    Then the substitution map and the inclusion of the free columns are
    mutually inverse isomorphisms Z^n / <rows> <-> Z^free / <residue>.
    """

    __slots__ = ("n", "rows", "pivots", "residue", "fate", "_order")

    def __init__(self, rows, n):
        if any(len(row) != n for row in rows):
            raise ValueError("row length mismatch")
        self.n = n
        self.rows = [_sparse(row) for row in rows]
        # pivots[k] = (column, unit, row, combination)
        self.pivots = []
        # residue[m] = (row, combination)
        self.residue = []
        # fate[i]: None when row i became a pivot or vanished, else (m, sign)
        # with row i reduced to sign * residue[m]
        self.fate = [None] * len(self.rows)
        self._order = {}
        active = {i: (dict(row), {i: 1}) for i, row in enumerate(self.rows) if row}
        col_rows = {}
        for i, (row, _) in active.items():
            for j in row:
                col_rows.setdefault(j, set()).add(i)
        heap = [(len(rs), j) for j, rs in col_rows.items()]
        heapq.heapify(heap)
        while heap:
            count, j = heapq.heappop(heap)
            rs = col_rows.get(j)
            if not rs or len(rs) != count:
                continue
            best = min(((len(active[i][0]), i) for i in rs
                        if active[i][0][j] in (1, -1)), default=None)
            if best is None:
                continue
            pivot, comb = active.pop(best[1])
            unit = pivot[j]
            for k in pivot:
                col_rows[k].discard(best[1])
            for i in list(rs):
                row, row_comb = active[i]
                q = -row[j] * unit
                for k, x in pivot.items():
                    y = row.get(k, 0) + q * x
                    if y:
                        if k not in row:
                            col_rows[k].add(i)
                        row[k] = y
                    elif k in row:
                        del row[k]
                        col_rows[k].discard(i)
                _add_multiple(row_comb, q, comb)
                if not row:
                    del active[i]
            del col_rows[j]
            for k in pivot:
                if k != j and col_rows[k]:
                    heapq.heappush(heap, (len(col_rows[k]), k))
            self._order[j] = len(self.pivots)
            self.pivots.append((j, unit, pivot, comb))
        seen = {}
        for i in sorted(active):
            row, comb = active[i]
            sign = 1 if row[min(row)] > 0 else -1
            key = tuple(sorted((k, sign * x) for k, x in row.items()))
            if key not in seen:
                seen[key] = (len(self.residue), sign)
                self.residue.append((row, comb))
            m, kept_sign = seen[key]
            self.fate[i] = (m, sign * kept_sign)
        self.certify()

    def combine(self, comb):
        """The sparse row sum(c_i * rows_i) for a combination {i: c_i}."""
        out = {}
        for i, c in comb.items():
            _add_multiple(out, c, self.rows[i])
        return out

    def substitute(self, vec):
        """Reduce the sparse vector vec through the pivots in order; returns
        (coefficients {pivot index: q}, residual over the free columns)
        with vec == sum(q_k * pivot_k) + residual."""
        v = dict(vec)
        coef = {}
        order = self._order
        heap = [order[j] for j in v if j in order]
        heapq.heapify(heap)
        while heap:
            k = heapq.heappop(heap)
            j, unit, pivot, _ = self.pivots[k]
            x = v.get(j)
            if not x or k in coef:
                continue
            q = x * unit
            coef[k] = q
            for col, y in pivot.items():
                z = v.get(col, 0) - q * y
                if z:
                    if col not in v and col in order:
                        heapq.heappush(heap, order[col])
                    v[col] = z
                else:
                    v.pop(col, None)
        if any(j in order for j in v):
            raise ArithmeticError("substitution left a pivot column")
        return coef, v

    def certify(self):
        """Raise ArithmeticError unless the checks in the class docstring
        hold."""
        for _, _, row, comb in self.pivots:
            if self.combine(comb) != row:
                raise ArithmeticError("combination does not reproduce its pivot row")
        for row, comb in self.residue:
            if self.combine(comb) != row:
                raise ArithmeticError("combination does not reproduce its residue row")
            if any(j in self._order for j in row):
                raise ArithmeticError("residue row touches a pivot column")
        for row, fate in zip(self.rows, self.fate):
            want = {}
            if fate is not None:
                m, sign = fate
                want = {k: sign * x for k, x in self.residue[m][0].items()}
            if self.substitute(row)[1] != want:
                raise ArithmeticError("substitution map does not send a relation "
                                      "to its residue row")

    def residue_matrix(self):
        """(columns, dense rows): the residue over the columns it touches."""
        cols = sorted({k for row, _ in self.residue for k in row})
        return cols, [[row.get(k, 0) for k in cols] for row, _ in self.residue]

    def solve(self, targets):
        """`solve_row_combinations` through the elimination: each target is
        substituted through the pivots, its residual is solved against the
        residue by the dense Smith normal form, and the coefficients are
        mapped back to the original rows.  Every solution is checked."""
        cols, residue_rows = self.residue_matrix()
        pos = {k: x for x, k in enumerate(cols)}
        reduced = []  # (pivot coefficients, dense residual or None)
        for target in targets:
            coef, v = self.substitute(_sparse(target))
            vec = None
            if all(k in pos for k in v):
                vec = [0] * len(cols)
                for k, x in v.items():
                    vec[pos[k]] = x
            reduced.append((coef, vec))
        sols = iter(_dense_solve(residue_rows, len(cols),
                                 [vec for _, vec in reduced if vec is not None]))
        out = []
        for target, (coef, vec) in zip(targets, reduced):
            z = None if vec is None else next(sols)
            if z is None:
                out.append(None)
                continue
            c = {}
            for k, q in coef.items():
                _add_multiple(c, q, self.pivots[k][3])
            for (_, comb), q in zip(self.residue, z):
                if q:
                    _add_multiple(c, q, comb)
            if self.combine(c) != _sparse(target):
                raise ArithmeticError("solution does not reproduce its target")
            out.append([c.get(i, 0) for i in range(len(self.rows))])
        return out


# ---------------------------------------------------------------------------
# Finitely presented abelian groups.
# ---------------------------------------------------------------------------

class AbPresentation:
    """Finitely presented abelian group, normalized by Smith normal form.

    Two presentations compare equal exactly when their normal forms
    (free rank, torsion divisibility chain) coincide.  `relations` keeps
    the rows as given, and `elimination` is their one factorization: the
    invariants come from the Smith normal form of its residue, and the
    lattice questions about the group (`kills`, `generated_by`) are
    answered from it too, so the relations are never eliminated again.
    """

    __slots__ = ("generators", "relations", "elimination", "rank", "torsion")

    def __init__(self, generators, relations=()):
        self.generators = int(generators)
        self.relations = tuple(tuple(map(int, row)) for row in relations)
        for row in self.relations:
            if len(row) != self.generators:
                raise ValueError("relation length does not match generator count")
        self.elimination = elim = Elimination(self.relations, self.generators)
        rows = elim.residue_matrix()[1]
        diag = smith_normal_form(IntMatrix.from_rows(rows))[1].diagonal() if rows else []
        nonzero = [d for d in diag if d]
        self.rank = self.generators - len(elim.pivots) - len(nonzero)
        self.torsion = tuple(d for d in nonzero if d >= 2)

    def kills(self, vectors):
        """For each vector over the generators, whether it is zero in the
        group, i.e. lies in the relation lattice.  Every yes is certified by
        a combination of the relations."""
        return [c is not None for c in self.elimination.solve(vectors)]

    def generated_by(self, rows):
        """Whether the rows (vectors over the generators) generate the group.
        Substitution through the pivots is an isomorphism onto the free
        columns modulo the residue, so the rows generate exactly when their
        residuals and the residue present the trivial group there."""
        elim = self.elimination
        free = [j for j in range(self.generators) if j not in elim._order]
        residuals = [elim.substitute(_sparse(row))[1] for row in rows]
        residuals += [row for row, _ in elim.residue]
        return AbPresentation(len(free), [[v.get(j, 0) for j in free]
                                          for v in residuals]).is_trivial()

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

def hom_well_defined(src, tgt, gen_matrix):
    """Check that every relation of the presented source group src maps to
    zero in the presented target group tgt.  Returns (ok,
    offending_relation_or_None)."""
    images = [apply_rows(row, gen_matrix, tgt.generators) for row in src.relations]
    for row, zero in zip(src.relations, tgt.kills(images)):
        if not zero:
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


def hom_kernel_lattice(src, tgt, gen_matrix):
    """Basis rows of {x : x*G in the relation lattice of tgt} plus the
    relation lattice of src, as vectors over the source generators."""
    zk = left_kernel_rows(list(gen_matrix) + list(tgt.relations), tgt.generators)
    projected = [z[:src.generators] for z in zk]
    return lattice_basis(projected + list(src.relations), src.generators)


def hom_is_isomorphism(src, tgt, gen_matrix):
    """Whether gen_matrix defines an isomorphism between the presented groups
    src and tgt: equal invariants, well defined, and onto.  A well-defined
    map onto tgt with src isomorphic to tgt is injective too: finitely
    generated abelian groups are Noetherian, so a surjective endomorphism
    of one is injective.  Both lattice questions go to tgt's elimination."""
    return (src == tgt
            and hom_well_defined(src, tgt, gen_matrix)[0]
            and tgt.generated_by(gen_matrix))


def kernel_presentation(src, tgt, gen_matrix):
    """Presentation of the kernel of the map src -> tgt of presented groups,
    plus its basis rows (each basis row is a vector over the source
    generators)."""
    basis = hom_kernel_lattice(src, tgt, gen_matrix)
    rel_rows = solve_row_combinations(basis, src.generators, src.relations)
    if None in rel_rows:
        raise ArithmeticError("source relation escapes the kernel lattice")
    return AbPresentation(len(basis), rel_rows), basis
