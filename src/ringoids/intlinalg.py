"""Exact integer linear algebra.

Smith normal form with transform certificates, row-lattice solvers, and
finitely presented abelian groups in (rank, torsion chain) normal form.
All arithmetic is arbitrary-precision Python integers; no floating point.

A relation row is a dict {column: non-zero entry} from its writer,
`exponent_row`, to the elimination.  Every relation matrix of an
`AbPresentation`, and every lattice of `solve_row_combinations`, first
goes through `Elimination`, a sparse unit-pivot elimination (abelian
Tietze moves) certified by one substitution pass over its rows.  Only its
residue reaches the dense Smith normal form, once, and the invariants of a
presentation and every solve read that one factorization.  A presentation
answers its own lattice questions from its elimination without combining
rows: whether vectors are zero in the group (`kills`) and whether rows map
onto it (`generated_by`).  Rows are dense only where the Smith normal form
reads them (the residue, `left_kernel_rows` and `lattice_basis`) and in
the coefficients `solve_row_combinations` returns, the one answer carried
back to the original rows.
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

def exponent_row(index, plus=(), minus=()):
    """The relation row +1 per generator in plus, -1 per generator in minus,
    repeats adding up, as the dict {position: non-zero entry}.  index maps a
    generator to its position: a dict over named generators (a missing one
    raises KeyError), or range(n) when the generators are the positions
    themselves."""
    row = {}
    for sign, gens in ((1, plus), (-1, minus)):
        for g in gens:
            j = index[g]
            row[j] = row.get(j, 0) + sign
    return {j: x for j, x in row.items() if x}


def _sparse(row, n=None):
    """The relation row as the dict {column: non-zero entry}: a dict is
    taken as it is, and a dense sequence is converted here, the one place
    that does.  Given n, a row outside Z^n raises ValueError: a dense row of
    another length, or a dict with a column outside range(n)."""
    if isinstance(row, dict):
        if n is not None and not all(0 <= j < n for j in row):
            raise ValueError("row length mismatch")
        return row
    if n is not None and len(row) != n:
        raise ValueError("row length mismatch")
    return dict(itertools.compress(enumerate(row), row))


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


# ---------------------------------------------------------------------------
# Sparse unit-pivot elimination.  A relation with a +-1 coefficient on a
# generator solves for that generator, which is then substituted out of
# every other relation: the abelian Tietze move, which preserves the group
# (Havas, Holt and Rees, "Recognizing badly presented Z-modules", Linear
# Algebra Appl. 192, 1993; Sims, "Computation with Finitely Presented
# Groups", 1994, ch. 8).  Only the residue reaches the dense Smith normal
# form, once per elimination.
# ---------------------------------------------------------------------------

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

    Each pivot and residue row keeps its source, the index of the original
    row it was reduced from.  The constructor certifies the elimination by
    one pass of the substitution map (`substitute`) over the original rows,
    and raises ArithmeticError unless: each row goes to its residue row up
    to sign, or to 0 when it became a pivot or vanished; each residue row
    touches no pivot column and is what its source row goes to; and pivot
    k's source row goes to 0 with coefficient 1 on pivot k and none on a
    later pivot.  By induction on k every pivot and residue row then lies
    in the row lattice, and the substitution map and the inclusion of the
    free columns are mutually inverse isomorphisms
    Z^n / <rows> <-> Z^free / <residue>.

    The residue is factored once, here: `snf` is the Smith normal form
    (U, D, V) of the residue over the free columns it touches (`columns`,
    each mapped to its position), or None when the residue is empty.  The
    invariants of a presentation and every `solve` read it.
    """

    __slots__ = ("n", "rows", "pivots", "residue", "fate", "columns", "snf",
                 "_order")

    def __init__(self, rows, n):
        self.n = n
        self.rows = tuple(_sparse(row, n) for row in rows)
        self.pivots = []  # pivots[k] = (column, unit, row, source)
        self.residue = []  # residue[m] = (row, source)
        # fate[i]: None when row i became a pivot or vanished, else (m, sign)
        # with row i reduced to sign * residue[m]
        self.fate = [None] * len(self.rows)
        self._order = {}
        active = {i: dict(row) for i, row in enumerate(self.rows) if row}
        col_rows = {}
        for i, row in active.items():
            for j in row:
                col_rows.setdefault(j, set()).add(i)
        heap = [(len(rs), j) for j, rs in col_rows.items()]
        heapq.heapify(heap)
        while heap:
            count, j = heapq.heappop(heap)
            rs = col_rows.get(j)
            if not rs or len(rs) != count:
                continue
            _, source = min(((len(active[i]), i) for i in rs
                             if active[i][j] in (1, -1)), default=(0, None))
            if source is None:
                continue
            pivot = active.pop(source)
            unit = pivot[j]
            for k in pivot:
                col_rows[k].discard(source)
            for i in list(rs):
                row = active[i]
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
                if not row:
                    del active[i]
            del col_rows[j]
            for k in pivot:
                if k != j and col_rows[k]:
                    heapq.heappush(heap, (len(col_rows[k]), k))
            self._order[j] = len(self.pivots)
            self.pivots.append((j, unit, pivot, source))
        seen = {}
        for i in sorted(active):
            row = active[i]
            sign = 1 if row[min(row)] > 0 else -1
            key = tuple(sorted((k, sign * x) for k, x in row.items()))
            if key not in seen:
                seen[key] = (len(self.residue), sign)
                self.residue.append((row, i))
            m, kept_sign = seen[key]
            self.fate[i] = (m, sign * kept_sign)
        self.certify()
        self.columns = {k: x for x, k in enumerate(
            sorted({k for row, _ in self.residue for k in row}))}
        self.snf = None
        if self.residue:
            self.snf = smith_normal_form(IntMatrix.from_rows(
                [[row.get(k, 0) for k in self.columns] for row, _ in self.residue]))

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
        for m, (row, source) in enumerate(self.residue):
            if self.fate[source] != (m, 1) or any(j in self._order for j in row):
                raise ArithmeticError("residue row is not its source row's residual")
        pivot_of = {p[3]: k for k, p in enumerate(self.pivots)}
        distinct = len(pivot_of) == len(self.pivots)
        for i, (row, fate) in enumerate(zip(self.rows, self.fate)):
            want = {}
            if fate is not None:
                m, sign = fate
                want = {k: sign * x for k, x in self.residue[m][0].items()}
            coef, residual = self.substitute(row)
            if residual != want:
                raise ArithmeticError("substitution map does not send a relation "
                                      "to its residue row")
            k = pivot_of.pop(i, None)
            if k is not None and (residual or coef.get(k) != 1 or max(coef) != k):
                raise ArithmeticError("pivot row does not substitute from its source row")
        if pivot_of or not distinct:
            raise ArithmeticError("pivot rows have no distinct source rows")

    def solve(self, targets):
        """`solve_row_combinations` through the elimination, each solution a
        combination {row index: coefficient} or None.  A source row is the
        pivots of its substitution plus its residue row or 0: through these,
        the coefficients of `_express` go back to the original rows, residue
        rows first, then each pivot, latest first, once every later step has
        added to it.  Every solution is checked."""
        subs = {}
        out = []
        for target in targets:
            target = _sparse(target)
            found = self._express(target)
            if found is None:
                out.append(None)
                continue
            (coef, z), c = found, {}
            for source, q in itertools.chain(
                    ((source, q) for (_, source), q in zip(self.residue, z)),
                    ((self.pivots[k][3], coef.get(k))
                     for k in range(len(self.pivots) - 1, -1, -1))):
                if q:
                    c[source] = q
                    if source not in subs:
                        subs[source] = self.substitute(self.rows[source])[0]
                    _add_multiple(coef, -q, subs[source])
            if apply_rows(c, self.rows) != target:
                raise ArithmeticError("solution does not reproduce its target")
            out.append(c)
        return out

    def _express(self, target):
        """(q, z) with target == sum(q_k * pivot_k) + sum(z_m * residue_m),
        checked, or None when the sparse target is outside the row lattice.
        Its residual v is solved against the residue: with U * M * V = D for
        the residue matrix M, z * M == v exactly when y * D == v * V for
        y = z * U^-1, and D is diagonal."""
        coef, v = self.substitute(target)
        if any(k not in self.columns for k in v):
            return None
        z = []
        if self.snf is not None:
            U, D, V = self.snf
            w = [sum(x * V.data[self.columns[k]][j] for k, x in v.items())
                 for j in range(D.cols)]
            diag = D.diagonal()
            if any(w[len(diag):]) or any(wj % d if d else wj for wj, d in zip(w, diag)):
                return None
            y = [wj // d if d else 0 for wj, d in zip(w, diag)] + [0] * (U.rows - len(diag))
            z = [sum(y[i] * U.data[i][m] for i in range(U.rows)) for m in range(U.rows)]
        got = {}
        for q, row in itertools.chain(((q, self.pivots[k][2]) for k, q in coef.items()),
                                      zip(z, (row for row, _ in self.residue))):
            _add_multiple(got, q, row)
        if got != target:
            raise ArithmeticError("pivots and residue do not reproduce the target")
        return coef, z


# ---------------------------------------------------------------------------
# Finitely presented abelian groups.
# ---------------------------------------------------------------------------

class AbPresentation:
    """Finitely presented abelian group, normalized by Smith normal form.

    Two presentations compare equal exactly when their normal forms
    (free rank, torsion divisibility chain) coincide.  `relations` keeps
    the rows as given (a dense row converted), and `elimination` is their
    one factorization: the invariants come from the Smith normal form it
    keeps of its residue, and the lattice questions about the group
    (`kills`, `generated_by`) are answered from it too, so the relations
    are never factored again.
    """

    __slots__ = ("generators", "relations", "elimination", "rank", "torsion")

    def __init__(self, generators, relations=()):
        self.generators = int(generators)
        self.elimination = elim = Elimination(relations, self.generators)
        self.relations = elim.rows
        nonzero = [d for d in elim.snf[1].diagonal() if d] if elim.snf else []
        self.rank = self.generators - len(elim.pivots) - len(nonzero)
        self.torsion = tuple(d for d in nonzero if d >= 2)

    def kills(self, vectors):
        """For each vector over the generators, whether it is zero in the
        group, i.e. lies in the relation lattice.  Every yes is checked
        against the pivots and the residue of the elimination."""
        elim = self.elimination
        return [elim._express(_sparse(v)) is not None for v in vectors]

    def generated_by(self, rows):
        """Whether the rows (vectors over the generators) generate the group.
        Substitution through the pivots is an isomorphism onto the free
        columns modulo the residue, so the rows generate exactly when their
        residuals and the residue present the trivial group there."""
        elim = self.elimination
        free = [j for j in range(self.generators) if j not in elim._order]
        pos = {j: x for x, j in enumerate(free)}
        residuals = [elim.substitute(_sparse(row, self.generators))[1] for row in rows]
        residuals += [row for row, _ in elim.residue]
        return AbPresentation(len(free), [{pos[j]: x for j, x in v.items()}
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
        shift = self.generators
        rows = [{j + shift: x for j, x in row.items()} for row in other.relations]
        return AbPresentation(shift + other.generators, self.relations + tuple(rows))

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

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


# ---------------------------------------------------------------------------
# Homomorphisms between presented abelian groups.
#
# A map Z^m/A -> Z^n/B is given by a generator matrix G (m rows, row i is
# the image of the i-th source generator, as a relation row over the n
# target generators).
# ---------------------------------------------------------------------------

def hom_well_defined(src, tgt, gen_matrix):
    """Check that every relation of the presented source group src maps to
    zero in the presented target group tgt.  Returns (ok,
    offending_relation_or_None)."""
    images = [apply_rows(row, gen_matrix) for row in src.relations]
    for row, zero in zip(src.relations, tgt.kills(images)):
        if not zero:
            return False, row
    return True, None


def apply_rows(vec, matrix):
    """The row vec times matrix, as the dict {column: non-zero entry}; vec
    and the rows of matrix are relation rows.  Rows of matrix under a zero
    coefficient are never read."""
    out = {}
    for i, c in _sparse(vec).items():
        _add_multiple(out, c, _sparse(matrix[i]))
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
