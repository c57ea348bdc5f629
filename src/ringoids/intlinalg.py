"""Exact integer linear algebra on sparse relation rows.

Finitely presented abelian groups in (rank, torsion chain) normal form,
and the homomorphisms between them.  All arithmetic is arbitrary-precision
Python integers; no floating point.

A relation row is a dict {column: non-zero entry} from its writer,
`exponent_row`, to the elimination.  Every relation matrix of an
`AbPresentation`, and every lattice of `lattice.solve_row_combinations`,
first goes through `Elimination`, a sparse unit-pivot elimination (abelian
Tietze moves) certified by one substitution pass over its rows.  Only its
residue reaches the dense Smith normal form of `lattice`, once, and the
invariants of a presentation and every solve read that one
factorization; `lattice` is imported only for a non-empty residue.  A
presentation answers its own lattice questions from its elimination
without combining rows: whether vectors are zero in the group (`kills`)
and whether rows map onto it (`generated_by`).  Rows are dense only where
the Smith normal form reads them, in the residue here and in `lattice`.
"""

from __future__ import annotations

import heapq
import itertools


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
            from .lattice import IntMatrix, smith_normal_form
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


def hom_is_isomorphism(src, tgt, gen_matrix):
    """Whether gen_matrix defines an isomorphism between the presented groups
    src and tgt: equal invariants, well defined, and onto.  A well-defined
    map onto tgt with src isomorphic to tgt is injective too: finitely
    generated abelian groups are Noetherian, so a surjective endomorphism
    of one is injective.  Both lattice questions go to tgt's elimination."""
    return (src == tgt
            and hom_well_defined(src, tgt, gen_matrix)[0]
            and tgt.generated_by(gen_matrix))
