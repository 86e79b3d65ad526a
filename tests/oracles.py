"""Slow reference routes the tests check legmon's kernels against.

`identity`, `zero_subspace`, `kernel_basis` and `det_eliminate` are the
subspace route's eliminations run with the scalars' own operators, and
`kernel_intersect` is the intersection computed through the kernel of
the stacked bases.  `span_flags_from_point` and
`span_validate_bott_samelson` build the flag chain from `Subspace` spans
and check its open-cell conditions by containment and span equality,
the reference for the window chain of `legmon.moduli`.  None of them is
on a `legmon` code path, nor is the `from_rows` constructor the tests
build matrices with, nor `script_text`, the move-script renderer that
`parse_script` reads back.
"""

from dataclasses import dataclass

from legmon.fields import Field, field_inverse
from legmon.linalg import Matrix, Subspace, _rref
from legmon.moduli import ModuliPoint, require_valid


def from_rows(rows, field: Field) -> Matrix:
    return Matrix(tuple(tuple(row) for row in rows), field)


def identity(n: int, field: Field) -> Matrix:
    one, zero = field.one(), field.zero()
    return Matrix(
        tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ),
        field,
    )


def zero_subspace(ambient: int, field: Field) -> Subspace:
    return Subspace(ambient, (), field)


def det_eliminate(m: Matrix):
    """Determinant by Gaussian elimination with the scalars' operators."""
    n = m.nrows
    a = [list(row) for row in m.entries]
    det = m.field.one()
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return m.field.zero()
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = field_inverse(a[col][col])
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of {x : m·x = 0}."""
    n = m.ncols
    if m.nrows == 0 or n == 0:
        return Subspace(n, tuple(), m.field) if n == 0 else Subspace.span(
            identity(n, m.field).entries, n, m.field
        )
    rows, pivots = _rref([list(r) for r in m.entries])
    free = [c for c in range(n) if c not in pivots]
    zero, one = m.field.zero(), m.field.one()
    vecs = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        vecs.append(v)
    return Subspace.span(vecs, n, m.field)


def kernel_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b from the kernel of the stacked bases [a | b]: each kernel
    vector's a-coefficients combine the basis of a into a meet vector."""
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(a.ambient, a.field)
    stacked = Matrix.from_columns(a.basis + b.basis, a.field)
    ker = kernel_basis(stacked)
    da = a.dim
    zero = a.field.zero()
    vecs = []
    for coeffs in ker.basis:
        v = [zero] * a.ambient
        for i in range(da):
            if coeffs[i]:
                v = [x + coeffs[i] * y for x, y in zip(v, a.basis[i])]
        vecs.append(v)
    return Subspace.span(vecs, a.ambient, a.field)


def script_text(script) -> str:
    """A `MoveScript`'s moves in the DSL, one per line."""
    return "".join(f"{m}\n" for m in script.moves)


@dataclass(frozen=True)
class SpanFlagTuple:
    """l(β) complete flags; flag m holds the subspaces of dims 1..k-1."""

    ambient: int
    flags: tuple[tuple[Subspace, ...], ...]

    def __len__(self) -> int:
        return len(self.flags)


def span_flags_from_point(p: ModuliPoint) -> SpanFlagTuple:
    """Rebuild the flag chain along the family's base braid word.

    Flag m (1-based, m = 1..(k-1)N) has level-d subspace spanned by the
    d consecutive columns starting at v_j with j = floor((m-d)/(k-1))+1,
    indices cyclic.  For k = 3 this is the scheme V(1)_{2j-1} = V(1)_{2j}
    = <v_j>, V(2)_{2j} = V(2)_{2j+1} = <v_j, v_{j+1}>; level d changes
    exactly at the crossings of σ_d in the base word.

    Each level has N distinct spans, one per j mod N; each is computed
    once and the flags share the `Subspace` objects.

    Raises:
        InvalidPoint: if some cyclic consecutive minor vanishes.
    """
    require_valid(p)
    fam = p.family
    k, n = fam.k, fam.n_columns
    spans = [
        [Subspace.span([p.col(j + t) for t in range(d)], k, p.field) for j in range(1, n + 1)]
        for d in range(1, k)
    ]
    return SpanFlagTuple(k, tuple(
        tuple(spans[d - 1][(m - d) // (k - 1) % n] for d in range(1, k))
        for m in range(1, (k - 1) * n + 1)
    ))


def span_validate_bott_samelson(f: SpanFlagTuple, w) -> bool:
    """Check the open-cell conditions of the flag chain against a word.

    True iff every flag is a full chain of nested subspaces of dims
    1..k-1, and each cyclically adjacent pair (m, m+1) differs in its
    i_{m+1}-dimensional subspace and only there (pair (l, 1) reads the
    first letter).  Differing at the prescribed level keeps adjacent
    flags off the fat diagonal.

    Raises:
        ValueError: if len(f) != len(w).
    """
    letters = w.letters
    length = len(letters)
    if len(f.flags) != length:
        raise ValueError(
            f"length mismatch: {len(f.flags)} flags vs word of length {length}"
        )
    k = f.ambient
    for flag in f.flags:
        if len(flag) != k - 1:
            return False
        if any(flag[d].dim != d + 1 for d in range(k - 1)):
            return False
        if any(not flag[d + 1].contains_subspace(flag[d]) for d in range(k - 2)):
            return False
    for m in range(length):
        here, there = f.flags[m], f.flags[(m + 1) % length]
        level = letters[(m + 1) % length]  # i_{m+1}, cyclically
        for d in range(1, k):
            if d == level:
                if here[d - 1] == there[d - 1]:
                    return False
            elif here[d - 1] != there[d - 1]:
                return False
    return True
