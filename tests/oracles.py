"""Slow reference routes the tests check legmon's kernels against.

`identity`, `zero_subspace`, `kernel_basis` and `det_eliminate` are the
subspace route's eliminations run with the scalars' own operators, and
`kernel_intersect` is the intersection computed through the kernel of
the stacked bases.  None of them is on a `legmon` code path, nor is the
`from_rows` constructor the tests build matrices with.
"""

from legmon.fields import Field, field_inverse
from legmon.linalg import Matrix, Subspace, _rref


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
