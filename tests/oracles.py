"""Slow reference routes the tests check legmon's kernels against.

`identity`, `zero_subspace`, `kernel_basis` and `det_eliminate` are the
subspace route's eliminations run with the scalars' own operators, and
`kernel_intersect` is the intersection computed through the kernel of
the stacked bases.  `span_flags_from_point` and
`span_validate_bott_samelson` build the flag chain from `Subspace` spans
and check its open-cell conditions by containment and span equality,
the reference for the window chain of `legmon.moduli`.  `legal_moves`
and `moved_letters` find and apply braid moves by scanning and slicing
letter tuples, the reference for `legmon.braids.apply_move`.
`scratch_sweep` and `scratch_relations` rebuild the JSON of the
faithfulness sweep and of the relation report by applying every whole
token word to the sampled point in one `act_word` call, lifting to ℚ
entry by entry and reducing the ℚ values with the residues' own value
and modulus: the reference for the reports' memo of word images.  They
write a word's label by lower-casing its tokens, and `_syllables` reads
a label back as upper-cased tokens.  `replay_witness` recomputes a
witness's two values by applying the whole words to its point, and
`replay_witness_json` checks one sweep entry from its JSON alone, on the
point and values `witness_from_json` reads back.  None of them is on a
`legmon` code path, nor is the `from_rows` constructor the tests build
matrices with, nor `script_text`, the move-script renderer that
`parse_script` reads back, nor `random_scalar`, the scalar of one
`Field.random_int` draw.
`scalar_point_to_json` and `scalar_point_from_json` write and read point
JSON scalar by scalar (`format_scalar` over `p.columns`; `read_scalar`
per entry, then a shape check and `point_of`), the reference for the
int-form writer and reader of `legmon.moduli`.  `read_scalar` reads an
entry text with string methods and `Fraction`/`ModP`, not with
`legmon.fields`' patterns, and refuses in their words.  `point_of` is
the unchecked point of scalar columns.
`LOOP_WINDOWS` writes out by hand the windows that
`legmon.monodromy._blocks` derives for the sigma1 and xi maps, with the
output layout each map's image must have, and `window_slots` reads each
window's output slot off its layout.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from legmon.braids import Move
from legmon.explorer import (
    SeparationWitness,
    _sample_points,
    delta,
    reduced_words,
)
from legmon.fields import QQ, Field, ModP, PrimeField, field_from_json, format_scalar
from legmon.linalg import Matrix, Subspace, _rref
from legmon.moduli import (
    T36, ModuliPoint, get_family, point_from_json, point_to_json, require_valid,
)
from legmon.monodromy import act_shift, act_word


def point_of(family, field: Field, columns) -> ModuliPoint:
    return ModuliPoint(family, field, field.form(columns))


def from_rows(rows, field: Field) -> Matrix:
    return Matrix(tuple(tuple(row) for row in rows), field)


def identity(n: int, field: Field) -> Matrix:
    one, zero = field.scalar(1), field.scalar(0)
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
    det = m.field.scalar(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return m.field.scalar(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = 1 / a[col][col]
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
    zero, one = m.field.scalar(0), m.field.scalar(1)
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
    zero = a.field.scalar(0)
    vecs = []
    for coeffs in ker.basis:
        v = [zero] * a.ambient
        for i in range(da):
            if coeffs[i]:
                v = [x + coeffs[i] * y for x, y in zip(v, a.basis[i])]
        vecs.append(v)
    return Subspace.span(vecs, a.ambient, a.field)


def script_text(moves) -> str:
    """Moves in the DSL, one per line."""
    return "".join(f"{m}\n" for m in moves)


def legal_moves(letters) -> list[Move]:
    """Every move legal on `letters`, found by scanning them directly.
    A shift is legal on every word, the empty one included."""
    moves = [Move("shift")]
    for p in range(1, len(letters)):
        if abs(letters[p - 1] - letters[p]) >= 2:
            moves.append(Move("comm", p))
    for p in range(1, len(letters) - 1):
        a, b, c = letters[p - 1 : p + 2]
        if a == c and b == a + 1:
            moves.append(Move("r3a", p))
        if a == c and b == a - 1:
            moves.append(Move("r3d", p))
    return moves


def moved_letters(letters, move: Move) -> tuple:
    """The letters after a legal move, rebuilt by list surgery."""
    out = list(letters)
    if move.kind == "shift":
        return tuple(out[1:] + out[:1])
    p = move.pos - 1
    if move.kind == "comm":
        out[p], out[p + 1] = out[p + 1], out[p]
    else:
        a, b = out[p], out[p + 1]
        out[p : p + 3] = [b, a, b]
    return tuple(out)


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
        [Subspace.span([p.columns[(j + t) % n] for t in range(d)], k, p.field) for j in range(n)]
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


def scratch_separate(word, probe_budget: int, points) -> SeparationWitness | None:
    """The first witness in probe-then-point order, each side replayed as
    whole words from the sampled point."""
    for probe in reduced_words(probe_budget):
        for p in points:
            lhs = delta(act_word(p, word + probe))
            rhs = delta(act_word(p, probe))
            if lhs != rhs:
                return SeparationWitness(word, probe, p, lhs, rhs)
    return None


def _label(word) -> str:
    return " ".join(word).lower() or "e"


def _syllables(label: str) -> tuple[str, ...]:
    return () if label == "e" else tuple(label.upper().split())


def _reduces_to(x: Fraction, r) -> bool:
    """Whether the rational x maps to the residue r mod r's modulus."""
    p = r.modulus
    return bool(x.denominator % p) and (x.numerator - r.value * x.denominator) % p == 0


def scratch_reverify(witness: SeparationWitness) -> dict:
    """A prime-field witness replayed over ℚ on the entrywise lift."""
    point = witness.point
    q = point_of(point.family, QQ, tuple(
        tuple(Fraction(x.value) for x in c) for c in point.columns))
    lhs = delta(act_word(q, witness.word + witness.probe))
    rhs = delta(act_word(q, witness.probe))
    consistent = _reduces_to(lhs, witness.lhs) and _reduces_to(rhs, witness.rhs)
    return {
        "lhs": format_scalar(lhs),
        "rhs": format_scalar(rhs),
        "distinct": lhs != rhs,
        "consistent_with_fp": consistent,
        "ok": lhs != rhs and consistent,
    }


def scratch_sweep(max_syllables: int, probe_budget: int, n_points: int, seed,
                  field: Field) -> dict:
    points = _sample_points(T36, field, n_points, seed)
    entries = []
    for word in reduced_words(max_syllables)[1:]:
        witness = scratch_separate(word, probe_budget, points)
        entry = {"word": _label(word), "separated": witness is not None}
        if witness is not None:
            entry["witness"] = {
                "word": _label(witness.word),
                "probe": _label(witness.probe),
                "lhs": format_scalar(witness.lhs),
                "rhs": format_scalar(witness.rhs),
                "point": point_to_json(witness.point),
            }
            entry["q_reverify"] = (scratch_reverify(witness) if isinstance(field, PrimeField)
                                   else None)
        entries.append(entry)
    unseparated = [e["word"] for e in entries if not e["separated"]]
    separated = len(entries) - len(unseparated)
    return {
        "max_syllables": max_syllables,
        "probe_budget": probe_budget,
        "n_points": n_points,
        "seed": seed,
        "field": field.to_json(),
        "total_words": len(entries),
        "separated": separated,
        "fraction_separated": f"{separated}/{len(entries)}",
        "all_separated": not unseparated,
        "unseparated_words": unseparated,
        "degenerate_evals": 0,
        "witnesses": entries,
    }


def witness_from_json(data: dict) -> SeparationWitness:
    """A witness rebuilt from its JSON, the values parsed in its point's field."""
    point = point_from_json(data["point"])
    lhs, rhs = (read_scalar(point.field, data[side]) for side in ("lhs", "rhs"))
    return SeparationWitness(_syllables(data["word"]), _syllables(data["probe"]), point, lhs, rhs)


def replay_witness(witness: SeparationWitness) -> bool:
    """Whether Δ, recomputed by applying the whole words to the witness's
    point, gives its stored pair, and the two differ."""
    p = witness.point
    lhs = delta(act_word(p, witness.word + witness.probe))
    rhs = delta(act_word(p, witness.probe))
    return (lhs, rhs) == (witness.lhs, witness.rhs) and lhs != rhs


def replay_witness_json(entry: dict) -> bool:
    """Whether a sweep entry's JSON alone certifies its word: Δ recomputes
    to the stored pair on the stored point and the two differ, and the ℚ
    re-check's values, where there is one, differ and reduce to that pair."""
    witness = witness_from_json(entry["witness"])
    replayed = entry["witness"]["word"] == entry["word"] and replay_witness(witness)
    q = entry["q_reverify"]
    if q is None:
        return replayed
    lhs, rhs = read_scalar(QQ, q["lhs"]), read_scalar(QQ, q["rhs"])
    return (replayed and lhs != rhs
            and _reduces_to(lhs, witness.lhs) and _reduces_to(rhs, witness.rhs))


def scratch_relation_rows(p: ModuliPoint, probes) -> list:
    """((relation, probe), passed) rows, each image replayed from p."""
    a3p = act_shift(p, 3)
    b2p = act_word(p, ("B", "B"))
    rows = []
    for u in probes:
        base = delta(act_word(p, u))
        rows.append((("a3", u), delta(act_word(a3p, u)) == base))
        rows.append((("b2", u), delta(act_word(b2p, u)) == base))
    return rows


def scratch_relations(n_points: int, seed, field: Field, probe_budget: int) -> dict:
    probes = reduced_words(probe_budget)
    counts = Counter()
    for p in _sample_points(T36, field, n_points, seed):
        for key, passed in scratch_relation_rows(p, probes):
            counts[key, passed] += 1
    checks = [
        {
            "relation": rel,
            "probe": _label(u),
            "passes": counts[(rel, u), True],
            "failures": counts[(rel, u), False],
            "all_pass": counts[(rel, u), False] == 0,
        }
        for rel in ("a3", "b2")
        for u in probes
    ]
    return {
        "n_points": n_points,
        "seed": seed,
        "probe_budget": probe_budget,
        "field": field.to_json(),
        "resamples": 0,
        "all_pass": all(c["all_pass"] for c in checks),
        "checks": checks,
    }


def scalar_point_to_json(p: ModuliPoint) -> dict:
    """Point JSON with each entry written by `format_scalar` from `p.columns`."""
    return {
        "family": p.family.name,
        "field": p.field.to_json(),
        "columns": [[format_scalar(x) for x in c] for c in p.columns],
    }


def _digits(text: str, signed: bool = False) -> bool:
    """Whether `text` is ASCII digits, after one minus sign if `signed`."""
    if signed:
        text = text.removeprefix("-")
    return text.isascii() and text.isdigit()


_ASCII_SPACE = " \t\n\r\f\v"


def read_scalar(field: Field, text: str):
    """The scalar that the entry text spells in `field`: ``"a"`` or
    ``"a/b"`` over ℚ, ``"v"`` or ``"v mod p"`` over F_p, in ASCII digits,
    a minus sign only right before a or v, any ASCII whitespace around
    the numbers and at least one after ``mod``."""
    if field == QQ:
        num, slash, den = (part.strip(_ASCII_SPACE) for part in text.partition("/"))
        if not _digits(num, signed=True) or slash and not _digits(den):
            raise ValueError(f"not a rational scalar: {text!r}")
        if slash and int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den) if slash else 1)
    value, mod, modulus = text.partition("mod")
    spaced = modulus[:1] and modulus[0] in _ASCII_SPACE
    value, modulus = value.strip(_ASCII_SPACE), modulus.strip(_ASCII_SPACE) if spaced else ""
    if not _digits(value, signed=True) or mod and not _digits(modulus):
        raise ValueError(f"not a residue scalar: {text!r}")
    if mod and int(modulus) != field.p:
        raise ValueError(f"residue {text!r} declares modulus {modulus}, field has {field.p}")
    return ModP(int(value), field.p)


def scalar_point_from_json(data) -> ModuliPoint:
    """The point of JSON data, each entry read by `read_scalar` in the
    declared field, the columns checked for shape, then `point_of`."""
    if not isinstance(data, dict):
        raise ValueError("point file must be a JSON object")
    missing = {"family", "field", "columns"} - set(data)
    if missing:
        raise ValueError(f"point file missing keys: {sorted(missing)}")
    if not isinstance(data["family"], str):
        raise ValueError(f"family must be a string, got {data['family']!r}")
    family = get_family(data["family"])
    field = field_from_json(data["field"])
    raw = data["columns"]
    if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
        raise ValueError("columns must be a list of lists of scalar strings")
    for j, c in enumerate(raw, start=1):
        for t, x in enumerate(c, start=1):
            if not isinstance(x, str):
                raise ValueError(f"column {j} entry {t}: scalar must be a string, got {x!r}")
    columns = tuple(tuple(read_scalar(field, x) for x in c) for c in raw)
    if len(columns) != family.n_columns:
        raise ValueError(f"{family.name} needs {family.n_columns} columns, got {len(columns)}")
    if any(len(c) != family.k for c in columns):
        raise ValueError(f"{family.name} columns must have length {family.k}")
    return point_of(family, field, columns)


def random_scalar(field, rng):
    """A scalar drawn as `random_point` draws each entry."""
    return field.scalar(field.random_int(rng))


# token -> (windows (label, pair, T), output layout), written out by hand.
# A layout entry is the column of the point acted on that fills the slot,
# or the label of the window whose replacement vector fills it.
LOOP_WINDOWS = {
    "S1": (
        (("u1", (1, 2), (3, 4)), ("u2", (4, 5), (6, 7)), ("u3", (7, 8), (9, 1))),
        (2, "u1", 3, 5, "u2", 6, 8, "u3", 9),
    ),
    "X1": (
        (("u1", (1, 2), (3, 4, 5)), ("u2", (5, 6), (7, 8, 1))),
        (2, "u1", 3, 4, 6, "u2", 7, 8),
    ),
    "X2": (
        (("u1", (2, 3), (4, 5, 6)), ("u2", (6, 7), (8, 1, 2))),
        (1, 3, "u1", 4, 5, 7, "u2", 8),
    ),
    "X3": (
        (("u1", (3, 4), (5, 6, 7)), ("u2", (7, 8), (1, 2, 3))),
        (1, 2, 4, "u1", 5, 6, 8, "u2"),
    ),
}


def window_slots(tok: str) -> list:
    """(label, pair, T, slot) for each window of `LOOP_WINDOWS[tok]`, with
    slot the 1-based output column its replacement vector fills."""
    windows, layout = LOOP_WINDOWS[tok]
    return [(label, pair, other, layout.index(label) + 1) for label, pair, other in windows]
