"""Positive braid words, rewriting moves, and verified move scripts.

A `BraidWord` is a positive word in the Artin generators of the braid
group on k strands, stored as 1-based generator indices.  Three families
of moves rewrite words:

* ``shift``   - left rotation: the first letter moves to the end;
* ``comm p``  - swap letters p, p+1 when their indices differ by >= 2;
* ``r3a p``   - replace (i, i+1, i) at position p by (i+1, i, i+1);
* ``r3d p``   - replace (i+1, i, i+1) at position p by (i, i+1, i).

Positions are 1-based and moves never wrap around the end of the word;
cyclic behaviour is reached only through explicit shifts.  `verify_loop`
replays moves on a base word; a script that returns to its base word
letter-for-letter certifies a loop.  The replay rewrites one list of
letters in place, together with one bytearray of fixed-width slots
that hold their texts, and writes its transcript, line by line, into
one buffer that it decodes once.  The built-in scripts, rows of
`_LOOPS` that `builtin_script` expands to (base, moves), transcribe the
rewriting chains for the loops sigma1, xi1, xi2, xi3 and the power of
the cyclic shift, one move per rewrite, window by window.  `parse_script` reads moves from the DSL, and a
`ScriptSyntaxError` names the line and the column of its token.
"""

from __future__ import annotations

import re

from . import Frozen


class IllegalMove(Exception):
    """A move whose pattern does not match the word at its position."""

    def __init__(self, message: str, *, trace: tuple[str, ...] = ()):
        super().__init__(message)
        self.trace = trace  # the texts of the words before the step


class ScriptSyntaxError(ValueError):
    """A script line that does not conform to the DSL grammar."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")


_KEYWORDS = ("shift", "comm", "r3a", "r3d")


class BraidWord(Frozen):
    """A positive braid word: k strands, int letters in 1..k-1.

    Construction checks every letter's type, then every letter's range,
    and names the first offending letter.  Moves act on a list of the
    letters, not on the word (see `apply_move`).
    """

    _fields = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...]):
        if strands < 2:
            raise ValueError(f"need at least 2 strands, got {strands}")
        top = strands - 1
        for x in letters:
            if type(x) is not int:  # by type: True and 1.0 compare equal to 1
                raise ValueError(f"letter {x!r} is not an int")
        for x in letters:
            if not 1 <= x <= top:
                raise ValueError(f"letter {x} out of range 1..{top}")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(map(str, self.letters))


class Move(Frozen):
    """One rewriting move; `kind` is one of `_KEYWORDS`, `pos` a 1-based
    int (by type, so not True or 2.0, as for `BraidWord` letters) and None
    exactly for shift."""

    _fields = ("kind", "pos")

    def __init__(self, kind: str, pos: int | None = None):
        if kind == "shift":
            if pos is not None:
                raise ValueError("shift takes no position")
        elif kind not in _KEYWORDS:
            raise ValueError(f"unknown move kind {kind!r}")
        elif type(pos) is not int or pos < 1:
            raise ValueError(f"{kind} needs an int position >= 1, got {pos!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pos", pos)

    def __str__(self) -> str:
        return self.kind if self.pos is None else f"{self.kind} {self.pos}"


def apply_move(letters: list[int], move: Move) -> tuple[int, int]:
    """Apply one move to the list `letters` in place, checking its
    pattern there, and return the span (lo, hi) of the slice it rewrote.

    An illegal move raises `IllegalMove` and changes nothing.  The
    letters stay a valid word on the same strands (shift and comm
    permute them, r3a/r3d swap i and i+1), so nothing re-checks them."""
    n, p, kind = len(letters), move.pos, move.kind
    if kind == "shift":
        letters.extend(letters[:1])
        del letters[:1]
        return 0, n
    elif kind == "comm":
        if p + 1 > n:
            raise IllegalMove(f"comm {p} does not fit in a word of length {n}")
        a, b = letters[p - 1], letters[p]
        if abs(a - b) < 2:
            raise IllegalMove(f"comm {p}: letters ({a}, {b}) do not commute")
        letters[p - 1], letters[p] = b, a
        return p - 1, p + 1
    else:  # r3a and r3d: (x, y, x) becomes (y, x, y)
        if p + 2 > n:
            raise IllegalMove(f"{kind} {p} does not fit in a word of length {n}")
        a, b, c = letters[p - 1 : p + 2]
        if kind == "r3a" and not (a == c and b == a + 1):
            raise IllegalMove(f"r3a {p}: pattern ({a}, {b}, {c}) is not (i, i+1, i)")
        if kind == "r3d" and not (a == c and b == a - 1):
            raise IllegalMove(f"r3d {p}: pattern ({a}, {b}, {c}) is not (i+1, i, i+1)")
        letters[p - 1 : p + 2] = b, a, b
        return p - 1, p + 2


def verify_loop(base: BraidWord, moves) -> tuple[str, bool]:
    """Replay `moves` in place from `base`; return the replay's transcript
    and whether the last word is the base letter for letter.

    The transcript has one line per word: ``base: <word>``, then
    ``<move> -> <word>`` per move, its move label padded to 10, and last
    ``loop: true`` or ``loop: false``.  Next to the letters, one
    bytearray `slots` gives each letter `size` bytes, its `cell`: a
    space, then its text right-justified with "_" to the width of the
    base's largest letter.  Moves only permute letters or swap i and i+1
    inside a window, so every letter keeps a cell of the base.  After
    each move the span `apply_move` returns is rewritten in place in
    `slots` from the cells, and the word's text, `slots` without the
    fill and the leading space, follows its label in one buffer.

    Raises:
        IllegalMove: at the first illegal step, its message naming the
            step, and carrying the texts of the words so far.
    """
    letters = list(base.letters)
    size = 1 + len(str(max(letters, default=0)))
    cell = {x: b" " + str(x).rjust(size - 1, "_").encode() for x in set(letters)}
    slots = bytearray(b"".join(map(cell.__getitem__, letters)))
    # Letters of one digit have no fill, so their text is read in place.
    word = memoryview(slots)[1:]
    out = bytearray(b"base: ")
    out += word if size == 2 else slots.replace(b"_", b"")[1:]
    for j, move in enumerate(moves, start=1):
        try:
            lo, hi = apply_move(letters, move)
        except IllegalMove as exc:
            # The words so far, read back from their lines (no label holds " -> ").
            first, *steps = out.decode().split("\n")
            trace = (first.removeprefix("base: "), *(line.partition(" -> ")[2] for line in steps))
            raise IllegalMove(f"step {j}: {exc}", trace=trace) from None
        slots[lo * size : hi * size] = b"".join(map(cell.__getitem__, letters[lo:hi]))
        out += f"\n{move!s:10s} -> ".encode()
        out += word if size == 2 else slots.replace(b"_", b"")[1:]
    is_loop = tuple(letters) == base.letters
    out += b"\nloop: true\n" if is_loop else b"\nloop: false\n"
    return out.decode(), is_loop


def parse_script(text: str) -> tuple[Move, ...]:
    """Parse the move-script DSL into its moves.

    Grammar: one move per line, ``move := "shift" | "comm" INT | "r3a"
    INT | "r3d" INT`` with INT a 1-based position in ASCII digits, ``#``
    starting a comment, blank lines ignored.  Legality against the base
    is not checked here; that is verify_loop's job, given the base.  An error names the
    line and the 1-based column of its token (for a missing position,
    the column after the keyword).
    """
    moves: list[Move] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        tokens = [(m[0], m.start() + 1) for m in re.finditer(r"\S+", code)]
        if not tokens:
            continue
        (keyword, col), *rest = tokens
        if keyword not in _KEYWORDS:
            raise ScriptSyntaxError(lineno, col, f"unknown move keyword {keyword!r}")
        if len(rest) > 1:
            raise ScriptSyntaxError(lineno, col, f"malformed move {code.strip()!r}")
        arg, argcol = rest[0] if rest else (None, col + len(keyword))
        if keyword == "shift":
            if arg is not None:
                raise ScriptSyntaxError(lineno, argcol, "shift takes no position")
            moves.append(Move("shift"))
            continue
        if arg is None:
            raise ScriptSyntaxError(lineno, argcol, f"{keyword} needs a position")
        if not (arg.isascii() and arg.isdigit()):
            raise ScriptSyntaxError(lineno, argcol, f"position {arg!r} is not a decimal integer")
        try:
            pos = int(arg)
        except ValueError:  # more digits than Python converts to an int
            raise ScriptSyntaxError(
                lineno, argcol, f"position of {len(arg)} digits is too long"
            ) from None
        if pos < 1:
            raise ScriptSyntaxError(lineno, argcol, "positions are 1-based (>= 1)")
        moves.append(Move(keyword, pos))
    return tuple(moves)


def base_word(k: int, s: int) -> BraidWord:
    """The base (1..k-1)^{k(s+1)} of the loops on k strands with window
    parameter s: the word of the family T(k, ks)."""
    return BraidWord(k, tuple(range(1, k)) * (k * (s + 1)))


# Each built-in loop as (strands k, steps before its one shift, steps
# after it).  A step is a move kind and a position in the first window
# of k(k-1) letters of the base (1..k-1)^{k(s+1)}; each step is expanded
# over the s+1 windows, left to right, before the next.  delta_power's
# k is only the default: k_for_delta sets it, and it makes k-1 shifts.
_LOOPS = {
    "sigma1": (3, (), (("r3d", 1), ("r3a", 4))),
    "xi1": (4, (), (
        ("comm", 2), ("r3d", 3), ("r3d", 1), ("comm", 3),
        ("comm", 11), ("r3a", 9), ("r3a", 7), ("comm", 6),
    )),
    "xi2": (4, (("comm", 3), ("r3a", 1)), (
        ("comm", 5), ("r3d", 6), ("r3d", 4), ("r3a", 10), ("comm", 6), ("comm", 9),
    )),
    "xi3": (4, (
        ("comm", 3), ("r3a", 1), ("r3a", 3), ("comm", 2),
        ("comm", 6), ("comm", 5), ("r3a", 3), ("r3a", 1),
        ("comm", 3), ("r3d", 4), ("r3d", 2), ("comm", 4),
        ("comm", 9), ("r3d", 10), ("r3d", 8), ("comm", 10),
    ), ()),
    "delta_power": (3, (), ()),
}
BUILTIN_NAMES = tuple(_LOOPS)


def builtin_script(name: str, s: int = 1,
                   k_for_delta: int | None = None) -> tuple[BraidWord, tuple[Move, ...]]:
    """The base word and the moves of the built-in loop `name` with
    window parameter s.

    sigma1 runs on 3 strands, xi1/xi2/xi3 on 4, and delta_power on
    k = k_for_delta (default 3); see `_LOOPS` for the bases and moves.
    """
    if name not in _LOOPS:
        raise ValueError(f"unsupported builtin {name!r}; choose from {BUILTIN_NAMES}")
    if s < 1:
        raise ValueError(f"window parameter s must be >= 1, got {s}")
    if k_for_delta is not None and name != "delta_power":
        raise ValueError("k_for_delta applies only to delta_power")
    k, before, after = _LOOPS[name]
    shifts = 1
    if name == "delta_power":
        k = k if k_for_delta is None else k_for_delta
        if k < 2:
            raise ValueError(f"delta_power needs k >= 2, got {k}")
        shifts = k - 1
    # The base first: a size beyond memory fails before any move list grows.
    base = base_word(k, s)
    width = k * (k - 1)
    moves = [Move(kind, pos + width * j) for kind, pos in before for j in range(s + 1)]
    moves += [Move("shift")] * shifts
    moves += [Move(kind, pos + width * j) for kind, pos in after for j in range(s + 1)]
    return base, tuple(moves)
