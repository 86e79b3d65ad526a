"""Positive braid words, rewriting moves, and verified move scripts.

A `BraidWord` is a positive word in the Artin generators of the braid
group on k strands, stored as 1-based generator indices.  Three families
of moves rewrite words:

* ``shift``   - left rotation: the first letter moves to the end;
* ``comm p``  - swap letters p, p+1 when their indices differ by >= 2;
* ``r3a p``   - replace (i, i+1, i) at position p by (i+1, i, i+1);
* ``r3d p``   - replace (i+1, i, i+1) at position p by (i, i+1, i).

Positions are 1-based and moves never wrap around the end of the word;
cyclic behaviour is reached only through explicit shifts.  A
`MoveScript` replayed by `verify_loop` that returns to its base word
letter-for-letter certifies a loop.  The built-in scripts transcribe the
rewriting chains for the loops sigma1, xi1, xi2, xi3 and the power of
the cyclic shift, one move per rewrite, window by window.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass


class IllegalMove(Exception):
    """A move whose pattern does not match the word at its position."""

    def __init__(self, message: str, *, move: "Move | None" = None,
                 step: int | None = None, trace: tuple = ()):
        super().__init__(message)
        self.move = move
        self.step = step
        self.trace = trace


class ScriptSyntaxError(ValueError):
    """A script line that does not conform to the DSL grammar."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _LetterText(dict):
    """Decimal text of each int letter, computed on first use."""

    def __missing__(self, x: int) -> str:
        text = self[x] = str(x)
        return text


_LETTER_TEXT = _LetterText()


@dataclass(frozen=True)
class BraidWord:
    """A positive braid word: k strands, int letters in 1..k-1.

    Direct construction checks at C speed the letter types, then the
    range of the distinct letters (at most k-1 of them on a valid word);
    the first offending letter is looked up only on the error path.
    Moves do not re-check: `apply_move` builds its words unchecked.
    """

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError(f"need at least 2 strands, got {self.strands}")
        letters, top = self.letters, self.strands - 1
        # By type, not by value: True and 1.0 hash and compare equal to 1.
        if not set(map(type, letters)) <= {int}:
            bad = next(x for x in letters if type(x) is not int)
            raise ValueError(f"letter {bad!r} is not an int")
        distinct = set(letters)
        if distinct and (min(distinct) < 1 or max(distinct) > top):
            bad = next(x for x in letters if not 1 <= x <= top)
            raise ValueError(f"letter {bad} out of range 1..{top}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(map(_LETTER_TEXT.__getitem__, self.letters))


@dataclass(frozen=True)
class Move:
    """One rewriting move; `pos` is 1-based and None exactly for shift."""

    kind: str  # "shift" | "comm" | "r3a" | "r3d"
    pos: int | None = None

    def __post_init__(self):
        if self.kind == "shift":
            if self.pos is not None:
                raise ValueError("shift takes no position")
        elif self.kind in ("comm", "r3a", "r3d"):
            if self.pos is None or self.pos < 1:
                raise ValueError(f"{self.kind} needs a position >= 1")
        else:
            raise ValueError(f"unknown move kind {self.kind!r}")

    def __str__(self) -> str:
        return self.kind if self.pos is None else f"{self.kind} {self.pos}"


@dataclass(frozen=True)
class MoveScript:
    """A base word plus the move sequence to replay on it."""

    base: BraidWord
    moves: tuple[Move, ...]
    name: str | None = None

    def to_text(self) -> str:
        return "".join(f"{m}\n" for m in self.moves)


@dataclass(frozen=True)
class LoopReport:
    """Replay result: the base, every intermediate word, and the verdict."""

    script: MoveScript
    trace: tuple[BraidWord, ...]  # trace[0] is the base; one entry per move after
    is_loop: bool

    def to_lines(self) -> list[str]:
        """The base, one `move -> word` line per move, and the verdict.

        Each word's text is spliced from the one before by `trace_texts`,
        whose cursor keeps `off`, the character offset of letter `at`,
        valid from one text to the next; a line costs about its length."""
        texts = trace_texts(self.script.moves, self.trace)
        lines = [f"base: {next(texts)}"]
        lines += [f"{move!s:10s} -> {text}" for move, text in zip(self.script.moves, texts)]
        lines.append(f"loop: {'true' if self.is_loop else 'false'}")
        return lines


def trace_texts(moves: tuple[Move, ...], trace: tuple[BraidWord, ...]) -> Iterator[str]:
    """Yield `str(word)` for each word of `trace`, where trace[j] is
    trace[j-1] after moves[j-1].

    Only the base is joined; each later text is the one before with the
    move's 2 or 3 letter texts replaced, or for a shift its first letter
    text moved to the end.  Invariant: `off` is the offset of letter
    `at` in the text, the sum of len(text) + 1 over letters[:at].  The
    cursor moves forward to each window and restarts at 0 after a shift
    or a window left of it; a move leaves the letters left of its
    window alone, so the cursor stays valid for the next text."""
    text_of = _LETTER_TEXT.__getitem__
    text = " ".join(map(text_of, trace[0].letters))
    yield text
    at = off = 0
    for move, old, new in zip(moves, trace, trace[1:]):
        old, new = old.letters, new.letters
        if move.kind == "shift":
            if len(old) > 1:
                head = text_of(old[0])
                text = f"{text[len(head) + 1 :]} {head}"
            at = off = 0
        else:
            p = move.pos - 1
            if p < at:
                at = off = 0
            off += sum(map(len, map(text_of, old[at:p]))) + p - at
            at = p
            end = p + (2 if move.kind == "comm" else 3)
            width = len(" ".join(map(text_of, old[p:end])))
            window = " ".join(map(text_of, new[p:end]))
            text = f"{text[:off]}{window}{text[off + width :]}"
        yield text


def _moved(word: BraidWord, letters: tuple[int, ...]) -> BraidWord:
    """`word` with new letters, skipping `BraidWord.__post_init__`."""
    moved = object.__new__(BraidWord)
    object.__setattr__(moved, "strands", word.strands)
    object.__setattr__(moved, "letters", letters)
    return moved


def apply_move(word: BraidWord, move: Move) -> BraidWord:
    """Apply one move, checking the legality pattern at its position.

    The result is valid exactly when `word` is (shift and comm permute
    letters, r3a/r3d swap i and i+1), so it is built unchecked."""
    letters = word.letters
    n = len(letters)
    if move.kind == "shift":
        if n == 0:
            return word
        return _moved(word, letters[1:] + letters[:1])
    p = move.pos
    if move.kind == "comm":
        if p + 1 > n:
            raise IllegalMove(
                f"comm {p} does not fit in a word of length {n}", move=move
            )
        a, b = letters[p - 1], letters[p]
        if abs(a - b) < 2:
            raise IllegalMove(
                f"comm {p}: letters ({a}, {b}) do not commute", move=move
            )
        return _moved(word, letters[: p - 1] + (b, a) + letters[p + 1 :])
    if p + 2 > n:
        raise IllegalMove(
            f"{move.kind} {p} does not fit in a word of length {n}", move=move
        )
    a, b, c = letters[p - 1 : p + 2]
    if move.kind == "r3a":
        if not (a == c and b == a + 1):
            raise IllegalMove(
                f"r3a {p}: pattern ({a}, {b}, {c}) is not (i, i+1, i)", move=move
            )
    elif not (a == c and b == a - 1):  # r3d
        raise IllegalMove(
            f"r3d {p}: pattern ({a}, {b}, {c}) is not (i+1, i, i+1)", move=move
        )
    return _moved(word, letters[: p - 1] + (b, a, b) + letters[p + 2 :])


def verify_loop(script: MoveScript) -> LoopReport:
    """Replay all moves from the base; report closure and the full trace.

    Raises:
        IllegalMove: at the first illegal step, carrying the step index
            and the trace accumulated so far.
    """
    word = script.base
    trace = [word]
    for j, move in enumerate(script.moves, start=1):
        try:
            word = apply_move(word, move)
        except IllegalMove as exc:
            raise IllegalMove(
                f"step {j}: {exc}", move=move, step=j, trace=tuple(trace)
            ) from None
        trace.append(word)
    return LoopReport(script, tuple(trace), word == script.base)


_LINE_RE = re.compile(r"^(shift|comm|r3a|r3d)(?:\s+(\S+))?$")
_KEYWORDS = ("shift", "comm", "r3a", "r3d")


def parse_script(text: str, base: BraidWord, name: str | None = None) -> MoveScript:
    """Parse the move-script DSL against a given base word.

    Grammar: one move per line, ``move := "shift" | "comm" INT | "r3a"
    INT | "r3d" INT`` with INT a 1-based position in ASCII digits, ``#``
    starting a comment, blank lines ignored.  Legality against the base
    is not checked here; that is verify_loop's job.
    """
    moves: list[Move] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        body = code.strip()
        if not body:
            continue
        col = code.index(body[0]) + 1
        m = _LINE_RE.match(body)
        if not m:
            keyword = body.split()[0]
            if keyword not in _KEYWORDS:
                raise ScriptSyntaxError(lineno, col, f"unknown move keyword {keyword!r}")
            raise ScriptSyntaxError(lineno, col, f"malformed move {body!r}")
        keyword, arg = m.group(1), m.group(2)
        if keyword == "shift":
            if arg is not None:
                raise ScriptSyntaxError(
                    lineno, col + len(keyword) + 1, "shift takes no position"
                )
            moves.append(Move("shift"))
            continue
        argcol = code.index(arg, col + len(keyword)) + 1 if arg else col + len(keyword)
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
    return MoveScript(base, tuple(moves), name)


def append_generator(word: BraidWord, i: int) -> BraidWord:
    """Append the generator with index i (the braid-word shadow of a
    cobordism that adds one crossing)."""
    if not 1 <= i <= word.strands - 1:
        raise ValueError(f"generator index {i} out of range 1..{word.strands - 1}")
    return BraidWord(word.strands, word.letters + (i,))


BUILTIN_NAMES = ("sigma1", "xi1", "xi2", "xi3", "delta_power")

# Per-window move sequences, positions relative to a 12-letter window of
# the 4-strand base.  Each entry transcribes one rewrite of the loop's
# rewriting chain; entries are applied step by step, each step expanded
# window by window, left to right.
_XI1_STEPS = (
    ("comm", 2), ("r3d", 3), ("r3d", 1), ("comm", 3),
    ("comm", 11), ("r3a", 9), ("r3a", 7), ("comm", 6),
)
_XI2_PRE_SHIFT_STEPS = (("comm", 3), ("r3a", 1))
_XI2_POST_SHIFT_STEPS = (
    ("comm", 5), ("r3d", 6), ("r3d", 4), ("r3a", 10), ("comm", 6), ("comm", 9),
)
_XI3_STEPS = (
    ("comm", 3), ("r3a", 1), ("r3a", 3), ("comm", 2),
    ("comm", 6), ("comm", 5), ("r3a", 3), ("r3a", 1),
    ("comm", 3), ("r3d", 4), ("r3d", 2), ("comm", 4),
    ("comm", 9), ("r3d", 10), ("r3d", 8), ("comm", 10),
)


def _windowed(steps, s: int, width: int) -> list[Move]:
    return [
        Move(kind, pos + width * j) for kind, pos in steps for j in range(s + 1)
    ]


def builtin_script(name: str, s: int = 1, k_for_delta: int | None = None) -> MoveScript:
    """The built-in loop scripts.

    sigma1 is based on (σ1σ2)^{3(s+1)} on 3 strands; xi1/xi2/xi3 on
    (σ1σ2σ3)^{4(s+1)} on 4 strands; delta_power performs k-1 shifts on
    (σ1…σ_{k-1})^{k(s+1)} with k = k_for_delta (default 3).
    """
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unsupported builtin {name!r}; choose from {BUILTIN_NAMES}")
    if s < 1:
        raise ValueError(f"window parameter s must be >= 1, got {s}")
    if k_for_delta is not None and name != "delta_power":
        raise ValueError("k_for_delta applies only to delta_power")

    if name == "delta_power":
        k = 3 if k_for_delta is None else k_for_delta
        if k < 2:
            raise ValueError(f"delta_power needs k >= 2, got {k}")
        base = BraidWord(k, tuple(range(1, k)) * (k * (s + 1)))
        return MoveScript(base, (Move("shift"),) * (k - 1), name=f"delta_power(k={k})")

    if name == "sigma1":
        base = BraidWord(3, (1, 2) * (3 * (s + 1)))
        moves = [Move("shift")]
        moves += [Move("r3d", 1 + 6 * j) for j in range(s + 1)]
        moves += [Move("r3a", 4 + 6 * j) for j in range(s + 1)]
        return MoveScript(base, tuple(moves), name=f"sigma1(s={s})")

    base = BraidWord(4, (1, 2, 3) * (4 * (s + 1)))
    if name == "xi1":
        moves = [Move("shift")] + _windowed(_XI1_STEPS, s, 12)
    elif name == "xi2":
        moves = (
            _windowed(_XI2_PRE_SHIFT_STEPS, s, 12)
            + [Move("shift")]
            + _windowed(_XI2_POST_SHIFT_STEPS, s, 12)
        )
    else:  # xi3
        moves = _windowed(_XI3_STEPS, s, 12) + [Move("shift")]
    return MoveScript(base, tuple(moves), name=f"{name}(s={s})")
