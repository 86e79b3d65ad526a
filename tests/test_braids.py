"""Braid words, moves, script parsing, loop verification, builtins."""

import re
from collections import Counter
from random import Random

import pytest

from legmon.braids import (
    BUILTIN_NAMES,
    BraidWord,
    IllegalMove,
    Move,
    ScriptSyntaxError,
    apply_move,
    builtin_script,
    parse_script,
    verify_loop,
)
from oracles import legal_moves, moved_letters, script_text


def w(strands, *letters):
    return BraidWord(strands, letters)


def moved(word, move):
    """`word` after `move`, applied in place to a list of its letters and
    wrapped back through the checked `BraidWord` constructor."""
    letters = list(word.letters)
    apply_move(letters, move)
    return BraidWord(word.strands, tuple(letters))


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(1, ())
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    assert len(w(3, 1, 2, 1)) == 3


@pytest.mark.parametrize("letter", [1.5, True, "1"])
def test_word_rejects_non_int_letters(letter):
    # True and 1.0 equal 1, so only a check by type refuses them next to 1.
    # Types are checked before ranges: the out-of-range 5 is not named.
    for letters in ((letter,), (1, letter, 2), (5, letter)):
        with pytest.raises(ValueError, match=rf"^letter {re.escape(repr(letter))} is not an int$"):
            BraidWord(3, letters)


@pytest.mark.parametrize("bad", [0, -1, 3])
def test_word_names_first_out_of_range_letter(bad):
    with pytest.raises(ValueError, match=rf"^letter {bad} out of range 1\.\.2$"):
        BraidWord(3, (1, 2, bad, 2, 9, 1))


def test_word_text_multi_digit_letters():
    assert str(w(13, 12, 1, 10, 11, 2, 12)) == "12 1 10 11 2 12"
    assert str(w(3)) == ""


def test_apply_move_examples():
    assert moved(w(3, 2, 1, 2), Move("r3d", 1)) == w(3, 1, 2, 1)
    assert moved(w(4, 1, 3), Move("comm", 1)) == w(4, 3, 1)
    assert moved(w(3, 1, 2, 1, 2), Move("shift")) == w(3, 2, 1, 2, 1)
    assert moved(w(3, 1, 2, 1), Move("r3a", 1)) == w(3, 2, 1, 2)


def test_illegal_moves():
    with pytest.raises(IllegalMove):
        moved(w(3, 1, 2, 1), Move("r3d", 1))  # pattern is r3a's
    with pytest.raises(IllegalMove):
        moved(w(3, 1, 2), Move("comm", 1))  # adjacent indices
    with pytest.raises(IllegalMove):
        moved(w(4, 1, 3, 2), Move("comm", 3))  # runs off the end
    with pytest.raises(IllegalMove):
        moved(w(3, 1, 2, 1), Move("r3a", 3))  # no wrap-around


def test_moves_never_wrap():
    # (2,1,2) read cyclically from position 3 would match r3a, but moves
    # must fit inside the word.
    with pytest.raises(IllegalMove):
        moved(w(3, 2, 1, 2), Move("r3a", 3))


def test_move_validation():
    with pytest.raises(ValueError):
        Move("shift", 1)
    with pytest.raises(ValueError):
        Move("comm")
    with pytest.raises(ValueError):
        Move("r3x", 1)


@pytest.mark.parametrize("pos", [True, 2.0, "2"])
def test_move_rejects_non_int_position(pos):
    # True and 2.0 compare like ints, and "2" cannot be compared with 1:
    # each is refused by type, with the same ValueError.
    for kind in ("comm", "r3a", "r3d"):
        with pytest.raises(ValueError, match=rf"^{kind} needs an int position >= 1, got {re.escape(repr(pos))}$"):
            Move(kind, pos)


def test_move_inverses_property():
    rng = Random(2)
    words = []
    for _ in range(200):
        k = rng.choice((3, 4))
        n = rng.randint(2, 14)
        words.append(BraidWord(k, tuple(rng.randint(1, k - 1) for _ in range(n))))
    for word in words:
        n = len(word)
        shifted = moved(word, Move("shift"))
        for _ in range(n - 1):
            shifted = moved(shifted, Move("shift"))
        assert shifted == word  # length-many shifts is the identity
        for pos in range(1, n + 1):
            for kind, inverse in (("comm", "comm"), ("r3a", "r3d"), ("r3d", "r3a")):
                try:
                    once = moved(word, Move(kind, pos))
                except IllegalMove:
                    continue
                assert moved(once, Move(inverse, pos)) == word
                assert len(once) == n


@pytest.mark.parametrize("strands", (3, 4, 12, 102))
@pytest.mark.parametrize("seed", range(8))
def test_moves_match_checked_construction(strands, seed):
    # apply_move rewrites a letter list in place and nothing re-checks
    # it: after every move the letters must be ones the checked
    # constructor accepts, and the oracle's surgery must agree.  The
    # walk, replayed as a script, must render each word as a
    # letter-by-letter join.
    rng = Random(seed)
    letters = []
    while len(letters) < 40:
        i = rng.randint(1, strands - 1)
        braid = i < strands - 1 and rng.random() < 0.4
        letters += [i, i + 1, i] if braid else [i]
    base = BraidWord(strands, tuple(letters))
    words, moves = [base], []
    kinds = Counter()
    for _ in range(300):
        # Kind first, then position, so that on many strands the rare
        # r3d windows are not drowned out by commuting pairs.
        by_kind = {}
        for m in legal_moves(letters):
            by_kind.setdefault(m.kind, []).append(m)
        move = rng.choice(by_kind[rng.choice(sorted(by_kind))])
        apply_move(letters, move)
        word = BraidWord(strands, tuple(letters))
        assert word.letters == moved_letters(words[-1].letters, move)
        kinds[move.kind] += 1
        words.append(word)
        moves.append(move)
    # Three strands have no commuting letters.
    assert set(kinds) == {"shift", "r3a", "r3d"} | ({"comm"} if strands > 3 else set())
    text, is_loop = verify_loop(base, tuple(moves))
    texts = [" ".join(map(str, w.letters)) for w in words]
    lines = [f"base: {texts[0]}", *(f"{m!s:10s} -> {t}" for m, t in zip(moves, texts[1:]))]
    assert is_loop == (words[-1] == base)
    assert text == "\n".join(lines) + f"\nloop: {'true' if is_loop else 'false'}\n"


@pytest.mark.parametrize(
    "letters,move,message",
    [
        pytest.param((1, 11, 10, 12), Move("comm", 2),
                     "comm 2: letters (11, 10) do not commute", id="comm-pattern"),
        pytest.param((1, 11, 10, 12), Move("comm", 4),
                     "comm 4 does not fit in a word of length 4", id="comm-off-end"),
        pytest.param((10, 11, 10, 12), Move("r3a", 2),
                     "r3a 2: pattern (11, 10, 12) is not (i, i+1, i)", id="r3a-pattern"),
        pytest.param((10, 11, 10, 11), Move("r3a", 3),
                     "r3a 3 does not fit in a word of length 4", id="r3a-off-end"),
        pytest.param((10, 11, 10, 12), Move("r3d", 1),
                     "r3d 1: pattern (10, 11, 10) is not (i+1, i, i+1)", id="r3d-pattern"),
        pytest.param((11, 10, 11), Move("r3d", 2),
                     "r3d 2 does not fit in a word of length 3", id="r3d-off-end"),
    ],
)
def test_illegal_move_changes_nothing(letters, move, message):
    before = letters
    letters = list(letters)
    with pytest.raises(IllegalMove) as err:
        apply_move(letters, move)
    assert str(err.value) == message
    assert re.match(rf"{move}[: ]", str(err.value))  # the message names the move
    assert tuple(letters) == before
    # Replayed after a full turn of shifts, the trace holds every
    # rotation's letter-by-letter join, and the last one is the base.
    n = len(before)
    with pytest.raises(IllegalMove) as err:
        verify_loop(BraidWord(13, before), (Move("shift"),) * n + (move,))
    assert str(err.value) == f"step {n + 1}: {message}"
    assert re.match(rf"step {n + 1}: {move}[: ]", str(err.value))
    rotations = [before[i:] + before[:i] for i in range(n)] + [before]
    assert err.value.trace == tuple(" ".join(map(str, r)) for r in rotations)


def test_letter_multiset_changes():
    word = w(3, 1, 2, 1, 2)
    assert Counter(moved(word, Move("shift")).letters) == Counter(word.letters)
    after = moved(word, Move("r3a", 1))
    assert Counter(after.letters) == Counter((2, 1, 2, 2))
    word4 = w(4, 1, 3, 2)
    assert Counter(moved(word4, Move("comm", 1)).letters) == Counter(word4.letters)


def test_parse_script_examples():
    assert parse_script("shift\nr3d 1") == (Move("shift"), Move("r3d", 1))
    assert parse_script("# header\n\n  comm 2  # swap\nshift\n") == (Move("comm", 2), Move("shift"))


def _error_case(text, fragment, column, id=None):
    """A parse error case, named by its text and fragment only."""
    return pytest.param(text, fragment, column, id=id or f"{text}-{fragment}")


@pytest.mark.parametrize(
    "text,fragment,column",
    [
        _error_case("comm 0", "1-based", 6),
        _error_case("r3x 2", "unknown move keyword", 1),
        _error_case("shift 3", "takes no position", 7),
        _error_case("comm", "needs a position", 5),
        _error_case("r3a two", "not a decimal integer", 5),
        _error_case("comm -1", "not a decimal integer", 6),
        _error_case("r3a 𝟙", "not a decimal integer", 5),
        _error_case("comm ²", "not a decimal integer", 6),
        # More digits than Python's int() converts by default (4300).
        _error_case("comm " + "1" * 5000, "5000 digits is too long", 6,
                    id="comm 5000 digits-too long"),
        # Runs of spaces, tabs and indentation before the token: the
        # column is the token's own, and a missing position's is the one
        # after the keyword.
        _error_case("shift   3", "takes no position", 9),
        _error_case("  shift\t\t3", "takes no position", 10),
        _error_case("comm\t\t0", "1-based", 7),
        _error_case("  comm", "needs a position", 7),
    ],
)
def test_parse_script_errors(text, fragment, column):
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script(text)
    assert fragment in str(err.value)
    assert str(err.value).startswith(f"line 1, column {column}: ")


def test_script_text_round_trip():
    _, moves = builtin_script("xi2", s=2)
    assert parse_script(script_text(moves)) == moves


def test_verify_loop_sigma1_example():
    base, moves = builtin_script("sigma1", s=2)
    assert base == w(3, *(1, 2) * 9)
    assert moves == (
        Move("shift"),
        Move("r3d", 1), Move("r3d", 7), Move("r3d", 13),
        Move("r3a", 4), Move("r3a", 10), Move("r3a", 16),
    )
    text, is_loop = verify_loop(base, moves)
    assert is_loop
    lines = text.splitlines()
    assert len(lines) == 9  # base, one word per move, the verdict
    assert lines[0] == f"base: {base}"
    assert lines[-2:] == [f"r3a 16     -> {base}", "loop: true"]


def test_verify_loop_shift_examples():
    base = w(3, *(1, 2) * 9)
    text, is_loop = verify_loop(base, (Move("shift"),))
    assert not is_loop
    assert text.splitlines()[1:] == ["shift      -> " + " ".join("2 1".split() * 9), "loop: false"]
    _, is_loop = verify_loop(base, (Move("shift"), Move("shift")))
    assert is_loop


def test_verify_loop_reports_step_and_trace():
    base = w(3, 1, 2, 1, 2)
    with pytest.raises(IllegalMove) as err:
        verify_loop(base, (Move("shift"), Move("r3d", 9)))
    assert str(err.value).startswith("step 2: ")
    assert err.value.trace == ("1 2 1 2", "2 1 2 1")


@pytest.mark.parametrize("name", ["sigma1", "xi1", "xi2", "xi3"])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_builtin_loops_certify(name, s):
    _, is_loop = verify_loop(*builtin_script(name, s))
    assert is_loop


def test_builtin_delta_power():
    base, moves = builtin_script("delta_power", s=2, k_for_delta=3)
    assert base == w(3, *(1, 2) * 9)
    assert moves == (Move("shift"), Move("shift"))
    assert verify_loop(base, moves)[1]
    base, moves = builtin_script("delta_power", s=1, k_for_delta=4)
    assert base == w(4, *(1, 2, 3) * 8)
    assert len(moves) == 3
    assert verify_loop(base, moves)[1]


def test_builtin_validation():
    with pytest.raises(ValueError):
        builtin_script("nope")
    with pytest.raises(ValueError):
        builtin_script("sigma1", s=0)
    with pytest.raises(ValueError):
        builtin_script("xi1", s=1, k_for_delta=4)
    assert set(BUILTIN_NAMES) == {"sigma1", "xi1", "xi2", "xi3", "delta_power"}
