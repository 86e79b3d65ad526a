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
    MoveScript,
    ScriptSyntaxError,
    apply_move,
    builtin_script,
    parse_script,
    verify_loop,
)
from oracles import script_text


def w(strands, *letters):
    return BraidWord(strands, letters)


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
    for letters in ((letter,), (1, letter, 2)):
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
    assert apply_move(w(3, 2, 1, 2), Move("r3d", 1)) == w(3, 1, 2, 1)
    assert apply_move(w(4, 1, 3), Move("comm", 1)) == w(4, 3, 1)
    assert apply_move(w(3, 1, 2, 1, 2), Move("shift")) == w(3, 2, 1, 2, 1)
    assert apply_move(w(3, 1, 2, 1), Move("r3a", 1)) == w(3, 2, 1, 2)


def test_illegal_moves():
    with pytest.raises(IllegalMove):
        apply_move(w(3, 1, 2, 1), Move("r3d", 1))  # pattern is r3a's
    with pytest.raises(IllegalMove):
        apply_move(w(3, 1, 2), Move("comm", 1))  # adjacent indices
    with pytest.raises(IllegalMove):
        apply_move(w(4, 1, 3, 2), Move("comm", 3))  # runs off the end
    with pytest.raises(IllegalMove):
        apply_move(w(3, 1, 2, 1), Move("r3a", 3))  # no wrap-around


def test_moves_never_wrap():
    # (2,1,2) read cyclically from position 3 would match r3a, but moves
    # must fit inside the word.
    with pytest.raises(IllegalMove):
        apply_move(w(3, 2, 1, 2), Move("r3a", 3))


def test_move_validation():
    with pytest.raises(ValueError):
        Move("shift", 1)
    with pytest.raises(ValueError):
        Move("comm")
    with pytest.raises(ValueError):
        Move("r3x", 1)


def test_move_inverses_property():
    rng = Random(2)
    words = []
    for _ in range(200):
        k = rng.choice((3, 4))
        n = rng.randint(2, 14)
        words.append(BraidWord(k, tuple(rng.randint(1, k - 1) for _ in range(n))))
    for word in words:
        n = len(word)
        shifted = apply_move(word, Move("shift"))
        for _ in range(n - 1):
            shifted = apply_move(shifted, Move("shift"))
        assert shifted == word  # length-many shifts is the identity
        for pos in range(1, n + 1):
            for kind, inverse in (("comm", "comm"), ("r3a", "r3d"), ("r3d", "r3a")):
                try:
                    once = apply_move(word, Move(kind, pos))
                except IllegalMove:
                    continue
                assert apply_move(once, Move(inverse, pos)) == word
                assert len(once) == n


def legal_moves(letters):
    """Every move legal on `letters`, found by scanning them directly."""
    moves = [Move("shift")] if letters else []
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


def moved_letters(letters, move):
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


@pytest.mark.parametrize("strands", (3, 4, 12, 102))
@pytest.mark.parametrize("seed", range(8))
def test_moves_match_checked_construction(strands, seed):
    # apply_move skips BraidWord's checks; each word it returns must be
    # one the checked constructor accepts and builds equal.  The walk,
    # replayed as a script, must render as a letter-by-letter join.
    rng = Random(seed)
    letters = []
    while len(letters) < 40:
        i = rng.randint(1, strands - 1)
        braid = i < strands - 1 and rng.random() < 0.4
        letters += [i, i + 1, i] if braid else [i]
    word = base = BraidWord(strands, tuple(letters))
    words, moves = [base], []
    kinds = Counter()
    for _ in range(300):
        # Kind first, then position, so that on many strands the rare
        # r3d windows are not drowned out by commuting pairs.
        by_kind = {}
        for m in legal_moves(word.letters):
            by_kind.setdefault(m.kind, []).append(m)
        move = rng.choice(by_kind[rng.choice(sorted(by_kind))])
        moved = apply_move(word, move)
        checked = BraidWord(moved.strands, moved.letters)
        assert moved == checked and hash(moved) == hash(checked)
        assert moved.strands == strands
        assert moved.letters == moved_letters(word.letters, move)
        assert str(moved) == " ".join(map(str, moved.letters))
        kinds[move.kind] += 1
        word = moved
        words.append(word)
        moves.append(move)
    # Three strands have no commuting letters.
    assert set(kinds) == {"shift", "r3a", "r3d"} | ({"comm"} if strands > 3 else set())
    report = verify_loop(MoveScript(base, tuple(moves)))
    texts = [" ".join(map(str, w.letters)) for w in words]
    assert report.to_lines() == (
        [f"base: {texts[0]}"]
        + [f"{str(m):10s} -> {t}" for m, t in zip(moves, texts[1:])]
        + [f"loop: {'true' if word == base else 'false'}"]
    )


def test_letter_multiset_changes():
    word = w(3, 1, 2, 1, 2)
    assert Counter(apply_move(word, Move("shift")).letters) == Counter(word.letters)
    moved = apply_move(word, Move("r3a", 1))
    assert Counter(moved.letters) == Counter((2, 1, 2, 2))
    word4 = w(4, 1, 3, 2)
    assert Counter(apply_move(word4, Move("comm", 1)).letters) == Counter(word4.letters)


def test_parse_script_examples():
    base = w(3, 1, 2, 1, 2, 1, 2)
    script = parse_script("shift\nr3d 1", base)
    assert script.moves == (Move("shift"), Move("r3d", 1))
    script = parse_script("# header\n\n  comm 2  # swap\nshift\n", base, name="demo")
    assert script.moves == (Move("comm", 2), Move("shift"))
    assert script.name == "demo"
    assert script.base == base


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("comm 0", "1-based"),
        ("r3x 2", "unknown move keyword"),
        ("shift 3", "takes no position"),
        ("comm", "needs a position"),
        ("r3a two", "not a decimal integer"),
        ("comm -1", "not a decimal integer"),
        ("r3a 𝟙", "not a decimal integer"),
        ("comm ²", "not a decimal integer"),
        # More digits than Python's int() converts by default (4300).
        pytest.param("comm " + "1" * 5000, "5000 digits is too long",
                     id="comm 5000 digits-too long"),
    ],
)
def test_parse_script_errors(text, fragment):
    base = w(3, 1, 2)
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script(text, base)
    assert fragment in str(err.value)
    assert err.value.line == 1
    assert err.value.column >= 1


def test_script_text_round_trip():
    script = builtin_script("xi2", s=2)
    again = parse_script(script_text(script), script.base)
    assert again.moves == script.moves


def test_verify_loop_sigma1_example():
    script = builtin_script("sigma1", s=2)
    assert script.base == w(3, *(1, 2) * 9)
    assert script.moves == (
        Move("shift"),
        Move("r3d", 1), Move("r3d", 7), Move("r3d", 13),
        Move("r3a", 4), Move("r3a", 10), Move("r3a", 16),
    )
    report = verify_loop(script)
    assert report.is_loop
    assert len(report.trace) == 8  # base plus one word per move
    assert report.trace[-1] == script.base


def test_verify_loop_shift_examples():
    base = w(3, *(1, 2) * 9)
    one = verify_loop(MoveScript(base, (Move("shift"),)))
    assert not one.is_loop
    assert one.trace[-1].letters[0] == 2
    two = verify_loop(MoveScript(base, (Move("shift"), Move("shift"))))
    assert two.is_loop


def test_verify_loop_reports_step_and_trace():
    base = w(3, 1, 2, 1, 2)
    script = MoveScript(base, (Move("shift"), Move("r3d", 9)))
    with pytest.raises(IllegalMove) as err:
        verify_loop(script)
    assert err.value.step == 2
    assert err.value.trace == (base, apply_move(base, Move("shift")))


@pytest.mark.parametrize("name", ["sigma1", "xi1", "xi2", "xi3"])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_builtin_loops_certify(name, s):
    assert verify_loop(builtin_script(name, s)).is_loop


def test_builtin_delta_power():
    script = builtin_script("delta_power", s=2, k_for_delta=3)
    assert script.base == w(3, *(1, 2) * 9)
    assert script.moves == (Move("shift"), Move("shift"))
    assert verify_loop(script).is_loop
    four = builtin_script("delta_power", s=1, k_for_delta=4)
    assert four.base == w(4, *(1, 2, 3) * 8)
    assert len(four.moves) == 3
    assert verify_loop(four).is_loop


def test_builtin_validation():
    with pytest.raises(ValueError):
        builtin_script("nope")
    with pytest.raises(ValueError):
        builtin_script("sigma1", s=0)
    with pytest.raises(ValueError):
        builtin_script("xi1", s=1, k_for_delta=4)
    assert set(BUILTIN_NAMES) == {"sigma1", "xi1", "xi2", "xi3", "delta_power"}
