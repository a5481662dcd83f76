import random
import sys

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenmod import milnor
from steenmod import textio as T
from steenmod.annihilator import sq_power_chain
from steenmod.cli import main
from steenmod.comodule import ExtendedSpec, extended
from steenmod.f2 import BitMatrix, Subspace
from steenmod.gmodule import (GradedModule, Window, _required_action_keys,
                              dual_regular, free_module, quotient, regular)
from steenmod.milnor import Algebra

A1 = Algebra.subalgebra(1)
FULL = Algebra.full()


def modules_for_roundtrip():
    yield regular(A1, Window(0, 6))
    yield dual_regular(FULL, Window(-8, 0))
    yield free_module([0, 3], A1, Window(-2, 10))
    yield quotient(regular(A1, Window(0, 6)), {6: Subspace.full(1)})


@pytest.mark.parametrize("idx", range(4))
def test_module_roundtrip_bit_exact(idx):
    m = list(modules_for_roundtrip())[idx]
    text = T.print_module(m)
    back = T.parse_module(text)
    assert back == m
    assert T.print_module(back) == text


def _generated_family(m, gens):
    """The degreewise span of the submodule of m that the (degree, mask)
    pairs gens generate: every monomial's image of every generator."""
    vectors = {}
    for d, v in gens:
        vectors.setdefault(d, []).append(v)
        for k in range(1, m.window.hi - d + 1):
            for seq in m.algebra.basis(k):
                vectors.setdefault(d + k, []).append(m.action(seq, d).apply(v))
    return {d: Subspace.from_vectors(vs, m.dims[d]) for d, vs in vectors.items()}


def test_randomized_module_roundtrip_fixed_seed():
    """Quotients of regular and dual regular A(1) modules by submodules on
    random generators, drawn from a seeded rng, print and parse back to
    the same module."""
    rng = random.Random(42)
    bases = [regular(A1, Window(0, 6)), dual_regular(A1, Window(-6, 0)),
             free_module([0, 2], A1, Window(0, 8))]
    sizes = set()
    for _ in range(12):
        m = rng.choice(bases)
        degrees = [d for d in m.window if m.dims[d]]
        gens = [(d, rng.randrange(1, 1 << m.dims[d]))
                for d in rng.sample(degrees, rng.randint(1, 2))]
        q = quotient(m, _generated_family(m, gens))
        sizes.add(q.total_dim())
        text = T.print_module(q)
        assert T.parse_module(text) == q
        assert T.print_module(T.parse_module(text)) == text
    assert len(sizes) > 2  # the draws gave different quotients


def test_comodule_roundtrip_bit_exact():
    c = extended(ExtendedSpec({0: 1, -1: 1}), FULL, Window(-8, 0))
    text = T.print_comodule(c)
    assert T.parse_comodule(text) == c
    assert T.print_comodule(T.parse_comodule(text)) == text


def test_truncated_file_reports_location():
    m = regular(A1, Window(0, 6))
    text = T.print_module(m)
    cut = text[: len(text) // 2]
    with pytest.raises(T.ParseError) as exc:
        T.parse_module(cut)
    assert "line" in str(exc.value)


def test_corrupt_row_reports_line():
    m = regular(A1, Window(0, 6))
    lines = T.print_module(m).splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("@"):
            lines[i + 1] = lines[i + 1] + "1"  # wrong width
            break
    with pytest.raises(T.ParseError) as exc:
        T.parse_module("\n".join(lines))
    assert f"line {i + 2}" in str(exc.value)


def test_wrong_header_rejected():
    with pytest.raises(T.ParseError):
        T.parse_module("something else\n")
    with pytest.raises(T.ParseError):
        T.parse_comodule(T.print_module(regular(A1, Window(0, 3))))


def test_chain_roundtrip_and_errors():
    ch = T.parse_chain("chain: [Sq(1)] ; [Sq(1),Sq(2)] ; [Sq(1),Sq(2),Sq(4)]")
    assert len(ch.stages) == 3
    assert T.parse_chain(str(ch)) == ch
    sums = T.parse_chain("chain: [Sq(3)+Sq(0,1)]")
    assert len(sums.stages[0].generators) == 1
    with pytest.raises(T.ParseError):
        T.parse_chain("not a chain")
    with pytest.raises(T.ParseError):
        T.parse_chain("chain: [Sq(1)] ; []")


MUTATION_BASES = [
    (T.parse_module, T.print_module(regular(A1, Window(0, 6)))),
    (T.parse_module, T.print_module(dual_regular(FULL, Window(-5, 0)))),
    (T.parse_comodule, T.print_comodule(
        extended(ExtendedSpec({0: 1, -1: 1}), FULL, Window(-5, 0)))),
    (T.parse_chain, str(sq_power_chain(4))),
]
HEX = "0123456789abcdef"


def _mutate(text, kind, at, digit):
    if kind == "delete-line":
        lines = text.split("\n")
        del lines[at % len(lines)]
        return "\n".join(lines)
    if kind == "flip-digit":
        spots = [i for i, ch in enumerate(text) if ch in HEX]
        if not spots:
            return text
        i = spots[at % len(spots)]
        return text[:i] + digit + text[i + 1:]
    return text[:at % (len(text) + 1)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(MUTATION_BASES))),
       st.lists(st.tuples(st.sampled_from(["delete-line", "flip-digit",
                                           "truncate"]),
                          st.integers(0, 1 << 16), st.sampled_from(HEX)),
                min_size=1, max_size=4))
def test_mutated_text_parses_or_reports_a_line(base, mutations):
    """Printed text with lines deleted, digits flipped or a tail cut off
    either parses or raises ParseError naming a line; nothing else."""
    parse, text = MUTATION_BASES[base]
    for kind, at, digit in mutations:
        text = _mutate(text, kind, at, digit)
    try:
        parse(text)
    except T.ParseError as exc:
        assert exc.line_no >= 1
        assert str(exc).startswith(f"line {exc.line_no}: ")


def test_negative_block_shape_reports_line():
    text = T.print_module(regular(A1, Window(0, 3)))
    lines = text.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("@ "))
    d_part, shape = lines[at].split(":")
    lines[at] = f"{d_part}: -{shape.strip()}"
    with pytest.raises(T.ParseError) as exc:
        T.parse_module("\n".join(lines))
    assert exc.value.line_no == at + 1
    com = T.print_comodule(extended(ExtendedSpec({0: 1}), FULL, Window(-3, 0)))
    com = com.replace(": 1x1", ": 1x-1", 1)
    with pytest.raises(T.ParseError) as exc:
        T.parse_comodule(com)
    assert "negative shape" in str(exc.value)


def test_huge_window_names_first_missing_degree():
    text = T.print_module(regular(A1, Window(0, 3)))
    text = text.replace("window: 0..3", "window: 0..1000000000000")
    with pytest.raises(T.ParseError) as exc:
        T.parse_module(text)
    assert str(exc.value) == ("line 5: dims missing degree 4 of window "
                              "0..1000000000000")


@pytest.mark.parametrize("header", ["0", "Sq(1)+Sq(0,1)"])
def test_action_header_not_one_monomial_reports_line(header):
    text = T.print_module(regular(A1, Window(0, 3)))
    lines = text.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("action "))
    lines[at] = f"action {header}"
    with pytest.raises(T.ParseError) as exc:
        T.parse_module("\n".join(lines))
    assert str(exc.value) == (f"line {at + 1}: action header needs one "
                              f"monomial Sq(...), found {header!r}")


NOISE_BASES = [
    (T.parse_module, T.print_module(regular(A1, Window(0, 6)))),
    (T.parse_module, T.print_module(dual_regular(FULL, Window(-6, 0)))),
    (T.parse_comodule, T.print_comodule(
        extended(ExtendedSpec({0: 1, -1: 1}), FULL, Window(-6, 0)))),
]


def _is_block_header(line):
    return line.startswith("@ ") or line.startswith("coaction ")


def _noisy_blocks(text):
    """The text with a comment line and a blank line before the first row
    of every matrix block and every row of the block space-padded."""
    out = []
    in_block = False
    for line in text.split("\n"):
        if in_block and line and set(line) <= {"0", "1"}:
            out.append(f"  {line} ")
            continue
        in_block = _is_block_header(line)
        out.append(line)
        if in_block:
            out += ["# inside a block", ""]
    return "\n".join(out)


@pytest.mark.parametrize("base", range(len(NOISE_BASES)))
def test_comments_blanks_and_padding_inside_blocks(base):
    parse, text = NOISE_BASES[base]
    noisy = _noisy_blocks(text)
    assert noisy != text
    assert parse(noisy) == parse(text)


@pytest.mark.parametrize("base", range(len(NOISE_BASES)))
def test_bad_row_after_comments_reports_its_line(base):
    parse, text = NOISE_BASES[base]
    lines = text.split("\n")
    at = next(i for i, ln in enumerate(lines) if _is_block_header(ln))
    lines[at + 1:at + 1] = ["# a comment", "", "   "]
    row = at + 4
    lines[row] = lines[row] + "1"
    with pytest.raises(T.ParseError) as exc:
        parse("\n".join(lines))
    assert exc.value.line_no == row + 1
    assert "bad matrix row" in str(exc.value)


@pytest.mark.parametrize("base", range(len(NOISE_BASES)))
def test_truncated_block_reports_end_of_file(base):
    parse, text = NOISE_BASES[base]
    lines = text.split("\n")
    at = next(i for i, ln in enumerate(lines)
              if _is_block_header(ln) and int(ln.split("x")[0].split()[-1]) > 1)
    with pytest.raises(T.ParseError) as exc:
        parse("\n".join(lines[:at + 2]))
    assert "unexpected end of file (matrix row of" in str(exc.value)
    assert exc.value.line_no == at + 3


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(NOISE_BASES))),
       st.lists(st.tuples(st.sampled_from(["comment", "blank", "indent"]),
                          st.integers(0, 1 << 16)),
                min_size=1, max_size=8))
def test_comments_blanks_and_indentation_anywhere_parse_the_same(base, noise):
    """Comment lines, blank lines and indentation inserted at random
    positions leave the parsed module or comodule unchanged."""
    parse, text = NOISE_BASES[base]
    lines = text.split("\n")
    for kind, at in noise:
        i = at % len(lines)
        if kind == "comment":
            lines.insert(i, "# noise 0101")
        elif kind == "blank":
            lines.insert(i, " " * (at % 3))
        else:
            lines[i] = " " * (1 + at % 3) + lines[i]
    assert parse("\n".join(lines)) == parse(text)


@pytest.mark.parametrize("text", [
    "steenmod module v1\n",
    "# c\r\n\r\n  steenmod comodule v1  \r\nalgebra: full\n",
    "\n \t\n# a\n  # b\n\tsteenmod module v1\n",
    "# c\rsteenmod comodule v1\n",
    "# c\x0csteenmod comodule v1",
])
def test_header_line_is_the_first_line_the_parser_reads(text):
    assert T.header_line(text) == T._Lines(text).next("header")[1]


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n  \n"])
def test_header_line_of_a_file_without_content_is_empty(text):
    assert T.header_line(text) == ""


A1_REGULAR = T.print_module(regular(A1, Window(0, 3)))
A1_FREE = T.print_module(free_module([0], A1, Window(0, 8)))
EXTENDED = T.print_comodule(
    extended(ExtendedSpec({0: 1, -2: 1}), FULL, Window(-4, 0)))
A1_EXTENDED = T.print_comodule(
    extended(ExtendedSpec({0: 1}), A1, Window(-8, 0)))
UNREQUESTED = "is not one the header calls for"


@pytest.mark.parametrize("parse, text, before, inserted, message", [
    (T.parse_module, A1_REGULAR, "@ 1: 1x1", ["@ 0: 1x1", "1"],
     "repeated block Sq(1) @ 0"),
    (T.parse_module, A1_REGULAR, "end", ["action Sq(2)", "@ 1: 2x1", "0", "0"],
     "repeated block Sq(2) @ 1"),
    (T.parse_module, A1_REGULAR, "end", ["action Sq(1)", "@ 3: 0x2"],
     f"block Sq(1) @ 3 {UNREQUESTED}"),
    (T.parse_module, A1_REGULAR, "end", ["action Sq(2)", "@ -1: 0x0"],
     f"block Sq(2) @ -1 {UNREQUESTED}"),
    (T.parse_module, A1_REGULAR, "end", ["action Sq()", "@ 0: 1x1", "1"],
     f"block Sq() @ 0 {UNREQUESTED}"),
    (T.parse_module, T.print_module(regular(A1, Window(0, 6))), "end",
     ["action Sq(4)", "@ 0: 1x1", "0"], f"block Sq(4) @ 0 {UNREQUESTED}"),
    (T.parse_module, A1_FREE, "end", ["action Sq(1)", "@ 6: 0x1"],
     f"block Sq(1) @ 6 {UNREQUESTED}"),
    (T.parse_module, A1_FREE, "end", ["action Sq(1)", "@ 7: 0x0"],
     f"block Sq(1) @ 7 {UNREQUESTED}"),
    (T.parse_comodule, EXTENDED, "coaction -2 1: 1x2",
     ["coaction -3 2: 1x3", "001"], "repeated block coaction (-3,2)"),
    (T.parse_comodule, EXTENDED, "end", ["coaction 0 1: 1x1", "1"],
     f"block coaction (0,1) {UNREQUESTED}"),
    (T.parse_comodule, EXTENDED, "end", ["coaction 1 1: 0x0"],
     f"block coaction (1,1) {UNREQUESTED}"),
    (T.parse_comodule, EXTENDED, "end", ["coaction -1 0: 1x1", "1"],
     f"block coaction (-1,0) {UNREQUESTED}"),
    (T.parse_comodule, A1_EXTENDED, "end", ["coaction -8 2: 0x0"],
     f"block coaction (-8,2) {UNREQUESTED}"),
    (T.parse_module, A1_REGULAR, "end", ["action Sq()", "@ 0: 2x0", "", ""],
     f"block Sq() @ 0 {UNREQUESTED}"),
    (T.parse_comodule, EXTENDED, "end", ["coaction 0 1: 2x0", "", ""],
     f"block coaction (0,1) {UNREQUESTED}"),
    (T.parse_module, A1_REGULAR, "end",
     ["action Sq()", "@ 0: 2x0", "# c", "", ""], f"block Sq() @ 0 {UNREQUESTED}"),
    (T.parse_module, A1_REGULAR, "end",
     ["action Sq()", "@ 0: 2x0", "  ", "# c", "\t"],
     f"block Sq() @ 0 {UNREQUESTED}"),
    (T.parse_comodule, EXTENDED, "end",
     ["coaction 0 1: 2x0", "", "# c", ""], f"block coaction (0,1) {UNREQUESTED}"),
    (T.parse_comodule, EXTENDED, "end",
     ["coaction 0 1: 2x0", "# c", " ", "  "],
     f"block coaction (0,1) {UNREQUESTED}"),
], ids=["module-repeat-same-action", "module-repeat-reopened-action",
        "module-target-outside-window", "module-degree-outside-window",
        "module-unit", "module-not-in-algebra", "module-zero-target",
        "module-zero-source", "comodule-repeat", "comodule-target-outside-window",
        "comodule-degree-outside-window", "comodule-counit",
        "comodule-zero-source", "module-zero-width", "comodule-zero-width",
        "module-zero-width-commented", "module-zero-width-whitespace",
        "comodule-zero-width-commented", "comodule-zero-width-whitespace"])
def test_repeated_and_unrequested_blocks_report_their_header(
        parse, text, before, inserted, message):
    """A block the header does not call for, or a second block at the same
    key, is rejected at the line of that block's header."""
    lines = text.split("\n")
    at = lines.index(before)
    lines[at:at] = inserted
    header = at + next(i for i, ln in enumerate(inserted)
                       if _is_block_header(ln))
    with pytest.raises(T.ParseError) as exc:
        parse("\n".join(lines))
    assert str(exc.value) == f"line {header + 1}: {message}"


@pytest.mark.parametrize("flags", ["", "below below", "above above",
                                   "below above below", "none none",
                                   "none below", "sideways"])
def test_bad_exact_field_reports_its_line(flags):
    text = A1_REGULAR.replace("exact: below", f"exact: {flags}")
    with pytest.raises(T.ParseError) as exc:
        T.parse_module(text)
    assert str(exc.value) == f"line 4: bad exactness flags {flags!r}"


def test_module_block_of_wrong_shape_reports_its_header():
    """A block whose header shape disagrees with the dims line is rejected
    at its own header line, not at the end of the file; a missing block is
    still reported at the end."""
    lines = T.print_module(regular(A1, Window(0, 6))).split("\n")
    assert lines[6:8] == ["@ 0: 1x1", "1"]
    lines[6:8] = ["@ 0: 1x2", "10"]
    with pytest.raises(T.ParseError) as exc:
        T.parse_module("\n".join(lines))
    assert str(exc.value) == ("line 7: block Sq(1) @ 0 has shape 1x2, "
                              "expected 1x1")
    del lines[6:8]
    end = lines.index("end")
    with pytest.raises(T.ParseError) as exc:
        T.parse_module("\n".join(lines))
    assert exc.value.line_no == end + 1
    assert "missing action of Sq(1,) at degree 0" in str(exc.value)


def test_comodule_block_of_wrong_shape_reports_its_header():
    lines = T.print_comodule(
        extended(ExtendedSpec({0: 1}), A1, Window(-6, 0))).split("\n")
    assert lines[5:7] == ["coaction -6 1: 1x1", "1"]
    lines[5:7] = ["coaction -6 1: 1x2", "10"]
    with pytest.raises(T.ParseError) as exc:
        T.parse_comodule("\n".join(lines))
    assert str(exc.value) == ("line 6: block coaction (-6,1) has shape 1x2, "
                              "expected 1x1")
    del lines[5:7]
    end = lines.index("end")
    with pytest.raises(T.ParseError) as exc:
        T.parse_comodule("\n".join(lines))
    assert exc.value.line_no == end + 1
    assert "missing coaction block (-6, 1)" in str(exc.value)


@pytest.mark.parametrize("parse, text, dims, negative, message", [
    (T.parse_module, A1_REGULAR, "dims: 0=1 1=1 2=1 3=2",
     "dims: 0=1 1=1 2=1 3=-2", "negative dimension -2 at degree 3"),
    (T.parse_comodule, EXTENDED, "dims: -4=3 -3=3 -2=2 -1=1 0=1",
     "dims: -4=3 -3=-3 -2=2 -1=1 0=1", "negative dimension -3 at degree -3"),
], ids=["module", "comodule"])
def test_negative_dimension_reports_the_dims_line(parse, text, dims,
                                                  negative, message):
    """A negative dimension is refused at the dims line, naming its degree,
    not at the first block whose shape it contradicts."""
    lines = text.split("\n")
    at = lines.index(dims)
    lines[at] = negative
    with pytest.raises(T.ParseError) as exc:
        parse("\n".join(lines))
    assert str(exc.value) == f"line {at + 1}: {message}"


def test_bad_row_in_a_block_no_command_reads_fails_the_parse(
        tmp_path, monkeypatch, capsys):
    """Every block is checked at parse, so a bad row in a block that
    ``freeness --over 1`` never decodes still fails, with its line."""
    text = T.print_module(regular(FULL, Window(0, 8)))
    path = tmp_path / "regular.stm"
    path.write_text(text)
    parse = T.parse_module
    parsed = []

    def kept(text):
        parsed.append(parse(text))
        return parsed[-1]

    monkeypatch.setattr(T, "parse_module", kept)
    assert main(["freeness", "--module", str(path), "--over", "1"]) == 0
    assert ((4,), 0) not in parsed[0].actions
    capsys.readouterr()

    lines = text.split("\n")
    at = lines.index("action Sq(4)") + 2  # the first row of Sq(4) @ 0
    lines[at] = lines[at][:-1] + "2"
    path.write_text("\n".join(lines))
    message = f"line {at + 1}: bad matrix row {lines[at]!r}"
    with pytest.raises(T.ParseError) as exc:
        parse("\n".join(lines))
    assert str(exc.value).startswith(message)
    assert main(["freeness", "--module", str(path), "--over", "1"]) == 3
    assert message in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 1, 2, 3, 9]), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_decoded_blocks_equal_a_per_row_decode(dims, rnd):
    """A parsed module's matrices, decoded block by block on first read,
    are the blocks of its file read row by row, with or without comments,
    blank lines and padding inside the blocks."""
    dims = dict(enumerate(dims))
    window = Window(0, len(dims) - 1)
    table = {}
    for seq, d in _required_action_keys(A1, window, dims):
        nrows, ncols = dims[d + milnor.degree(seq)], dims[d]
        table[seq, d] = BitMatrix(
            nrows, ncols, [rnd.getrandbits(ncols) for _ in range(nrows)])
    text = T.print_module(
        GradedModule(A1, window, dims, oracles.table_source(table)))
    for variant in (text, _noisy_blocks(text)):
        assert oracles.blocks_by_rows(variant) == table
        assert T.parse_module(variant).action_table() == table


@pytest.mark.parametrize("base", range(len(NOISE_BASES)))
def test_printed_blocks_parse_as_a_per_row_decode(base):
    parse, text = NOISE_BASES[base]
    for variant in (text, _noisy_blocks(text)):
        parsed = parse(variant)
        table = (parsed.action_table() if parse is T.parse_module
                 else parsed.coactions)
        assert table == oracles.blocks_by_rows(variant)


def test_parsed_module_drops_each_block_text_on_its_first_read():
    """The parser holds each block's text only until the module first
    reads the block, so after the full table it holds no text at all."""
    m = T.parse_module(T.print_module(regular(FULL, Window(0, 8))))
    (texts,) = [cell.cell_contents for cell in m._source.__closure__
                if isinstance(cell.cell_contents, dict)
                and all(isinstance(v, str)
                        for v in cell.cell_contents.values())]
    assert set(texts) == set(m.action_table())
    assert not texts and sys.getsizeof(texts) == sys.getsizeof({})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.sampled_from([0, 1, 2, 7, 64, 130]),
       st.randoms(use_true_random=False))
def test_block_format_matches_the_per_row_format(nrows, ncols, rnd):
    m = BitMatrix(nrows, ncols, [rnd.getrandbits(ncols) for _ in range(nrows)])
    header = f"@ 0: {nrows}x{ncols}"
    assert T._print_block(header, m) == "\n".join(
        [header] + oracles.text_rows(m))
