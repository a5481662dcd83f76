"""Versioned line-oriented text formats for modules, comodules and chains.

Printing is canonical (sorted blocks, fixed field order), so
parse(print(x)) == x bit-exactly and byte-identical re-printing is a
regression check.  A chain prints as ``str(chain)``.  Parsers are strict
and report the offending line; ``parse_module`` is the only check of a
module file's blocks.  It checks every block at parse and keeps its text,
and the parsed module decodes a block into a matrix on its first read.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Hashable, Iterable, Optional

from . import milnor
from .annihilator import HomIdeal, IdealChain
from .comodule import GradedComodule, _required_coaction_keys
from .f2 import BitMatrix
from .gmodule import GradedModule, Window, _required_action_keys
from .milnor import Algebra, Seq

MODULE_HEADER = "steenmod module v1"
COMODULE_HEADER = "steenmod comodule v1"


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _seq_str(seq: Seq) -> str:
    return "Sq(" + ",".join(str(r) for r in seq) + ")"


def _algebra_str(a: Algebra) -> str:
    return "full" if a.is_full else f"subalgebra {a.profile_index}"


def _parse_algebra(text: str, line_no: int) -> Algebra:
    parts = text.split()
    if parts == ["full"]:
        return Algebra.full()
    if len(parts) == 2 and parts[0] == "subalgebra":
        try:
            return Algebra.subalgebra(int(parts[1]))
        except ValueError:
            pass
    raise ParseError(line_no, f"bad algebra {text!r}")


def _exact_str(bottom: bool, top: bool) -> str:
    names = []
    if bottom:
        names.append("below")
    if top:
        names.append("above")
    return " ".join(names) if names else "none"


def _parse_exact(text: str, line_no: int) -> tuple[bool, bool]:
    toks = text.split()
    if toks == ["none"]:
        return False, False
    if (not toks or len(set(toks)) != len(toks)
            or set(toks) - {"below", "above"}):
        raise ParseError(line_no, f"bad exactness flags {text!r}")
    return "below" in toks, "above" in toks


def _parse_window(text: str, line_no: int) -> Window:
    try:
        lo_s, hi_s = text.split("..")
        return Window(int(lo_s), int(hi_s))
    except (ValueError, TypeError):
        raise ParseError(line_no, f"bad window {text!r} (expected LO..HI)") from None


def _parse_dims(text: str, window: Window, line_no: int) -> dict[int, int]:
    dims: dict[int, int] = {}
    for tok in text.split():
        try:
            d_s, n_s = tok.split("=")
            d, n = int(d_s), int(n_s)
        except ValueError:
            raise ParseError(line_no, f"bad dims token {tok!r}") from None
        if d in dims:
            raise ParseError(line_no, f"dims repeat degree {d}")
        if d not in window:
            raise ParseError(line_no, f"dims degree {d} outside window {window}")
        if n < 0:
            raise ParseError(line_no, f"negative dimension {n} at degree {d}")
        dims[d] = n
    # stops at the first gap, so a huge window costs no more than the dims
    # actually listed
    for d in window:
        if d not in dims:
            raise ParseError(line_no,
                             f"dims missing degree {d} of window {window}")
    return dims


def header_line(text: str) -> str:
    """The first line a parser reads, stripped: the first one that is
    neither blank nor a '#' comment ('' when there is none).  Lines are
    split only up to that one."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        for raw in text[start:end].splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                return line
        start = end + 1
    return ""


class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, what: str, blank: bool = False) -> tuple[int, str]:
        """The number and stripped text of the next line that is not a
        comment and, unless blank, not blank."""
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            stripped = raw.strip()
            if (stripped or blank) and not stripped.startswith("#"):
                return self.pos, stripped
        raise ParseError(len(self.lines) + 1, f"unexpected end of file ({what} expected)")

    def expect_field(self, name: str) -> tuple[int, str]:
        no, line = self.next(f"{name}:")
        prefix = name + ":"
        if not line.startswith(prefix):
            raise ParseError(no, f"expected {prefix!r}, found {line!r}")
        return no, line[len(prefix):].strip()


def _read_block(lines: _Lines, nrows: int, ncols: int, header_no: int,
                expected: Optional[tuple[int, int]], key: Hashable,
                name: Callable[[Hashable], str]) -> str:
    """The checked text of the block at key whose header is at line
    header_no: its rows, column 0 first, joined by newlines.  expected is
    the shape the dims line gives a block the header calls for, and None
    for any other block, which ``_reject_unrequested`` refuses.  name(key)
    names the block, and is called only on an error."""
    if nrows < 0 or ncols < 0:
        raise ParseError(header_no,
                         f"negative shape {nrows}x{ncols} of {name(key)}")
    if expected is not None and (nrows, ncols) != expected:
        raise ParseError(header_no, f"block {name(key)} has shape "
                                    f"{nrows}x{ncols}, expected "
                                    f"{expected[0]}x{expected[1]}")
    if not nrows:
        return ""
    # a block as printed: the next nrows lines are its rows, bare, so their
    # joined text has a newline after every ncols bits and nothing but bits
    # and newlines (a row of width 0 is a blank line)
    pos = lines.pos
    chunk = "\n".join(lines.lines[pos:pos + nrows])
    if (len(chunk) == nrows * (ncols + 1) - 1
            and chunk[ncols::ncols + 1] == "\n" * (nrows - 1)
            and not chunk.strip("01\n")):
        lines.pos = pos + nrows
        return chunk
    # otherwise row by row, past comments, blank lines and padding; a row
    # of width 0 is itself blank, so there only comments are passed
    what = f"matrix row of {name(key)}"
    rows = []
    for _ in range(nrows):
        no, line = lines.next(what, blank=not ncols)
        # int(s, 2) would also take '_', signs and whitespace
        if len(line) != ncols or set(line) - {"0", "1"}:
            raise ParseError(no, f"bad matrix row {line!r} ({ncols} bits expected)")
        rows.append(line)
    return "\n".join(rows)


def _decode(ncols: int, chunk: str) -> BitMatrix:
    """The matrix of the checked text of a block the header calls for,
    which has at least one row and one column."""
    # one reversal turns the last row's last bit into the first character,
    # so each row, read backwards, is its int in base 2
    rows = list(map(int, chunk[::-1].split("\n"), repeat(2)))
    rows.reverse()
    return BitMatrix._of_checked_rows(ncols, rows)


def _reject_unrequested(blocks: dict[Hashable, int],
                        required: Iterable[Hashable],
                        name: Callable[[Hashable], str]) -> Optional[Hashable]:
    """The first key of ``required`` with no block, or else None after
    raising at the header line of the first block, in file order, that
    ``required`` does not yield.  ``blocks`` maps each block's key to the
    line of its header, and name(key) names a block.  The scan of
    ``required`` stops at its first key with no block, so it holds no more
    keys than the file has blocks."""
    seen = set()
    for key in required:
        if key not in blocks:
            return key
        seen.add(key)
    for key, no in blocks.items():
        if key not in seen:
            raise ParseError(no, f"block {name(key)} is not one the header "
                                 "calls for")


def _print_block(header: str, mat: BitMatrix) -> str:
    """A block's header line and its rows, column 0 first, as one string
    with no final newline."""
    if not mat.nrows:
        return header
    if not mat.ncols:
        return header + "\n" * mat.nrows  # format(0, "00b") would give "0"
    # formatting the rows last to first and reversing the joined text once
    # reverses each row's bits and restores the row order
    text = "\n".join(map(format, reversed(mat.rows),
                         repeat(f"0{mat.ncols}b")))
    return f"{header}\n{text[::-1]}"


def _print_preamble(header: str, x: GradedModule | GradedComodule) -> list[str]:
    """The header and field lines of a module or comodule."""
    return [header,
            f"algebra: {_algebra_str(x.algebra)}",
            f"window: {x.window}",
            f"exact: {_exact_str(x.bottom_exact, x.top_exact)}",
            "dims: " + " ".join(f"{d}={x.dims[d]}" for d in x.window)]


def _parse_preamble(lines: _Lines, header: str) -> dict:
    """Read the header and field lines of a module or comodule; returns the
    keyword arguments algebra, window, dims, bottom_exact and top_exact of
    its constructor."""
    no, line = lines.next("header")
    if line != header:
        raise ParseError(no, f"expected {header!r}")
    _, alg_text = lines.expect_field("algebra")
    algebra = _parse_algebra(alg_text, lines.pos)
    _, win_text = lines.expect_field("window")
    window = _parse_window(win_text, lines.pos)
    _, exact_text = lines.expect_field("exact")
    bottom, top = _parse_exact(exact_text, lines.pos)
    no, dims_text = lines.expect_field("dims")
    return dict(algebra=algebra, window=window,
                dims=_parse_dims(dims_text, window, no),
                bottom_exact=bottom, top_exact=top)


# -- modules -------------------------------------------------------------------


def _action_name(key: tuple[Seq, int]) -> str:
    seq, d = key
    return f"{_seq_str(seq)} @ {d}"


def print_module(m: GradedModule) -> str:
    out = _print_preamble(MODULE_HEADER, m)
    table = m.action_table()
    keys = sorted(table, key=lambda sd: (milnor.degree(sd[0]), sd[0], sd[1]))
    current: Optional[Seq] = object()  # sentinel
    for seq, d in keys:
        if seq != current:
            out.append(f"action {_seq_str(seq)}")
            current = seq
        mat = table[(seq, d)]
        out.append(_print_block(f"@ {d}: {mat.nrows}x{mat.ncols}", mat))
    out.append("end")
    return "\n".join(out) + "\n"


def parse_module(text: str) -> GradedModule:
    lines = _Lines(text)
    preamble = _parse_preamble(lines, MODULE_HEADER)

    algebra, window, dims = (preamble["algebra"], preamble["window"],
                             preamble["dims"])
    # the checked text of each block, until the module first reads it
    texts: dict[tuple[Seq, int], str] = {}
    # the line of each block's header
    blocks: dict[tuple[Seq, int], int] = {}
    seq: Optional[Seq] = None
    k = 0  # the degree of seq
    in_algebra = False  # whether seq has positive degree in the algebra
    while True:
        no, line = lines.next("action block or end")
        if line == "end":
            break
        if line.startswith("action "):
            label = line[len("action "):]
            try:
                elem = milnor.parse_element(label)
            except ValueError as exc:
                raise ParseError(no, str(exc)) from None
            if len(elem.terms) != 1:
                raise ParseError(no, "action header needs one monomial "
                                     f"Sq(...), found {label!r}")
            (seq,) = elem.terms
            k = milnor.degree(seq)
            in_algebra = k > 0 and algebra.contains(seq)
            continue
        if line.startswith("@ "):
            if seq is None:
                raise ParseError(no, "matrix block before any action header")
            try:
                d_part, shape = line[2:].split(":")
                d = int(d_part)
                nrows_s, ncols_s = shape.strip().split("x")
                nrows, ncols = int(nrows_s), int(ncols_s)
            except ValueError:
                raise ParseError(no, f"bad block header {line!r}") from None
            key = (seq, d)
            if key in blocks:
                raise ParseError(no, f"repeated block {_action_name(key)}")
            blocks[key] = no
            sd, td = dims.get(d), dims.get(d + k)
            expected = (td, sd) if in_algebra and sd and td else None
            texts[key] = _read_block(lines, nrows, ncols, no, expected, key,
                                     _action_name)
            continue
        raise ParseError(no, f"unexpected line {line!r}")
    missing = _reject_unrequested(
        blocks, _required_action_keys(algebra, window, dims), _action_name)
    if missing is not None:
        seq, d = missing
        raise ParseError(lines.pos, "inconsistent module data: missing "
                                    f"action of Sq{seq} at degree {d}")

    def source(seq: Seq, d: int) -> BitMatrix:
        # the module reads each block once, and memoizes its matrix
        chunk = texts.pop((seq, d))
        if not texts:
            texts.clear()  # an emptied dict keeps its table until cleared
        return _decode(dims[d], chunk)

    return GradedModule(source=source, **preamble)


# -- comodules -----------------------------------------------------------------


def _coaction_name(key: tuple[int, int]) -> str:
    d, k = key
    return f"coaction ({d},{k})"


def print_comodule(c: GradedComodule) -> str:
    out = _print_preamble(COMODULE_HEADER, c)
    for (d, k) in sorted(c.coactions):
        mat = c.coactions[(d, k)]
        out.append(_print_block(f"coaction {d} {k}: {mat.nrows}x{mat.ncols}",
                                mat))
    out.append("end")
    return "\n".join(out) + "\n"


def parse_comodule(text: str) -> GradedComodule:
    lines = _Lines(text)
    preamble = _parse_preamble(lines, COMODULE_HEADER)

    algebra, window, dims = (preamble["algebra"], preamble["window"],
                             preamble["dims"])
    texts: dict[tuple[int, int], str] = {}
    # the line of each block's header
    blocks: dict[tuple[int, int], int] = {}
    while True:
        no, line = lines.next("coaction block or end")
        if line == "end":
            break
        if line.startswith("coaction "):
            try:
                head, shape = line[len("coaction "):].split(":")
                d_s, k_s = head.split()
                d, k = int(d_s), int(k_s)
                nrows_s, ncols_s = shape.strip().split("x")
                nrows, ncols = int(nrows_s), int(ncols_s)
            except ValueError:
                raise ParseError(no, f"bad coaction header {line!r}") from None
            key = (d, k)
            if key in blocks:
                raise ParseError(no, f"repeated block {_coaction_name(key)}")
            blocks[key] = no
            sd, td = dims.get(d), dims.get(d + k)
            expected = None
            if k > 0 and sd and td and algebra.dim(k):
                expected = (td * algebra.dim(k), sd)
            texts[key] = _read_block(lines, nrows, ncols, no, expected, key,
                                     _coaction_name)
            continue
        raise ParseError(no, f"unexpected line {line!r}")
    missing = _reject_unrequested(
        blocks, _required_coaction_keys(algebra, window, dims), _coaction_name)
    if missing is not None:
        d, k = missing
        raise ParseError(lines.pos, "inconsistent comodule data: missing "
                                    f"coaction block ({d}, {k})")
    coactions = {key: _decode(dims[key[0]], chunk)
                 for key, chunk in texts.items()}
    return GradedComodule(coactions=coactions, **preamble)


# -- chains --------------------------------------------------------------------


def parse_chain(text: str) -> IdealChain:
    compact = text.strip()
    if not compact.startswith("chain:"):
        raise ParseError(1, "chain text must start with 'chain:'")
    body = compact[len("chain:"):].strip()
    stages = []
    for stage_no, part in enumerate(body.split(";")):
        part = part.strip()
        if not (part.startswith("[") and part.endswith("]")):
            raise ParseError(1, f"stage {stage_no}: expected [...], found {part!r}")
        inner = part[1:-1].strip()
        if not inner:
            raise ParseError(1, f"stage {stage_no}: empty generator list")
        gens = []
        # split on '+'-aware commas: generators contain no brackets, so a
        # comma inside Sq(...) is inside parens
        depth = 0
        token = ""
        tokens = []
        for ch in inner:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                tokens.append(token)
                token = ""
            else:
                token += ch
        tokens.append(token)
        for tok in tokens:
            try:
                gens.append(milnor.parse_element(tok))
            except ValueError as exc:
                raise ParseError(1, f"stage {stage_no}: {exc}") from None
        try:
            stages.append(HomIdeal(gens))
        except ValueError as exc:
            raise ParseError(1, f"stage {stage_no}: {exc}") from None
    return IdealChain(stages)
