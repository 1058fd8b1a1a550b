"""The spreadsheet formula engine (paper sections 1-2, Figure 5).

The table component doubles as a spreadsheet ("It also shows off the
spreadsheet capabilities of the table", Fig. 5).  This module provides
the formula language:

* cell references ``A1``, ``B12`` (column letters, 1-based rows);
* ranges ``A1:B3`` as function arguments;
* operators ``+ - * / ^``, unary minus, parentheses;
* functions ``SUM AVG MIN MAX COUNT ABS SQRT``;
* the ``#REF`` marker left behind when a structural edit deletes a
  referenced row or column — it parses, survives the external
  representation, and always evaluates to an error;

plus dependency extraction (for recalculation ordering) and reference
*rebasing*: :meth:`Formula.rebase` rewrites every reference through a
mapping function and regenerates canonical source text, which is how
``insert_row``/``delete_col`` keep formulas pointing at the cells they
meant.

The engine is standalone: it evaluates against any ``resolve(row, col)``
callback, so tests exercise it without a table.
"""

from __future__ import annotations

import math
import re
from itertools import product
from typing import Callable, Iterator, List, Optional, Set, Tuple, Union

__all__ = [
    "FormulaError",
    "CellRef",
    "REF_DELETED",
    "parse_ref",
    "ref_name",
    "col_name",
    "parse_col",
    "Formula",
    "evaluate",
    "extract_refs",
    "FUNCTIONS",
]

Number = float
Resolver = Callable[[int, int], Number]


class FormulaError(ValueError):
    """Raised for syntax errors, bad references, and evaluation faults."""


#: The token a deleted reference rebases to.  ``=A1+#REF`` is legal
#: source (it round-trips through the datastream) and evaluating it
#: raises :class:`FormulaError`, so the cell displays ``#VALUE``.
REF_DELETED = "#REF"


class CellRef:
    """A (row, col) cell reference, 0-based internally."""

    __slots__ = ("row", "col")

    def __init__(self, row: int, col: int) -> None:
        self.row = row
        self.col = col

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CellRef)
            and self.row == other.row
            and self.col == other.col
        )

    def __hash__(self) -> int:
        return hash((self.row, self.col))

    def __repr__(self) -> str:
        return f"CellRef({ref_name(self.row, self.col)})"


def col_name(col: int) -> str:
    """0-based column index to letters: 0->A, 25->Z, 26->AA."""
    if col < 0:
        raise FormulaError(f"negative column {col}")
    name = ""
    col += 1
    while col:
        col, rem = divmod(col - 1, 26)
        name = chr(ord("A") + rem) + name
    return name


def parse_col(letters: str) -> int:
    value = 0
    for char in letters.upper():
        if not "A" <= char <= "Z":
            raise FormulaError(f"bad column letters {letters!r}")
        value = value * 26 + (ord(char) - ord("A") + 1)
    return value - 1


def ref_name(row: int, col: int) -> str:
    """0-based (row, col) to the display name, e.g. (0, 0) -> ``A1``."""
    return f"{col_name(col)}{row + 1}"


_REF_RE = re.compile(r"^([A-Za-z]+)([0-9]+)$")


def parse_ref(name: str) -> CellRef:
    """Parse ``A1``-style name to a 0-based :class:`CellRef`."""
    match = _REF_RE.match(name)
    if match is None:
        raise FormulaError(f"bad cell reference {name!r}")
    return CellRef(int(match.group(2)) - 1, parse_col(match.group(1)))


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+\.?\d*(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<badref>#REF)"
    r"|(?P<op>[-+*/^():,])"
    r")"
)

def _single(values: List[float], name: str) -> float:
    if len(values) != 1:
        raise FormulaError(f"{name} takes exactly one value")
    return values[0]


def _pair(values: List[float], name: str):
    if len(values) != 2:
        raise FormulaError(f"{name} takes exactly two values")
    return values


def _round(values: List[float]) -> float:
    if len(values) == 1:
        return float(round(values[0]))
    value, digits = _pair(values, "ROUND")
    return round(value, int(digits))


def _mod(values: List[float]) -> float:
    value, divisor = _pair(values, "MOD")
    if divisor == 0:
        raise FormulaError("MOD by zero")
    return math.fmod(value, divisor)


FUNCTIONS = {
    "SUM": lambda values: sum(values),
    "AVG": lambda values: (sum(values) / len(values)) if values else 0.0,
    "MIN": lambda values: min(values) if values else 0.0,
    "MAX": lambda values: max(values) if values else 0.0,
    "COUNT": lambda values: float(len(values)),
    "ABS": lambda values: abs(_single(values, "ABS")),
    "SQRT": lambda values: math.sqrt(_single(values, "SQRT")),
    "ROUND": _round,
    "INT": lambda values: float(math.floor(_single(values, "INT"))),
    "MOD": _mod,
}


def _tokenize(source: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None or match.end() == pos:
            if source[pos:].strip():
                raise FormulaError(
                    f"unexpected character {source[pos]!r} in formula"
                )
            break
        tokens.append(match.group().strip())
        pos = match.end()
    return [t for t in tokens if t]


# ---------------------------------------------------------------------------
# Parser (recursive descent into an AST of tuples)
# ---------------------------------------------------------------------------
# Node shapes:
#   ("num", float) | ("ref", CellRef) | ("range", CellRef, CellRef)
#   ("neg", node) | ("bin", op, left, right) | ("call", name, [nodes])
#   ("badref",)  — a reference destroyed by a structural edit

class _Parser:
    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise FormulaError("unexpected end of formula")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise FormulaError(f"expected {token!r}, got {got!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise FormulaError(f"trailing tokens from {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.power()
        while self.peek() in ("*", "/"):
            op = self.next()
            node = ("bin", op, node, self.power())
        return node

    def power(self):
        node = self.unary()
        if self.peek() == "^":
            self.next()
            node = ("bin", "^", node, self.power())  # right associative
        return node

    def unary(self):
        if self.peek() == "-":
            self.next()
            return ("neg", self.unary())
        if self.peek() == "+":
            self.next()
            return self.unary()
        return self.atom()

    def atom(self):
        token = self.next()
        if token == "(":
            node = self.expr()
            self.expect(")")
            return node
        if token == REF_DELETED:
            return ("badref",)
        if re.match(r"^\d", token):
            return ("num", float(token))
        upper = token.upper()
        if upper in FUNCTIONS:
            self.expect("(")
            args = []
            if self.peek() != ")":
                args.append(self.argument())
                while self.peek() == ",":
                    self.next()
                    args.append(self.argument())
            self.expect(")")
            return ("call", upper, args)
        if _REF_RE.match(token):
            ref = parse_ref(token)
            if self.peek() == ":":
                self.next()
                end_token = self.next()
                if not _REF_RE.match(end_token):
                    raise FormulaError(f"bad range end {end_token!r}")
                return ("range", ref, parse_ref(end_token))
            return ("ref", ref)
        raise FormulaError(f"unknown name {token!r}")

    def argument(self):
        return self.expr()


# ---------------------------------------------------------------------------
# Evaluation & analysis
# ---------------------------------------------------------------------------

def _range_cells(start: CellRef, end: CellRef) -> Iterator[Tuple[int, int]]:
    """Every ``(row, col)`` of the range, row-major."""
    return product(
        range(min(start.row, end.row), max(start.row, end.row) + 1),
        range(min(start.col, end.col), max(start.col, end.col) + 1),
    )


def _eval(node, resolve: Resolver) -> Union[float, List[float]]:
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "badref":
        raise FormulaError(f"{REF_DELETED}: reference was deleted")
    if kind == "ref":
        return float(resolve(node[1].row, node[1].col))
    if kind == "range":
        return [float(resolve(row, col))
                for row, col in _range_cells(node[1], node[2])]
    if kind == "neg":
        return -_scalar(_eval(node[1], resolve))
    if kind == "bin":
        _, op, left, right = node
        a = _scalar(_eval(left, resolve))
        b = _scalar(_eval(right, resolve))
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise FormulaError("division by zero")
            return a / b
        if op == "^":
            return a ** b
    if kind == "call":
        _, name, args = node
        values: List[float] = []
        for arg in args:
            result = _eval(arg, resolve)
            if isinstance(result, list):
                values.extend(result)
            else:
                values.append(result)
        return FUNCTIONS[name](values)
    raise FormulaError(f"bad AST node {node!r}")  # pragma: no cover


def _scalar(value) -> float:
    if isinstance(value, list):
        raise FormulaError("range used where a single value is required")
    return value


# Operator/node precedence for the unparser.  Atoms bind tightest;
# unary minus binds tighter than ``^`` (mirroring the parser, where
# ``power`` descends into ``unary``: ``-2^2`` is ``(-2)^2``).
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_NEG_PREC = 4
_ATOM_PREC = 9


def _node_prec(node) -> int:
    kind = node[0]
    if kind == "bin":
        return _PREC[node[1]]
    if kind == "neg":
        return _NEG_PREC
    return _ATOM_PREC


def _format_number(value: float) -> str:
    text = f"{value:g}"
    # The tokenizer has no leading-sign or bare-dot numbers; ``%g``
    # never emits either for the non-negative finite floats the parser
    # produced, so canonical output is always re-parseable.
    return text


def _unparse(node) -> str:
    """Canonical source text for an AST; ``parse(unparse(n)) == n``."""
    kind = node[0]
    if kind == "num":
        return _format_number(node[1])
    if kind == "ref":
        return ref_name(node[1].row, node[1].col)
    if kind == "range":
        return (f"{ref_name(node[1].row, node[1].col)}"
                f":{ref_name(node[2].row, node[2].col)}")
    if kind == "badref":
        return REF_DELETED
    if kind == "neg":
        inner = _unparse(node[1])
        if _node_prec(node[1]) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if kind == "bin":
        _, op, left, right = node
        prec = _PREC[op]
        left_text = _unparse(left)
        right_text = _unparse(right)
        if op == "^":
            # Right associative: parenthesise an exponent on the left.
            if _node_prec(left) <= prec and left[0] != "neg":
                left_text = f"({left_text})"
            if _node_prec(right) < prec:
                right_text = f"({right_text})"
        else:
            if _node_prec(left) < prec:
                left_text = f"({left_text})"
            if _node_prec(right) <= prec:
                right_text = f"({right_text})"
        return f"{left_text}{op}{right_text}"
    if kind == "call":
        args = ",".join(_unparse(arg) for arg in node[2])
        return f"{node[1]}({args})"
    raise FormulaError(f"bad AST node {node!r}")  # pragma: no cover


RefMapper = Callable[[CellRef], Optional[CellRef]]


def _rebase_node(node, mapper: RefMapper):
    """Rewrite every reference through ``mapper``; ``None`` destroys it.

    Returns ``(new_node, changed)``.  A destroyed plain reference — or a
    range either of whose *endpoints* is destroyed — becomes the
    ``("badref",)`` node, so the formula survives structurally but
    evaluates to an error.  Interior range rows/columns are not the
    range's responsibility: their deletion merely shrinks the span via
    the shifted endpoints.
    """
    kind = node[0]
    if kind == "ref":
        mapped = mapper(node[1])
        if mapped is None:
            return ("badref",), True
        if mapped == node[1]:
            return node, False
        return ("ref", mapped), True
    if kind == "range":
        start, end = mapper(node[1]), mapper(node[2])
        if start is None or end is None:
            return ("badref",), True
        if start == node[1] and end == node[2]:
            return node, False
        return ("range", start, end), True
    if kind == "neg":
        inner, changed = _rebase_node(node[1], mapper)
        return (("neg", inner), True) if changed else (node, False)
    if kind == "bin":
        left, left_changed = _rebase_node(node[2], mapper)
        right, right_changed = _rebase_node(node[3], mapper)
        if left_changed or right_changed:
            return ("bin", node[1], left, right), True
        return node, False
    if kind == "call":
        args = [_rebase_node(arg, mapper) for arg in node[2]]
        if any(changed for _, changed in args):
            return ("call", node[1], [arg for arg, _ in args]), True
        return node, False
    return node, False  # num, badref


def _walk_refs(node) -> Iterator[CellRef]:
    kind = node[0]
    if kind == "ref":
        yield node[1]
    elif kind == "range":
        for row, col in _range_cells(node[1], node[2]):
            yield CellRef(row, col)
    elif kind == "neg":
        yield from _walk_refs(node[1])
    elif kind == "bin":
        yield from _walk_refs(node[2])
        yield from _walk_refs(node[3])
    elif kind == "call":
        for arg in node[2]:
            yield from _walk_refs(arg)


class Formula:
    """A parsed formula: evaluate repeatedly, inspect dependencies."""

    __slots__ = ("source", "_ast")

    def __init__(self, source: str) -> None:
        self.source = source
        stripped = source[1:] if source.startswith("=") else source
        self._ast = _Parser(_tokenize(stripped)).parse()

    @classmethod
    def _from_ast(cls, ast) -> "Formula":
        formula = cls.__new__(cls)
        formula._ast = ast
        formula.source = "=" + _unparse(ast)
        return formula

    def refs(self) -> Set[CellRef]:
        """Every cell this formula reads."""
        return set(_walk_refs(self._ast))

    def rebase(self, mapper: RefMapper) -> "Formula":
        """This formula with every reference rewritten through ``mapper``.

        ``mapper(ref) -> CellRef`` relocates a reference, ``None``
        destroys it (the node becomes ``#REF``).  Returns ``self`` when
        no reference moved, so callers can cheaply detect the formulas
        a structural edit actually touched; otherwise a new formula
        with regenerated canonical source.
        """
        ast, changed = _rebase_node(self._ast, mapper)
        return Formula._from_ast(ast) if changed else self

    def evaluate(self, resolve: Resolver) -> float:
        result = _eval(self._ast, resolve)
        return _scalar(result) if isinstance(result, list) else float(result)

    def __repr__(self) -> str:
        return f"Formula({self.source!r})"


def evaluate(source: str, resolve: Resolver) -> float:
    """Parse and evaluate ``source`` in one step."""
    return Formula(source).evaluate(resolve)


def extract_refs(source: str) -> Set[CellRef]:
    """The cell references in ``source`` without evaluating it."""
    return Formula(source).refs()
