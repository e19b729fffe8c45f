"""Expression AST for table predicates and row functions.

Expressions range over signed fixed-width integers and booleans.  Arithmetic
wraps in two's complement at the configured payload width, so the interpreter
here and the compiled boolean circuits agree bit for bit.
"""

from dataclasses import dataclass


class ExprError(Exception):
    pass


class ExprTypeError(ExprError):
    pass


@dataclass(frozen=True)
class Const:
    value: object  # int or bool


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' | 'not'
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str  # + - * < <= == > >= and or
    left: object
    right: object


@dataclass(frozen=True)
class IfThenElse:
    cond: object
    then: object
    other: object


ARITH_OPS = {"+", "-", "*"}
CMP_OPS = {"<", "<=", "==", ">", ">="}
BOOL_OPS = {"and", "or"}

# The parser and every walk of an expression but `walk` recurse. So a design
# holds no expression more than MAX_DEPTH nodes deep, and the parser takes no
# text that nests (, -, not and if more than twice that: serialize_graph
# writes at most two levels a node, as in `not (` and `(if`.
MAX_DEPTH = 32
TOO_DEEP = f"expression is more than {MAX_DEPTH} nodes deep"


def walk(expr):
    """(node, depth) of every node of expr, root at depth 1, with no recursion."""
    stack = [(expr, 1)]
    while stack:
        e, depth = stack.pop()
        yield e, depth
        stack.extend((getattr(e, a), depth + 1) for a in (
            "operand", "left", "right", "cond", "then", "other") if hasattr(e, a))


def infer_type(expr, env):
    """Return 'int' or 'bool'; env maps reference names to types."""
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return "bool"
        if isinstance(expr.value, int):
            return "int"
        raise ExprTypeError(f"unsupported constant {expr.value!r}")
    if isinstance(expr, Ref):
        if expr.name not in env:
            raise ExprTypeError(f"unknown input reference '{expr.name}'")
        return env[expr.name]
    if isinstance(expr, Unary):
        t = infer_type(expr.operand, env)
        want = "int" if expr.op == "neg" else "bool"
        if t != want:
            raise ExprTypeError(f"'{expr.op}' needs {want}, got {t}")
        return want
    if isinstance(expr, Binary):
        lt = infer_type(expr.left, env)
        rt = infer_type(expr.right, env)
        if expr.op in ARITH_OPS:
            if lt != "int" or rt != "int":
                raise ExprTypeError(f"'{expr.op}' needs int operands")
            return "int"
        if expr.op in CMP_OPS:
            if lt != rt:
                raise ExprTypeError(f"'{expr.op}' operands differ: {lt} vs {rt}")
            if expr.op != "==" and lt != "int":
                raise ExprTypeError(f"ordering '{expr.op}' needs int operands")
            return "bool"
        if expr.op in BOOL_OPS:
            if lt != "bool" or rt != "bool":
                raise ExprTypeError(f"'{expr.op}' needs bool operands")
            return "bool"
        raise ExprTypeError(f"unknown operator '{expr.op}'")
    if isinstance(expr, IfThenElse):
        if infer_type(expr.cond, env) != "bool":
            raise ExprTypeError("if-condition must be bool")
        tt = infer_type(expr.then, env)
        et = infer_type(expr.other, env)
        if tt != et:
            raise ExprTypeError(f"if-branches differ: {tt} vs {et}")
        return tt
    raise ExprTypeError(f"not an expression: {expr!r}")


def wrap_signed(value, width):
    """Reduce to the signed two's-complement range of `width` bits."""
    mask = (1 << width) - 1
    v = value & mask
    if v >= 1 << (width - 1):
        v -= 1 << width
    return v


def evaluate(expr, env, width):
    """Interpret `expr` with int values wrapped to `width`-bit two's complement."""
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return expr.value
        return wrap_signed(expr.value, width)
    if isinstance(expr, Ref):
        v = env[expr.name]
        return v if isinstance(v, bool) else wrap_signed(v, width)
    if isinstance(expr, Unary):
        v = evaluate(expr.operand, env, width)
        return (not v) if expr.op == "not" else wrap_signed(-v, width)
    if isinstance(expr, Binary):
        a = evaluate(expr.left, env, width)
        b = evaluate(expr.right, env, width)
        op = expr.op
        if op == "+":
            return wrap_signed(a + b, width)
        if op == "-":
            return wrap_signed(a - b, width)
        if op == "*":
            return wrap_signed(a * b, width)
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == "==":
            return a == b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "and":
            return a and b
        if op == "or":
            return a or b
        raise ExprError(f"unknown operator '{op}'")
    if isinstance(expr, IfThenElse):
        if evaluate(expr.cond, env, width):
            return evaluate(expr.then, env, width)
        return evaluate(expr.other, env, width)
    raise ExprError(f"not an expression: {expr!r}")


def to_text(expr):
    """The text of expr, which parse_expr reads back to the same text."""
    if isinstance(expr, Const):
        # the parser reads -3 as -(3), so a negative constant is written so
        v = expr.value
        return f"-({-v})" if v < 0 else str(v)
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Unary):
        inner = to_text(expr.operand)
        return f"-({inner})" if expr.op == "neg" else f"not ({inner})"
    if isinstance(expr, Binary):
        return f"({_operand(expr.left)} {expr.op} {_operand(expr.right)})"
    if isinstance(expr, IfThenElse):
        return f"(if {to_text(expr.cond)} then {to_text(expr.then)} else {to_text(expr.other)})"
    raise ExprError(f"not an expression: {expr!r}")


def _operand(expr):
    """The text of an operand of a binary operator: a not binds looser than
    every binary operator but and and or, so it is parenthesised."""
    text = to_text(expr)
    return f"({text})" if isinstance(expr, Unary) and expr.op == "not" else text


# --- expression parsing ----------------------------------------------------

_TWO_CHAR = ("<=", ">=", "==", "->")
_PUNCT = "()+-*<>=,{}[];:."


def tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(two)
            i += 2
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(ch)
            i += 1
            continue
        raise ExprError(f"bad character {ch!r} in expression")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # the (, unary -, not and if levels being parsed

    def nested(self, parse):
        """parse() one level deeper; past 2 * MAX_DEPTH levels, of up to
        nine Python frames each, it refuses before it recurses."""
        if self.depth == 2 * MAX_DEPTH:
            raise ExprError(f"expression nests deeper than {2 * MAX_DEPTH} levels")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ExprError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse_expr(self):
        if self.peek() == "if":
            self.take("if")
            cond = self.nested(self.parse_expr)
            self.take("then")
            then = self.nested(self.parse_expr)
            self.take("else")
            other = self.nested(self.parse_expr)
            return IfThenElse(cond, then, other)
        return self.parse_or()

    def parse_or(self):
        node = self.parse_and()
        while self.peek() == "or":
            self.take()
            node = Binary("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_not()
        while self.peek() == "and":
            self.take()
            node = Binary("and", node, self.parse_not())
        return node

    def parse_not(self):
        if self.peek() == "not":
            self.take()
            return Unary("not", self.nested(self.parse_not))
        return self.parse_cmp()

    def parse_cmp(self):
        node = self.parse_sum()
        ops = []
        # allow chained comparisons like 35 <= a <= 45
        while self.peek() in ("<", "<=", "==", ">", ">="):
            op = self.take()
            rhs = self.parse_sum()
            ops.append(Binary(op, node if not ops else ops[-1].right, rhs))
            node = ops[0] if len(ops) == 1 else Binary("and", node, ops[-1])
        return node

    def parse_sum(self):
        node = self.parse_product()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = Binary(op, node, self.parse_product())
        return node

    def parse_product(self):
        node = self.parse_atom()
        while self.peek() == "*":
            self.take()
            node = Binary("*", node, self.parse_atom())
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            node = self.nested(self.parse_expr)
            self.take(")")
            return node
        if tok == "-":
            self.take()
            return Unary("neg", self.nested(self.parse_atom))
        tok = self.take()
        if isinstance(tok, int):
            return Const(tok)
        if tok == "true" or tok == "True":
            return Const(True)
        if tok == "false" or tok == "False":
            return Const(False)
        if isinstance(tok, str) and (tok[0].isalpha() or tok[0] == "_"):
            return Ref(tok)
        raise ExprError(f"unexpected token {tok!r}")


def parse_expr(text):
    parser = _Parser(tokenize(text))
    node = parser.parse_expr()
    if parser.peek() is not None:
        raise ExprError(f"trailing tokens after expression: {parser.peek()!r}")
    return node
