"""Expression language: parsing, printing, differentiation, compilation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcart import expr as expr_module
from subcart.expr import (
    ONE,
    ZERO,
    Add,
    Const,
    Cut,
    Div,
    DomainError,
    Expr,
    ExprError,
    Fn,
    Mul,
    Neg,
    ParseError,
    Pow,
    Var,
    add,
    as_expr,
    compile_scalar,
    compile_vector,
    cut,
    diff,
    div,
    fn,
    gradient_exprs,
    max_var_index,
    mul,
    neg,
    parse,
    pow_int,
    sub,
    to_text,
    vector_source,
)

FD_TOL = 1e-6


def ev(e, *xs: float) -> float:
    return compile_scalar(e)(xs)


def test_parse_polynomial_values():
    e = parse("x1^2+x2^2", 2)
    assert ev(e, 3.0, 4.0) == 25.0
    assert ev(parse("2*x1+3", 1), 5.0) == 13.0
    assert ev(parse("x1*(x1-1)*(x1+1)", 1), 2.0) == 6.0
    assert ev(parse("1/(1+x1^2)", 1), 1.0) == 0.5


def test_parse_aliases_positional():
    e = parse("x^2+(y-1)^2-1", 2, aliases=("x", "y"))
    assert ev(e, 0.0, 0.0) == 0.0
    assert ev(e, 0.0, 2.0) == 0.0
    assert ev(e, 1.0, 1.0) == 0.0
    # alias list shorter than the dimension is fine, x<k> names still work
    e2 = parse("a+x2", 2, aliases=("a",))
    assert ev(e2, 1.0, 2.0) == 3.0


def test_parse_functions():
    assert ev(parse("sin(x1)", 1), 0.5) == pytest.approx(math.sin(0.5), abs=1e-15)
    assert ev(parse("exp(x1)*log(x1)", 1), 2.0) == pytest.approx(
        math.exp(2.0) * math.log(2.0), abs=1e-12
    )
    assert ev(parse("sqrt(x1)", 1), 9.0) == 3.0
    assert ev(parse("tanh(x1)", 1), 0.3) == pytest.approx(math.tanh(0.3), abs=1e-15)


def test_unary_minus_binds_to_the_base():
    # "-x1^2" is (-x1)^2 by the grammar, not -(x1^2)
    assert ev(parse("-x1^2", 1), 2.0) == 4.0
    assert ev(parse("0-x1^2", 1), 2.0) == -4.0
    assert ev(parse("-(x1^2)", 1), 2.0) == -4.0
    assert ev(parse("-x1*x2", 2), 2.0, 3.0) == -6.0


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("x1^0.5", 1)
    with pytest.raises(ParseError):
        parse("x3", 2)
    with pytest.raises(ParseError):
        parse("(x1+1", 1)
    with pytest.raises(ParseError):
        parse("x1 @ x2", 2)
    with pytest.raises(ParseError):
        parse("bogus(x1)", 1)
    with pytest.raises(ParseError):
        parse("", 1)


def test_cutexp_values_and_derivative():
    c = parse("cutexp(x1)", 1)
    f = compile_scalar(c)
    assert f((1.0,)) == pytest.approx(math.exp(-1.0), abs=1e-16)
    assert f((0.0,)) == 0.0
    assert f((-2.0,)) == 0.0
    # d/dt exp(-1/t) = exp(-1/t)/t^2, the shift-2 member of the family
    d = diff(c, 0)
    assert to_text(d) == "cutexp2(x1)"
    assert compile_scalar(d)((1.0,)) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert compile_scalar(d)((-1.0,)) == 0.0
    with pytest.raises(ExprError):
        cut(-1, Var(0))


def test_print_parse_round_trip():
    texts = [
        "x1^2+x2^2",
        "-x1*x2",
        "2-x1",
        "cutexp(x1)",
        "cutexp2(x1+x2)",
        "sin(x1)*cos(x2)",
        "x1/x2",
        "(x1+x2)^3",
        "1/(1+x1^2)",
        "x1*x2-x1^2/(2+x2)",
    ]
    pts = [(0.7, 1.3), (2.0, 3.0), (-0.4, 0.9)]
    for s in texts:
        e = parse(s, 2)
        rt = parse(to_text(e), 2)
        assert to_text(rt) == to_text(e)
        for p in pts:
            assert compile_scalar(rt)(p) == compile_scalar(e)(p)


def test_diff_known_formulas():
    e = parse("x1^3", 1)
    assert ev(diff(e, 0), 2.0) == 12.0
    e = parse("x1*x2", 2)
    assert ev(diff(e, 0), 5.0, 7.0) == 7.0
    assert ev(diff(e, 1), 5.0, 7.0) == 5.0
    e = parse("sin(x1)", 1)
    assert ev(diff(e, 0), 0.3) == pytest.approx(math.cos(0.3), abs=1e-15)
    e = parse("1/x1", 1)
    assert ev(diff(e, 0), 2.0) == pytest.approx(-0.25, abs=1e-15)
    assert ev(diff(parse("x2", 2), 0), 1.0, 1.0) == 0.0


poly_coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def poly_exprs(draw):
    """Random bivariate polynomial built from the expression constructors."""
    terms = draw(st.lists(st.tuples(poly_coeff, st.integers(0, 3), st.integers(0, 3)),
                          min_size=1, max_size=4))
    e = as_expr(0.0)
    for c, i, j in terms:
        term = mul(as_expr(float(c)), mul(pow_int(Var(0), i), pow_int(Var(1), j)))
        e = add(e, term)
    return e


@given(poly_exprs(), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_diff_matches_finite_differences(e, x, y):
    h = 1e-5
    f = compile_scalar(e)
    for var in (0, 1):
        g = compile_scalar(diff(e, var))
        step = [0.0, 0.0]
        step[var] = h
        fd = (f((x + step[0], y + step[1])) - f((x - step[0], y - step[1]))) / (2 * h)
        assert abs(g((x, y)) - fd) <= FD_TOL * (1.0 + abs(fd))


@given(poly_exprs(), poly_exprs(), st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
@settings(max_examples=40, deadline=None)
def test_diff_product_rule(f, g, x, y):
    p = (x, y)
    lhs = compile_scalar(diff(mul(f, g), 0))(p)
    rhs = compile_scalar(diff(f, 0))(p) * compile_scalar(g)(p) + compile_scalar(f)(
        p
    ) * compile_scalar(diff(g, 0))(p)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_gradient_and_max_var_index():
    e = parse("x1^2+x3", 3)
    grads = gradient_exprs(e, 3)
    assert len(grads) == 3
    assert ev(grads[0], 2.0, 0.0, 0.0) == 4.0
    assert ev(grads[1], 2.0, 0.0, 0.0) == 0.0
    assert ev(grads[2], 2.0, 0.0, 0.0) == 1.0
    assert max_var_index(e) == 2
    assert max_var_index(Const(1.0)) == -1


def test_domain_guards_raise():
    with pytest.raises(DomainError):
        compile_scalar(parse("sqrt(x1)", 1))((-1.0,))
    with pytest.raises(DomainError):
        compile_scalar(parse("log(x1)", 1))((0.0,))
    with pytest.raises(DomainError):
        compile_scalar(parse("1/x1", 1))((0.0,))


def test_constructor_simplifications_preserve_value():
    x = Var(0)
    pt = (1.7,)
    assert compile_scalar(add(x, as_expr(0.0)))(pt) == 1.7
    assert compile_scalar(mul(x, as_expr(1.0)))(pt) == 1.7
    assert compile_scalar(mul(x, as_expr(0.0)))(pt) == 0.0
    assert compile_scalar(sub(x, x))(pt) == 0.0
    assert compile_scalar(neg(neg(x)))(pt) == 1.7
    assert compile_scalar(pow_int(x, 0))(pt) == 1.0
    assert compile_scalar(pow_int(x, 1))(pt) == 1.7
    assert compile_scalar(div(x, as_expr(2.0)))(pt) == 0.85
    assert compile_scalar(fn("sin", as_expr(0.0)))(()) == 0.0


def test_compile_vector_matches_scalars():
    es = [parse("x1+x2", 2), parse("x1*x2", 2), parse("cutexp(x1)", 2)]
    v = compile_vector(es)
    pt = (0.8, -0.3)
    got = v(pt)
    assert got == [compile_scalar(e)(pt) for e in es]


def test_compiled_nonfinite_literals():
    # a literal beyond the float range is inf; repr wrote it as the unbound
    # name inf and the generated code raised NameError
    big = parse("1e999*x1", 1)
    below = parse("x1 - 1e999", 1)  # folds to the constant -inf
    undefined = parse("1e999 - 1e999 + x1", 1)  # folds to the constant nan
    assert isinstance(below.right, Const) and below.right.value == -math.inf
    assert compile_scalar(big)([1.0]) == math.inf
    assert compile_scalar(below)([1.0]) == -math.inf
    assert math.isnan(compile_scalar(undefined)([1.0]))
    got = compile_vector([big, below, undefined, parse("x1^2 - 1e999", 1)])([2.0])
    assert got[0] == math.inf and got[1] == -math.inf and math.isnan(got[2]) and got[3] == -math.inf
    assert compile_vector([big])([-1.0]) == [-math.inf]


def test_compiled_functions_are_shared_by_source_and_keep_the_sign_of_zero():
    # the process's table of generated functions is keyed by source text:
    # Const(0.0) == Const(-0.0), but the two must not share a function
    pos, neg = compile_vector([Const(0.0)]), compile_vector([Const(-0.0)])
    assert pos is not neg
    assert [math.copysign(1.0, v) for v in pos([]) + neg([])] == [1.0, -1.0]
    # trees built anew with the same source get the function already made
    assert compile_vector([parse("x1*x2", 2)]) is compile_vector([parse("x1*x2", 2)])
    assert compile_scalar(parse("sin(x1)", 1)) is compile_scalar(parse("sin(x1)", 1))


# Memoised differentiation and variable masks --------------------------------

def _reference_diff(e, var):
    """Unmemoised tree-walk derivative: every child is differentiated every time."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == var else ZERO
    if isinstance(e, Add):
        return add(_reference_diff(e.left, var), _reference_diff(e.right, var))
    if isinstance(e, Mul):
        return add(mul(_reference_diff(e.left, var), e.right),
                   mul(e.left, _reference_diff(e.right, var)))
    if isinstance(e, Div):
        num = sub(mul(_reference_diff(e.left, var), e.right),
                  mul(e.left, _reference_diff(e.right, var)))
        return div(num, pow_int(e.right, 2))
    if isinstance(e, Pow):
        inner = _reference_diff(e.base, var)
        return mul(mul(Const(e.exponent), pow_int(e.base, e.exponent - 1)), inner)
    if isinstance(e, Neg):
        return neg(_reference_diff(e.operand, var))
    if isinstance(e, Fn):
        u = e.operand
        du = _reference_diff(u, var)
        outer = {
            "sin": lambda: fn("cos", u),
            "cos": lambda: neg(fn("sin", u)),
            "exp": lambda: fn("exp", u),
            "log": lambda: div(ONE, u),
            "sqrt": lambda: div(ONE, mul(Const(2.0), fn("sqrt", u))),
            "tanh": lambda: sub(ONE, pow_int(fn("tanh", u), 2)),
        }[e.name]()
        return mul(outer, du)
    if isinstance(e, Cut):
        u = e.operand
        du = _reference_diff(u, var)
        return mul(sub(cut(e.shift + 2, u), mul(Const(e.shift), cut(e.shift + 1, u))), du)
    raise AssertionError(f"unknown node {e!r}")


def _reference_max_var_index(e):
    if isinstance(e, Const):
        return -1
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (Add, Mul, Div)):
        return max(_reference_max_var_index(e.left), _reference_max_var_index(e.right))
    if isinstance(e, Pow):
        return _reference_max_var_index(e.base)
    return _reference_max_var_index(e.operand)


N_TREE_VARS = 3
_leaf_consts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 3.0])


def _safe_div(a, b):
    # the smart constructor rejects a constant zero denominator; the raw node does not
    return Div(a, b) if isinstance(b, Const) and b.value == 0.0 else div(a, b)


_BINARY = [Add, Mul, Div, add, mul, _safe_div, sub]
_UNARY = (
    [lambda u, name=name: Fn(name, u) for name in ("sin", "cos", "exp", "log", "sqrt", "tanh")]
    + [Neg, neg, lambda u: Pow(u, 2), lambda u: Pow(u, 3), lambda u: pow_int(u, 2)]
    + [lambda u, k=k: Cut(k, u) for k in (0, 1, 2)]
)


@st.composite
def expr_trees(draw, depth=4):
    """Trees over every node kind, built with raw nodes and smart constructors alike,
    so signed zero constants and constant subtrees survive inside them."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.integers(0, 2)):
            return Var(draw(st.integers(0, N_TREE_VARS - 1)))
        return Const(draw(_leaf_consts))
    if draw(st.booleans()):
        return draw(st.sampled_from(_UNARY))(draw(expr_trees(depth=depth - 1)))
    build = draw(st.sampled_from(_BINARY))
    return build(draw(expr_trees(depth=depth - 1)), draw(expr_trees(depth=depth - 1)))


_tree_points = st.lists(
    st.tuples(*[st.sampled_from([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0])] * N_TREE_VARS),
    min_size=1, max_size=4,
)


def _outcome(e, point):
    """Value, or the exception class, of the compiled expression at a point."""
    try:
        v = compile_scalar(e)(point)
    except (DomainError, OverflowError) as exc:
        return type(exc)
    return "nan" if math.isnan(v) else v


def _shape(e):
    """The tree's structure as nested tuples, constants by ``==`` on their
    values, so 0.0 and -0.0 are alike."""
    if isinstance(e, Const):
        return ("const", e.value)
    if isinstance(e, Var):
        return ("var", e.index)
    if isinstance(e, (Add, Mul, Div)):
        return (type(e).__name__, _shape(e.left), _shape(e.right))
    if isinstance(e, Pow):
        return ("^", _shape(e.base), e.exponent)
    if isinstance(e, Fn):
        return (e.name, _shape(e.operand))
    if isinstance(e, Cut):
        return ("cutexp", e.shift, _shape(e.operand))
    return ("neg", _shape(e.operand))


@given(expr_trees(), st.integers(0, N_TREE_VARS), _tree_points)
@settings(max_examples=300, deadline=None)
def test_memoised_diff_matches_tree_walk(e, var, points):
    def build(differentiate):
        try:
            return differentiate(e, var)
        except DomainError:
            return DomainError

    got, want = build(diff), build(_reference_diff)
    if want is DomainError:
        # Both fail on d/u^2 for a quotient by a zero constant u whose
        # numerator uses var; the walk also fails on 1/u for log(u) and on
        # such quotients where nothing uses var.  That node makes e itself
        # fail at every point.
        for p in points:
            assert _outcome(e, p) is DomainError
        return
    assert got is not DomainError
    assert diff(e, var) is got
    # _shape treats 0.0 and -0.0 as equal: a derivative that is identically
    # zero may come back from the walk as Const(-0.0)
    assert _shape(got) == _shape(want)
    if isinstance(want, Const):
        assert got.value == want.value
    for p in points:
        # outcomes compare under ==, so a signed zero counts as 0
        assert _outcome(got, p) == _outcome(want, p)


@given(expr_trees())
@settings(max_examples=200, deadline=None)
def test_max_var_index_matches_tree_walk(e):
    assert max_var_index(e) == _reference_max_var_index(e)


def test_diff_of_absent_variable_is_shared_zero():
    e = parse("sin(x1)*x2 + x1^2", 3)
    assert diff(e, 2) is ZERO
    assert gradient_exprs(e, 3)[2] is ZERO
    assert diff(e, 0) is gradient_exprs(e, 3)[0]
    # no variable at all: a negative zero constant differentiates to ZERO too
    assert diff(Neg(Const(-0.0)), 0) is ZERO


def _distinct_nodes(e):
    seen: dict[int, Expr] = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        for attr in ("left", "right", "base", "operand"):
            child = getattr(node, attr, None)
            if isinstance(child, Expr):
                stack.append(child)
    return len(seen)


def test_diff_of_shared_dag_is_linear():
    # e has 21 distinct nodes but 2^20 leaves as a tree: a derivative that
    # revisits shared children makes about 2^20 diff calls and as many nodes
    depth = 20
    e = Var(0)
    for _ in range(depth):
        e = mul(e, e)
    n_nodes = _distinct_nodes(diff(e, 0))  # a count, so a failure does not print the tree
    assert n_nodes <= 4 * depth
    assert max_var_index(e) == 0
    assert diff(e, 1) is ZERO


def test_nodes_compare_and_hash_by_identity():
    # equal constants of opposite sign compile differently, so no equality
    # may merge them; code generated from a tree is found by its source text
    assert Const(0.0) != Const(-0.0)
    assert len({parse("x1", 1), parse("x1", 1)}) == 2
    for cls in vars(expr_module).values():
        if isinstance(cls, type) and cls.__module__ == expr_module.__name__:
            assert not {"__eq__", "__hash__", "key"} & vars(cls).keys(), cls.__name__


@pytest.mark.parametrize("node, attr", [
    (Const(2.0), "value"), (Var(0), "index"), (Add(Var(0), ONE), "left"), (Mul(Var(0), ONE), "right"),
    (Div(Var(0), ONE), "left"), (Pow(Var(0), 2), "exponent"), (Neg(Var(0)), "operand"),
    (Fn("sin", Var(0)), "name"), (Cut(1, Var(0)), "shift"),
], ids=lambda v: type(v).__name__ if isinstance(v, Expr) else v)
def test_assigning_to_a_node_raises(node, attr):
    before = to_text(node)
    for name in (attr, "_mask", "_diffs"):
        with pytest.raises(AttributeError, match="expressions are immutable"):
            setattr(node, name, 0)
    assert to_text(node) == before


def test_non_finite_constants_print_as_literals_that_parse_back():
    # repr printed inf and nan, which parse as unknown identifiers
    for text, want in [("1e400*x1", "1e999*x1"), ("x1 - 1e999", "x1 - 1e999"),
                       ("-1e999*x1", "(-1e999)*x1"), ("(1e999 - 1e999)*x1", "(1e999-1e999)*x1")]:
        e = parse(text, 1)
        assert to_text(e) == want
        again = parse(to_text(e), 1)
        assert to_text(again) == want
        assert repr(_shape(again)) == repr(_shape(e))  # repr, as a NaN is not == to itself
    for v in (math.inf, -math.inf):
        back = parse(to_text(Const(v)), 1)
        assert isinstance(back, Const) and back.value == v
    back = parse(to_text(Const(math.nan)), 1)
    assert isinstance(back, Const) and math.isnan(back.value)


_BIG = 10**400  # an exponent past the float range: float(_BIG) overflows


def _same_float(a: float, b: float) -> bool:
    """Equal with the same sign, a zero's included, or both NaN."""
    return a != a and b != b or a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("base, k, want", [
    # past the float range, |b| below, at and above 1 give 0, 1 and inf
    (0.5, _BIG, 0.0), (-0.5, _BIG, 0.0), (-0.5, _BIG + 1, -0.0), (0.0, _BIG, 0.0), (-0.0, _BIG + 1, -0.0),
    (1.0, _BIG, 1.0), (-1.0, _BIG, 1.0), (-1.0, _BIG + 1, -1.0),
    (2.0, _BIG, math.inf), (-2.0, _BIG, math.inf), (-2.0, _BIG + 1, -math.inf),
    (math.inf, _BIG, math.inf), (-math.inf, _BIG + 1, -math.inf), (math.nan, _BIG, math.nan),
    # a power past the float range at an ordinary exponent
    (1e200, 3, math.inf), (-1e200, 3, -math.inf), (-1e200, 4, math.inf),
], ids=lambda v: {_BIG: "big", _BIG + 1: "big+1"}.get(v) if type(v) is int else None)
def test_pow_is_ieee_where_float_power_overflows(base, k, want):
    with pytest.raises(OverflowError):
        base ** k
    assert _same_float(expr_module._pow(base, k), want)


@pytest.mark.parametrize("base, k, want", [
    # float(k) rounds these odd exponents to even ones, and Python's float **
    # gives an even power's sign without raising
    (-1.0, 2**53 + 1, -1.0), (-1.0, 10**300 + 1, -1.0), (-0.5, 10**300 + 1, -0.0), (-0.0, 2**53 + 1, -0.0),
    # even exponents past 2^53 and powers that overflow keep their answers
    (-1.0, 2**53 + 2, 1.0), (-0.5, 10**300, 0.0), (-2.0, 2**53 + 1, -math.inf), (-2.0, 2**53 + 2, math.inf),
], ids=lambda v: {2**53 + 1: "2^53+1", 2**53 + 2: "2^53+2", 10**300: "1e300", 10**300 + 1: "1e300+1"}.get(v)
    if type(v) is int else None)
def test_pow_keeps_the_parity_of_an_exponent_past_2_53(base, k, want):
    assert _same_float(expr_module._pow(base, k), want)


@pytest.mark.parametrize("text, want", [
    ("(-1)^9007199254740993", -1.0), ("(-1)^9007199254740992", 1.0), ("(-1)^9007199254740994", 1.0),
    ("(-0.5)^9007199254740993", -0.0), ("(-2)^3", -8.0), ("2^0", 1.0),
])
def test_a_folded_power_keeps_the_parity_of_its_exponent(text, want):
    # Python's float ** reads 2^53 + 1 as the even 2^53
    e = parse(text, 1)
    assert isinstance(e, Const) and _same_float(e.value, want)


@pytest.mark.parametrize("text", ["(-2)^9007199254740993", "10^400", "(-1.5)^2000"])
def test_a_folded_power_past_the_float_range_is_still_a_parse_error(text):
    with pytest.raises(ParseError):
        parse(text, 1)


def test_a_power_past_2_53_keeps_its_sign_and_its_overflow_in_generated_code():
    # fields and the projection use Python's float arithmetic, where a power
    # past the float range raises; only an exponent past 2^53 changes spelling
    odd, even = parse("x1^9007199254740993", 1), parse("x1^9007199254740992", 1)
    assert vector_source([even])[0] == ["_t0 = _x[0] ** 9007199254740992"]
    f = compile_vector([odd, even])
    assert f([-1.0]) == [-1.0, 1.0]
    assert [math.copysign(1.0, v) for v in f([-0.5])] == [-1.0, 1.0]
    with pytest.raises(OverflowError):
        f([-2.0])
