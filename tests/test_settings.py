"""Every parameter with a default is set by some caller.

A default that no call ever overrides is a constant in disguise: it adds a
configuration that nothing exercises.  This check collects each parameter
with a default from every `def` under `src/pwdyn` and looks for a call in
`src/` or `perfbench/` that sets it, by keyword or by position.  Calls in
`tests/` do not count, so a test alone cannot keep a setting alive.
Calls are matched by callee name only; a call of a class name counts as a
call of its `__init__`, and a method's positional slots start after `self`.
"""

import ast
import builtins
import copy
from pathlib import Path

from pwdyn.taxonomy import NOT_APPLICABLE

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pwdyn"
CALLER_DIRS = ("src", "perfbench")


def _sources(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defaulted(tree):
    """(function name, parameter name, positional slot or None, is method)
    for every parameter with a default; a class's `__init__` is listed
    under the class name."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods[item] = node.name
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if methods.get(node) and name == "__init__":
            name = methods[node]
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, i, node in methods
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, node in methods


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _settings(trees):
    """Callee name -> (keywords set, largest positional count)."""
    seen = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name is None:
                continue
            keywords, count = seen.get(name, (set(), 0))
            keywords |= {k.arg for k in node.keywords if k.arg}
            seen[name] = (keywords, max(count, len(node.args)))
    return seen


def _unset(package, sources) -> list[str]:
    """`file:function(param=)` for each parameter with a default in the
    (path, tree) package files that no call in a source under one of the
    CALLER_DIRS sets; the other sources, such as tests, are passed over."""
    calls = _settings(tree for path, tree in sources
                      if path.relative_to(ROOT).parts[0] in CALLER_DIRS)
    out = []
    for path, tree in package:
        for func, param, slot, method in _defaulted(tree):
            keywords, count = calls.get(func, (set(), 0))
            if param in keywords:
                continue
            if slot is not None and count > slot - method:
                continue
            out.append(f"{path.name}:{func}({param}=)")
    return sorted(set(out))


def unset_defaults() -> list[str]:
    return _unset(_sources("src/pwdyn"), _sources("src", "tests", "perfbench"))


def test_every_default_has_a_caller():
    assert unset_defaults() == []


def test_caller_check_passes_over_tests():
    """`_side_start` given a `cap=` default that no caller sets, and then
    set by one call, as a deleted test once set a cap alone: the call is
    counted from a file in `src/` or `perfbench/`, and from a file in
    `tests/` it is not."""
    source = (PACKAGE / "codes.py").read_text()
    old = "side: Optional[Side]\n                ) -> tuple[Fraction,"
    assert source.count(old) == 1
    package = [(PACKAGE / "codes.py", ast.parse(source.replace(
        old, "side: Optional[Side],\n                cap: int = DEFAULT_CAP"
             ") -> tuple[Fraction,")))]
    sources = list(_sources("src", "tests", "perfbench"))
    assert _unset(package, sources) == ["codes.py:_side_start(cap=)"]
    call = ast.parse("_side_start(f, w, None, cap=5)\n")
    for where, counted in (("tests/test_codes.py", False),
                           ("src/pwdyn/cli.py", True),
                           ("perfbench/workloads.py", True)):
        found = _unset(package, [*sources, (ROOT / where, call)])
        assert found == ([] if counted else ["codes.py:_side_start(cap=)"]), \
            where


def test_only_orbits_measures_denominators():
    """The denominator budget is tested in `orbits` alone, so every point
    walk elsewhere has to go through `orbits.walk`."""
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _sources("src/pwdyn") if path.name != "orbits.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _callee(node) == "bit_length"]
    assert found == []


def _word(node):
    """The name a Name or an attribute access ends in, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _innermost(tree, node):
    """The name of the innermost function around node, or None."""
    around = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.lineno <= node.lineno <= f.end_lineno]
    return max(around, key=lambda f: f.lineno).name if around else None


def _coef_names(func):
    """(A, D) name pairs of every three-name tuple a function unpacks, as
    it unpacks a segment's (A, B, D) coefficients."""
    return {(t.elts[0].id, t.elts[2].id) for t in ast.walk(func)
            if isinstance(t, ast.Tuple) and isinstance(t.ctx, ast.Store)
            and len(t.elts) == 3
            and all(isinstance(e, ast.Name) for e in t.elts)}


def _slope_minus_one(node, coefs, names):
    """A slope minus one, in either order: `slope - 1`, `D - A` of a
    segment's coefficients, or a name bound to one."""
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, ast.Name):
        return node.id in names
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    pair = (node.left, node.right)
    if any(isinstance(e, ast.Constant) and e.value == 1 for e in pair):
        return any(_word(e) == "slope" for e in pair)
    words = tuple(_word(e) for e in pair)
    return any(words in (ad, ad[::-1]) for ad in coefs)


def _unpacked(assign, value):
    """(name, value) for each name an assignment binds, through tuples."""
    target = assign.targets[0]
    if isinstance(target, ast.Name):
        yield target.id, value
    elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
        for t, v in zip(target.elts, value.elts):
            if isinstance(t, ast.Name):
                yield t.id, v


def _fixed_point_roots(tree):
    """Functions that divide by a slope minus one (or its negation), or
    make one the denominator of a pair or a Fraction: what a fixed-point
    root x = intercept / (1 - slope) computes, whatever names it binds on
    the way.  A name unpacked from a call of a function of the module
    that returns such a difference counts as one."""
    funcs = {f.name: f for f in ast.walk(tree)
             if isinstance(f, ast.FunctionDef)}
    returned = {name: node.value for name, f in funcs.items()
                for node in ast.walk(f) if isinstance(node, ast.Return)
                and isinstance(node.value, ast.Tuple)}
    found = []
    for func in funcs.values():
        coefs = _coef_names(func)
        names = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value, scope = node.value, coefs
            callee = (_word(value.func) if isinstance(value, ast.Call)
                      else None)
            if callee in returned:
                value, scope = returned[callee], _coef_names(funcs[callee])
            names |= {name for name, v in _unpacked(node, value)
                      if _slope_minus_one(v, scope, names)}
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                denominator = node.right
            elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
                denominator = node.elts[1]
            elif (isinstance(node, ast.Call) and _word(node.func) == "Fraction"
                  and len(node.args) == 2):
                denominator = node.args[1]
            else:
                continue
            if _slope_minus_one(denominator, coefs, names):
                found.append(func.name)
                break
    return found


def test_one_fixed_point_solver():
    """A fixed point's root, intercept / (1 - slope) in any spelling, is
    solved in `orbits.fixed_points` alone, so every enumeration of fixed
    points, of a map's powers or of a segment list, and every diagonal
    crossing of `taxonomy`, reads it from that solver."""
    found = [f"{path.name}:{name}" for path, tree in _sources("src/pwdyn")
             for name in _fixed_point_roots(tree)]
    assert found == ["orbits.py:fixed_points"]


def test_fixed_point_check_sees_every_spelling():
    """The Fraction root `taxonomy._segment_solution` solved before it read
    the root off `fixed_points`, through the gap coefficients another
    function returns, is found; so are the Fraction solver's own root and
    the integer pair, in either order and negated."""
    parent = (
        "def _diagonal_gap(seg):\n"
        "    return seg.slope - 1, seg.intercept\n"
        "def _segment_solution(seg, lo, hi, want_le):\n"
        "    s, c = _diagonal_gap(seg)\n"
        "    if s == 0:\n"
        "        return None\n"
        "    root = -c / s\n"
        "    return root\n")
    assert _fixed_point_roots(ast.parse(parent)) == ["_segment_solution"]
    spellings = {
        "fraction": "def f(piece):\n"
                    "    return piece.intercept / (1 - piece.slope)\n",
        "negated": "def f(piece):\n"
                   "    return -piece.intercept / -(piece.slope - 1)\n",
        "pair": "def f(seg):\n"
                "    *_, (a, b, d) = seg\n"
                "    return (b, d - a) if d > a else (-b, a - d)\n",
        "bound": "def f(seg):\n"
                 "    a, b, d = seg[4]\n"
                 "    s = a - d\n"
                 "    return Fraction(-b, s)\n",
    }
    for name, source in spellings.items():
        assert _fixed_point_roots(ast.parse(source)) == ["f"], name
    sign = ("def f(seg, t):\n"
            "    a, b, d = seg[4]\n"
            "    return (a - d) * t[0] + b * t[1]\n")
    assert _fixed_point_roots(ast.parse(sign)) == []


def _piece_kernels(tree):
    """Functions that both pull a cut back through a segment (`_solve`)
    and evaluate a piece (`_apply`).  That is what a piece kernel does to
    split a segment at its cuts' preimages and compose each part with a
    piece, whatever names it binds on the way."""
    return [func.name for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            and {"_solve", "_apply"} <= {_word(node.func)
                                         for node in ast.walk(func)
                                         if isinstance(node, ast.Call)}]


def test_one_piece_kernel():
    """Segments are pushed through a map in `maps._push_segments` alone,
    so compositions, powers, restricted powers and segment sweeps share
    one kernel."""
    found = [f"{path.name}:{name}" for path, tree in _sources("src/pwdyn")
             for name in _piece_kernels(tree)]
    assert found == ["maps.py:_push_segments"]


def test_piece_kernel_check_sees_a_rewritten_kernel():
    """A kernel that binds max(k, n) to a name before it reads the cuts,
    and a copy of it under another name, are both found."""
    source = (PACKAGE / "maps.py").read_text()
    old = ("                w = cuts[max(k, n)]\n"
           "                xn, end = _solve(c, *w), values[max(k, n)]\n")
    assert old in source
    source = source.replace(old, "                m = max(k, n)\n"
                                 "                w = cuts[m]\n"
                                 "                xn, end = _solve(c, *w), "
                                 "values[m]\n")
    kernel = ast.get_source_segment(source, next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and node.name == "_push_segments"))
    copied = source + "\n\n" + kernel.replace("def _push_segments",
                                               "def _push_copy")
    assert _piece_kernels(ast.parse(copied)) == ["_push_segments",
                                                 "_push_copy"]


def _budget_reads(tree):
    """The innermost function (or "<module>") around each read of
    MAX_PIECES: a load of the name or of an attribute by that name, or an
    import of it."""
    return [_innermost(tree, node) or "<module>" for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "MAX_PIECES"
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == "MAX_PIECES"
            or isinstance(node, ast.ImportFrom)
            and any(a.name == "MAX_PIECES" for a in node.names)]


def _guard_params(tree):
    """Every function that takes a parameter named `guard`."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(a.arg == "guard" for a in (
                *node.args.posonlyargs, *node.args.args,
                *node.args.kwonlyargs))]


def test_one_piece_budget():
    """`maps.MAX_PIECES` is the one piece budget: it is read in the piece
    kernel `maps._push_segments` alone, at each call, so compositions,
    powers and sweeps all stop at it, and no function takes a per-call
    `guard` against it."""
    package = list(_sources("src/pwdyn"))
    assert sorted({f"{path.name}:{name}" for path, tree in package
                   for name in _budget_reads(tree)}) == \
        ["maps.py:_push_segments"]
    assert [f"{path.name}:{name}" for path, tree in package
            for name in _guard_params(tree)] == []


def test_budget_check_sees_a_planted_guard():
    """`power` given back its old `guard=MAX_PIECES` parameter, and
    `orbits` its import of the budget, are both found."""
    source = (PACKAGE / "maps.py").read_text()
    old = "def power(self, n: int, *, check: bool = True)"
    assert source.count(old) == 1
    tree = ast.parse(source.replace(old, (
        "def power(self, n: int, *, guard: int = MAX_PIECES,\n"
        "              check: bool = True)")))
    assert _guard_params(tree) == ["power"]
    assert sorted(set(_budget_reads(tree))) == ["_push_segments", "power"]
    orbits = ast.parse("from .maps import MAX_PIECES, MINUS\n")
    assert _budget_reads(orbits) == ["<module>"]


def _root_solvers(tree):
    """The innermost function around each call of `_solve`: every place
    that pulls a value back through a piece."""
    return [_innermost(tree, node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _word(node.func) == "_solve"]


def test_one_root_finder():
    """A value is pulled back through a piece (`_solve`) by the piece
    kernel `maps._push_segments`, by `orbits._narrow`, which cuts a sweep
    down to its targets, and otherwise only by the root finder
    `PiecewiseMap._roots`: `preimage`, the preimage levels, the sandwich
    bounds and the power check all read its pairs."""
    found = sorted({f"{path.name}:{name}"
                    for path, tree in _sources("src/pwdyn")
                    for name in _root_solvers(tree)})
    assert found == ["maps.py:_push_segments", "maps.py:_roots",
                     "orbits.py:_narrow"]


def test_root_finder_check_sees_a_second_inline_root():
    """The Fraction `preimage`, which solved its roots inline, put back
    beside the root finder is found."""
    source = (PACKAGE / "maps.py").read_text()
    old = ("        return tuple(Fraction(*x) "
           "for x in self._roots(*_pair(as_fraction(y))))\n")
    assert old in source
    source = source.replace(old, (
        "        y = p, q = _pair(as_fraction(y))\n"
        "        found = []\n"
        "        last = self._ends[0][0]\n"
        "        for piece, c, (v0, v1) in zip(self.pieces, _table(self).pieces,\n"
        "                                      self._ends):\n"
        "            if v0 == y == last:\n"
        "                found.append(piece.left)\n"
        "            if (p * v0[1] - v0[0] * q) * (p * v1[1] - v1[0] * q) < 0:\n"
        "                found.append(Fraction(*_solve(c, p, q)))\n"
        "            last = v1\n"
        "        if last == y:\n"
        "            found.append(self.b)\n"
        "        return tuple(found)\n"))
    assert sorted(set(_root_solvers(ast.parse(source)))) == [
        "_push_segments", "_roots", "preimage"]


def test_one_invariant_check():
    """A map's invariants are checked by `maps._validate`, called from
    `PiecewiseMap._init` alone: the public constructor, powers and
    compositions all build their maps through that one path."""
    found = [f"{path.name}:{_innermost(tree, node)}"
             for path, tree in _sources("src/pwdyn") for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _word(node.func) == "_validate"]
    assert found == ["maps.py:_init"]


def test_segments_become_fractions_at_the_edge():
    """Int segments become AffinePieces (`maps._affine`) only where a
    caller asks for a map's pieces (`PiecewiseMap.pieces`) and where a
    public caller gets a sweep's segments back (`window_sweep`,
    `restrict_power`): maps, powers and compositions hold their segments
    as ints, and fixed points, trapping signs and code intervals read
    them so."""
    found = sorted({f"{path.name}:{_innermost(tree, node)}"
                    for path, tree in _sources("src/pwdyn")
                    for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and _word(node.func) == "_affine"})
    assert found == ["maps.py:pieces", "taxonomy.py:restrict_power",
                     "taxonomy.py:window_sweep"]


def test_one_connection_table():
    """The connection levels of a node pair are read off its landing rows
    in `stability._connections` alone: it is the one caller of `_landings`
    and the one place a `Connection` is built, so `find_connection` and
    every clause of the propagation report read the same table."""
    found = {f"{path.name}:{_word(node.func)}:{_innermost(tree, node)}"
             for path, tree in _sources("src/pwdyn") for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and _word(node.func) in ("_landings", "Connection")}
    assert found == {"stability.py:_landings:_connections",
                     "stability.py:Connection:_connections"}


def test_only_maps_takes_rationals_apart():
    """The (numerator, denominator) pairs of the integer step, the piece
    kernel and the walk's stop-test data are all made in `maps`: no other
    module reads a numerator, so callers pass and get back Fractions
    only."""
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _sources("src/pwdyn") if path.name != "maps.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "numerator"]
    assert found == []


def _sign_test(node):
    """An ordering comparison with zero: a slope's sign."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
            and any(isinstance(side, ast.Constant) and side.value == 0
                    for side in (node.left, *node.comparators)))


def _flips_a_side(func):
    """A side turned over by a slope's sign: `opposite(...)` or `not ...`
    taken where the sign is tested, or a side compared or xor-ed with the
    sign test itself."""
    tests_sign = any(_sign_test(node) for node in ast.walk(func))
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and _word(node.func) == "opposite" \
                or isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, ast.Not):
            if tests_sign:
                return True
        operands = ()
        if isinstance(node, ast.Compare) and isinstance(
                node.ops[0], (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)):
            operands = (node.left, *node.comparators)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor):
            operands = (node.left, node.right)
        if any(_sign_test(side) for side in operands):
            return True
    return False


def _germ_steps(tree):
    """Functions that locate a piece by position (`_locate`, the side
    locator `_branch`, or a map's `piece_left_of` / `piece_right_of`),
    evaluate it (`_apply` or `value_at`) and flip a side by the slope's
    sign: what a germ step computes, whatever names it binds on the way."""
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        called = {_word(node.func) for node in ast.walk(func)
                  if isinstance(node, ast.Call)}
        if called & {"_locate", "_branch", "piece_left_of", "piece_right_of"} \
                and called & {"_apply", "value_at"} and _flips_a_side(func):
            out.append(func.name)
    return out


def test_one_germ_step():
    """A germ's piece is picked and its side flipped in
    `orbits._germ_successor` alone, so germ orbits, `germ_step`, the
    landing indices and the lateral powers share one step."""
    found = [f"{path.name}:{name}" for path, tree in _sources("src/pwdyn")
             for name in _germ_steps(tree)]
    assert found == ["orbits.py:_germ_successor"]


def test_germ_step_check_sees_a_rewritten_step():
    """A step that flips the side with `not` under a sign test instead of
    comparing it with one, and a renamed copy of it, are both found; so is
    the Fraction step it replaced, which flips with `opposite`."""
    source = (PACKAGE / "orbits.py").read_text()
    old = "    return (*_apply(piece, p, q), plus != (piece[0] <= 0)), i\n"
    assert old in source
    source = source.replace(old, "    alpha = piece[0]\n"
                                 "    if alpha < 0:\n"
                                 "        plus = not plus\n"
                                 "    return (*_apply(piece, p, q), plus), i\n")
    step = ast.get_source_segment(source, next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and node.name == "_germ_successor"))
    copied = source + "\n\n" + step.replace("def _germ_successor",
                                             "def _step_copy")
    assert _germ_steps(ast.parse(copied)) == ["_germ_successor", "_step_copy"]
    fraction_step = (
        "def germ_step(f, g):\n"
        "    branch = (f.piece_right_of(g.point) if g.side == PLUS\n"
        "              else f.piece_left_of(g.point))\n"
        "    side = g.side if branch.slope > 0 else opposite(g.side)\n"
        "    return Germ(branch.value_at(g.point), side)\n")
    assert _germ_steps(ast.parse(fraction_step)) == ["germ_step"]


def _germ_memos(tree):
    """Each top-level function that memoizes a germ walk: one whose `_memo`
    key names a parameter annotated `GermKey`, or that calls `_memo` and
    walks germs (`_germ_walk` or `_germ_successor`), nested functions
    included."""
    out = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        germ_params = {a.arg for node in ast.walk(func)
                       if isinstance(node, ast.FunctionDef)
                       for a in node.args.args
                       if a.annotation is not None
                       and _word(a.annotation) == "GermKey"}
        memos = [node for node in ast.walk(func) if isinstance(node, ast.Call)
                 and _word(node.func) == "_memo"]
        called = {_word(node.func) for node in ast.walk(func)
                  if isinstance(node, ast.Call)}
        keyed = any(isinstance(n, ast.Name) and n.id in germ_params
                    for memo in memos for n in ast.walk(memo.args[0]))
        if keyed or memos and called & {"_germ_walk", "_germ_successor"}:
            out.append(func.name)
    return out


def test_one_germ_memo():
    """A germ walk is memoized in `stability._germ_cycle` alone, keyed on
    the germ, so the plain walk `orbits._germ_walk`, `germ_orbit` and
    every other one-off walk keep nothing on the map."""
    found = [f"{path.name}:{name}" for path, tree in _sources("src/pwdyn")
             for name in _germ_memos(tree)]
    assert found == ["stability.py:_germ_cycle"]
    walk = next(node for node in ast.walk(ast.parse(
        (PACKAGE / "orbits.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_germ_walk")
    assert not any(isinstance(node, ast.Call) and _word(node.func) == "_memo"
                   for node in ast.walk(walk))


def test_germ_memo_check_sees_a_second_memoized_walk():
    """The plain walk put back behind a memo under another kind name, and
    `orbits.germ_orbit`'s walk routed through the memo, are both found."""
    source = (PACKAGE / "orbits.py").read_text()
    assert source.count("def _germ_walk(") == 1
    source = source.replace("def _germ_walk(", "def _walk_once(") + (
        "\n\ndef _germ_walk(f: PiecewiseMap, key: GermKey, cap: int):\n"
        "    return f._memo((\"walk\", key, cap),\n"
        "                   lambda: _walk_once(f, key, cap))\n")
    assert _germ_memos(ast.parse(source)) == ["_germ_walk"]
    source = (PACKAGE / "orbits.py").read_text()
    old = "_germ_walk(f, _germ_key(f, g), GERM_CAP)"
    assert source.count(old) == 1
    source = source.replace(old, f"f._memo((\"orbit\", g),\n"
                                 f"                     lambda: {old})")
    assert _germ_memos(ast.parse(source)) == ["germ_orbit"]


def _starts_and_walks(tree):
    """The functions that call a map's `value` or `lateral`, and those
    that call `walk`, each sorted."""
    calls = [(_word(node.func), _innermost(tree, node))
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return (sorted({func for word, func in calls
                    if word in ("value", "lateral")}),
            sorted({func for word, func in calls if word == "walk"}))


def test_one_special_start_and_two_walks():
    """In `codes`, a special point's start is read in `_side_start` alone,
    and the only walks are the codes walk and the good-set walk, so a
    certificate reads a side's codes off its good-set walk instead of
    walking its start again."""
    tree = ast.parse((PACKAGE / "codes.py").read_text())
    assert _starts_and_walks(tree) == (["_side_start"],
                                       ["_codes_walk", "_good_walk"])


def test_start_and_walk_check_sees_a_second_copy():
    """A start read again from `f.value` / `f.lateral`, as
    `regular_attractor` once did, and a second codes walk in `codes`
    are both found."""
    source = (PACKAGE / "codes.py").read_text()
    edits = [("    start, _ = _side_start(f, w, cert.side)\n",
              "    start = f.value(w)\n"
              "    if start is None:\n"
              "        start = f.lateral(w, cert.side)\n"),
             ("_codes_walk(f, as_fraction(x), cap), None)",
              "walk(f, as_fraction(x), cap, lock=True), None)")]
    for old, new in edits:
        assert source.count(old) == 1
        source = source.replace(old, new)
    assert _starts_and_walks(ast.parse(source)) == (
        ["_side_start", "regular_attractor"],
        ["_codes_walk", "_good_walk", "codes"])


def _gap_steps(tree):
    """The functions that call `special_gaps`, sorted, and the parameters
    of `_orbit_gaps`."""
    callers = sorted({_innermost(tree, node) for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and _word(node.func) == "special_gaps"})
    params = next([a.arg for a in node.args.args] for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_orbit_gaps")
    return callers, params


GAP_STEPS = ["_orbit_gaps", "_window", "is_trapped"]


def test_each_orbit_steps_its_gaps_once():
    """In `taxonomy`, special gaps are stepped for one point's window
    (`_window`), for the trap decision at an orbit's representative
    (`is_trapped`) and for an orbit's points (`_orbit_gaps`) alone.
    `_orbit_gaps` steps the first point itself, so no caller hands it
    gaps, and the trap memo keeps only its decision."""
    tree = ast.parse((PACKAGE / "taxonomy.py").read_text())
    assert _gap_steps(tree) == (GAP_STEPS, ["f", "orb"])


def test_gap_check_sees_a_restated_first_gap():
    """The atlas stepping the first point's gaps again and handing them to
    `_orbit_gaps`, as it once did, and a `gaps` parameter put back on
    `_orbit_gaps`, are each found."""
    source = (PACKAGE / "taxonomy.py").read_text()
    edits = [("        for p, gaps in zip(orb.points, _orbit_gaps(f, orb)):\n",
              "        rotated = _orbit_gaps(f, orb, special_gaps(\n"
              "            f, orb.points[0], depth))\n"
              "        for p, gaps in zip(orb.points, rotated):\n",
              (sorted([*GAP_STEPS, "attraction_atlas"]), ["f", "orb"])),
             ("def _orbit_gaps(f: PiecewiseMap, orb: PeriodicOrbit\n",
              "def _orbit_gaps(f: PiecewiseMap, orb: PeriodicOrbit, gaps\n",
              (GAP_STEPS, ["f", "orb", "gaps"]))]
    for old, new, want in edits:
        assert source.count(old) == 1
        assert _gap_steps(ast.parse(source.replace(old, new))) == want


def _halves(node):
    """A sum halved, `(lo + hi) // 2` or `(lo + hi) >> 1`: a bisection's
    midpoint."""
    return (isinstance(node, ast.BinOp) and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Add)
            and isinstance(node.right, ast.Constant)
            and (isinstance(node.op, ast.FloorDiv) and node.right.value == 2
                 or isinstance(node.op, ast.RShift) and node.right.value == 1))


def test_one_bisection():
    """Every point lookup (a value, a side piece, a variant's step, a
    code index) locates its piece with `maps._locate` on int pairs: no
    module imports `bisect`, and no other function halves a range."""
    imports = [f"{path.name}:{node.lineno}"
               for path, tree in _sources("src/pwdyn") for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               and any(a.name == "bisect" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "bisect"]
    assert imports == []
    found = [f"{path.name}:{_innermost(tree, node)}"
             for path, tree in _sources("src/pwdyn")
             for node in ast.walk(tree) if _halves(node)]
    assert found == ["maps.py:_locate"]


def test_bisection_check_sees_a_midpoint():
    """A shifted midpoint in another function is found."""
    tree = ast.parse("def find(xs, x):\n"
                     "    lo, hi = 0, len(xs)\n"
                     "    mid = (lo + hi) >> 1\n"
                     "    return mid\n")
    assert [_innermost(tree, node) for node in ast.walk(tree)
            if _halves(node)] == ["find"]


# the modules that hand Fraction pieces to their readers: the plots and
# the property suite's map builders and pinned checks
PIECE_EDGE_MODULES = ("harness.py", "plotting.py")


def _piece_readers(name, tree):
    """`file:function` of every read of a map's Fraction pieces: `pieces`,
    `piece_right_of`, `piece_left_of` or an AffinePiece's `value_at`."""
    return {f"{name}:{_innermost(tree, node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in (
                "pieces", "piece_right_of", "piece_left_of", "value_at")}


def test_fraction_pieces_only_at_the_edge():
    """A side piece, a slope or a piece's direction is read off the int
    segments through `PiecewiseMap._side`: outside the plots and the
    harness, only the two public side-piece lookups read Fraction pieces;
    `to_text` formats the segments and the CLI counts them."""
    found = set().union(*(_piece_readers(path.name, tree)
                          for path, tree in _sources("src/pwdyn")
                          if path.name not in PIECE_EDGE_MODULES))
    assert found == {"maps.py:piece_right_of", "maps.py:piece_left_of"}


def test_piece_reader_check_sees_the_old_direction_test():
    """The direction test that read every piece of the map, put back in
    `taxonomy._monotone_on`, is found."""
    source = (PACKAGE / "taxonomy.py").read_text()
    old = "    return (f._segs[f._side(lo, True)][4][0] > 0) == increasing\n"
    assert old in source
    source = source.replace(old, (
        "    return all((p.slope > 0) == increasing for p in f.pieces\n"
        "               if p.left < hi and p.right > lo)\n"))
    assert _piece_readers("taxonomy.py", ast.parse(source)) == {
        "taxonomy.py:_monotone_on"}


def _class_bases(trees):
    """Each class defined in the trees, by name, with its bases' names."""
    return {node.name: {_word(b) for b in node.bases}
            for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)}


PACKAGE_BASES = _class_bases(_sources("src/pwdyn"))


def _family(roots, bases=PACKAGE_BASES):
    """The names in roots and of every class derived from one of them."""
    family = set(roots)
    while more := {name for name, up in bases.items()
                   if up & family} - family:
        family |= more
    return family


def _catches(names, name, tree):
    """`file:function` of every `except` that names one of names, alone or
    in a tuple."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                  else [node.type])
        if names & {_word(e) for e in caught}:
            found.append(f"{name}:{_innermost(tree, node)}")
    return found


def _not_applicable_catches(name, tree):
    """`file:function` of every `except` that names NOT_APPLICABLE, one of
    its members or a subclass of one."""
    members = _family(e.__name__ for e in NOT_APPLICABLE)
    return _catches({"NOT_APPLICABLE"} | members, name, tree)


def test_not_applicable_catches_are_pinned():
    """A NOT_APPLICABLE error is caught only where a suite case is skipped
    (`PropertyResult.skipping`), where a sweep leaves out what does not
    apply (`closed_structures`, `_prop_duality`'s orbit listing and its
    orbits that `attractor_regular_source` rejects), and in the CLI's
    reverse duality check.  The taxonomy of a continuous orbit, its
    monotone windows and the atlas raise none, so no caller catches one
    from them."""
    found = sorted(catch for path, tree in _sources("src/pwdyn")
                   for catch in _not_applicable_catches(path.name, tree))
    assert found == ["cli.py:_cmd_theorem5", "harness.py:_bound_fails",
                     "harness.py:_prop_duality", "harness.py:_prop_duality",
                     "harness.py:_sandwich_fails",
                     "harness.py:closed_structures", "harness.py:shrink",
                     "harness.py:skipping"]


def test_catch_check_sees_an_added_skip():
    """A silent `except PreconditionError: continue` around the CLI's
    taxonomy, a tuple naming DegenerateWindowError around a window, and a
    catch of one budget subclass are all found."""
    source = (PACKAGE / "cli.py").read_text()
    old = "        tax = taxonomy(f, orb)\n        flags = []\n"
    assert old in source
    source = source.replace(old, "        try:\n"
                                 "            tax = taxonomy(f, orb)\n"
                                 "        except PreconditionError:\n"
                                 "            continue\n"
                                 "        flags = []\n")
    assert _not_applicable_catches("cli.py", ast.parse(source)) == [
        "cli.py:_cmd_taxonomy", "cli.py:_cmd_theorem5"]
    window = ("def atlas(f, p, gaps, n):\n"
              "    try:\n"
              "        return _window_on(f, p, gaps, 2 * n)\n"
              "    except (ValueError, taxonomy.DegenerateWindowError):\n"
              "        return None\n")
    assert _not_applicable_catches("t.py", ast.parse(window)) == ["t.py:atlas"]
    budget = ("def report(f, st):\n"
              "    try:\n"
              "        return cycle_stability_report(f, st)\n"
              "    except CycleBudgetError:\n"
              "        return None\n")
    assert _not_applicable_catches("t.py", ast.parse(budget)) == [
        "t.py:report"]


# PwdynError subclasses that are neither a spent budget nor a bug: input
# that does not parse or load, a query outside its preconditions, a walk
# that does not close or clip, or a generator that found no map.
NEITHER_BUDGET_NOR_BUG = {
    "MapSyntaxError", "_MapFileError", "PreconditionError",
    "DegenerateWindowError", "NotConfinedError", "ClipError",
    "CodeUndefinedError", "GenerationError"}
# The edges that may catch a bug class or PwdynError itself: the CLI's exit
# codes and its map loader, the generator and shrinker rejecting a map
# that breaks an invariant, the properties that record a bug as a failure,
# and the CLI's duality check, which prints a failed certification.
BUG_CATCHES = [
    "cli.py:_cmd_theorem5", "cli.py:_cmd_theorem5", "cli.py:_load",
    "cli.py:dispatch", "cli.py:dispatch", "cli.py:dispatch",
    "harness.py:_prop_duality", "harness.py:_prop_duality",
    "harness.py:_prop_exceptional", "harness.py:_prop_taxonomy",
    "harness.py:_reductions", "harness.py:_try_build"]


def _unsorted_errors(bases):
    """PwdynError subclasses derived from neither BudgetError nor BugError
    nor a listed class."""
    placed = _family({"BudgetError", "BugError", *NEITHER_BUDGET_NOR_BUG},
                     bases)
    return sorted(_family({"PwdynError"}, bases) - placed - {"PwdynError"})


def _bug_catches(name, tree):
    """`file:function` of every `except` that names PwdynError, BugError
    or a subclass of BugError."""
    return _catches({"PwdynError"} | _family({"BugError"}), name, tree)


def test_errors_are_budgets_bugs_or_listed():
    """Every package error is a spent budget (`BudgetError`), a bug
    (`BugError`) or one of the listed input and precondition classes, and
    a bug class is caught only at a listed edge, so a bug never becomes a
    skip."""
    assert _unsorted_errors(PACKAGE_BASES) == []
    assert NEITHER_BUDGET_NOR_BUG <= _family({"PwdynError"})
    found = sorted(catch for path, tree in _sources("src/pwdyn")
                   for catch in _bug_catches(path.name, tree))
    assert found == BUG_CATCHES


def test_error_check_sees_a_swallowed_bug_and_a_loose_class():
    """`_bound_fails`' old `except PwdynError`, which let a bug raised on a
    shrink candidate pass as a passing map, is found, and so is a new
    budget class that derives from PwdynError alone."""
    source = (PACKAGE / "harness.py").read_text()
    old = ('        return not count_bound(f, int(context.get("horizon", 8)))'
           '.holds\n    except NOT_APPLICABLE:\n')
    assert old in source
    source = source.replace(old, old.replace("NOT_APPLICABLE",
                                             "PwdynError"))
    assert "harness.py:_bound_fails" in _bug_catches("harness.py",
                                                     ast.parse(source))
    loose = ast.parse("class NodeBudgetError(PwdynError):\n    pass\n")
    assert _unsorted_errors({**PACKAGE_BASES, **_class_bases(
        [(None, loose)])}) == ["NodeBudgetError"]


def _setattr_sites(name, tree):
    """`file:function` of every `object.__setattr__` call."""
    return [f"{name}:{_innermost(tree, node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and _word(node.func.value) == "object"]


def test_a_map_caches_only_through_its_memo():
    """A map stores its ends, its segments and one memo dict: its
    `__slots__` name nothing else, and a map's attributes are set only in
    `_init`, once each, so all its derived data goes through `_memo`.  No
    other `object.__setattr__` exists in the package."""
    tree = ast.parse((PACKAGE / "maps.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "PiecewiseMap")
    slots = [ast.literal_eval(item.value) for item in cls.body
             if isinstance(item, ast.Assign)
             and [_word(t) for t in item.targets] == ["__slots__"]]
    assert slots == [("a", "b", "_segs", "_cache")]
    found = sorted(site for path, tree in _sources("src/pwdyn")
                   for site in _setattr_sites(path.name, tree))
    assert found == ["maps.py:_init"] * 4


def test_memo_check_sees_a_slot_cache():
    """The old Fraction-piece cache, a slot set on first use, is found."""
    source = (PACKAGE / "maps.py").read_text()
    old = ('        return self._memo(("pieces",), '
           'lambda: tuple(_affine(self._segs)))\n')
    assert old in source
    source = source.replace(old, (
        '        if self._pieces is None:\n'
        '            object.__setattr__(self, "_pieces", '
        'tuple(_affine(self._segs)))\n'
        '        return self._pieces\n'))
    assert "maps.py:pieces" in _setattr_sites("maps.py", ast.parse(source))


def _label_truth_tests(tree):
    """The source of every test in `walk` that reads a stop label: each
    `if`, `while`, conditional, `assert`, `not`, `and`/`or` operand or
    `bool()` argument that names `label` or subscripts `marks`."""
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "walk")
    tested = []
    for node in ast.walk(func):
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            tested.append(node.test)
        elif isinstance(node, ast.comprehension):
            tested += node.ifs
        elif isinstance(node, ast.BoolOp):
            tested += node.values
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tested.append(node.operand)
        elif isinstance(node, ast.Call) and _word(node.func) == "bool":
            tested += node.args
    return sorted({ast.unparse(t) for t in tested for n in ast.walk(t)
                   if isinstance(n, ast.Name) and n.id == "label"
                   or isinstance(n, ast.Subscript)
                   and _word(n.value) == "marks"})


def test_walk_has_one_stop_rule():
    """A listed point or a ball that holds the point ends the walk with
    its label: `walk` tests no label for truth."""
    source = (PACKAGE / "orbits.py").read_text()
    assert _label_truth_tests(ast.parse(source)) == []


def test_stop_rule_check_sees_a_label_test():
    """The old rule, a falsy label that goes on, is found whether it is
    put back on the listed points or on the balls."""
    source = (PACKAGE / "orbits.py").read_text()
    listed = "        if key in marks:\n"
    ball = "                return Walk(pairs, None, \"stop\", label)\n"
    assert listed in source and ball in source
    assert _label_truth_tests(ast.parse(source.replace(
        listed, "        if key in marks and marks[key]:\n"))) == [
            "key in marks and marks[key]", "marks[key]"]
    assert _label_truth_tests(ast.parse(source.replace(
        ball, "                if label:\n    " + ball))) == ["label"]


def _code_builds(sources):
    """`file:function` for each call of `Code` in the (path, tree)
    sources, and the names of the fields `codes.Code` declares."""
    builds = [f"{path.name}:{_innermost(tree, node)}"
              for path, tree in sources for node in ast.walk(tree)
              if isinstance(node, ast.Call) and _word(node.func) == "Code"]
    cls = next(node for path, tree in sources if path.name == "codes.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "Code")
    return builds, [item.target.id for item in cls.body
                    if isinstance(item, ast.AnnAssign)]


def test_one_code_constructor():
    """Every `Code` is built by `codes._finish_code`, so each itinerary
    has one canonical form, and a code stores its prefix and cycle alone:
    `truncated`, `strictly_periodic` and `period` are read off them."""
    assert _code_builds(list(_sources("src/pwdyn"))) == (
        ["codes.py:_finish_code"], ["prefix", "cycle"])


def test_code_constructor_check_sees_a_second_build():
    """The old truncated tail code built in `_walk_codes`, and a stored
    `truncated` flag put back on `Code`, are both found."""
    sources = list(_sources("src/pwdyn"))
    source = (PACKAGE / "codes.py").read_text()
    edits = [("        out = {_finish_code((k, *t.prefix), t.cycle)\n",
              "        out = {Code((k, *t.prefix), None, True)"
              " if t.cycle is None\n"
              "               else _finish_code((k, *t.prefix), t.cycle)\n"),
             ("    cycle: Optional[tuple[int, ...]]\n",
              "    cycle: Optional[tuple[int, ...]]\n"
              "    truncated: bool = False\n")]
    for old, new in edits:
        assert source.count(old) == 1
        source = source.replace(old, new)
    planted = [(path, ast.parse(source) if path.name == "codes.py" else tree)
               for path, tree in sources]
    assert _code_builds(planted) == (
        ["codes.py:_finish_code", "codes.py:_walk_codes"],
        ["prefix", "cycle", "truncated"])


def _defs(node, prefix=""):
    """(qualified name, node) for every `def` under node: functions,
    methods and closures."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _defs(child, name + ".")
        else:
            yield from _defs(child, prefix)


def _module_names(tree):
    """The names a module binds at its top level, and the builtins."""
    names = set(dir(builtins))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _copied_bodies(sources):
    """Each group of two or more `def`s in the (path, tree) sources whose
    bodies are equal, as sorted `file:qualified name` lists.  A body is
    compared by `ast.dump`, its docstring dropped and every name the
    module does not bind renamed by first use, so a copy that only
    renames its locals, or the object it works on (`self` in one and a
    captured report in the other), is equal too."""
    groups = {}
    for path, tree in sources:
        kept = _module_names(tree)
        for name, func in _defs(tree):
            body = copy.deepcopy(func.body)
            if ast.get_docstring(func) is not None:
                body = body[1:]
            local = {}
            for node in ast.walk(ast.Module(body, [])):
                if isinstance(node, ast.Name) and node.id not in kept:
                    node.id = local.setdefault(node.id, f"_{len(local)}")
            groups.setdefault(ast.dump(ast.Module(body, [])), []).append(
                f"{path.name}:{name}")
    return sorted(sorted(g) for g in groups.values() if len(g) > 1)


def test_no_copied_helpers():
    """No two function, method or closure bodies in the package are
    equal: the rule reports share `consistent` and `flag` through
    `stability._RuleReport`, where each report once had its own copy."""
    assert _copied_bodies(_sources("src/pwdyn")) == []


def test_copy_check_sees_the_old_flag_closure():
    """The old `flag` closure put back into `cycle_stability_report` is
    found beside `_RuleReport.flag`, whose body it copies on the captured
    report."""
    source = (PACKAGE / "stability.py").read_text()
    old = "    flag = report.flag\n    for at, cyc in zip(at_cycles, cycles):\n"
    assert source.count(old) == 1
    source = source.replace(old, (
        "\n    def flag(rule, x, y, detail):\n"
        "        report.violations.append(RuleViolation(rule, x, y, detail))\n"
        "\n    for at, cyc in zip(at_cycles, cycles):\n"))
    planted = [(path, ast.parse(source) if path.name == "stability.py"
                else tree) for path, tree in _sources("src/pwdyn")]
    assert _copied_bodies(planted) == [
        ["stability.py:_RuleReport.flag",
         "stability.py:cycle_stability_report.flag"]]
