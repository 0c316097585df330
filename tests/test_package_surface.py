"""Every public top-level function and class of the package has a user.

A definition that nothing names except itself and its re-export in
__init__.py is code the package carries for the tests alone; such helpers
belong under tests/ (as rep_algebra.py and oracles.py hold them).  Uses are
read with ast from the package's modules, its own module included, and from
the benchmark under perfbench/, whose tracer also names functions by
"layer.name" strings.

A second walk keeps one path for the grid weights e^{a x}: no np.exp of a
product with a grid's x outside LogGrid.weight, which holds them.  A third
keeps one path for Mellin lines: MellinLine is built only by
mellin.checked_line, which scans the spectrum for NaN/Inf, and by
mellin_lines' a == 0 branch, whose held spectrum was scanned when it was
computed.  A fourth keeps one get-or-compute for held values: no function
but grid._hold names `._held`; the others hold through it.  A fifth keeps
one forward and one inverse transform, both real-input: np.fft.rfft runs
only in HalfLineFunction.spectrum, which holds it, in mellin_lines, off line
0, in spectral_dx and in mellin._flow_defect_norm, the residual's one
transform; np.fft.irfft runs only in mellin_inverse_lines; and the complex
np.fft.fft and np.fft.ifft run nowhere.  A sixth
keeps the gates' tolerances fixed: no function takes a tolerance of its
own, and no package call hands one to a gate predicate, so every gate reads
grid.DECAY_TOL, solver.OBSTRUCTION_TOL, solver.EPS_POLE and
cocycle.COMPAT_TOL.  A seventh keeps one decay gate: no module but grid.py
reads grid.profile, grid.Profile or Profile.decays, so every decay test is
a call of grid.decay_admissible.  An eighth keeps one Nyquist rule: no
module but grid.py takes a value modulo 2, so only LogGrid.bin_weights
asks whether a grid is even and has a Nyquist bin.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twisteq"
PERFBENCH = ROOT / "perfbench"


def _names(node: ast.AST, layers: frozenset[str] = frozenset()) -> set[str]:
    """Names that node uses; with layers, also the name of a "layer.name" string."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif layers and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            layer, dot, name = sub.value.partition(".")
            if dot and layer in layers and name.isidentifier():
                names.add(name)
    return names


def test_every_public_definition_is_used():
    modules = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    layers = frozenset(modules)
    bench = set().union(
        *(_names(ast.parse(path.read_text(), str(path)), layers) for path in PERFBENCH.rglob("*.py"))
    )
    used_by = {stem: _names(tree) for stem, tree in modules.items()}
    unused = []
    for stem, tree in modules.items():
        elsewhere = bench.union(*(names for other, names in used_by.items() if other != stem))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = set().union(*(_names(sibling) for sibling in tree.body if sibling is not node))
            if node.name not in elsewhere | own:
                unused.append(f"{stem}.{node.name}")
    assert not unused, f"public definitions nothing uses: {unused}"


def _grid_exponentials(tree: ast.AST) -> list[int]:
    """Lines of np.exp(<expr> * <obj>.x) calls outside LogGrid.weight."""
    held = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "LogGrid":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "weight":
                    held.update(map(id, ast.walk(item)))
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args) or id(node) in held:
            continue
        func, arg = node.func, node.args[0]
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "exp"
            and isinstance(func.value, ast.Name)
            and func.value.id == "np"
            and isinstance(arg, ast.BinOp)
            and isinstance(arg.op, ast.Mult)
            and isinstance(arg.right, ast.Attribute)
            and arg.right.attr == "x"
        ):
            lines.append(node.lineno)
    return lines


def test_one_path_for_grid_weights():
    # e^{a x} on a grid comes from LogGrid.weight, which holds it per a
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _grid_exponentials(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"np.exp(a * grid.x) outside LogGrid.weight: {found}"


def _line_constructions(tree: ast.AST) -> list[int]:
    """Lines of MellinLine(...) calls outside checked_line and the a == 0
    branch of mellin_lines."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "checked_line":
            allowed.update(map(id, ast.walk(node)))
        elif isinstance(node, ast.FunctionDef) and node.name == "mellin_lines":
            for branch in ast.walk(node):
                if isinstance(branch, ast.If) and ast.unparse(branch.test) == "a == 0":
                    for stmt in branch.body:
                        allowed.update(map(id, ast.walk(stmt)))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "MellinLine" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and id(node) not in allowed
    ]


def test_one_path_for_mellin_lines():
    # every line's spectrum is scanned for NaN/Inf once, where the line is made
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _line_constructions(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"MellinLine built outside checked_line and mellin_lines' line 0: {found}"


def _held_uses(tree: ast.AST, hold: bool) -> list[int]:
    """Lines that name the attribute `_held`, outside the module-level
    function _hold when hold is set."""
    inside = set()
    for node in tree.body if hold else ():
        if isinstance(node, ast.FunctionDef) and node.name == "_hold":
            inside.update(map(id, ast.walk(node)))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_held" and id(node) not in inside
    ]


def test_one_get_or_compute_for_held_values():
    # a value held on a grid or a function is read and stored by grid._hold
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _held_uses(ast.parse(path.read_text(), str(path)), path.name == "grid.py")
    ]
    assert not found, f"._held named outside grid._hold: {found}"


def _fft_calls(tree: ast.AST, call: str, sites: tuple[str, ...]) -> list[int]:
    """Lines of `call` (an np.fft function) outside the functions named in
    sites, where "HalfLineFunction.spectrum" names the method."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "HalfLineFunction":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and f"{node.name}.{item.name}" in sites:
                    allowed.update(map(id, ast.walk(item)))
        elif isinstance(node, ast.FunctionDef) and node.name in sites:
            allowed.update(map(id, ast.walk(node)))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == call
        and id(node) not in allowed
    ]


def _fft_calls_outside(call: str, sites: tuple[str, ...]) -> list[str]:
    """Every call of `call` in the package outside sites, as "<file>:<line>"."""
    return [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _fft_calls(ast.parse(path.read_text(), str(path)), call, sites)
    ]


def test_one_path_for_forward_transforms():
    # a function's spectrum is read from where it is held, not recomputed,
    # and every forward transform is of real rows
    sites = ("HalfLineFunction.spectrum", "mellin_lines", "spectral_dx", "_flow_defect_norm")
    found = _fft_calls_outside("np.fft.rfft", sites)
    assert not found, f"np.fft.rfft outside HalfLineFunction.spectrum and mellin: {found}"
    found = _fft_calls_outside("np.fft.fft", ())
    assert not found, f"complex np.fft.fft in the package: {found}"


def test_one_path_for_inverse_transforms():
    # every inverse transform, d/dx included, runs through mellin_inverse_lines
    found = _fft_calls_outside("np.fft.irfft", ("mellin_inverse_lines",))
    assert not found, f"np.fft.irfft outside mellin_inverse_lines: {found}"
    found = _fft_calls_outside("np.fft.ifft", ())
    assert not found, f"complex np.fft.ifft in the package: {found}"


# Tolerance parameters that the gates once took, and each gate predicate
# with the number of arguments it takes: one more would be a tolerance.
_TOLERANCE_PARAMETERS = frozenset({"tol", "decay_tol", "obstruction_tol", "eps_pole", "compat_tol"})
_GATES = {"decays": 0, "decay_admissible": 2, "line_admissible": 2, "obstructed": 2}


def _tolerance_leaks(tree: ast.AST) -> list[str]:
    """Functions with a tolerance parameter, and gate calls that pass a
    tolerance outside the gates, each as "<line>: <what>"."""
    forwarded = set()  # a gate may hand its own tolerance to another
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in _GATES:
            forwarded.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            leaked = sorted(names & _TOLERANCE_PARAMETERS)
            found += [f"{node.lineno}: {node.name}({name})" for name in leaked]
        elif isinstance(node, ast.Call) and id(node) not in forwarded:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _GATES and (len(node.args) > _GATES[name] or node.keywords):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_gate_tolerances_are_constants():
    found = [
        f"{path.name}:{leak}"
        for path in sorted(PACKAGE.glob("*.py"))
        for leak in _tolerance_leaks(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"a tolerance passed or taken outside its constant: {found}"


def _profile_uses(tree: ast.AST) -> list[str]:
    """Lines that name profile or Profile, or read the attribute decays
    (a local variable of that name is not the method)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in ("profile", "Profile") or (name == "decays" and not isinstance(node, ast.Name)):
            found.append(f"{node.lineno}: {name}")
    return found


def test_one_decay_gate():
    # a weighted profile is read, and tested for decay, only inside grid.py
    found = [
        f"{path.name}:{use}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "grid.py"
        for use in _profile_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"a profile read outside grid.decay_admissible and the norms: {found}"


def _parity_tests(tree: ast.AST) -> list[int]:
    """Lines that take a value modulo 2, as a test of n_points' parity does."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    ]


def test_one_nyquist_rule():
    # an even grid's Nyquist bin is special-cased in LogGrid.bin_weights alone
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "grid.py"
        for line in _parity_tests(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"a parity test outside grid.py: {found}"
