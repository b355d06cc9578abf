"""Source hygiene that no installed linter checks: every name a module
imports at module level is used somewhere in that module and every name
a function imports is used in that function, setting up (importing the
harness and validating every preset) loads neither scipy nor a process
pool, while the convolution oracle still runs scipy's quad, only grids.py
touches an FFT module, so SpectralOps.fwd/inv stay the one transform
path, no preset runner raises ConfigError, so the preset registry
and validate_config stay the one home of a preset's domain, no runner
of a preset that registers a schedule makes its samples itself, so
the schedule is stated once, every config parser has a field of its
kind and every config field's annotation names one parser, every
recorder column is read by a verdict or a monitor column, no module
tunes the C allocator: large work arrays are held, not
re-faulted, by the code that uses them, the Magnus engine calls none of
numpy's scalar cos, sin and sinc loops, the quadratic terms have one
home: only the stepper's products and the wave source name
_product_row, a module exports only what src/ uses or the
acceptance tests import, a class's public methods are only those
src/ or the acceptance tests call, every field of a harness
dataclass is read somewhere in src/, and no function takes both a grid
and an ops, which carries its grid."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulerlab

PACKAGE = Path(eulerlab.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_imports(node) -> list:
    """Names that the imports of node's own scope bind, in source order:
    imports at any depth of node, but not inside a function it defines."""
    names = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in child.names]
        elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
            names += [a.asname or a.name for a in child.names]
        elif not isinstance(child, FUNCTIONS):
            names += _scope_imports(child)
    return names


def unused_imports(source: str) -> list:
    """Names bound by imports that their scope never reads: first those
    of the module, then those of each function.

    A module's name counts as used when it appears as an identifier
    anywhere in the module or is listed in __all__; a function's name,
    when it appears as an identifier in that function.
    """
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    hits = [name for name in _scope_imports(tree) if name not in used]
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTIONS):
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
            hits += [name for name in _scope_imports(fn) if name not in read]
    return hits


def test_unused_import_detector():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom a import b as c, d\n"
           "__all__ = ['d']\n"
           "def f(x: 'int') -> float:\n    return os.path.join(x)\n")
    assert unused_imports(src) == ["math", "c"]
    # a function's import must be read in that function: its own
    # branches and inner functions count, another function does not
    src = ("import json\n"
           "def f(w):\n    from math import sqrt, pi\n"
           "    if w > 1:\n        from os import sep\n"
           "        import numpy.linalg\n"
           "        return sep + numpy.linalg.norm(w)\n"
           "    def inner():\n        return sqrt(w)\n    return inner\n"
           "def g():\n    import numpy as np\n    return pi, json\n")
    assert unused_imports(src) == ["pi", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


LAZY_PROBE = """
import sys
from eulerlab import harness
for name in harness.PRESETS:
    harness.validate_config(harness.preset_config(name))
print(sorted(m for m in sys.modules
             if m.startswith("scipy") or m == "concurrent.futures.process"))
from eulerlab.diagnostics import convolution_oracle
convolution_oracle(2.0, 1.0, [1.0])
print("scipy.integrate" in sys.modules)
"""


def test_set_up_loads_no_scipy_and_no_pool():
    # a CLI user pays for every import on every invocation; scipy
    # serves only the two oracles, and the pool only a sweep with
    # workers, so each is imported on its first use
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]


FFT_MODULES = ("numpy.fft", "scipy.fft")


def _is_fft(dotted: str, modules=FFT_MODULES) -> bool:
    return any(dotted == m or dotted.startswith(m + ".") for m in modules)


def fft_references(source: str, modules=FFT_MODULES) -> list:
    """Line numbers where the source imports or names one of modules
    (numpy.fft and scipy.fft), whatever alias numpy or scipy is bound
    to."""
    tree = ast.parse(source)
    bound = {}                      # local name -> dotted module
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    bound[a.asname] = a.name
                else:
                    root = a.name.split(".")[0]
                    bound[root] = root
                if _is_fft(a.name, modules):
                    hits.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
            if _is_fft(node.module, modules) or any(
                    _is_fft(f"{node.module}.{a.name}", modules)
                    for a in node.names):
                hits.append(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and _is_fft(f"{bound.get(node.value.id)}.{node.attr}", modules):
            hits.append(node.lineno)
    return sorted(set(hits))


def test_fft_reference_detector():
    src = ("import numpy as xp\nimport scipy\nfrom numpy import fft as f\n"
           "from scipy.fft import rfftn\nimport numpy.fft\nimport math\n"
           "a = xp.fft.rfftn\nb = scipy.fft\nc = xp.linalg.norm\n"
           "d = math.fft\n")
    assert fft_references(src) == [3, 4, 5, 7, 8]
    assert fft_references("import numpy as np\nx = np.sum\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_grids_touches_the_fft_modules(path):
    refs = fft_references(path.read_text())
    if path.name == "grids.py":
        assert refs
        # scipy.fft stays the tests' independent oracle (test_grids.py)
        assert fft_references(path.read_text(), ("scipy.fft",)) == []
    else:
        assert refs == [], f"{path.name} reaches an FFT module at lines {refs}"


def registered_raises(source: str, exc: str = "ConfigError") -> list:
    """Names of the functions decorated by _register(...) that raise exc.

    A preset's domain is registry data, checked by validate_config
    before the run directory exists, so no runner refuses a config.
    """
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef) or not any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                and d.func.id == "_register" for d in node.decorator_list):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise) and sub.exc is not None:
                target = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
                if isinstance(target, ast.Name) and target.id == exc:
                    hits.append(node.name)
    return hits


def test_registered_raise_detector():
    src = ("@_register('a', 'd')\ndef f(cfg):\n"
           "    if cfg.n:\n        raise ConfigError('n: no')\n"
           "@_register('b', 'd')\ndef g(cfg):\n    raise RuntimeError('x')\n"
           "def h(cfg):\n    raise ConfigError\n"
           "@other\ndef k(cfg):\n    raise ConfigError('x')\n")
    assert registered_raises(src) == ["f"]


def test_no_runner_raises_config_errors():
    assert registered_raises((PACKAGE / "harness.py").read_text()) == []


SAMPLE_MAKERS = ("_lin_snapshots", "_log_snapshots", "geomspace")


def schedule_restatements(source: str) -> list:
    """(runner, name) for each use of a sample maker (SAMPLE_MAKERS) in
    a function decorated by _register(..., schedule=...).

    Such a runner reads its samples from the registry through
    _schedule(cfg), so that the schedule validate_config counts is the
    one the run takes.
    """
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef) or not any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_register"
                and any(kw.arg == "schedule" for kw in d.keywords)
                for d in node.decorator_list):
            continue
        for sub in (s for stmt in node.body for s in ast.walk(stmt)):
            name = getattr(sub, "id", None) or getattr(sub, "attr", None)
            if isinstance(sub, (ast.Name, ast.Attribute)) and name in SAMPLE_MAKERS:
                hits.append((node.name, name))
    return hits


def test_schedule_restatement_detector():
    src = ("@_register('a', 'd', schedule=_lin_snapshots)\ndef f(cfg):\n"
           "    run(cfg, _lin_snapshots(cfg))\n    t = np.geomspace(1, 2, 3)\n"
           "    return _schedule(cfg)\n"
           "@_register('b', 'd', schedule=lambda c: np.geomspace(1, 2, 3))\n"
           "def g(cfg):\n    snaps = _log_snapshots\n    return snaps(cfg)\n"
           "@_register('c', 'd')\ndef h(cfg):\n"
           "    return _lin_snapshots(cfg), np.geomspace(1, 2, 3)\n"
           "@_register('e', 'd', schedule=_log_snapshots)\ndef k(cfg):\n"
           "    return _schedule(cfg)\n")
    assert schedule_restatements(src) == [
        ("f", "_lin_snapshots"), ("f", "geomspace"), ("g", "_log_snapshots")]


def test_runners_read_their_schedule_from_the_registry():
    assert schedule_restatements((PACKAGE / "harness.py").read_text()) == []


def test_preset_declarations_name_real_fields():
    from eulerlab import harness
    for preset in harness.PRESETS.values():
        for name in preset.positive:
            assert harness._KINDS.get(name) == "float", (preset.name, name)
        assert set(preset.dims) <= {1, 2, 3} and preset.dims, preset.name


def test_every_config_parser_has_a_field():
    # a config value is parsed by its field's annotation; a parser whose
    # last field is gone would be dead code
    from eulerlab import harness
    assert set(harness._PARSERS) == set(harness._KINDS.values())


def unparsed_fields(kinds: dict, parsers) -> list:
    """Names of the fields of kinds (field name -> annotation) whose
    annotation is not exactly a key of parsers: a value no parser reads
    whole, such as an optional "float | None"."""
    return [name for name, kind in kinds.items() if kind not in parsers]


def test_unparsed_field_detector():
    kinds = {"a": "int", "b": "float | None", "c": "Optional[str]",
             "d": "str", "e": "float ", "f": "float"}
    assert unparsed_fields(kinds, {"int": int, "float": float, "str": str}) \
        == ["b", "c", "e"]


def test_every_config_field_has_one_parser():
    # a config value is an int, a float or a string: no field takes none
    from dataclasses import fields
    from eulerlab import harness
    kinds = {f.name: f.type for f in fields(harness.ScenarioConfig)}
    assert unparsed_fields(kinds, harness._PARSERS) == []


MONITORS = ("mon_low", "mon_high", "wmon_low", "wmon_high")


def unread_columns(columns, harness_src: str, recorder_src: str) -> list:
    """Recorder columns, other than t, that nothing reads.

    A column is read when harness.py holds its name as a string (the
    runners take a series by name) or when the recorder's EnergyRow
    call builds one of the monitor columns from a local of that name.
    """
    read = {node.value for node in ast.walk(ast.parse(harness_src))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    for node in ast.walk(ast.parse(recorder_src)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "EnergyRow":
            for kw in node.keywords:
                if kw.arg in MONITORS:
                    read |= {sub.id for sub in ast.walk(kw.value)
                             if isinstance(sub, ast.Name)}
    return [c for c in columns if c != "t" and c not in read]


def test_unread_column_detector():
    harness_src = "rec.series('a')\nx = f'{a} b'\nk = 'mon_low'\n"
    recorder_src = ("EnergyRow(t=t, a=a, b=b, c=c, d=d,\n"
                    "          mon_low=g * (b ** 2 + 1), other=d)\n"
                    "mon_high = c\n")
    assert unread_columns(["t", "a", "b", "c", "d", "mon_low"],
                          harness_src, recorder_src) == ["c", "d"]


def test_every_recorder_column_is_read():
    from eulerlab.diagnostics import EnergyRow
    assert unread_columns(EnergyRow.columns(),
                          (PACKAGE / "harness.py").read_text(),
                          (PACKAGE / "diagnostics.py").read_text()) == []


def allocator_tuning(source: str) -> list:
    """Line numbers where the source names a MALLOC_* variable, calls
    mallopt or imports ctypes (the way to reach libc from Python)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "MALLOC_" in node.value:
            hits.append(node.lineno)
        elif "mallopt" in (getattr(node, "id", None), getattr(node, "attr", None)):
            hits.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "ctypes" for a in node.names):
                hits.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "ctypes":
                hits.append(node.lineno)
    return sorted(set(hits))


def test_allocator_tuning_detector():
    src = ("import os\nimport ctypes.util\nfrom ctypes import CDLL\n"
           "os.environ['MALLOC_TOP_PAD_'] = '1'\nx = os.getenv('HOME')\n"
           "libc.mallopt(1, 2)\nmallopt(1, 2)\ny = 'malloc'\n"
           "z = os.environ.get(f'MALLOC_{k}')\n")
    assert allocator_tuning(src) == [2, 3, 4, 6, 7, 9]
    assert allocator_tuning("import numpy as np\nx = np.empty(3)\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_tunes_the_allocator(path):
    hits = allocator_tuning(path.read_text())
    assert hits == [], f"{path.name} tunes the C allocator at lines {hits}"


def numpy_names_in(source: str, function: str, names) -> list:
    """(line, name) for each numpy attribute among names (np.cos,
    numpy.cos) that the top-level function of source references,
    called or not, in source order."""
    hits = []
    for fn in ast.parse(source).body:
        if isinstance(fn, FUNCTIONS) and fn.name == function:
            hits += [(node.lineno, node.attr) for node in ast.walk(fn)
                     if isinstance(node, ast.Attribute) and node.attr in names
                     and getattr(node.value, "id", None) in ("np", "numpy")]
    return sorted(hits)


def test_numpy_name_detector():
    src = ("import numpy as np\nimport math\n"
           "def f(x):\n    y = np.cos(x)\n    g = np.sin\n"
           "    return math.cos(y) + g(x) + np.sinc(x) + np.tan(x)\n"
           "def h(x):\n    return numpy.cos(x)\n"
           "def k(x):\n    return np.sin(x)\n")
    names = ("cos", "sin", "sinc")
    assert numpy_names_in(src, "f", names) == [(4, "cos"), (5, "sin"),
                                               (6, "sinc")]
    assert numpy_names_in(src, "h", names) == [(8, "cos")]
    assert numpy_names_in(src, "g", names) == []


def test_the_magnus_engine_runs_no_scalar_trigonometry():
    # in numpy 2.4.6 float64 np.cos and np.sin are scalar libm loops,
    # 6.5 to 12 ns per element each over 3 845 elements in [0, 3] to
    # [0, 1000], while np.tan is vectorized, 1.6 ns (an AVX-512 Xeon):
    # the engine forms its oscillating exponentials from one tangent,
    # and np.sinc would bring np.sin back
    source = (PACKAGE / "linear.py").read_text()
    assert numpy_names_in(source, "_magnus_advance", ("cos", "sin", "sinc")) == []


def product_row_users(source: str) -> list:
    """Where the source names _product_row, as the dotted names of the
    enclosing classes and functions ("" at module level), in source
    order; its own definition does not count."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if name == "_product_row" and isinstance(child, (ast.Name, ast.Attribute)):
                hits.append(".".join(scope))
            inner = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if inner else scope)

    visit(ast.parse(source), [])
    return hits


def test_product_row_user_detector():
    src = ("def _product_row(u):\n    return u\n"
           "class L:\n    def products(self):\n        return _product_row(1)\n"
           "    def other(self):\n        def inner():\n"
           "            return euler._product_row\n        return inner\n"
           "def f():\n    g = _product_row\n    return g\n"
           "x = _product_row(2)\ny = 'product_row'\n")
    assert product_row_users(src) == ["L.products", "L.other.inner", "f", ""]


def test_the_products_have_one_home():
    # the quadratic terms are formed in one place: the stepper's
    # products, which rhs and the wave source run too, and the wave
    # source's two v rows of d/dt N_v
    users = {(path.stem, scope) for path in MODULES
             for scope in product_row_users(path.read_text())}
    assert users == {("euler", "_Lawson.products"),
                     ("euler", "nonlinear_wave_source")}


def _local_names(fn) -> set:
    """The names a function binds: arguments, assignments, inner defs."""
    names = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.arg):
            names.add(n.arg)
        elif isinstance(n, ast.FunctionDef) and n is not fn:
            names.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            names.add(n.id)
    return names


def _module_loads(node, bound=frozenset()) -> set:
    """Names that node loads from its module's scope: a function that
    binds a name itself hides the module's name of that spelling
    everywhere inside it."""
    loads = set()
    for child in ast.iter_child_nodes(node):
        inner = bound
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            inner = bound | _local_names(child)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) \
                and child.id not in bound:
            loads.add(child.id)
        loads |= _module_loads(child, inner)
    return loads


def unused_exports(sources: dict) -> list:
    """(module, name) for each name in the __all__ of a module of
    sources (module name -> source) that no module of sources reads;
    then (module, "Class.method") for each public method (properties
    too) of a module-level class of sources whose name no module of
    sources takes as an attribute (x.method).

    A module reads its own names where it loads them (_module_loads),
    and another module's where it imports them (from .mod import name)
    or takes them from that module (mod.name after from . import mod).
    A method is matched by its name alone, whatever x is.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read, called = set(), set()
    for mod, tree in trees.items():
        called |= {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)}
        read |= {(mod, name) for name in _module_loads(tree)}
        alias = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        alias[a.asname or a.name] = a.name
                    else:
                        read.add((node.module, a.name))
        read |= {(alias[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in alias}
    hits = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                hits += [(mod, name) for name in ast.literal_eval(node.value)
                         if (mod, name) not in read]
    for mod, tree in trees.items():
        hits += [(mod, f"{cls.name}.{fn.name}")
                 for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)
                 and not fn.name.startswith("_") and fn.name not in called]
    return hits


def test_unused_export_detector():
    sources = {
        "a": ("__all__ = ['f', 'g', 'h', 'k', 'm']\n"
              "def f(x):\n    def g():\n        return 1\n    return g()\n"
              "def g():\n    return 2\n"
              "def h(k):\n    return k\n"
              "def k():\n    return lambda m: m\n"
              "def m():\n    return 3\n"),
        "b": ("from . import a\nfrom .a import h\n__all__ = ['p', 'q']\n"
              "def p():\n    return a.k(), h\n"
              "def q():\n    return p()\n"),
    }
    assert unused_exports(sources) == [("a", "f"), ("a", "g"), ("a", "m"),
                                       ("b", "q")]


def test_unused_method_detector():
    sources = {
        "a": ("__all__ = ['C']\n"
              "class C:\n"
              "    def __init__(self):\n        self.x = self.used()\n"
              "    def used(self):\n        return self._private()\n"
              "    def _private(self):\n        return 1\n"
              "    @property\n    def prop(self):\n        return 2\n"
              "    def idle(self):\n        def inner():\n"
              "            return 3\n        return inner\n"
              "    def by_tests(self):\n        return 4\n"
              "class _D:\n    def work(self):\n        return C().prop\n"
              "    def rest(self):\n        return 5\n"
              "def f():\n    class E:\n        def nested(self):\n"
              "            return 6\n    return E\n"),
        "b": ("from .a import C\n__all__ = ['g']\n"
              "def g(c):\n    return c.work(), C.__init__\n"),
    }
    assert unused_exports(sources) == [
        ("b", "g"), ("a", "C.idle"), ("a", "C.by_tests"), ("a", "_D.rest")]


# names exported with no caller in src/; a test is no caller, not even
# an acceptance test, so an oracle lives with the tests (reference.py).
# euler.rhs stays only because perfbench/spans.py wraps it by name
# (owner.__dict__["rhs"]) to count the transforms of one right-hand
# side; it goes when the benchmark stops wrapping it.  A name leaves this
# list when it gains a caller or goes; none joins it, and no method does
UNUSED_EXPORTS = {("euler", "rhs")}


def test_every_export_has_a_caller():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert set(unused_exports(sources)) == UNUSED_EXPORTS


def unread_fields(source: str, sources) -> list:
    """"Class.field" for each field of a dataclass of source that no
    source of sources reads as an attribute (x.field).

    A field is matched by its name alone, whatever x is, as
    unused_exports matches methods.
    """
    read = {node.attr for src in sources for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    hits = []
    for cls in ast.parse(source).body:
        if isinstance(cls, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in cls.decorator_list):
            hits += [f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                     if isinstance(stmt, ast.AnnAssign)
                     and stmt.target.id not in read]
    return hits


def test_unread_field_detector():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
              "    z: int = 1\n    def f(self):\n        return self.x\n"
              "@dataclass\nclass B:\n    w: str\n    v: str\n"
              "class C:\n    u: int\n")
    other = "def g(b):\n    b.v = 1\n    return b.z, getattr(b, 'w')\n"
    assert unread_fields(source, [source, other]) == ["A.y", "B.w", "B.v"]


def test_every_harness_field_is_read():
    # a field that no code reads states a fact twice or not at all
    assert unread_fields((PACKAGE / "harness.py").read_text(),
                         [p.read_text() for p in PACKAGE.glob("*.py")]) == []


def grid_and_ops_takers(source: str) -> list:
    """The dotted names of the functions and methods of source, inner
    ones too, that take both a grid and an ops parameter, in source
    order."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                name = scope + [child.name]
                if isinstance(child, FUNCTIONS):
                    a = child.args
                    params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                    if {"grid", "ops"} <= params:
                        hits.append(".".join(name))
                visit(child, name)
            else:
                visit(child, scope)

    visit(ast.parse(source), [])
    return hits


def test_grid_and_ops_detector():
    src = ("def f(grid, ops=None):\n    return 1\n"
           "def g(ops, *, grid):\n    def inner(grid, x, ops):\n"
           "        return 2\n    return inner\n"
           "class C:\n    def m(self, grid, d, *, ops):\n        return 3\n"
           "    def n(self, ops):\n        return ops.grid\n"
           "def h(grid, ops_band):\n    return grid\n"
           "if True:\n    async def k(ops, /, grid):\n        return 4\n")
    assert grid_and_ops_takers(src) == ["f", "g", "g.inner", "C.m", "k"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_both_a_grid_and_an_ops(path):
    # a SpectralOps carries its grid: a grid beside it states the box
    # twice, and can name another box than the one the ops transform on
    assert grid_and_ops_takers(path.read_text()) == []
