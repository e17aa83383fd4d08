"""Package layout: no module of ramcirc imports ramcirc inside a function,
imports another module's underscore names, imports a name it never reads,
or imports mpmath, numpy or dataclasses at module level.

A deferred import hides an import cycle between two modules; the fix is
to move the code that needs both into the module that already imports
the other.  An imported underscore name is a second copy of one module's
internals; the fix is a public name that both modules read.  An unused
import is the leftover of a deletion, and keeps a dead dependency between
two modules.  mpmath is
needed only when a margin escalates, so it is imported on those branches
alone, and a run that never escalates never loads it.  numpy is needed
only by the batched scan, the oracles and the sieves, so every module
takes it from errors.lazy_numpy, and a run that never touches an array
(classify, hatl, the tables) never loads it.  Records are NamedTuples,
not dataclasses: dataclasses imports inspect (and with it ast, dis and
tokenize) and exec-generates the methods of every class it decorates,
which together cost a start-up about a fifth of its time.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ramcirc


def _literal_start(arg: ast.expr) -> str:
    """The literal text a string or f-string argument starts with."""
    if isinstance(arg, ast.JoinedStr) and arg.values:
        arg = arg.values[0]
    return arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else ""


def _deferred_imports(source: str) -> list[int]:
    """Line numbers of imports of ramcirc made inside a function body: import
    statements, and calls of importlib.import_module or __import__ whose
    first argument is a string or f-string naming ramcirc."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = [f"{'.' * node.level}{node.module or ''}"]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif (isinstance(node, ast.Call) and node.args
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  in ("import_module", "__import__")):
                names = [_literal_start(node.args[0])]
            else:
                continue
            if any(n.startswith(".") or n.split(".")[0] == "ramcirc" for n in names):
                found.append(node.lineno)
    return sorted(set(found))


def test_detects_each_form():
    for body in ("from .classify import classify",
                 "from ramcirc.classify import classify",
                 "import ramcirc.numtheory",
                 "import math, ramcirc",
                 "importlib.import_module('ramcirc.oracle')",
                 "importlib.import_module('.oracle', 'ramcirc')",
                 "importlib.import_module(f'ramcirc.{name}')",
                 "import_module(f'.{name}', __package__)",
                 "__import__('ramcirc.golden')",
                 "__import__(f'ramcirc.{name}', fromlist=['x'])"):
        assert _deferred_imports(f"def f():\n    {body}\n") == [2], body
    assert _deferred_imports("from .errors import ValidationError\nimport math\n"
                             "def f():\n    import math\n") == []
    ## other modules, a name computed at run time, and module-level calls
    assert _deferred_imports("importlib.import_module('ramcirc.oracle')\n"
                             "def f(name):\n    importlib.import_module('json')\n"
                             "    __import__(f'{name}.x')\n"
                             "    importlib.import_module(name)\n"
                             "    return __import__('ramcircle')\n") == []


def test_no_module_imports_ramcirc_inside_a_function():
    src = Path(ramcirc.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 5
    found = {p.name: lines for p in modules
             if (lines := _deferred_imports(p.read_text()))}
    assert found == {}


def _private_imports(source: str) -> list[int]:
    """Line numbers of imports of an underscore name from a ramcirc module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "ramcirc"
            names = [a.name for a in node.names] if internal else []
        elif isinstance(node, ast.Import):
            names = [part for a in node.names if a.name.split(".")[0] == "ramcirc"
                     for part in a.name.split(".")[1:]]
        else:
            continue
        if any(n.startswith("_") for n in names):
            found.append(node.lineno)
    return sorted(set(found))


def test_detects_each_private_form():
    for body in ("from .spectra import _BLOCK",
                 "from ramcirc.spectra import _cos2",
                 "from .spectra import _cos2 as cos2",
                 "from . import _private",
                 "import ramcirc._private"):
        assert _private_imports(f"import math\n{body}\n") == [2], body
    assert _private_imports("from .spectra import (\n    CayleySet,\n"
                            "    _BLOCK,\n)\n") == [1]
    assert _private_imports("from .spectra import CayleySet, phase_blocks\n"
                            "from os import _exit\nimport ramcirc.spectra\n") == []


def test_no_module_imports_an_underscore_name_from_ramcirc():
    src = Path(ramcirc.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 5
    found = {p.name: lines for p in modules
             if (lines := _private_imports(p.read_text()))}
    assert found == {}


def _unused_imports(source: str) -> list[str]:
    """The names a module imports, anywhere in it, and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_detects_each_unused_form():
    for body, name in (("from .spectra import CayleySet", "CayleySet"),
                       ("from .errors import ValidationError as VE", "VE"),
                       ("from . import golden", "golden"),
                       ("import numpy as np", "np"),
                       ("import os.path", "os"),
                       ("def f():\n    import mpmath as mp", "mp")):
        assert _unused_imports(f"import math\nmath.pi\n{body}\n") == [name], body
    ## a rebinding is not a read
    assert _unused_imports("from .bounds import C_OFFSETS\nC_OFFSETS = ()\n") == [
        "C_OFFSETS"]
    assert _unused_imports("from __future__ import annotations\n"
                           "from .errors import ValidationError\nimport os.path\n"
                           "def f(x: ValidationError):\n    import mpmath as mp\n"
                           "    return os.sep, mp.mpf(1)\n") == []


def test_every_imported_name_is_used():
    ## __init__ imports to re-export
    src = Path(ramcirc.__file__).parent
    modules = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 5
    found = {p.name: names for p in modules
             if (names := _unused_imports(p.read_text()))}
    assert found == {}


def _unread_private_names(sources: list[str]) -> list[str]:
    """The underscore names the sources define at module level and read
    nowhere outside the statement that defines them."""
    defined, read = {}, []
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = stmt
            read += [(stmt, node.id if isinstance(node, ast.Name) else node.attr)
                     for node in ast.walk(stmt)
                     if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
                     or isinstance(node, ast.Attribute)]
    live = {name for stmt, name in read if name in defined and defined[name] is not stmt}
    return sorted(defined.keys() - live)


def test_detects_each_unread_private_form():
    for body, name in (("def _helper():\n    return 1", "_helper"),
                       ("class _Fields:\n    pass", "_Fields"),
                       ("_LIMIT = 3", "_LIMIT"),
                       ("_LIMIT: int = 3", "_LIMIT"),
                       ("_A, _B = 1, 2\nx = _A", "_B"),
                       ## a call from its own body is not a read
                       ("def _walk(n):\n    return _walk(n - 1)", "_walk")):
        assert _unread_private_names([f"import math\n{body}\n"]) == [name], body
    ## a read in another module, or through an attribute, keeps a name
    assert _unread_private_names(["_LIMIT = 3\ndef f():\n    return _LIMIT\n",
                                  "def _g():\n    pass\n",
                                  "import m\nm._g()\n",
                                  "__version__ = '1'\n"]) == []


def test_every_private_name_is_read_in_the_package():
    ## a helper that only the tests call is dead code in the package
    src = Path(ramcirc.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 5
    assert _unread_private_names([p.read_text() for p in modules]) == []




def _module_level_imports(source: str, package: str) -> list[int]:
    """Line numbers of imports of package outside every function body."""
    tree = ast.parse(source)
    deferred = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in deferred:
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.split(".")[0] == package for n in names):
            found.append(node.lineno)
    return sorted(set(found))


def test_detects_each_module_level_mpmath_form():
    for body in ("import mpmath as mp", "import mpmath", "from mpmath import mpf",
                 "import math, mpmath.libmp"):
        assert _module_level_imports(f"import math\n{body}\n", "mpmath") == [2], body
    ## a conditional or class-body import still runs when the module loads
    assert _module_level_imports("if True:\n    import mpmath\n", "mpmath") == [2]
    assert _module_level_imports("class C:\n    import mpmath\n", "mpmath") == [2]
    assert _module_level_imports("import math\ndef f():\n    import mpmath as mp\n"
                                 "    return mp.mpf(1)\n", "mpmath") == []


def _module_level_finds(package: str) -> dict[str, list[int]]:
    src = Path(ramcirc.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 5
    return {p.name: lines for p in modules
            if (lines := _module_level_imports(p.read_text(), package))}


def test_no_module_imports_mpmath_at_module_level():
    assert _module_level_finds("mpmath") == {}


def test_no_module_imports_numpy_at_module_level():
    for body in ("import numpy as np", "import numpy", "from numpy import ndarray",
                 "import math, numpy.linalg"):
        assert _module_level_imports(f"import math\n{body}\n", "numpy") == [2], body
    assert _module_level_imports('np = lazy_numpy()\n', "numpy") == []
    assert _module_level_finds("numpy") == {}


def test_no_module_imports_dataclasses():
    for body in ("from dataclasses import dataclass", "import dataclasses"):
        assert _module_level_imports(f"import math\n{body}\n", "dataclasses") == [2], body
    assert _module_level_finds("dataclasses") == {}


def _python(code: str) -> str:
    """The stdout of a fresh interpreter that runs code with ramcirc on its path."""
    src = str(Path(ramcirc.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_tie_proved_in_doubles_never_loads_mpmath():
    ## Z_3 x Z_3 climbs through exact ties up to |G| - 2 = 7
    code = ("import sys\n"
            "import ramcirc.cli\n"
            "from ramcirc.abelian import AbelianGroup, abelian_oracle\n"
            "assert abelian_oracle(AbelianGroup((3, 3))) == 7\n"
            "print('mpmath' in sys.modules)\n")
    assert _python(code) == "False\n"


def test_start_up_loads_neither_dataclasses_nor_inspect():
    ## the benchmark's set-up
    code = ("import sys\n"
            "import ramcirc.cli\n"
            "from ramcirc.classify import thresholds\n"
            "thresholds()\n"
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n")
    assert _python(code) == "[]\n"


def test_numpy_loads_on_first_use():
    ## the benchmark's set-up, then orders of kind I, II and other_composite
    ## in [2**40, 2**64), the last with its least prime 3181 in the second
    ## trial-division table, and table1: none of them touches an array
    code = ("import contextlib, importlib, io, sys\n"
            "import ramcirc.cli\n"
            "from ramcirc.classify import classify, scan_range, thresholds\n"
            "thresholds()\n"
            "kinds = [classify(m).kind for m in\n"
            "         (47873730318131, 3128138740367, 2927032301120969,\n"
            "          477712114252685729)]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    table1 = ramcirc.cli.main(['table1'])\n"
            "print(kinds, table1, 'numpy._core' in sys.modules, 'numpy.core' in sys.modules)\n"
            ## the batched scan is the first use
            "print(scan_range(3, 2001) == [classify(m) for m in range(3, 2002, 2)])\n"
            "import numpy\n"
            "print([importlib.import_module(f'ramcirc.{name}').np is numpy\n"
            "       for name in ('spectra', 'oracle', 'numtheory', 'classify')])\n")
    assert _python(code).splitlines() == [
        "['I', 'II', 'other_composite', 'other_composite'] 0 False False",
        "True",
        "[True, True, True, True]",
    ]
