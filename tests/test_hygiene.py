"""Source hygiene checks that need no linter.

Every imported name is used: each module of the package and of the test
suite is parsed with `ast`. A name bound by an import statement (anywhere
in the module) must be read somewhere in it: as a bare name, as the root
of an attribute chain, or in `__all__`. `from __future__` imports and the
package's `__init__.py` (whose imports are re-exports) are skipped.

Every name the benchmark's tracer looks up in the package by string
exists, so a rename fails here and not only in a traced benchmark run.

`lflow.numerics` is the package's only route to numpy's FFT: no other
package module names `np.fft` or imports from `numpy.fft`, so every
transform goes through its checked or private pair. Likewise its `dot`
and `matvec` are the only routes to BLAS inner and matrix-vector
products: `.dot` and `.vdot` are named nowhere else in the package, so
no result depends on the BLAS thread count through one.

Every dense factorization outside the oracle is the thin SVD: no package
module but `oracle.py`, whose independent Cholesky solves are the
reference, names `eigh` or `cholesky`.

The run path dispatches on the solver's own methods: `guidance.py` and
`sampler.py` call `isinstance` nowhere.

The command line has one route to a run configuration: `cli.py` calls
`task_config_from_sections` once and never `replace`,
`default_task_config` or `TaskConfig` itself.

The README's configuration example parses as it stands, shows every key
of the grammar in canonical order, and builds the Gaussian deblur preset
it shows. The command-line output the README quotes (the quick start and
the bench sweep) is what the command prints.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from lflow.cli import main
from lflow.config import CONFIG_SCHEMA, dump_config, parse_config_text
from lflow.tasks import default_task_config, task_config_from_sections

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(
    p for pattern in ("src/lflow/*.py", "tests/*.py")
    for p in ROOT.glob(pattern) if p.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items()
                  if name not in used)


def test_the_checker_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Any, Callable as Fn\n"
        "import json\n"
        "__all__ = ['json']\n"
        "def f(x: Fn):\n"
        "    import sys\n"
        "    return np.zeros(os.path.sep)\n"
    )
    assert unused_imports(source) == [(4, "Any"), (8, "sys")]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"line {line}: {name}" for line, name in unused)


def test_every_name_the_benchmark_tracer_looks_up_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = [(f"lflow.{short}", name) for short, names in tracer.TRACED_FUNCTIONS.items()
              for name in names or ()]
    wanted += [("lflow.operators", name) for name in tracer.OPERATOR_CLASSES]
    wanted.append(("lflow.guidance", "make_velocity"))
    missing = [f"{module}.{name}" for module, name in wanted
               if not callable(getattr(importlib.import_module(module), name, None))]
    operators = importlib.import_module("lflow.operators")
    missing += [f"{cls}.{method}" for cls in tracer.OPERATOR_CLASSES
                for method in tracer.OPERATOR_METHODS
                if not callable(getattr(getattr(operators, cls, None), method, None))]
    assert not missing, ", ".join(missing)


def fft_references(source: str) -> list[int]:
    """Lines that name numpy's fft module: an `np.fft`/`numpy.fft`
    attribute, `import numpy.fft` or an import from it or of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.fft") for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.fft")
                or (node.module == "numpy" and any(a.name == "fft" for a in node.names))):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_fft_scan_finds_every_form():
    source = (
        "import numpy as np\n"
        "import numpy.fft\n"
        "from numpy import fft\n"
        "from numpy.fft import rfft\n"
        "x = np.fft.rfft([1.0])\n"
        "y = np.linalg.norm([1.0])\n"
    )
    assert fft_references(source) == [2, 3, 4, 5]


def test_numpy_fft_is_referenced_only_in_numerics():
    found = {p.name: fft_references(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "lflow").glob("*.py"))}
    assert found["numerics.py"]
    outside = {name: lines for name, lines in found.items()
               if lines and name != "numerics.py"}
    assert not outside, outside


def dot_references(source: str) -> list[int]:
    """Lines that name a `.dot` or `.vdot` attribute: `x.dot`, `np.dot`, `np.vdot`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("dot", "vdot"))


def test_the_dot_scan_finds_every_form():
    source = (
        "import numpy as np\n"
        "a = np.vdot(x, y)\n"
        "b = np.dot(x, y)\n"
        "c = x.ravel().dot(y)\n"
        "d = dot(x, y)\n"
    )
    assert dot_references(source) == [2, 3, 4]


def test_blas_inner_products_are_named_only_in_the_numerics_dot():
    # numerics.dot (inner products) and numerics.matvec (matrix-vector
    # products) each name `.dot` once; nothing else in the package does.
    numerics = (ROOT / "src" / "lflow" / "numerics.py").read_text(encoding="utf-8")
    helpers = {node.name: range(node.lineno, node.end_lineno + 1)
               for node in ast.parse(numerics).body
               if isinstance(node, ast.FunctionDef) and node.name in ("dot", "matvec")}
    assert sorted(helpers) == ["dot", "matvec"]
    found = {}
    for path in sorted((ROOT / "src" / "lflow").glob("*.py")):
        lines = dot_references(path.read_text(encoding="utf-8"))
        if path.name == "numerics.py":
            for inside in helpers.values():
                assert sum(line in inside for line in lines) == 1
            lines = [line for line in lines
                     if not any(line in inside for inside in helpers.values())]
        if lines:
            found[path.name] = lines
    assert not found, found


def factorization_references(source: str) -> list[int]:
    """Lines that name `eigh` or `cholesky`: as an attribute (`np.linalg.eigh`,
    `la.cholesky`) or as a name imported from a module."""
    names = ("eigh", "cholesky")
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_factorization_scan_finds_every_form():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import cholesky\n"
        "a = np.linalg.eigh(m)\n"
        "b = np.linalg.svd(m)\n"
        "c = scipy.linalg.cholesky(m)\n"
        "eigh = 1\n"
    )
    assert factorization_references(source) == [2, 3, 5]


def test_dense_factorizations_outside_the_oracle_are_the_thin_svd():
    found = {p.name: factorization_references(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "lflow").glob("*.py"))}
    assert found["oracle.py"]
    outside = {name: lines for name, lines in found.items()
               if lines and name != "oracle.py"}
    assert not outside, outside


def isinstance_calls(source: str) -> list[int]:
    """Lines that call `isinstance`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance")


def test_the_isinstance_scan_finds_every_call():
    source = (
        "a = isinstance(x, int)\n"
        "b = [v for v in y if isinstance(v, str)]\n"
        "c = issubclass(int, object)\n"
        "def f(z):\n"
        "    return isinstance(z, float) or isinstance(z, int)\n"
    )
    assert isinstance_calls(source) == [1, 2, 5, 5]


@pytest.mark.parametrize("name", ["guidance.py", "sampler.py"])
def test_the_run_path_asks_no_solver_its_type(name):
    # Each solver carries its own inner_vector, velocity or run.
    lines = isinstance_calls((ROOT / "src" / "lflow" / name).read_text(encoding="utf-8"))
    assert not lines, lines


def called_names(source: str) -> list[str]:
    """The name each call calls: `f` for `f(...)` and for `a.b.f(...)`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name):
                names.append(fn.id)
            elif isinstance(fn, ast.Attribute):
                names.append(fn.attr)
    return sorted(names)


def test_the_cli_builds_its_config_only_from_sections():
    # File and flags are merged as sections and built once, so no second
    # construction (replace) or second route (the preset, the class) exists.
    # The scan sees plain and attribute calls, and not names that are only read.
    source = "a = f(x)\nb = mod.g(x)\nc = mod.sub.h(f)\nd: TaskConfig = replace\n"
    assert called_names(source) == ["f", "g", "h"]
    calls = called_names((ROOT / "src" / "lflow" / "cli.py").read_text(encoding="utf-8"))
    assert not {"replace", "default_task_config", "TaskConfig"} & set(calls)
    assert calls.count("task_config_from_sections") == 1


def readme_blocks(heading: str) -> list[str]:
    """Fenced blocks of one `## heading` section of the README."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```\w*\n(.*?)^```$", section, flags=re.M | re.S)


def test_the_readme_config_example_parses_to_the_preset_it_shows():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    sections = parse_config_text(blocks[0])
    missing = [f"[{section}] {key}" for section, keys in CONFIG_SCHEMA.items()
               for key in keys if key not in sections.get(section, {})]
    assert not missing, missing
    config = task_config_from_sections(sections)
    assert config == default_task_config("gaussian-deblur")
    uncommented = "".join(line for line in blocks[0].splitlines(keepends=True)
                          if not line.startswith("#"))
    assert uncommented.strip() == dump_config(config.to_sections()).strip()


def test_the_readme_quick_start_prints_what_the_cli_prints(tmp_path, monkeypatch, capsys):
    command, printed = readme_blocks("Quick start")
    argv = shlex.split(command)
    assert argv[0] == "lflow"
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == printed


def test_the_readme_bench_sweep_prints_what_the_cli_prints(tmp_path, capsys):
    # The README's sweep is the Gaussian-deblur preset with literal_update = true.
    (printed,) = readme_blocks("Subcommands")
    config = tmp_path / "literal.cfg"
    config.write_text("[guidance]\nliteral_update = true\n")
    assert main(["bench", "--config", str(config), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert "".join(lines[:-1]) == printed
    assert lines[-1].startswith("report -> ")
