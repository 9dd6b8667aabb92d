"""Project-level checks: the oracle's import boundary, unreached code and the README examples."""

import ast
import shlex
from pathlib import Path

import crosslat
from crosslat import cli

PACKAGE = Path(crosslat.__file__).parent
TESTS = Path(__file__).parent
README = TESTS.parent / "README.md"

# modules that know about graphs, criteria or the command line
GRAPH_SIDE = {"crosslattice", "diagram", "theorem_suite", "cli"}


def imported_modules(path: Path) -> set[str]:
    """Each module the file imports, as its dotted name without leading dots.

    `from . import x` and `from crosslat import x` count as importing x.
    """
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            out.add(base)
            if base in ("", "crosslat"):
                out |= {alias.name for alias in node.names}
    return out


def module_parts(name: str) -> set[str]:
    return set(name.split("."))


def test_oracle_imports_nothing_graph_side():
    for name in ("poset_engine.py", "flags.py"):
        for module in imported_modules(PACKAGE / name):
            assert not module_parts(module) & GRAPH_SIDE, (name, module)


def test_package_imports_nothing_from_the_tests():
    test_modules = {path.stem for path in TESTS.glob("*.py")} | {"tests"}
    assert "reference_routes" in test_modules
    for path in sorted(PACKAGE.glob("*.py")):
        for module in imported_modules(path):
            assert not module_parts(module) & test_modules, (path.name, module)


def names_read(node: ast.AST) -> set[str]:
    """Each name the code under node reads, as a bare name or an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_function_is_exported_or_used():
    # src/ holds only what the CLI, the scans and the exported library
    # reach; a function that only the tests call belongs in the tests
    defined = []
    reads: list[tuple[str, set[str]]] = []  # (function or "", names read)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, ast.FunctionDef):
                if not stmt.name.startswith("_"):
                    defined.append(stmt.name)
                reads.append((stmt.name, names_read(stmt)))
            else:
                reads.append(("", names_read(stmt)))
    unreached = [name for name in defined if name not in crosslat.__all__
                 and not any(name in names for owner, names in reads if owner != name)]
    assert unreached == []


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports names to re-export them, so it is left out
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [(path.name, name) for name in sorted(bound - read)]
    assert unread == []


def test_only_cross_section_lattices_hand_in_ranks():
    # rank() reads the ranks _adopt is given unchecked, so only the
    # popcounts of a cross section lattice may reach it that way
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_adopt"
                    and (len(node.args) > 1
                         or any(kw.arg in ("ranks", None) for kw in node.keywords))):
                callers.append(path.name)
    assert callers == ["crosslattice.py"]


def library_example() -> str:
    """The fenced python block of the README's Library section."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_readme_library_example_gives_its_commented_values():
    code = library_example()
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    lines = code.splitlines()
    checked = []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            value = str(eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                             namespace))
            assert comment.startswith(value), (comment, value)
            checked.append(value)
    assert checked == ["x^5 - 2x^4 + x^3", "(3, 2)"]


def cli_examples() -> list[str]:
    """The crosslat command lines of the fenced block of the README's CLI section."""
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    start = section.index("```\n") + len("```\n")
    block = section[start:section.index("```", start)]
    return [line for line in block.splitlines() if line.startswith("crosslat ")]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = cli_examples()
    assert [shlex.split(line)[1] for line in lines] == ["build", "analyze", "scan", "export-dot"]
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == cli.EXIT_OK, (line, capsys.readouterr().err)
    assert (tmp_path / "hasse.dot").read_text().startswith("digraph crosslattice {\n")
