"""The package surface: README's Library API is the whole top-level API,
no module imports a name it does not use, only the readers of mapped
views release their pages, and every name the benchmark traces exists."""
import ast
import importlib
from pathlib import Path

import pytest

import curator

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = Path(curator.__file__).resolve().parent


def library_api_block() -> str:
    """The python code block of README's Library API section."""
    section = README.read_text().split("## Library API", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_all_is_the_readme_library_api():
    (node,) = ast.parse(library_api_block()).body
    assert isinstance(node, ast.ImportFrom) and node.module == "curator"
    assert curator.__all__ == [alias.name for alias in node.names]
    exec(library_api_block(), {})  # every name imports


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(curator.__all__)
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_name(path):
    # a name one module shares with another is public: no leading underscore
    tree = ast.parse(path.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module != "__future__"]
    modules = {alias.asname or alias.name for node in imports if node.module is None
               for alias in node.names}
    private = [alias.name for node in imports for alias in node.names
               if alias.name.startswith("_")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


def test_each_reader_releases_the_pages_it_read():
    # one release rule: the finite scan releases per slab, flat_copy per
    # part, and a Phase 2 unit per (timestep, z-layer) of selected cubes,
    # one z-slab per role field; no other code releases pages
    def callers(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from callers(child, child.name)
                continue
            if isinstance(child, ast.Call) and "release_pages" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                yield owner
            yield from callers(child, owner)

    sites = [f"{path.stem}.{owner}" for path in sorted(SRC.glob("*.py"))
             for owner in callers(ast.parse(path.read_text()), None)]
    assert sorted(sites) == ["grid._check_finite", "grid.flat_copy", "samplers._sample_layer"]


def test_every_parallel_map_call_passes_three_positional_arguments():
    # the traced benchmark counts a pool's items by unpacking a call's
    # arguments as (fn, items, workers), so a keyword would fail every op
    calls = {f"{path.name}:{node.lineno}": node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and "parallel_map" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert len(calls) >= 2  # Phase 2's units and compare's cells
    assert [site for site, call in calls.items() if len(call.args) != 3 or call.keywords
            or any(isinstance(a, ast.Starred) for a in call.args)] == []


def traced_names() -> list[str]:
    """"module.attribute" of each entry of perfbench/spans.py's TRACED,
    read from its source without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED"]]
    return [f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in value.elts]


@pytest.mark.parametrize("name", traced_names())
def test_every_traced_name_resolves(name):
    # the traced benchmark run looks each entry up on the loaded curator
    # modules, so a traced function renamed or deleted here breaks it
    module, *attrs = name.split(".")
    target = importlib.import_module(f"curator.{module}")
    for attr in attrs:
        target = getattr(target, attr)
    assert callable(target)
