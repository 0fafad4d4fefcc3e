"""Every package definition has a package caller.

Each module of ``src/ragvqa`` is parsed with ``ast``. A definition is live
when package code outside its own definition references its name. A
top-level function or class is referenced as a plain name that no enclosing
function binds as a parameter or local (``train(...)``,
``set_defaults(func=cmd_train)``), or as an attribute of a package module
(``model.load_checkpoint``, after ``from . import model``). A method is
referenced as any attribute of that name (``index.size``), because the type
of the object it is read from is not known without running the code.
Imports, ``__init__.py`` re-exports and the strings of ``__all__`` are not
references, or every exported name would pass. Dunder methods are exempt,
because Python calls them.

The limit: a method that shares its name with any attribute read in the
package (``answer``, ``size``) counts as live even when nothing calls it,
and so does a top-level definition whose name some module-level code
outside a function reads. The gate can miss such dead code.

A definition that only tests or outside tools call is dead code for the
package. It is deleted, or named in ``ALLOWED`` with the reason it stays.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ragvqa"

# "module.name" -> why it stays without a package caller
ALLOWED = {
    "primdb.retrieve": "perfbench calls it; removed with the benchmark-only PR",
    "primdb.cosine": "perfbench calls it; removed with the benchmark-only PR",
    "model.predict_answer": "perfbench traces it by name; removed with the benchmark-only PR",
    "model.ParamSet.arrays": "perfbench's traced byte counters call it",
}


def _definitions(tree: ast.Module):
    """(qualified name, reference key, node) of each top-level function and
    class and of each method, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, ("top-level", node.name), node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", ("method", member.name), member


def _module_aliases(tree: ast.Module) -> frozenset[str]:
    """The names under which a module binds package modules
    (``from . import corpus as corpus_mod`` binds ``corpus_mod``)."""
    return frozenset(
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    )


def _bound_in(func: ast.AST) -> frozenset[str]:
    """The local names of a function: its parameters and every name it
    assigns, less those it declares ``global`` or ``nonlocal``."""
    args = func.args
    params = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    stored = {
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    declared = {
        name
        for node in ast.walk(func)
        if isinstance(node, (ast.Global, ast.Nonlocal))
        for name in node.names
    }
    return frozenset({a.arg for a in params if a is not None} | stored) - declared


def _references(tree: ast.AST, modules: frozenset[str]) -> Counter:
    """How often ``tree`` references each name, keyed as ``_definitions``
    keys a definition: a plain name read where no enclosing function binds
    it, or an attribute of a package module, references a top-level
    definition; any attribute references a method."""
    counts = Counter()

    def visit(node: ast.AST, local: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _bound_in(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            counts["top-level", node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts["method", node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                counts["top-level", node.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return counts


def uncalled(package: Path = PACKAGE) -> set[str]:
    """``module.qualname`` of every definition that package code outside its
    own definition never references."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(package.glob("*.py"))
    }
    modules = {stem: _module_aliases(tree) for stem, tree in trees.items()}
    references = sum(
        (_references(tree, modules[stem]) for stem, tree in trees.items()), Counter()
    )
    return {
        f"{stem}.{qualname}"
        for stem, tree in trees.items()
        for qualname, key, node in _definitions(tree)
        if references[key] == _references(node, modules[stem])[key]
    }


def test_every_definition_has_a_package_caller():
    dead = uncalled()
    assert dead - ALLOWED.keys() == set(), "no package caller: delete these or allowlist them"
    # an entry whose definition gained a caller, or is gone, leaves the list
    assert ALLOWED.keys() - dead == set()


@pytest.mark.parametrize(
    "name",
    # a fresh name, and one that ``_Encoder.answer`` and ``Sample.answer``
    # also carry as attributes
    ["_helper", "answer"],
)
def test_an_uncalled_helper_fails_the_gate(tmp_path, name):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "model.py", "a", encoding="utf-8") as fh:
        fh.write(f"\n\ndef {name}():\n    return {name}()\n")
    assert uncalled(tmp_path) - uncalled() == {f"model.{name}"}
