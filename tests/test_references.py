"""Every function, method and class in src/presup has a caller in the
program, against a reviewed allow-list.

A name that only tests reach is code the commands never run. The scan reads
the source as syntax: a definition counts as referenced when its name is
read as a name or an attribute (``f``, ``obj.f``) anywhere in src/presup
outside the definition itself. Names are matched, not types, so a method
shares its references with every other attribute of the same name.
Dunder methods are called by the language and are not counted.
"""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "presup"

ALLOWED = {
    "cli.main": "the console entry point (pyproject's presup = presup.cli:main)",
    "extraction.Document.flat":
        "the benchmark tracer counts its calls by name; it goes with the tracer's change",
    "models.RecurrentClassifier.predict_label":
        "the benchmark tracer spans it by name; it goes with the tracer's change",
    "models.CnnModel.predict_label":
        "the benchmark tracer spans it by name; it goes with the tracer's change",
    "models.LogRegModel.predict_label":
        "the benchmark tracer spans it by name; it goes with the tracer's change",
    "models.MfcModel.predict_label":
        "the benchmark tracer spans it by name; it goes with the tracer's change",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(sources: dict) -> list:
    """Qualified names ("module.Class.method") of the definitions in
    `sources`, a {module name: source text} map, whose name no code outside
    the definition reads."""
    defs = []  # (qualified name, name, node)
    reads = defaultdict(list)  # name -> the definitions enclosing each read of it

    def visit(node, module, scope, enclosing):
        for child in ast.iter_child_nodes(node):
            inner, inner_scope = enclosing, scope
            if isinstance(child, _DEFS):
                defs.append((".".join([module, *scope, child.name]), child.name, child))
                inner, inner_scope = enclosing | {id(child)}, [*scope, child.name]
            elif isinstance(child, ast.Name):
                reads[child.id].append(enclosing)
            elif isinstance(child, ast.Attribute):
                reads[child.attr].append(enclosing)
            visit(child, module, inner_scope, inner)

    for module, text in sources.items():
        visit(ast.parse(text), module, [], frozenset())
    return sorted(qualname for qualname, name, node in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and all(id(node) in enclosing for enclosing in reads[name]))


def _program() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_definition_has_a_program_caller():
    assert [name for name in unreferenced(_program()) if name not in ALLOWED] == []


@pytest.mark.parametrize("qualname", sorted(ALLOWED))
def test_allowed_name_is_defined(qualname):
    module, *attrs = qualname.split(".")
    obj = importlib.import_module(f"presup.{module}")
    for attr in attrs:
        obj = vars(obj).get(attr)
        assert obj is not None, f"{qualname} is allow-listed but not defined"


def test_scan_reads_syntax_and_skips_self_references():
    source = '''
"""helper in a docstring is not a read"""
def helper(n):
    return helper(n - 1) if n else 0    # recursion is not a caller
def used():
    pass
class Box:
    def get(self):
        return used()
    def __len__(self):
        return 0
def entry(box):
    return box.get()
'''
    assert unreferenced({"m": source}) == ["m.Box", "m.entry", "m.helper"]
