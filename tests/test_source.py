"""Checks over the package's source text, read with ``ast``: every refusal text
the package can raise has its row in README "Refusals", only the beam path
constructor reads vertices, and no module imports a name it never reads."""

import ast
import re
from pathlib import Path

import pytest

from matterwave import MatterWaveError

ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "matterwave").glob("*.py"))


def _names(cls) -> set:
    """The names of ``cls`` and of every class below it."""
    return {cls.__name__}.union(*map(_names, cls.__subclasses__()))


# The package's error classes, and ``error``: the class a number rule of ``model``
# is handed, which it raises under that name.
REFUSALS = _names(MatterWaveError) | {"error"}


def refusal_sites():
    """(module:line, text) of every call that builds a refusal; the text is the
    message as written, a str literal or an f-string, else None."""
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in REFUSALS:
                message = node.args[0] if node.args else None
                literal = isinstance(message, ast.Constant) and isinstance(message.value, str)
                text = message if literal or isinstance(message, ast.JoinedStr) else None
                yield f"{path.name}:{node.lineno}", text


def pattern(text) -> str:
    """A regular expression of the text's catalogue form: its literal parts as written,
    and each value it is filled with as one ``<...>`` placeholder."""
    parts = [text] if isinstance(text, ast.Constant) else text.values
    return "".join(
        re.escape(part.value) if isinstance(part, ast.Constant) else "<[^<>]+>" for part in parts
    )


def catalogue() -> list:
    """The fixed texts, the first cell of each row of README "Refusals"."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Refusals\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)


def test_every_refusal_is_written_as_a_literal_or_an_f_string():
    sites = dict(refusal_sites())
    assert [site for site, text in sites.items() if text is None] == []


def test_rows_and_distinct_refusal_texts_pair_one_to_one():
    # Each row is matched by exactly one distinct text of the source, and each text by one
    # row; so the walk found as many refusals as the catalogue lists.
    patterns = sorted({pattern(text) for _, text in refusal_sites() if text is not None})
    rows = catalogue()
    assert [row for row in rows if sum(bool(re.fullmatch(p, row)) for p in patterns) != 1] == []
    assert [p for p in patterns if sum(bool(re.fullmatch(p, row)) for row in rows) != 1] == []


def test_every_refusal_text_has_a_row_in_the_catalogue():
    rows = catalogue()
    missing = [
        (site, pattern(text))
        for site, text in refusal_sites()
        if text is not None and not any(re.fullmatch(pattern(text), row) for row in rows)
    ]
    assert missing == []


def test_every_row_of_the_catalogue_is_a_refusal_text():
    patterns = {pattern(text) for _, text in refusal_sites() if text is not None}
    rows = catalogue()
    assert len(rows) == len(set(rows))
    assert [row for row in rows if not any(re.fullmatch(p, row) for p in patterns)] == []


def test_no_call_in_the_package_passes_a_kind():
    # The beam starts decide the kind: InterferometerConfig's fifth argument is for callers
    # outside the package, which must give the kind the starts decide. A call that hands
    # the class on, as scene._built does, passes it the arguments after it.
    calls, given = 0, []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            names = [getattr(node.func, "id", getattr(node.func, "attr", None))]
            names += [getattr(arg, "id", None) for arg in node.args]
            if "InterferometerConfig" in names:
                calls += 1
                passed = node.args[names.index("InterferometerConfig"):]
                if len(passed) > 4 or any(k.arg in ("kind", None) for k in node.keywords):
                    given.append(f"{path.name}:{node.lineno}")
    assert calls > 0 and given == []


def test_only_the_beam_path_constructor_checks_vertices():
    # A path's vertices are read once, when it is built; a path made from checked ones
    # (BeamPath._checked) is not read again, and a pair of beams is judged by their boxes.
    readers = []

    def walk(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [child.name]
            elif getattr(child, "id", getattr(child, "attr", None)) == "_check_vertices":
                readers.append(f"{module}:{'.'.join(scope)}")
            walk(child, inner, module)

    for path in MODULES:
        walk(ast.parse(path.read_text(encoding="utf-8")), [], path.name)
    assert readers == ["model.py:BeamPath.__post_init__"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(imported - read) == []
