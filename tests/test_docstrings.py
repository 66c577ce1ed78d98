"""The prose holds: every ``>>>`` example in a ``repro`` docstring runs
and prints what it shows, and every citation the documents make — a
path, a test, a kill-matrix row, a section of a page under ``docs/`` —
names something that exists, as does every ``Class.attribute`` a
kill-matrix row says it breaks.

The citation checks read files and parse test modules with :mod:`ast`;
they collect no test and run no simulation.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
from functools import lru_cache
from pathlib import Path

import repro
from tests.mutation.table import ROWS

PACKAGE = Path(repro.__file__).parent
ROOT = PACKAGE.parent.parent

#: the documents whose citations are checked
DOCUMENTS = (
    sorted((ROOT / "docs").glob("*.md"))
    + [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    + [ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
)
#: where pointers into ``docs/`` are looked for: the documents, the
#: code and its configuration
POINTER_SOURCES = (
    DOCUMENTS
    + sorted((ROOT / "src").rglob("*.py"))
    + sorted((ROOT / "tests").rglob("*.py"))
    + [ROOT / "pyproject.toml", ROOT / ".github" / "workflows" / "ci.yml"]
)


def _modules_with_examples():
    for path in sorted(PACKAGE.rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield importlib.import_module(".".join(parts))


def test_every_docstring_example_holds():
    report = []
    runner = doctest.DocTestRunner()
    for module in _modules_with_examples():
        for test in doctest.DocTestFinder().find(module):
            runner.run(test, out=report.append)
    assert runner.tries > 0
    assert runner.failures == 0, "".join(report)


# -- citations --------------------------------------------------------------

#: a path token: ``a/b``, ``a/b/c.py``, ``a/*.json``; not the tail of a
#: longer path, a URL or a home-relative path
_PATH = re.compile(r"(?<![\w/.~<>$:-])(\.?[\w-]+(?:/[\w.*-]+)+)")
#: ``file.py::Name`` or ``file.py::Class::name``; a parameter id may follow
_TEST = re.compile(r"(?<![\w/.-])((?:[\w-]+/)*test_\w+\.py)((?:::\w+)+)")
#: a pointer to a section of a page under docs/: the page, then ``§N``
#: or a quoted heading
_POINTER = re.compile(
    r"docs/([\w-]+)\.md`{0,2},?[\s#*]*(?:§\s*(\d+)|\"([^\"]+)\")"
)
#: a relative markdown link, with an optional anchor
_LINK = re.compile(r"\]\(([\w./-]*?)(?:#([\w-]+))?\)")
#: the marker each contract uses to name the rows that break it
_KILL_PARAGRAPH = re.compile(r"\*\*Kill matrix:\*\*((?:.|\n(?!\s*\n))*)")
_ROW_NAME = re.compile(r"`([a-z0-9]+(?:-[a-z0-9]+)+)`")
_ROW_LIKE = re.compile(r"`([a-z0-9]+(?:-[a-z0-9]+){4,})`")
#: a ``Class.attribute`` in prose (not ``DESIGN.md``: a class name has a
#: lower-case letter after its capital)
_DOTTED = re.compile(r"(?<![\w.])(_?[A-Z][a-z]\w*)\.(\w+)")

_TOP_LEVEL = {p.name for p in ROOT.iterdir() if p.is_dir()}
_SUBPACKAGES = {p.name for p in PACKAGE.iterdir() if p.is_dir()}


def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _name(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _exists(path: Path) -> bool:
    if "*" in path.name:
        return any(path.parent.glob(path.name))
    return path.exists()


def _resolve(token: str):
    """Where a cited path token points, or ``None`` when it is not a
    path into the repository (``flit-hops/s``, ``golden/x5.json``)."""
    token = token.rstrip(".,:;")
    first = token.split("/", 1)[0]
    if first in _TOP_LEVEL:
        return [ROOT / token]
    if "." not in token.rsplit("/", 1)[-1]:
        return None  # a package-relative citation names a file
    if first == "repro":
        return [ROOT / "src" / token]
    if first in _SUBPACKAGES:
        return [PACKAGE / token, ROOT / "tests" / token]
    return None


def test_every_cited_path_exists():
    missing = []
    for doc in DOCUMENTS:
        for token in _PATH.findall(_text(doc)):
            candidates = _resolve(token)
            if candidates and not any(map(_exists, candidates)):
                missing.append(f"{_name(doc)}: {token}")
        for target, _ in _LINK.findall(_text(doc)):
            if target and not (doc.parent / target).exists():
                missing.append(f"{_name(doc)}: link to {target}")
    assert not missing, "cited paths that do not exist:\n" + "\n".join(missing)


@lru_cache(maxsize=None)
def _definitions(path: Path):
    """Top-level names of a test module, and each class's methods (its
    same-module bases' included)."""
    tree = ast.parse(_text(path))
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}

    def methods(node):
        names = {
            item.name for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                names |= methods(classes[base.id])
        return names

    top = {
        n.name for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return top, {name: methods(node) for name, node in classes.items()}


def _test_file(token: str):
    if token.startswith("tests/"):
        path = ROOT / token
        return path if path.exists() else None
    found = sorted((ROOT / "tests").rglob(Path(token).name))
    found = [p for p in found if _name(p).endswith(token)]
    return found[0] if len(found) == 1 else None


def test_every_cited_test_is_defined():
    undefined = []
    for doc in DOCUMENTS:
        for token, names in _TEST.findall(_text(doc)):
            path = _test_file(token)
            parts = names.strip(":").split("::")
            if path is None:
                undefined.append(f"{_name(doc)}: {token} (no such test file)")
                continue
            top, methods = _definitions(path)
            ok = parts[0] in top and (
                len(parts) == 1 or parts[1] in methods.get(parts[0], ())
            )
            if not ok:
                undefined.append(f"{_name(doc)}: {token}{names}")
    assert not undefined, "cited tests that are not defined:\n" + "\n".join(
        undefined
    )


def test_every_named_kill_matrix_row_is_in_the_table():
    rows = {row.name for row in ROWS}
    unknown = []
    for doc in DOCUMENTS:
        text = _text(doc)
        for paragraph in _KILL_PARAGRAPH.findall(text):
            named = _ROW_NAME.findall(paragraph)
            if not named and "no row yet" not in " ".join(paragraph.split()):
                unknown.append(f"{_name(doc)}: a Kill matrix paragraph names no row")
            unknown += [
                f"{_name(doc)}: {name}" for name in named if name not in rows
            ]
        unknown += [
            f"{_name(doc)}: {name}"
            for name in _ROW_LIKE.findall(text) if name not in rows
        ]
    assert not unknown, "kill-matrix rows not in tests/mutation/table.py:\n" + (
        "\n".join(sorted(set(unknown)))
    )


@lru_cache(maxsize=None)
def _headings(page: Path):
    """The heading texts of a page, with and without a ``N.`` prefix,
    and their section numbers."""
    titles, numbers = set(), set()
    for line in _text(page).splitlines():
        match = re.match(r"#+\s+(?:(\d+)\.\s+)?(.+?)\s*$", line)
        if match:
            titles.add(match.group(2))
            titles.add(match.group(0).lstrip("#").strip())
            if match.group(1):
                numbers.add(match.group(1))
    return titles, numbers


def _anchor(title: str) -> str:
    title = re.sub(r"[^\w\s-]", "", title.lower())
    return re.sub(r"\s", "-", title.strip())


def test_every_pointer_into_docs_names_a_section():
    broken = []
    for source in POINTER_SOURCES:
        text = _text(source)
        for page, number, title in _POINTER.findall(text):
            title = " ".join(title.split())
            path = ROOT / "docs" / f"{page}.md"
            if not path.exists():
                broken.append(f"{_name(source)}: docs/{page}.md")
                continue
            titles, numbers = _headings(path)
            if (number and number not in numbers) or (
                title and title not in titles
            ):
                broken.append(
                    f"{_name(source)}: docs/{page}.md "
                    + (f"§{number}" if number else f'"{title}"')
                )
        if source.suffix != ".md":
            continue
        for target, anchor in _LINK.findall(text):
            page = source.parent / target if target else source
            if anchor and page.exists() and anchor not in {
                _anchor(title) for title in _headings(page)[0]
            }:
                broken.append(f"{_name(source)}: {target}#{anchor}")
    assert not broken, "pointers to sections that do not exist:\n" + "\n".join(
        broken
    )


@lru_cache(maxsize=None)
def _classes():
    """Every class under ``src/repro`` by name (a name may be reused):
    the names of its bases, and the attributes its body defines —
    methods, class-level names, ``__slots__`` entries and ``self.x``
    assignments."""
    classes = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(_text(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for item in ast.walk(node):
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.Name) and isinstance(item.ctx, ast.Store):
                    names.add(item.id)
                elif (
                    isinstance(item, ast.Attribute)
                    and isinstance(item.ctx, ast.Store)
                    and isinstance(item.value, ast.Name)
                    and item.value.id == "self"
                ):
                    names.add(item.attr)
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in item.targets
                ):
                    names |= {
                        c.value for c in ast.walk(item.value)
                        if isinstance(c, ast.Constant)
                    }
            bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
            classes.setdefault(node.name, []).append((bases, names))
    return classes


def _defines(name: str, attribute: str, seen=()) -> bool:
    """True when a class ``name`` under ``src/repro``, or one of its
    bases there, defines ``attribute``."""
    for bases, names in _classes().get(name, ()):
        if attribute in names or any(
            base not in seen and _defines(base, attribute, seen + (name,))
            for base in bases
        ):
            return True
    return False


def test_every_class_attribute_a_row_breaks_exists():
    unknown = [
        f"{row.name}: {name}.{attribute}"
        for row in ROWS
        for name, attribute in _DOTTED.findall(row.breaks)
        if not _defines(name, attribute)
    ]
    assert not unknown, (
        "kill-matrix rows naming what src/repro does not define:\n"
        + "\n".join(unknown)
    )
