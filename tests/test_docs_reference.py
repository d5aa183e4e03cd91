"""The docs are a reference: every name README.md, DESIGN.md, EXPERIMENTS.md
and the verify skill cite is held to the tree.

* every ``make <target>`` in a code span or a code block is a Makefile
  target;
* every backticked repository path exists: as given, under ``src/``, under
  ``src/repro/``, or — a bare file name, or the tail of a path — as the one
  file in the tree that it names;
* every ``<file>.py::name`` (``tests/…::Class::test``) names a ``def``, a
  ``class`` or an assignment in that file;
* every citation of DESIGN.md by heading (its name, a comma, the heading in
  double quotes) is a DESIGN.md heading or bold run-in, and every
  ``EXPERIMENTS.md E<n>`` citation a section, wherever the project's own
  text makes one: the docs above, ROADMAP.md, CHANGES.md, and every file
  under ``src/``, ``tests/``, ``benchmarks/`` and ``examples/``;
* EXPERIMENTS.md holds at most 800 lines and DESIGN.md at most 1 200.  What a
  change did and measured goes in its CHANGES.md entry; the docs say what
  the system is.

CHANGES.md is read for DESIGN.md citations only: its entries are dated, and
an entry's ``EXPERIMENTS.md E<n>`` names the section as it stood then (the
text up to that point is ``git show c78451f:EXPERIMENTS.md``).
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
OWN_DOCS = DOCS + ("ROADMAP.md", "CHANGES.md")
CODE_DIRS = ("src/", "tests/", "benchmarks/", "examples/")
CAPS = {"EXPERIMENTS.md": 800, "DESIGN.md": 1200}
TEXT_SUFFIXES = {".py", ".md", ".json", ".toml", ".txt", ".cfg", ".ini"}
FILE_SUFFIX = re.compile(r"\.(py|md|json|toml|txt|cfg|ini)$")
PATH_TOKEN = re.compile(r"/?(?:\.?[\w\-]+/)*[\w.\-]*")
PY_NAME = re.compile(r"([\w./\-]*\w\.py)((?:::\w+(?:\[[^\]]*\])?)+)")
MAKE_CALL = re.compile(r"(?:^|[\s(;&|$])make\s+([A-Za-z][\w-]*)(?=\s|$)")
MAKE_LINE = re.compile(r"\s*(?:\$\s+)?make\s+([A-Za-z][\w-]*)(?=\s|$)")
DESIGN_CITE = re.compile(r'DESIGN\.md,?\s+"([^"]{1,160})"')
EXPERIMENTS_CITE = re.compile(r"EXPERIMENTS\.md`?,?\s+([EA]\d+[a-z]?)\b")
SKIPPED_DIRS = {"__pycache__", "build", "dist"}


@functools.lru_cache(maxsize=None)
def tree() -> tuple:
    """Every file of the checkout, relative to its root: hidden directories
    (``.git``, caches) skipped, ``.claude`` kept."""
    found = []
    stack = [ROOT]
    while stack:
        directory = stack.pop()
        for entry in directory.iterdir():
            if entry.is_dir():
                hidden = entry.name.startswith(".") and entry.name != ".claude"
                if not hidden and entry.name not in SKIPPED_DIRS \
                        and not entry.name.endswith(".egg-info"):
                    stack.append(entry)
            else:
                found.append(entry.relative_to(ROOT).as_posix())
    return tuple(sorted(found))


def own_text(*excluded: str) -> list:
    """The project's own text files, where citations are read."""
    return [name for name in tree() if name not in excluded
            and (name in OWN_DOCS
                 or name.startswith(CODE_DIRS) and Path(name).suffix in TEXT_SUFFIXES)]


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


def spans(doc: str) -> tuple:
    """``(inline code spans, code block lines)`` of one markdown file; a span
    that wraps reads with its line break as one space, and a ``::`` that
    ends a line joins the name after it."""
    text = read(doc)
    blocks = re.findall(r"^\s*```[^\n]*\n(.*?)^\s*```", text, re.M | re.S)
    outside = re.sub(r"^\s*```[^\n]*\n.*?^\s*```", "", text, flags=re.M | re.S)
    inline = [re.sub(r"::\s+", "::", re.sub(r"\s+", " ", span)).strip()
              for span in re.findall(r"`([^`]+)`", outside)]
    return inline, [line for block in blocks for line in block.splitlines()]


def resolve(cited: str):
    """The file or directory a cited path names, or None."""
    if cited.startswith("/"):
        return None
    for base in (ROOT, ROOT / "src", ROOT / "src" / "repro"):
        if (base / cited).exists():
            return base / cited
    tail = cited.rstrip("/")
    named = [name for name in tree()
             if name == tail or name.endswith("/" + tail)]
    return ROOT / named[0] if len(named) == 1 else None


def path_tokens(doc: str):
    """Every path a doc cites: a span that is one path-like token (a slash
    or a file suffix), a token of a command that has both, or the file of a
    ``<file>.py::name``."""
    inline, lines = spans(doc)
    for span in inline:
        if "::" in span:
            yield from (module for module, _ in PY_NAME.findall(span))
        elif " " not in span and PATH_TOKEN.fullmatch(span) \
                and ("/" in span or FILE_SUFFIX.search(span)) \
                and not re.fullmatch(r"[\d./]+", span):
            yield span
    for command in [span for span in inline if " " in span and "::" not in span] + lines:
        for token in command.split():
            if PATH_TOKEN.fullmatch(token) and "/" in token and FILE_SUFFIX.search(token):
                yield token


@functools.lru_cache(maxsize=None)
def defined(path: Path) -> frozenset:
    """The names a module defines anywhere: functions, classes, assignment
    targets (module, class and function level)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
    return frozenset(names)


def headings(text: str) -> list:
    """A markdown file's headings and bold run-ins, whitespace collapsed."""
    found = [line.lstrip("#").strip() for line in text.splitlines() if line.startswith("#")]
    found += re.findall(r"\*\*([^*]+)\*\*", text)
    return [re.sub(r"\s+", " ", heading) for heading in found]


def cited(pattern: re.Pattern, text: str) -> list:
    """Every match of ``pattern`` in ``text``, read across line breaks and
    the comment markers that continue a comment."""
    joined = re.sub(r"\n\s*(?:#+:?)?\s*", " ", text)
    return pattern.findall(joined)


class TestTheDocsCiteTheTree:
    def test_every_make_target_is_in_the_makefile(self):
        targets = set(re.findall(r"^([A-Za-z][\w-]*)\s*:(?!=)", read("Makefile"), re.M))
        dead = []
        for doc in DOCS:
            inline, lines = spans(doc)
            calls = [call for span in inline for call in MAKE_CALL.findall(span)]
            calls += [match.group(1) for line in lines
                      if (match := MAKE_LINE.match(line))]
            dead += [f"{doc}: make {call}" for call in calls if call not in targets]
        assert len(targets) > 20
        assert sorted(set(dead)) == []

    def test_every_cited_path_exists(self):
        dead = {f"{doc}: {token}" for doc in DOCS for token in path_tokens(doc)
                if resolve(token) is None}
        assert sorted(dead) == []

    def test_every_cited_python_name_is_defined(self):
        dead = set()
        for doc in DOCS:
            inline, _ = spans(doc)
            for span in inline:
                for module, names in PY_NAME.findall(span):
                    path = resolve(module)
                    wanted = [re.sub(r"\[.*\]$", "", name) for name in names.split("::")[1:]]
                    if path is None or not path.is_file() \
                            or any(name not in defined(path) for name in wanted):
                        dead.add(f"{doc}: {module}{names}")
        assert sorted(dead) == []

    def test_every_design_citation_is_a_heading(self):
        known = headings(read("DESIGN.md"))

        def found(citation: str) -> bool:
            citation = re.sub(r"\s+", " ", citation).strip()
            return any(heading.startswith(citation)
                       and not heading[len(citation):len(citation) + 1].isalnum()
                       for heading in known)

        dead = {f"{name}: {citation}" for name in own_text()
                for citation in cited(DESIGN_CITE, read(name)) if not found(citation)}
        assert sorted(dead) == []

    def test_every_experiments_citation_is_a_section(self):
        sections = set(re.findall(r"^## ([EA]\d+[a-z]?) ", read("EXPERIMENTS.md"), re.M))
        assert {"E1", "E1b", "E9", "A6"} <= sections
        dead = {f"{name}: {section}" for name in own_text("CHANGES.md")
                for section in cited(EXPERIMENTS_CITE, read(name))
                if section not in sections}
        assert sorted(dead) == []

    def test_the_reference_docs_keep_to_their_caps(self):
        over = {doc: len(read(doc).splitlines()) for doc in CAPS}
        assert {doc: lines for doc, lines in over.items() if lines > CAPS[doc]} == {}
