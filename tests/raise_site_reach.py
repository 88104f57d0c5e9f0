"""Check that the test suite reaches every ``raise CertificationError`` in the package.

A certificate that no test reaches may be dead, or it may be live but
untested; this script tells the two apart from a passing suite.  It finds
every ``raise CertificationError`` under ``src/`` with :mod:`ast`, then runs
the Tier-1 suite in this process under :func:`sys.settrace`, tracing lines
only in the functions that hold a raise site, and records the first test
that reaches each site.  It prints each site with that test, and exits 1
when the suite fails or some site is not reached, naming the site.

Run it from the root of the repository::

    python tests/raise_site_reach.py [extra pytest arguments]

Its name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"


def raise_sites() -> dict[tuple[str, int], list[tuple[int, int]]]:
    """The raise sites, as the line spans of their statements, keyed by (file, first line of the enclosing code)."""
    sites: dict[tuple[str, int], list[tuple[int, int]]] = {}

    def visit(node: ast.AST, path: str, code_line: int) -> None:
        for child in ast.iter_child_nodes(node):
            line = code_line
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a code object starts at its first decorator
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
            elif isinstance(child, ast.Lambda):
                line = child.lineno
            elif isinstance(child, ast.Raise) and _raises_certification_error(child):
                sites.setdefault((path, code_line), []).append((child.lineno, child.end_lineno or child.lineno))
            visit(child, path, line)

    for path in sorted(SOURCES.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), 1)
    return sites


def _raises_certification_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "CertificationError"


class _Reach:
    """A pytest plugin that traces the site-holding functions and records the first test to reach each site.

    A function whose sites are all reached is traced no more.
    """

    def __init__(self, sites: dict[tuple[str, int], list[tuple[int, int]]]) -> None:
        self.pending = {key: list(spans) for key, spans in sites.items()}
        self.files = {path for path, _ in sites}
        self.reached: dict[tuple[str, int], str] = {}
        self.test = "(collection)"

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        key = (code.co_filename, code.co_firstlineno)
        spans = self.pending.get(key)
        if spans is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                for span in spans:
                    if span[0] <= frame.f_lineno <= span[1]:
                        self.reached[key[0], span[0]] = self.test
                        spans.remove(span)
                        if not spans:
                            self.pending.pop(key, None)
                        break
            return line

        return line

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.test = item.nodeid
        yield

    def start(self) -> None:
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)


def main(argv: list[str]) -> int:
    sites = raise_sites()
    reach = _Reach(sites)
    started = time.perf_counter()
    reach.start()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv],
                             plugins=[reach])
    finally:
        reach.stop()
    elapsed = time.perf_counter() - started
    every = sorted((path, start) for (path, _), spans in sites.items() for start, _ in spans)
    missed = [site for site in every if site not in reach.reached]
    for path, line in every:
        where = f"{Path(path).relative_to(ROOT).as_posix()}:{line}"
        print(f"{where}: {reach.reached.get((path, line), 'NOT REACHED')}")
    print(f"{len(every) - len(missed)} of {len(every)} raise sites reached in {elapsed:.1f} s")
    if status != 0:
        print(f"the test suite failed (pytest exit code {int(status)})")
        return 1
    return 1 if missed else 0


if __name__ == "__main__":
    sys.path[:0] = [str(SOURCES), str(ROOT / "tests")]
    sys.exit(main(sys.argv[1:]))
