"""Mutation probe: tell a dead guard from an untested one.

    python tests/mutate.py [MODULE ...]

Run it from the repository root.  MODULE names modules of
``src/collabmetrics`` (``cli``, ``stats``, ...); the default is all seven.
Each mutant changes one node of one module, and the probe runs tier-1 on
it.  A guard whose mutant no test kills is either dead code, to delete, or
untested behaviour, to pin with a test that fails on that mutant.  The
mutants that cannot change any result are listed in ``EQUIVALENT``, each
with its reason.  The probe prints every survivor and timeout not in
``EQUIVALENT``, and every ``EQUIVALENT`` mutant that a test killed, and
exits 1 if there is one.

The operators:

- ``flip <op>``: one comparison operator flipped (``<`` and ``<=``, ``>``
  and ``>=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and
  ``is not``);
- ``if-false``: the test of an ``if`` replaced by ``False``;
- ``ifexp-false``: the test of a conditional expression replaced by
  ``False``;
- ``and-or``: ``and`` swapped with ``or``;
- ``drop-raise``: a ``raise`` dropped, unless it is the whole body of an
  ``if`` (``if-false`` covers that one);
- ``handler-reraise``: an except handler's body replaced by a bare
  ``raise``;
- ``drop-expr``: an expression statement dropped (docstrings excepted);
- ``drop-continue``: a ``continue`` dropped.

The probe never touches the checkout: each of two workers mutates its own
temporary copy of ``src/``, ``tests/`` and ``pyproject.toml``, and every
module it may mutate is written there with ``ast.unparse``, so a mutant
differs from the clean copy only in its node.  Tier-1 runs as
``pytest -x -q -p no:cacheprovider`` without criterion 7 (the slowest test,
whose planted correlations other tests pin) and ``tests/test_mutate.py``, under
``PYTHONDONTWRITEBYTECODE=1``: a restored file can share its mtime and size
with its mutant, so a cached ``.pyc`` could run the wrong code.  A mutant
survives only if pytest exits 0 and ends with its summary line.  The clean
copy must pass first; each mutant then gets 10x the clean run's time
before it counts as a timeout.  The full probe takes about 40 minutes
on two cores.  ``tests/test_mutate.py`` checks, from the syntax trees
alone, that every ``EQUIVALENT`` entry names a current site.
"""

from __future__ import annotations

import ast
import collections
import concurrent.futures
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "collabmetrics"
MODULES = ("aggregate", "cli", "corpus", "indicators", "reports", "stats", "synth")
WORKERS = 2
TIMEOUT_FACTOR = 10
# test_mutate.py reads this file's sites, which a mutant moves: it tests the probe
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--deselect", "tests/test_acceptance.py::test_criterion_7_planted_correlation_recovery",
          "--ignore", "tests/test_mutate.py"]

# each comparison operator: its symbol, and the operator it flips to
FLIPS = {ast.Lt: ("<", ast.LtE), ast.LtE: ("<=", ast.Lt), ast.Gt: (">", ast.GtE),
         ast.GtE: (">=", ast.Gt), ast.Eq: ("==", ast.NotEq), ast.NotEq: ("!=", ast.Eq),
         ast.In: ("in", ast.NotIn), ast.NotIn: ("not in", ast.In), ast.Is: ("is", ast.IsNot),
         ast.IsNot: ("is not", ast.Is)}

# (module, enclosing function, operator, unparsed source of the mutated node) -> reason
EQUIVALENT = {
    ("corpus", "Publication.sds_codes", "if-false", "len(atts) == 1"):
        "fast path: the sorted set of one attribution's sector is that sector",
    ("reports", "_global_bins", "if-false", "len(codes) == 1"):
        "fast path: the mean of one value is the value",
    ("reports", "_area_profile_pooled", "ifexp-false", "len(atts) == 1"):
        "fast path: the set of one attribution's area is that area",
    ("synth", "_standardized", "if-false", "std == 0"):
        "a zero spread needs all of three or more normal draws equal",
    ("synth", "generate_corpus", "flip <", "head * pps < sys.maxsize"):
        "no float equals sys.maxsize (2**63 - 1)",
    ("synth", "generate_corpus", "flip <", "draw() < w"):
        "differs only when random() returns exactly w",
    ("synth", "_normal", "flip ==", "u == 0.0"):
        "redraws until random() returns 0.0, which never happens: a timeout",
    ("corpus", "_check_publication", "flip >", "len(pub.attributions) > 1"):
        "fast path: one attribution has no duplicate to find",
    ("corpus", "load_publications", "flip <", "end < len(line)"):
        "fast path: on a line raw_decode consumed whole, json.loads returns the same object",
}


@dataclass(frozen=True)
class Site:
    """One mutant: the ``index``-th site of ``module``, in ``sites`` order."""

    module: str
    index: int
    line: int
    function: str
    operator: str
    source: str

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.module, self.function, self.operator, self.source)


def _mutations(tree: ast.Module):
    """``(node, function, operator, source, apply)`` for each site of ``tree``, in
    a fixed order; ``apply()`` mutates ``tree`` in place."""

    def statement(parent, field, i, function, node):
        body = getattr(parent, field)

        def replace(new):
            def apply():
                body[i] = ast.copy_location(new, node)
            return apply

        if isinstance(node, ast.Raise):
            if not (isinstance(parent, ast.If) and field == "body" and len(body) == 1):
                yield node, function, "drop-raise", ast.unparse(node), replace(ast.Pass())
        elif isinstance(node, ast.Expr):
            if not isinstance(node.value, ast.Constant):  # docstrings
                yield node, function, "drop-expr", ast.unparse(node), replace(ast.Pass())
        elif isinstance(node, ast.Continue):
            yield node, function, "drop-continue", "continue", replace(ast.Pass())

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                symbol, flipped = FLIPS[type(op)]

                def apply(node=node, k=k, flipped=flipped):
                    node.ops[k] = flipped()
                yield node, function, f"flip {symbol}", ast.unparse(node), apply
        elif isinstance(node, (ast.If, ast.IfExp)):
            def apply(node=node):
                node.test = ast.copy_location(ast.Constant(False), node.test)
            operator = "if-false" if isinstance(node, ast.If) else "ifexp-false"
            yield node, function, operator, ast.unparse(node.test), apply
        elif isinstance(node, ast.BoolOp):
            def apply(node=node):
                node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            yield node, function, "and-or", ast.unparse(node), apply
        elif isinstance(node, ast.ExceptHandler):
            if not (len(node.body) == 1 and isinstance(node.body[0], ast.Raise)
                    and node.body[0].exc is None):
                def apply(node=node):
                    node.body = [ast.copy_location(ast.Raise(), node.body[0])]
                source = "except" if node.type is None else ast.unparse(node.type)
                yield node, function, "handler-reraise", source, apply
        for field, value in ast.iter_fields(node):
            if isinstance(value, list):
                for i, child in enumerate(value):
                    if isinstance(child, ast.stmt):
                        yield from statement(node, field, i, function, child)
                    if isinstance(child, ast.AST):
                        yield from visit(child, function)
            elif isinstance(value, ast.AST):
                yield from visit(value, function)

    return visit(tree, "<module>")


def _module_source(module: str) -> str:
    return (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")


def sites(module: str) -> list[Site]:
    """Every mutation site of ``module``, from its syntax tree alone."""
    tree = ast.parse(_module_source(module))
    return [Site(module, i, node.lineno, function, operator, source)
            for i, (node, function, operator, source, _apply) in enumerate(_mutations(tree))]


def mutant(site: Site, source: str) -> str:
    """The unparsed module ``source`` with ``site`` applied."""
    tree = ast.parse(source)
    for i, (_node, _function, _operator, _source, apply) in enumerate(_mutations(tree)):
        if i == site.index:
            apply()
            return ast.unparse(tree)
    raise ValueError(f"{site.module} has no site {site.index}")


def _copy(dest: Path, clean: dict[str, str]) -> Path:
    """Copy the package and its tests into ``dest``, with the ``clean``
    source of each module it names."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    for module, source in clean.items():
        (dest / PACKAGE / f"{module}.py").write_text(source, encoding="utf-8")
    return dest


def _run_tests(copy: Path, timeout: float | None) -> str:
    """``"killed"`` (a test failed), ``"survived"`` or ``"timeout"``.  A run
    survives only if pytest exits 0 and its last line is a summary of passed
    tests alone: a mutant whose test process leaves through a forked child's
    ``os._exit(0)`` exits 0 with no summary."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    proc = subprocess.Popen(PYTEST, cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        out = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    finally:
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no examples carried over
    last = out.decode(errors="replace").rstrip("\n").rpartition("\n")[2]
    passed = re.fullmatch(r"\d+ passed(, \d+ deselected)? in \S+", last)
    return "survived" if proc.returncode == 0 and passed else "killed"


def probe(modules) -> int:
    todo = [site for module in modules for site in sites(module)]
    clean = {module: ast.unparse(ast.parse(_module_source(module))) + "\n"
             for module in modules}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copies = queue.Queue()
        for w in range(WORKERS):
            copies.put(_copy(Path(tmp) / str(w), clean))
        start = time.monotonic()
        if _run_tests(Path(tmp) / "0", None) != "survived":
            print("error: tier-1 fails on the unparsed, unmutated package", file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
        print(f"clean run {timeout / TIMEOUT_FACTOR:.1f} s; {len(todo)} mutants, "
              f"timeout {timeout:.0f} s each", file=sys.stderr)

        def run(site: Site) -> str:
            copy = copies.get()
            path = copy / PACKAGE / f"{site.module}.py"
            try:
                path.write_text(mutant(site, clean[site.module]), encoding="utf-8")
                return _run_tests(copy, timeout)
            finally:
                path.write_text(clean[site.module], encoding="utf-8")
                copies.put(copy)

        with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
            futures = {site: pool.submit(run, site) for site in todo}
            results = {}
            for n, (site, future) in enumerate(futures.items(), 1):
                results[site] = future.result()
                print(f"[{n}/{len(todo)}] {site.module}.py:{site.line} {site.operator}: "
                      f"{results[site]}", file=sys.stderr)
    elapsed = time.monotonic() - start
    return _report(results, elapsed)


def _report(results: dict[Site, str], elapsed: float) -> int:
    statuses = ("killed", "survived", "timeout", "equivalent")
    by_module = collections.defaultdict(collections.Counter)
    by_operator = collections.defaultdict(collections.Counter)
    faults = []
    for site, status in results.items():
        listed = site.key in EQUIVALENT
        if listed and status != "killed":
            status = "equivalent"
        elif listed:
            faults.append((site, "killed, but listed in EQUIVALENT"))
        elif status != "killed":
            faults.append((site, status))
        by_module[site.module][status] += 1
        by_operator[site.operator.split()[0]][status] += 1
    for title, table in (("module", by_module), ("operator", by_operator)):
        print(f"{title:<16}{'mutants':>8}" + "".join(f"{s:>11}" for s in statuses))
        for name in sorted(table):
            counts = table[name]
            print(f"{name:<16}{sum(counts.values()):>8}"
                  + "".join(f"{counts[s]:>11}" for s in statuses))
    print(f"{len(results)} mutants in {elapsed / 60:.1f} min")
    for site, status in faults:
        print(f"{status}: {site.module}.py:{site.line} {site.function} {site.operator}: "
              f"{site.source}")
    return 1 if faults else 0


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in MODULES]
    if unknown:
        print(f"error: unknown module {', '.join(unknown)} (use {', '.join(MODULES)})",
              file=sys.stderr)
        return 2
    return probe(argv or MODULES)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
