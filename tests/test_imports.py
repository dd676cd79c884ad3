"""No module of the package imports a name it never uses, defines a
function, method or class nothing refers to, or, except groebner.py, knows
how the engine encodes a vector.

No linter ships with the project, so this walks each module's syntax tree:
every name bound by an import must be read somewhere in the module, in
code, in an annotation (quoted or not) or in `__all__`.  `__init__.py` is
left out of that check because its imports are the package's re-exports.
No module but groebner.py may import the engine's encoding internals, by
name or as attributes of `groebner`.  Every name in `linkcoh.__all__` must
resolve on the package, once.  Importing the package and its command line
in a fresh interpreter must not load `multiprocessing`, which only a
fanned-out `run_claim` uses, `argparse`, since the command line reads argv
off the operation table, nor `dataclasses`, `inspect` or `logging`.  The
package's records compare and hash by their fields, refuse assignment (all
but the session file), and refuse bad parameters as they are built.
Every module of the package must parse under the grammar of the oldest
Python that `requires-python` in pyproject.toml admits.

Every definition in the package -- function, method, class, or name
assigned at module top level -- must be read by some node of src/ or
perfbench/: a name or attribute that is loaded, an import, or a string of
dotted identifiers such as the tracer's "CyclicModule.depth".  The
assignment that binds a name does not read it, and neither does
`__init__.py`, whose imports are re-exports: so every name in
`linkcoh.__all__` is read by some other module of src/ or by perfbench/.
References from tests/ do not count, so a route or a constant that only
tests use lives in tests/ (the reference routes are in tests/oracles.py
and tests/engine_routes.py), not in the package.  Dunder names, and
methods that override one of a base class (which the base's own code
calls), are exempt.  The check matches names only, so it cannot see a dead
method whose name is also used elsewhere, for example as a local variable,
the way a local `coeff` hid a dead `Polynomial.coeff`.

Every name in a `__slots__` of the package must be read as an attribute
somewhere in src/linkcoh, so no instance keeps state that only its
constructor writes; a read off a call whose function is annotated to return
one class, such as `M.primes().ass`, counts for that class alone.

Every debug line README.md quotes in a code span (`regseq: …`, `grade: …`,
`depth: …`) must match the format string of a `log.debug` call of the
package, with `%s`, `%d` and README's `…` as wildcards.  Every budget
label README quotes after "trips as" or "trip as" must be a string literal
of the package, so a renamed or removed check point leaves no stale label.
"""

import ast
import importlib
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from linkcoh.groebner import Ideal, Limits
from linkcoh.linkage import GenParams, LinkageCertificate
from linkcoh.modules import CyclicModule
from linkcoh.monomial import MinAsshDim, MonomialIdeal, min_assh_dim
from linkcoh.ops import OPS, Group, Op, Operand
from linkcoh.ring import MonomialOrder, RingCtx, RingError
from linkcoh.session import SessionFile, SessionTask
from linkcoh.theorems import ClaimInfo, InstanceParams, Verdict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linkcoh"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
# the one-hot position-prefix encoding of vectors, the packed exponents of the
# engine's codec, and the kernels that see them
ENCODING = {
    "_encode", "_decode", "_heads", "_buchberger", "_table", "_divide", "_reduce", "_Codec", "_codec",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level or nested import -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return set()


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used | _exported(tree)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def test_every_export_resolves():
    package = importlib.import_module("linkcoh")
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, "linkcoh.__all__ names what the package lacks: " + ", ".join(missing)
    assert len(set(package.__all__)) == len(package.__all__), "linkcoh.__all__ repeats a name"


@pytest.mark.parametrize("module", ["multiprocessing", "argparse", "dataclasses", "inspect", "logging"])
def test_import_leaves_out(module):
    # a plain import, the command line's too, loads none of these: only
    # `run_claim` with several workers needs a multiprocessing pool; the
    # command line reads argv off the operation table, not through argparse;
    # the records are named tuples or slotted classes, and the table takes
    # its defaults from named constants, not from signatures; the package's
    # debug lines reach `logging` only once the application has imported it
    probe = f"import sys, linkcoh, linkcoh.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def _record(name: str):
    """(class, constructor arguments, a field) of each record of the package."""
    ctx = RingCtx(("x", "y"))
    I = Ideal.parse(ctx, "x*y")
    M = CyclicModule(ctx, I)
    m = MonomialIdeal.from_exponents(ctx, [(1, 1)])
    p = min_assh_dim(m)
    op = OPS["gb"]
    return {
        "Limits": (Limits, (7, None), "max_spairs"),
        "LinkageCertificate": (LinkageCertificate, (M, I, I, I, M, M, M, False, True), "a"),
        "GenParams": (GenParams, (4, 2, 1, 1), "count"),
        "MonomialIdeal": (MonomialIdeal, (ctx, m.min_gens), "min_gens"),
        "MinAsshDim": (MinAsshDim, (m, p.min_primes, p.assh, p.dim, p.height), "dim"),
        "Operand": (Operand, ("--x", "int", 0, None), "default"),
        "Op": (Op, (op.name, op.help, op.operands, op.doc, op.summary), "operands"),
        "Group": (Group, ("g", "verbs", (op,)), "ops"),
        "RingCtx": (RingCtx, (("x", "y"),), "var_names"),
        "MonomialOrder": (MonomialOrder, (((0,), (1,)),), "blocks"),
        "SessionTask": (SessionTask, ("gb", ("I",), None, 3), "args"),
        "SessionFile": (SessionFile, (ctx, {"I": I}, {"M": M}, {"M": "I"}, (), "s"), "source"),
        "InstanceParams": (InstanceParams, (2, 3, 2, 5, None), "seed"),
        "Verdict": (Verdict, ("pass", ("w",), (), None), "status"),
        "ClaimInfo": (ClaimInfo, ("t", len, True), "pinnable"),
    }[name]


@pytest.mark.parametrize("name", [
    "Limits", "LinkageCertificate", "GenParams", "MonomialIdeal", "MinAsshDim", "Operand", "Op",
    "Group", "RingCtx", "MonomialOrder", "SessionTask", "SessionFile", "InstanceParams",
    "Verdict", "ClaimInfo",
])
def test_records_are_values(name):
    # the records are compared by their fields; all but a session file are
    # immutable and hash by their fields, and the parameter records refuse
    # bad values as they are built; those that cross to a worker process
    # come back from pickle equal
    cls, args, field = _record(name)
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    if cls is SessionFile:
        a.source = "elsewhere"
        assert a != b
        return
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    if cls in (Limits, GenParams, InstanceParams, Verdict):
        assert pickle.loads(pickle.dumps(a)) == a
    if cls is MonomialIdeal:
        # the prime record kept on a read ideal is no field: it still
        # equals, hashes and pickles as a fresh one and keeps its generators
        read, fresh = cls(*args), cls(*args)
        assert (read.primes.dim, len(read.ass)) == (1, 2)
        assert read == fresh and hash(read) == hash(fresh) and not read != fresh
        assert pickle.loads(pickle.dumps(read)) == fresh
        with pytest.raises(AttributeError):
            read.min_gens = ()
    if cls is SessionTask:
        moved = SessionTask(*args[:3], line=9)
        assert moved == a and hash(moved) == hash(a) and not moved != a
    bad = {
        RingCtx: [(("x", "x"),), ((),), (("x", ""),)],
        GenParams: [(0,), (1, 0), (1, 1, -1), (1, 1, 0, -1)],
        InstanceParams: [(0,), (9,), (2, 0), (2, 1, 0)],
    }
    for wrong in bad.get(cls, ()):
        with pytest.raises(RingError):
            cls(*wrong)


def _python_floor() -> tuple[int, int]:
    """The oldest Python that `requires-python` in pyproject.toml admits."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_parse_at_the_python_floor(path):
    # the grammar of the floor release: syntax newer than it (`except*`,
    # `type` statements, generic parameter lists) fails here under a newer
    # interpreter, though library calls newer than the floor do not
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "groebner.py"), ids=lambda p: p.name
)
def test_encoding_stays_inside_groebner(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    leaked = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            leaked.update(a.name for a in node.names if a.name in ENCODING)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ENCODING
            and isinstance(node.value, ast.Name)
            and node.value.id == "groebner"
        ):
            leaked.add(node.attr)
    assert not leaked, f"{path.name} reaches into the engine's encoding: {sorted(leaked)}"


def _references(tree: ast.Module) -> set[str]:
    """Every name the tree reads, by loaded name or attribute, import or
    dotted string."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def _overrides(path: Path, tree: ast.Module) -> set[int]:
    """Lines of the methods of top-level classes that override a base's."""
    module = importlib.import_module(f"linkcoh.{path.stem}".removesuffix(".__init__"))
    out = set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = getattr(module, cls.name).__mro__[1:]
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and any(node.name in vars(b) for b in bases):
                out.add(node.lineno)
    return out


def _top_level_names(tree: ast.Module):
    """(line, name) of each name an assignment at module top level binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield node.lineno, name.id


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_no_dead_definitions():
    referenced = set()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == SRC / "__init__.py":
                continue  # a re-export is not a read
            referenced |= _references(ast.parse(path.read_text(), filename=str(path)))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = _overrides(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                if _dunder(name) or node.lineno in exempt:
                    continue
                if name not in referenced:
                    dead.append(f"{path.name}:{node.lineno} {name}")
        for line, name in _top_level_names(tree):
            if not _dunder(name) and name not in referenced:
                dead.append(f"{path.name}:{line} {name}")
    assert not dead, "defined but never referenced: " + ", ".join(dead)


def _returned_class(fn: ast.FunctionDef) -> str | None:
    """The class a function's return annotation names, when it is one bare
    name, quoted or not."""
    ann = fn.returns
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str) and ann.value.isidentifier():
        return ann.value
    return ann.id if isinstance(ann, ast.Name) else None


def test_every_slot_is_read():
    # a slot that code assigns but never reads is dead state kept up to
    # date for nothing.  Names are matched, except that a read off a call
    # whose function returns one class, such as `M.primes().ass`, counts
    # for that class alone, so a slot `ass` of another class is not read
    # there; `x.attr += 1` reads its slot
    trees = [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in sorted(SRC.glob("*.py"))]
    returns: dict[str, set] = {}
    slots = []
    for name, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                returns.setdefault(node.name, set()).add(_returned_class(node))
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                    ):
                        slots += [(name, node.name, s) for s in ast.literal_eval(stmt.value)]
    read = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add((None, node.target.attr))
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                owner = None
                if isinstance(node.value, ast.Call):
                    func = node.value.func
                    got = returns.get(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
                    owner = next(iter(got)) if got and len(got) == 1 else None
                read.add((owner, node.attr))
    assert slots
    unread = [f"{where}:{cls}.{s}" for where, cls, s in slots if not {(None, s), (cls, s)} & read]
    assert not unread, "slots never read: " + ", ".join(unread)


# a code span: a run of backticks, its text, and a run of the same length
CODE_SPAN = re.compile(r"(`+)(.+?)\1", re.S)
FENCE = re.compile(r"^```.*?^```", re.S | re.M)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
# README's paragraph of names removed from the package, and a JSON key
NOT_DEFINED = {
    "render_session", "dim_monomial", "module_ass_primes", "ideal_contains", "ideal_product",
    "schema_version", "to_fp",
}


def _definitions(tree: ast.Module):
    """Every name the tree defines: function, class, assigned name, stored
    attribute, parameter, or keyword argument of a call."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg


def test_names_in_backticks_are_defined():
    # a name in backticks in README.md or a module of the package is one a
    # reader can look up: every identifier holding `_` in a code span must
    # be defined in src/linkcoh, tests/ or perfbench/, or name a module file
    # there, so a renamed or deleted function leaves no stale mention
    defined = set(NOT_DEFINED)
    for top in (SRC, ROOT / "tests", ROOT / "perfbench"):
        for path in top.rglob("*.py"):
            defined.add(path.stem)
            defined.update(_definitions(ast.parse(path.read_text(), filename=str(path))))
    stale = []
    for path in [ROOT / "README.md", *sorted(SRC.glob("*.py"))]:
        text = path.read_text()
        if path.suffix == ".md":
            text = FENCE.sub(lambda m: "\n" * m.group().count("\n"), text)
        for span in CODE_SPAN.finditer(text):
            line = text.count("\n", 0, span.start()) + 1
            stale += [
                f"{path.name}:{line} {name}"
                for name in IDENTIFIER.findall(span.group(2))
                if "_" in name and name not in defined
            ]
    assert not stale, "names in backticks that nothing defines: " + ", ".join(stale)


# the debug lines README quotes, and the wildcards of either side
LOGGED = re.compile(r"(?:regseq|grade|depth): ")
WILDCARD = re.compile(r"%[sd]|…")


def _debug_formats():
    """The format string of every `log.debug` call in src/linkcoh."""
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "debug"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                yield node.args[0].value


def _overlap(a: str, b: str) -> bool:
    """Whether some line matches both patterns, each wildcard (`%s`, `%d`,
    `…`) standing for any text."""
    a, b = WILDCARD.sub("\0", a), WILDCARD.sub("\0", b)
    seen = set()

    def meet(i, j):
        if (i, j) in seen:
            return False
        seen.add((i, j))
        if i == len(a) or j == len(b):
            return a[i:].strip("\0") == "" and b[j:].strip("\0") == ""
        if a[i] == "\0":
            return meet(i + 1, j) or meet(i, j + 1)
        if b[j] == "\0":
            return meet(i, j + 1) or meet(i + 1, j)
        return a[i] == b[j] and meet(i + 1, j + 1)

    return meet(0, 0)


def test_readme_debug_lines_match_the_log_formats():
    # every debug line README quotes in a code span (`regseq: …`, `grade:
    # …`, `depth: …`) must match the format string of a `log.debug` call of
    # the package, so a log change that README does not follow fails here
    assert _overlap("regseq: %s", "regseq: 2 runs")
    assert not _overlap("regseq: route %s, %s", "regseq: 2 runs")
    formats = list(_debug_formats())
    text = FENCE.sub("", (ROOT / "README.md").read_text())
    quoted = [" ".join(m.group(2).split()) for m in CODE_SPAN.finditer(text)]
    quoted = [q for q in quoted if LOGGED.match(q)]
    assert {q.split(":")[0] for q in quoted} == {"regseq", "grade", "depth"}
    stale = [q for q in quoted if not any(_overlap(q, f) for f in formats)]
    assert not stale, "README quotes debug lines that no log.debug call writes: " + ", ".join(stale)


# a budget label README quotes: "trips as `label`" or "trip as `label`"
BUDGET_LABEL = re.compile(r"\btrips?\s+as\s+`([^`]+)`")


def test_readme_budget_labels_are_package_literals():
    # every label README says a budget trips as must be a string literal in
    # src/linkcoh, where a check point passes it to the deadline check
    literals = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    text = FENCE.sub("", (ROOT / "README.md").read_text())
    labels = [" ".join(m.group(1).split()) for m in BUDGET_LABEL.finditer(text)]
    assert labels
    stale = [label for label in labels if label not in literals]
    assert not stale, "README quotes budget labels that the package never passes: " + ", ".join(stale)
