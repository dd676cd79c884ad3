"""Line-oriented session files: one ring, named ideals and modules, tasks.

One statement per line; `#` starts a comment and blank lines are skipped:

    ring x, y, z
    ideal a = x*y, x^2
    ideal I0 = 0
    module M = R / a
    module N = R
    task linkage check a b I0 over M

The ring line comes first.  Declared names share one namespace, must be
unique, and every reference must resolve to an earlier line.  Rendering is
canonical: parse-then-render is idempotent on its own output.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .groebner import Ideal
from .modules import CyclicModule
from .ops import OPS, session_shape
from .ring import ParseError, RingCtx, RingError

__all__ = [
    "SessionError",
    "SessionTask",
    "SessionFile",
    "parse_session",
    "parse_session_text",
]


class SessionError(ParseError):
    """Session text rejected; the message names the offending line."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"R", "ring", "ideal", "module", "task", "over"}

# the session verbs and their operand slots, read off the operation table;
# "over" is the literal word followed by a module name and closes the task
_VERBS: dict[str, tuple[str, ...]] = {
    name: shape for name, op in OPS.items() if (shape := session_shape(op)) is not None
}


class SessionTask(NamedTuple):
    """One task line; two tasks are equal when they agree on all but `line`."""

    op: str
    args: tuple[str, ...]
    over: str | None
    line: int = 0

    def __eq__(self, other: object) -> bool:
        return self[:3] == other[:3] if isinstance(other, SessionTask) else NotImplemented

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:3])

    def words(self) -> tuple[str, ...]:
        out = list(self.op.split())
        out.extend(self.args)
        if self.over is not None:
            out.extend(("over", self.over))
        return tuple(out)


class SessionFile:
    """A parsed session: every name resolved, modules already constructed.
    Its fields may be reassigned, so it is equal to another session with
    equal fields but has no hash."""

    __slots__ = ("ctx", "ideals", "modules", "module_defs", "tasks", "source")

    def __init__(
        self,
        ctx: RingCtx,
        ideals: dict[str, Ideal],
        modules: dict[str, CyclicModule],
        module_defs: dict[str, str | None],
        tasks: tuple[SessionTask, ...],
        source: str = "<session>",
    ) -> None:
        self.ctx, self.ideals, self.modules = ctx, ideals, modules
        self.module_defs, self.tasks, self.source = module_defs, tasks, source

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SessionFile):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def render(self) -> str:
        """Canonical text for the session: ring, ideals, modules, tasks."""
        lines = ["ring " + ", ".join(self.ctx.var_names)]
        if self.ideals:
            lines.append("")
            for name, I in self.ideals.items():
                lines.append(f"ideal {name} = " + (", ".join(str(g) for g in I.gens) or "0"))
        if self.modules:
            lines.append("")
            for name in self.modules:
                ref = self.module_defs[name]
                rhs = "R" if ref is None else f"R / {ref}"
                lines.append(f"module {name} = {rhs}")
        if self.tasks:
            lines.append("")
            for task in self.tasks:
                lines.append("task " + " ".join(task.words()))
        return "\n".join(lines) + "\n"


def parse_session_text(text: str, source: str = "<session>") -> SessionFile:
    ctx: RingCtx | None = None
    ideals: dict[str, Ideal] = {}
    modules: dict[str, CyclicModule] = {}
    module_defs: dict[str, str | None] = {}
    tasks: list[SessionTask] = []

    def fail(lineno: int, msg: str):
        raise SessionError(f"{source}:{lineno}: {msg}")

    def declare(lineno: int, name: str) -> None:
        if not _NAME_RE.match(name):
            fail(lineno, f"bad name {name!r}")
        if name in _RESERVED:
            fail(lineno, f"name {name!r} is reserved")
        if name in ideals or name in modules:
            fail(lineno, f"name {name!r} already declared")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()

        if head == "ring":
            if ctx is not None:
                fail(lineno, "ring declared twice")
            if not rest:
                fail(lineno, "expected `ring NAME, NAME, ...`")
            try:
                ctx = RingCtx.parse(rest)
            except RingError as exc:
                fail(lineno, str(exc))
            continue

        if ctx is None:
            fail(lineno, "the ring declaration must come first")

        if head == "ideal":
            name, eq, gens = rest.partition("=")
            name = name.strip()
            if not eq or not gens.strip():
                fail(lineno, "expected `ideal NAME = generators`")
            declare(lineno, name)
            try:
                ideals[name] = Ideal.parse(ctx, gens)
            except RingError as exc:
                fail(lineno, str(exc))
            continue

        if head == "module":
            name, eq, body = rest.partition("=")
            name = name.strip()
            body = body.strip()
            if not eq or not body:
                fail(lineno, "expected `module NAME = R` or `module NAME = R / IDEAL`")
            declare(lineno, name)
            if body == "R":
                modules[name] = CyclicModule.full_ring(ctx)
                module_defs[name] = None
                continue
            base, slash, ref = body.partition("/")
            ref = ref.strip()
            if base.strip() != "R" or not slash or not ref:
                fail(lineno, "expected `module NAME = R` or `module NAME = R / IDEAL`")
            if ref not in ideals:
                fail(lineno, f"unknown ideal {ref!r}")
            try:
                modules[name] = CyclicModule(ctx, ideals[ref])
            except RingError as exc:
                fail(lineno, str(exc))
            module_defs[name] = ref
            continue

        if head == "task":
            words = rest.split()
            if not words:
                fail(lineno, "empty task")
            op = words[0]
            consumed = 1
            verbs = [n.split()[1] for n in _VERBS if n.startswith(op + " ")]
            if verbs:
                if len(words) < 2:
                    fail(lineno, f"{op} task needs a verb ({', '.join(verbs)})")
                op = f"{op} {words[1]}"
                consumed = 2
            shape = _VERBS.get(op)
            if shape is None:
                fail(lineno, f"unknown task {op!r}")
            operands = words[consumed:]
            args: list[str] = []
            over: str | None = None
            i = 0
            for slot in shape:
                if slot == "over":
                    if i + 2 != len(operands) or operands[i] != "over":
                        fail(lineno, f"task {op!r} must end with `over MODULE`")
                    over = operands[i + 1]
                    if over not in modules:
                        fail(lineno, f"unknown module {over!r}")
                    i += 2
                    continue
                if i >= len(operands) or operands[i] == "over":
                    fail(lineno, f"task {op!r} wants operands {shape}")
                name = operands[i]
                pool = ideals if slot == "ideal" else modules
                if name not in pool:
                    fail(lineno, f"unknown {slot} {name!r}")
                args.append(name)
                i += 1
            if i != len(operands):
                fail(lineno, "trailing words in task: " + " ".join(operands[i:]))
            tasks.append(SessionTask(op, tuple(args), over, lineno))
            continue

        fail(lineno, f"unknown statement {head!r}")

    if ctx is None:
        raise SessionError(f"{source}: no ring declaration")
    return SessionFile(ctx, ideals, modules, module_defs, tuple(tasks), source)


def parse_session(path: str) -> SessionFile:
    with open(path, encoding="utf-8") as fh:
        return parse_session_text(fh.read(), source=path)
