"""Session files: grammar, name resolution, canonical rendering."""

import pytest

from linkcoh.ring import Polynomial, RingCtx
from linkcoh.session import (
    _VERBS,
    SessionError,
    parse_session,
    parse_session_text,
)

GOOD = """\
# a small worked session
ring x, y, z

ideal a = x*y, x^2
ideal b = y   # trailing comment
ideal I0 = 0

module M = R / a
module N = R

task gb a
task linkage check b b I0 over M
task depth M
task att-top b over N
"""


def test_parse_good_session():
    sf = parse_session_text(GOOD)
    assert sf.ctx.var_names == ("x", "y", "z")
    assert set(sf.ideals) == {"a", "b", "I0"}
    assert set(sf.modules) == {"M", "N"}
    assert sf.module_defs == {"M": "a", "N": None}
    assert [t.op for t in sf.tasks] == ["gb", "linkage check", "depth", "att-top"]
    check = sf.tasks[1]
    assert check.args == ("b", "b", "I0")
    assert check.over == "M"
    assert sf.tasks[2].args == ("M",) and sf.tasks[2].over is None


def test_render_is_parse_stable():
    first = parse_session_text(GOOD).render()
    second = parse_session_text(first).render()
    assert first == second
    assert first.endswith("\n")
    assert "task linkage check b b I0 over M" in first
    # the zero ideal has no generators and renders as "0"
    assert "\nideal I0 = 0\n" in first
    assert parse_session_text(first).ideals["I0"].is_zero_ideal()


def test_render_from_file(tmp_path):
    p = tmp_path / "t.session"
    p.write_text(GOOD, encoding="utf-8")
    sf = parse_session(str(p))
    assert sf.render() == parse_session_text(GOOD).render()


def fails_with(text, fragment, line=None, source="<session>"):
    with pytest.raises(SessionError) as e:
        parse_session_text(text, source=source)
    msg = str(e.value)
    assert fragment in msg, msg
    if line is not None:
        assert msg.startswith(f"{source}:{line}:"), msg
    return msg


def test_ring_must_come_first():
    fails_with("ideal a = x\nring x, y\n", "ring declaration must come first", line=1)


def test_no_ring_at_all():
    fails_with("# nothing here\n", "no ring declaration")


def test_ring_declared_twice():
    fails_with("ring x, y\nring x\n", "twice", line=2)


def test_duplicate_name():
    fails_with("ring x\nideal a = x\nmodule a = R\n", "already declared", line=3)


def test_reserved_name():
    fails_with("ring x\nideal R = x\n", "reserved", line=2)


def test_bad_name():
    fails_with("ring x\nideal 2a = x\n", "bad name", line=2)


def test_dangling_ideal_reference():
    fails_with("ring x, y\ntask gb q\n", "unknown ideal 'q'", line=2)


def test_dangling_module_reference():
    fails_with(
        "ring x, y\nideal a = x\ntask grade a over M\n", "unknown module 'M'", line=3
    )


def test_reference_must_be_earlier():
    fails_with(
        "ring x\ntask gb a\nideal a = x\n", "unknown ideal 'a'", line=2
    )


def test_module_needs_known_ideal():
    fails_with("ring x\nmodule M = R / a\n", "unknown ideal 'a'", line=2)


def test_module_rhs_shape():
    fails_with("ring x\nmodule M = S\n", "expected `module", line=2)


def test_task_shape_errors():
    fails_with("ring x\nideal a = x\ntask gb\n", "wants operands", line=3)
    fails_with("ring x\nideal a = x\ntask gb a a\n", "trailing words", line=3)
    fails_with("ring x\nideal a = x\ntask frobnicate a\n", "unknown task", line=3)
    fails_with("ring x\nideal a = x\ntask linkage\n", "needs a verb", line=3)
    fails_with("ring x\nideal a = x\ntask grade a\n", "must end with `over MODULE`", line=3)
    # `over` may not stand in for an operand
    fails_with(
        "ring x\nideal a = x\nmodule M = R\ntask linkage check a a over M\n",
        "wants operands",
        line=4,
    )


def test_parse_error_carries_source_name():
    fails_with("ring x\nideal a = x +\n", "a.session:2:", source="a.session")
    # an empty item in a generator list is refused, not skipped
    fails_with("ring x\nideal a = x,\n", "empty polynomial text", line=2)


def test_unknown_statement():
    fails_with("ring x\nfoo bar\n", "unknown statement 'foo'", line=2)


def test_zero_ideal_and_task_words():
    sf = parse_session_text("ring x, y\nideal z0 = 0\ntask dim z0\n")
    assert sf.ideals["z0"].is_zero_ideal()
    assert sf.tasks[0].words() == ("dim", "z0")


def test_render_is_parse_stable_property():
    # parse -> render -> parse -> render is a fixed point on generated
    # sessions, and the second parse reads back the same session
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def session_text(draw):
        letters = st.sampled_from(["x", "y", "z", "w", "u1", "v_2"])
        names = draw(st.lists(letters, min_size=1, max_size=4, unique=True))
        ctx = RingCtx(tuple(names))
        pad = st.sampled_from(["", " ", "  "])
        lines = ["# generated", "ring " + (draw(pad) + ",").join(names)]
        ideals, modules = [], []
        for k in range(draw(st.integers(1, 3))):
            gens = []
            for _ in range(draw(st.integers(0, 3))):
                terms = {}
                for _ in range(draw(st.integers(1, 2))):
                    e = draw(st.lists(st.integers(0, 2), min_size=ctx.n, max_size=ctx.n))
                    if any(e):  # no constant term: every ideal is proper
                        terms[tuple(e)] = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
                gens.append(str(Polynomial(ctx, terms)))
            ideals.append(f"i{k}")
            lines.append(f"ideal i{k} ={draw(pad)}" + (draw(pad) + ", ").join(gens or ["0"]) + draw(pad))
            if draw(st.booleans()):
                lines.append("")
        for k in range(draw(st.integers(1, 2))):
            rhs = draw(st.sampled_from(["R"] + [f"R / {i}" for i in ideals]))
            modules.append(f"m{k}")
            lines.append(f"module m{k} = {rhs}" + draw(st.sampled_from(["", "  # note"])))
        for verb in draw(st.lists(st.sampled_from(sorted(_VERBS)), max_size=5)):
            words = [verb]
            for slot in _VERBS[verb]:
                pool = {"ideal": ideals, "module": modules}.get(slot)
                words += [draw(st.sampled_from(pool))] if pool else ["over", draw(st.sampled_from(modules))]
            lines.append("task " + (" " + draw(pad)).join(words))
        return "\n".join(lines) + "\n"

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hyp.given(session_text())
    def check(text):
        first = parse_session_text(text)
        rendered = first.render()
        again = parse_session_text(rendered)
        assert again.render() == rendered
        assert again.ctx == first.ctx and again.tasks == first.tasks
        assert again.module_defs == first.module_defs
        assert {k: I.gens for k, I in again.ideals.items()} == {k: I.gens for k, I in first.ideals.items()}

    check()
