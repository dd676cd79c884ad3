"""Command line surface: document shapes, exit codes, determinism."""

import json
import re

import pytest

from linkcoh import cli, groebner, modules
from linkcoh.cli import run
from linkcoh.ops import MODULE, OPS, SWITCH, session_shape


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc_of(capsys, *argv, expect=0):
    code, out, err = invoke(capsys, *argv)
    assert code == expect, (code, out, err)
    doc = json.loads(out)
    # machine output is canonical json, nothing else on stdout
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert doc["schema_version"] == 1
    return doc


# ---------------------------------------------------------------------------
# Core ideal commands.

def test_gb_doc(capsys):
    doc = doc_of(capsys, "gb", "--ring", "x,y", "--ideal", "x^2 - y, x*y")
    assert doc["reduced_gb"]
    assert all(isinstance(g, str) for g in doc["reduced_gb"])
    assert doc["generators"] == ["x^2 - y", "x*y"]


def test_gb_of_the_zero_ideal_counts_no_basis_element(capsys):
    # stdout shows the zero ideal as "0"; the summary counts no element
    code, out, err = invoke(capsys, "gb", "--ring", "x", "--ideal", "0")
    assert code == 0
    assert out == '{\n  "generators": [\n    "0"\n  ],\n  "reduced_gb": [\n    "0"\n  ],\n  "schema_version": 1\n}\n'
    assert err == "0 basis element(s)\n"


def test_gb_widens_past_any_exponent(capsys):
    # an exponent of 67 bits packs at a width taken from the input
    code, out, err = invoke(capsys, "gb", "--ring", "x,y", "--ideal", "x^99999999999999999999*y-1, y^2")
    assert code == 0
    assert json.loads(out)["reduced_gb"] == ["1"]
    assert err == "1 basis element(s)\n"


def test_member(capsys):
    doc = doc_of(
        capsys, "member", "--ring", "x,y", "--ideal", "x^2, y", "--poly", "x^3 + y"
    )
    assert doc["member"] is True
    doc2 = doc_of(
        capsys, "member", "--ring", "x,y", "--ideal", "x^2, y", "--poly", "x"
    )
    assert doc2["member"] is False


def test_colon_intersect_saturate_eliminate(capsys):
    doc = doc_of(capsys, "colon", "--ring", "x,y", "--ideal", "x^2*y", "--by", "x")
    assert doc["quotient"] == ["x*y"]
    doc = doc_of(
        capsys, "intersect", "--ring", "x,y", "--ideal", "x", "--with", "y"
    )
    assert doc["intersection"] == ["x*y"]
    doc = doc_of(
        capsys, "saturate", "--ring", "x,y", "--ideal", "x^2*y, x*y^2", "--poly", "x"
    )
    assert doc["saturation"] == ["y"]
    doc = doc_of(
        capsys,
        "eliminate",
        "--ring", "t,x,y",
        "--ideal", "x - t^2, y - t^3",
        "--drop", "t",
    )
    assert doc["dropped"] == ["t"]
    assert doc["eliminated"] == ["x^3 - y^2"]


def test_monomial_prime_docs(capsys):
    doc = doc_of(capsys, "ass", "--ring", "x,y", "--ideal", "x^2, x*y")
    assert doc["associated_primes"] == [["x"], ["x", "y"]]
    doc = doc_of(capsys, "minprimes", "--ring", "x,y,z", "--ideal", "x*y, x*z")
    assert doc["minimal_primes"] == [["x"], ["y", "z"]]
    doc = doc_of(capsys, "assh", "--ring", "x,y,z", "--ideal", "x*y, x*z")
    assert doc["assh"] == [["x"]]
    doc = doc_of(capsys, "radical", "--ring", "x,y", "--ideal", "x^2, x*y^3")
    assert doc["radical"] == ["x"]
    doc = doc_of(capsys, "decompose", "--ring", "x,y", "--ideal", "x^2, x*y")
    assert doc["components"] == [["y", "x^2"], ["x"]]


def test_the_zero_ideal_through_the_monomial_commands(capsys):
    # (0) is irreducible: its one component prints as "0", its one prime is (0)
    code, out, err = invoke(capsys, "decompose", "--ring", "x,y", "--ideal", "0")
    assert (code, json.loads(out)["components"], err) == (0, [["0"]], "1 irreducible component(s)\n")
    for cmd, key in (("ass", "associated_primes"), ("minprimes", "minimal_primes"), ("assh", "assh")):
        assert doc_of(capsys, cmd, "--ring", "x,y", "--ideal", "0")[key] == [[]]


def test_monomial_commands_refuse_a_non_monomial_ideal(capsys):
    # x + y is its own reduced basis, and that basis is not made of terms
    code, out, err = invoke(capsys, "decompose", "--ring", "x,y", "--ideal", "x + y")
    assert (code, out) == (1, "")
    assert err.strip() == "error: this operation is only certified for monomial ideals"


@pytest.mark.parametrize("cmd, words", [
    ("minprimes", "the primes of R/I need a proper ideal"),
    ("ass", "associated primes need a proper ideal"),
    ("decompose", "irreducible decomposition needs a proper ideal"),
])
def test_prime_docs_refuse_the_unit_ideal_in_their_own_words(capsys, cmd, words):
    code, out, err = invoke(capsys, cmd, "--ring", "x,y", "--ideal", "1")
    assert code == 1
    assert out == ""
    assert err.strip() == "error: " + words


def test_depth_doc_matches_worked_example(capsys):
    doc = doc_of(
        capsys, "depth", "--ring", "a,b,c,d", "--ideal", "a*c,a*d,b*c,b*d"
    )
    assert (doc["depth"], doc["dim"], doc["cm"]) == (1, 2, False)


@pytest.mark.parametrize("cmd", ["depth", "cm"])
def test_depth_refuses_an_ideal_outside_the_variables(capsys, cmd):
    # x + 1 is proper but not inside (x, y), where depth is taken
    code, out, err = invoke(capsys, cmd, "--ring", "x,y", "--ideal", "x + 1")
    assert (code, out) == (1, "")
    assert err.strip() == (
        "error: depth at the ideal of variables needs J inside it;"
        " a generator of J has a nonzero constant term"
    )
    # dim still answers, and grade keeps its own refusal
    assert doc_of(capsys, "dim", "--ring", "x,y", "--ideal", "x + 1")["dim"] == 1
    code, out, err = invoke(capsys, "grade", "--ring", "x,y", "--ideal", "x, y", "--module", "x + 1")
    assert code == 1
    assert err.strip() == "error: grade is undefined when the sequence generates everything"


@pytest.mark.parametrize("cmd", ["depth", "cm"])
def test_cm_refuses_a_non_graded_ideal_below_its_dimension(capsys, cmd):
    # the depth at the origin is 1 and dim R/J is 2, but the localization at
    # the origin is that of (x, y), of dimension 1: undecided, so refused
    ring_ideal = ("--ring", "x,y,z", "--ideal", "x*z - x, y*z - y")
    code, out, err = invoke(capsys, cmd, *ring_ideal)
    assert (code, out) == (1, "")
    assert err.strip() == (
        "error: Cohen-Macaulayness of a non-graded R/J is undecided: depth 1 at the ideal"
        " of variables is below dim R/J = 2, which the localization may not reach"
    )
    # grade of the variables still gives the depth at the origin
    argv = ("grade", "--ring", "x,y,z", "--ideal", "x,y,z", "--module", "x*z - x, y*z - y")
    assert doc_of(capsys, *argv)["grade"] == 1
    # a non-graded J whose depth reaches the dimension is answered
    code, out, err = invoke(capsys, cmd, "--ring", "x,y,z", "--ideal", "x*y - x, x*z")
    assert code == 0
    assert err.strip() == "depth 2, dim 2, cm: True"


def test_dim_cm_equidim(capsys):
    assert doc_of(capsys, "dim", "--ring", "x,y", "--ideal", "x*y")["dim"] == 1
    doc = doc_of(capsys, "cm", "--ring", "x,y,z", "--ideal", "x*z, y*z")
    assert doc["cm"] is False
    doc = doc_of(capsys, "equidim", "--ring", "x,y,z", "--module", "x*y, x*z")
    assert doc["equidimensional"] is False


def test_cd_and_grade(capsys):
    doc = doc_of(capsys, "cd", "--ring", "x,y,z", "--ideal", "x^2")
    assert doc["cd"] == 1 and doc["radicalized"] is True
    doc = doc_of(
        capsys, "grade", "--ring", "x,y", "--ideal", "x, y", "--module", "x*y"
    )
    assert doc["grade"] == 1


def test_grade_whose_variable_walk_closes_the_gap_builds_no_complex(capsys):
    # over R/(a^2 + b^2) in 11 variables the walk keeps all but b, so the
    # bounds 10 and 10 meet and the Koszul size budget is never asked
    names = "a,b,c,d,e,f,g,h,i,j,k"
    doc = doc_of(capsys, "grade", "--ring", names, "--ideal", names, "--module", "a^2 + b^2")
    assert doc["grade"] == 10


def test_depth_searches_only_the_variables_its_walk_leaves(capsys):
    # the degeneration leaves a gap over 12 variables; the walk keeps 10 of
    # them, so the Koszul search runs on the two left, inside the budget of
    # 10 elements that all 12 would exceed
    names = ",".join(f"x{i}" for i in range(12))
    doc = doc_of(capsys, "depth", "--ring", names, "--ideal", "x0^2 - x0*x1, x0*x2 - x1*x2")
    assert (doc["depth"], doc["dim"]) == (10, 11)


def test_regseq(capsys):
    doc = doc_of(capsys, "regseq", "--ring", "x,y", "--seq", "x, y")
    assert doc["regular"] is True


def test_ann_and_hom(capsys):
    doc = doc_of(capsys, "ann", "--ring", "x,y", "--module", "x^2, x*y")
    assert doc["annihilator"] == ["x*y", "x^2"]
    doc = doc_of(
        capsys, "ann", "--ring", "x,y", "--module", "x*y", "--hom", "x"
    )
    assert doc["annihilator"] == ["x"]


def test_assmember(capsys):
    doc = doc_of(
        capsys,
        "assmember",
        "--ring", "x,y",
        "--module", "x^2, x*y",
        "--prime", "x,y",
    )
    assert doc["member"] is True
    doc = doc_of(
        capsys,
        "assmember",
        "--ring", "x,y",
        "--module", "x*y",
        "--hom", "x",
        "--prime", "y",
    )
    assert doc["member"] is False


def test_assmember_outside_the_support_runs_no_syzygies(capsys, monkeypatch):
    # Ass R/J lies in V(J): b*d - a*d is outside (a, c), so no Hom run starts
    def banned(*args, **kwargs):
        raise AssertionError("a prime outside V(J) needs no syzygy run")

    monkeypatch.setattr(groebner, "_syzygies", banned)
    monkeypatch.setattr(modules, "_syzygies", banned)
    doc = doc_of(
        capsys,
        "assmember",
        "--ring", "a,b,c,d",
        "--prime", "a,c",
        "--module", "b*d - a*d, a*b - b*c",
    )
    assert doc["member"] is False


@pytest.mark.parametrize("argv, summary, runs", [
    (("ann", "--ring", "x,y,z", "--module", "x*y, x^2*z", "--hom", "x, y"), "annihilator: (y, x)", 0),
    (("assmember", "--ring", "x,y", "--prime", "x", "--module", "x*y, x^2"), "associated: True", 0),
    (("assmember", "--ring", "x,y", "--prime", "x,y", "--module", "x*y, x^2"), "associated: True", 0),
    (("ann", "--ring", "a,b,c,d", "--module", "a*d - b*c", "--hom", "a, b"), "annihilator: (1)", 2),
])
def test_ann_and_assmember_over_terms_start_no_engine_run(capsys, argv, summary, runs):
    # Ann Hom(R/a, R/J) is the ideal colon J : (J : a): J and a given by
    # terms answer by divisibility, while the binomial J takes one run for
    # its basis and one for J : a
    before = groebner.engine_runs()
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, summary + "\n")
    assert groebner.engine_runs() - before == runs


@pytest.mark.parametrize("argv", [
    ("ann", "--ring", "x,y", "--module", "x^2, x*y"),
    ("ann", "--ring", "x,y", "--module", "x^2 - y"),
    ("assmember", "--ring", "x,y", "--module", "x^2, x*y", "--prime", "x,y"),
    ("assmember", "--ring", "x,y", "--module", "x*y", "--prime", "y"),
])
def test_hom_defaults_to_the_zero_ideal(capsys, argv):
    # Hom(R/0, N) = N: an explicit --hom 0 prints what the default prints
    default = invoke(capsys, *argv)
    assert default[0] == 0
    assert invoke(capsys, *argv, "--hom", "0") == default


# ---------------------------------------------------------------------------
# Linkage and cohomology commands.

def test_linkage_check_worked_example(capsys):
    doc = doc_of(
        capsys, "linkage", "check", "--ring", "x,y", "--a", "x", "--b", "y",
        "--I", "x*y",
    )
    assert doc["linked"] is True
    assert doc["geometric"] is True
    assert doc["selflinked"] is False


def test_linkage_check_rejection_is_still_exit_zero(capsys):
    doc = doc_of(
        capsys, "linkage", "check", "--ring", "x,y", "--a", "x", "--b", "x",
        "--I", "x*y",
    )
    assert doc["linked"] is False
    assert doc["reason"] == "(I+J) : a is not b mod J"


def test_linkage_link_of(capsys):
    doc = doc_of(
        capsys, "linkage", "link-of", "--ring", "x,y", "--a", "x", "--I", "x*y"
    )
    assert doc["b"] == ["y"]
    doc = doc_of(
        capsys,
        "linkage", "link-of",
        "--ring", "x,y",
        "--a", "x^2, x*y",
        "--I", "x^2",
        "--close",
    )
    assert doc["a"] == ["x"]


def test_linkage_random_deterministic(capsys):
    args = (
        "linkage", "random", "--ring", "x,y,z", "--count", "4", "--seed", "3",
    )
    one = doc_of(capsys, *args)
    two = doc_of(capsys, *args)
    assert one == two
    assert one["requested"] == one["produced"] == 4
    assert len(one["certificates"]) == 4
    assert all(c["linked"] for c in one["certificates"])


def test_att_top_and_assf0(capsys):
    doc = doc_of(
        capsys, "att-top", "--ring", "x,y", "--ideal", "x", "--module", "x*y"
    )
    assert doc["attached_primes"] == [["y"]]
    assert "note" in doc
    doc = doc_of(
        capsys, "assf0", "--ring", "x,y", "--ideal", "y", "--module", "x^2, x*y"
    )
    assert doc["associated_primes"] == [["x"], ["x", "y"]]


def test_att_top_and_assf0_when_a_plus_p_is_the_unit_ideal(capsys):
    # (x - 1) + (x) and (1) + p are the unit ideal, whose radical is not the
    # ideal of variables: no prime of Ass M = {(x), (y)} qualifies
    doc = doc_of(capsys, "att-top", "--ring", "x,y", "--ideal", "x-1", "--module", "x*y")
    assert doc["attached_primes"] == []
    doc = doc_of(capsys, "assf0", "--ring", "x,y", "--ideal", "1", "--module", "x*y")
    assert doc["associated_primes"] == []


def test_att_top_and_assf0_answer_a_non_graded_ideal_at_the_variables(capsys):
    # cofinality is asked at the ideal of variables m: (x - x^2) equals (x)
    # after localizing at (x), its second zero unseen, so the zero prime of
    # Q[x] qualifies; over Q[x, y], m is minimal over (x - x^2, y), while
    # (x*y - x) = (x)(y - 1) and (x*y - x, x^2) are (x) near the origin
    cases = [
        ("x", "x - x^2", [[]]),
        ("x,y", "x - x^2, y", [[]]),
        ("x,y", "x*y - x", []),
        ("x,y", "x*y - x, x^2", []),
    ]
    for names, ideal, expected in cases:
        for cmd, key in (("att-top", "attached_primes"), ("assf0", "associated_primes")):
            assert doc_of(capsys, cmd, "--ring", names, "--ideal", ideal)[key] == expected, (cmd, ideal)


def test_soft_timeout_trips_the_local_cofinality_test(capsys):
    # a non-monomial a saturates a + p by each variable in the engine, under
    # the ambient budget
    code, out, err = invoke(capsys, "--timeout-soft", "0", "att-top", "--ring", "x", "--ideal", "x - x^2")
    assert code == 2
    assert json.loads(out)["error"] == "budget-exceeded"


def test_htm(capsys):
    doc = doc_of(
        capsys, "htm", "--ring", "x,y,z", "--prime", "x,y", "--module", "x*y"
    )
    assert doc["height"] == 1


@pytest.mark.parametrize("module, basis, assh, assf0, htm", [
    ("x*y+y^2, y^2", "x*y, y^2", [["y"]], [["y"], ["x", "y"]], 1),
    ("x+y, y", "x, y", [["x", "y"]], [["x", "y"]], 0),
])
def test_prime_commands_read_a_monomial_ideal_off_its_basis(capsys, module, basis, assh, assf0, htm):
    # the reduced basis of each ideal consists of terms, so R/J is monomial
    # although its generators are not; each command answers as on the basis
    ring = ("--ring", "x,y")
    commands = [
        (("assh", "--ideal"), "assh", assh),
        (("equidim", "--module"), "equidimensional", True),
        (("att-top", "--ideal", "x", "--module"), "attached_primes", assh),
        (("assf0", "--ideal", "x", "--module"), "associated_primes", assf0),
        (("htm", "--prime", "x,y", "--module"), "height", htm),
    ]
    for argv, key, answer in commands:
        doc = doc_of(capsys, argv[0], *ring, *argv[1:], module)
        assert doc[key] == answer, argv
        assert doc == doc_of(capsys, argv[0], *ring, *argv[1:], basis), argv


# ---------------------------------------------------------------------------
# Verify and session.

def test_verify_deterministic_and_parallel(capsys):
    base = ("verify", "l08", "--random", "5", "--vars", "3", "--maxdeg", "2", "--seed", "6")
    one_code, one_out, _ = invoke(capsys, *base)
    two_code, two_out, _ = invoke(capsys, *base, "--jobs", "2")
    assert one_code == two_code == 0
    assert one_out == two_out
    doc = json.loads(one_out)
    assert doc["ok"] is True
    assert doc["instances"] == 5


@pytest.mark.parametrize("claim", ["r1", "l15", "p1", "t2"])
def test_verify_refuses_a_module_the_claim_never_reads(capsys, claim):
    code, out, err = invoke(
        capsys, "verify", claim, "--random", "4", "--vars", "3", "--maxdeg", "2",
        "--seed", "7", "--module", "x^2 - y*z",
    )
    assert code == 1
    assert out == ""
    assert "l1, l08 and t6" in err


def test_verify_unknown_claim_usage(capsys):
    code, out, err = invoke(capsys, "verify", "zzz", "--random", "1")
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_verify_rejects_nonpositive_jobs(capsys, jobs):
    code, out, err = invoke(capsys, "verify", "l08", "--random", "2", "--jobs", jobs)
    assert code == 1
    assert out == ""
    assert "jobs" in err


@pytest.mark.parametrize("argv, field", [
    (("linkage", "random", "--ring", "x,y", "--maxdeg", "0"), "maxdeg"),
    (("linkage", "random", "--ring", "x,y", "--count", "-3"), "count"),
    (("linkage", "random", "--ring", "x,y", "--max-extra", "-1"), "max_extra"),
    (("verify", "l08", "--random", "2", "--maxdeg", "0"), "maxdeg"),
    (("verify", "l08", "--random", "-2"), "count"),
    (("verify", "l08", "--random", "0"), "count"),
    (("linkage", "random", "--ring", "x,y", "--seq-len-max", "-1"), "seq_len_max"),
    # over R no pair links through I = 0
    (("linkage", "random", "--ring", "x,y", "--seq-len-max", "0"), "seq_len_max"),
])
def test_bad_numeric_input_exit_one(capsys, argv, field):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert field in err


def test_session_roundtrip(tmp_path, capsys):
    p = tmp_path / "demo.session"
    p.write_text(
        "ring x, y\n"
        "ideal a = x\n"
        "ideal b = y\n"
        "ideal c = x*y\n"
        "ideal z0 = 0\n"
        "module M = R / c\n"
        "task linkage check a b z0 over M\n"
        "task depth M\n"
        "task att-top a over M\n",
        encoding="utf-8",
    )
    doc = doc_of(capsys, "session", str(p))
    assert doc["ring"] == ["x", "y"]
    assert doc["canonical"][0] == "ring x, y"
    results = {t["task"]: t for t in doc["tasks"]}
    assert results["linkage check a b z0 over M"]["result"]["linked"] is True
    assert results["att-top a over M"]["result"]["attached_primes"] == [["y"]]
    assert results["depth M"]["result"]["depth"] == 1


def test_session_parse_error_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.session"
    p.write_text("ring x\ntask gb q\n", encoding="utf-8")
    code, out, err = invoke(capsys, "session", str(p))
    assert code == 1
    assert out == ""
    assert f"{p}:2:" in err and "unknown ideal 'q'" in err


def test_session_missing_file(capsys):
    code, out, err = invoke(capsys, "session", "/nonexistent/x.session")
    assert code == 1 and out == ""


# ---------------------------------------------------------------------------
# Exit codes and global flags.

def test_no_arguments_is_usage_error(capsys):
    code, out, err = invoke(capsys)
    assert code == 1
    assert out == ""


def test_unknown_subcommand_usage(capsys):
    code, out, err = invoke(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_missing_required_flag_usage(capsys):
    code, out, err = invoke(capsys, "gb", "--ring", "x,y")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, err = invoke(capsys, "--help")
    assert code == 0


def test_entry_help_lists_its_flags(capsys):
    for argv in (("gb", "-h"), ("gb", "--ring", "x", "--help"), ("gb", "--he")):
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: linkcoh gb [-h] --ring RING --ideal IDEAL\n")
        assert re.search(r"^\s+--ideal IDEAL\s+comma-separated generators$", out, re.M)


def test_parse_error_exit_one(capsys):
    code, out, err = invoke(capsys, "gb", "--ring", "x,y", "--ideal", "x +")
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("argv, words", [
    (("gb", "--ring", "x,y", "--ideal", ","), "empty polynomial text"),
    (("gb", "--ring", "x,y", "--ideal", ""), "empty polynomial text"),
    (("gb", "--ring", "x,y", "--ideal", "x,,y"), "empty polynomial text"),
    (("gb", "--ring", "x,,y", "--ideal", "x"), "identifier"),
    (("htm", "--ring", "x,y", "--prime", "x,,y"), "unknown variable ''"),
    (("eliminate", "--ring", "x,y", "--ideal", "x", "--drop", "x,"), "unknown variable ''"),
    (("regseq", "--ring", "x,y", "--seq", ","), "empty polynomial text"),
    (("verify", "l1", "--random", "1", "--module", ""), "empty polynomial text"),
])
def test_empty_items_in_comma_lists_exit_one(capsys, argv, words):
    # an empty item is refused, never skipped or read as the zero ideal
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert words in err


@pytest.mark.parametrize("argv, words", [
    (("saturate", "--ring", "x,y", "--ideal", "x*y", "--poly", "0"), "saturation by zero is undefined"),
    (("eliminate", "--ring", "x,y", "--ideal", "x*y", "--drop", "x,y"), "cannot eliminate every variable"),
])
def test_undefined_operations_exit_one(capsys, argv, words):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.strip() == "error: " + words


def test_zero_ideal_and_zero_prime_stay_readable(capsys):
    assert doc_of(capsys, "regseq", "--ring", "x,y", "--seq", "x, y", "--module", "0")["regular"]
    for prime in ("", "0"):
        doc = doc_of(capsys, "htm", "--ring", "x,y", "--prime", prime, "--module", "0")
        assert doc["height"] == 0


def test_budget_exit_two(capsys):
    code, out, err = invoke(
        capsys,
        "--max-spairs", "2",
        "gb",
        "--ring", "x,y,z",
        "--ideal", "x^2 - y*z, x*y - z^2, y^2 - x*z",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "budget-exceeded"
    # the colon is one syzygy run of the same engine, under the same budget
    code, out, err = invoke(
        capsys,
        "--max-spairs", "1",
        "colon",
        "--ring", "x,y,z",
        "--ideal", "x^2*y-z^3, x*y^2-z, x*z-y^3",
        "--by", "x+y+z",
    )
    assert code == 2
    assert json.loads(out)["error"] == "budget-exceeded"


@pytest.mark.parametrize("flag, value", [
    ("--max-spairs", "-5"),
    ("--timeout-soft", "-1"),
    ("--timeout-soft", "nan"),
])
def test_budget_flags_refuse_bad_values(capsys, flag, value):
    code, out, err = invoke(
        capsys, flag, value, "gb", "--ring", "x,y", "--ideal", "x^2 - y, x*y"
    )
    assert code == 1
    assert out == ""
    assert "usage error" in err and flag in err


@pytest.mark.parametrize("cmd", ["depth", "decompose", "ass", "minprimes", "cd"])
def test_soft_timeout_trips_monomial_kernels(capsys, cmd):
    code, out, err = invoke(
        capsys,
        "--timeout-soft", "0",
        cmd,
        "--ring", "a,b,c,d,e,f,g",
        "--ideal", "a^2*c, e*f^2*g, c^2*d*g, b*d*f^2",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "budget-exceeded"


@pytest.mark.parametrize("cmd", ["minprimes", "dim", "assh"])
def test_soft_timeout_trips_the_minimal_prime_covers(capsys, cmd):
    # minimal primes, dimension and Assh of a monomial quotient come from
    # the vertex-cover enumeration, whose branches see the deadline
    code, out, err = invoke(
        capsys,
        "--timeout-soft", "0",
        cmd,
        "--ring", "a,b,c,d,e,f,g",
        "--ideal", "a^2*c, e*f^2*g, c^2*d*g, b*d*f^2",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "budget-exceeded"
    assert doc["detail"].startswith("minimal primes")


def test_soft_timeout_trips_linked_pair_draws_that_take_no_colon(capsys):
    # over R/(x, y, z) every trial lies in the core, so each draw is refused
    # off exponent tuples and no colon or basis runs; the draw loop itself
    # must see the deadline
    code, out, err = invoke(
        capsys,
        "--timeout-soft", "0.3",
        "linkage", "random",
        "--ring", "x,y,z",
        "--module", "x,y,z",
        "--count", "5000",
        "--seq-len-max", "0",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "budget-exceeded"
    assert doc["detail"].startswith("linked-pair draws")


def test_depth_beyond_the_vertex_budget_exits_two(capsys):
    # 22 variables: the colon radicals live on all of them, past the
    # 20-vertex budget of the Stanley-Reisner complex
    code, out, err = invoke(
        capsys,
        "depth",
        "--ring", ",".join(f"x{i}" for i in range(22)),
        "--ideal", ", ".join(f"x{2 * i}*x{2 * i + 1}" for i in range(11)),
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "budget-exceeded"
    assert doc["detail"].startswith("Stanley-Reisner vertex budget")


@pytest.mark.parametrize("cmd, flag, what", [
    ("colon", "--by", "monomial colon"),
    ("intersect", "--with", "monomial intersection"),
])
def test_soft_timeout_trips_monomial_colon_and_intersection(capsys, cmd, flag, what):
    # both operands are given by terms, so the divisibility kernels answer
    # and their loops are what must see the deadline
    code, out, err = invoke(
        capsys,
        "--timeout-soft", "0",
        cmd,
        "--ring", "a,b,c,d,e,f,g",
        "--ideal", "a^2*c, e*f^2*g, c^2*d*g, b*d*f^2, a*b*c*d, e^3*g, b^2*f",
        flag, "a*b, c*d*e, f*g, a^2*g",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "budget-exceeded"
    assert doc["detail"].startswith(what)


@pytest.mark.parametrize("names", ["1,x", "x y,z"])
def test_ring_names_must_be_identifiers(capsys, names):
    code, out, err = invoke(capsys, "gb", "--ring", names, "--ideal", "x")
    assert code == 1
    assert out == ""
    assert "identifier" in err


def test_human_summary_on_stderr(capsys):
    code, out, err = invoke(
        capsys, "depth", "--ring", "x,y", "--ideal", "x*y"
    )
    assert code == 0
    assert err.strip()  # a one-line human summary
    json.loads(out)  # stdout stays pure json


# ---------------------------------------------------------------------------
# Reading argv off the table.

# a negative --jobs or --max-spairs reaches its own refusal:
# test_verify_rejects_nonpositive_jobs and test_budget_flags_refuse_bad_values
@pytest.mark.parametrize("argv, key, value", [
    (("member", "--ring", "x,y", "--ideal", "x", "--poly", "-x"), "poly", "-x"),
    (("member", "--ring", "x,y", "--ideal", "x", "--poly=-x"), "poly", "-x"),
    (("gb", "--ring", "x,y", "--ideal", "-x^2+y"), "generators", ["-x^2 + y"]),
    (("gb", "--ring", "x,y", "--ideal=-x^2+y"), "generators", ["-x^2 + y"]),
])
def test_a_value_may_begin_with_a_dash(capsys, argv, key, value):
    assert doc_of(capsys, *argv)[key] == value


@pytest.mark.parametrize("argv, flag", [
    (("gb", "--ring", "x", "--ideal", "x", "--bogus", "1"), "--bogus"),
    (("gb", "--ring", "x", "--ideal", "x", "extra"), "extra"),
    (("session", "a.session", "b.session"), "b.session"),
    (("gb", "--ring", "x", "--ideal"), "--ideal"),
    (("gb", "--ring", "x"), "--ideal"),
    (("gb", "--ideal", "x"), "--ring"),
    (("verify", "l08"), "--random"),
    (("linkage", "random", "--ring", "x", "--count", "many"), "--count"),
    (("verify", "zzz", "--random", "1"), "zzz"),
    (("gb", "--max-spairs", "3", "--ring", "x", "--ideal", "x"), "--max-spairs"),
    (("linkage", "random", "--ring", "x", "--m", "3"), "--m could match --maxdeg, --max-extra"),
    (("linkage", "link-of", "--ring", "x", "--a", "x", "--close=yes"), "--close"),
    (("--max-spairs",), "--max-spairs"),
    (("--timeout-soft", "soon", "gb"), "--timeout-soft"),
    (("linkage", "relink"), "relink"),
])
def test_bad_invocations_are_usage_errors(capsys, argv, flag):
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and flag in err


def test_prefixes_equal_forms_and_repeats_are_accepted(capsys):
    full = doc_of(capsys, "--max-spairs", "50", "gb", "--ring", "x,y", "--ideal", "x*y")
    assert doc_of(capsys, "--max", "50", "gb", "--ri", "x,y", "--ide", "x*y") == full
    assert doc_of(capsys, "--max-spairs=50", "gb", "--ring=x,y", "--ideal=x*y") == full
    # a repeated flag keeps its last value
    assert doc_of(capsys, "gb", "--ring", "x,y", "--ideal", "x", "--ideal", "x*y") == full
    # a positional may follow the flags
    one = doc_of(capsys, "verify", "l08", "--random", "2", "--vars", "3", "--maxdeg", "2")
    assert doc_of(capsys, "verify", "--random", "2", "--vars", "3", "--maxdeg", "2", "l08") == one


def test_a_group_without_a_verb_lists_its_verbs(capsys):
    code, out, err = invoke(capsys, "linkage")
    assert code == 1 and out == ""
    assert err.startswith("usage: linkcoh linkage")
    for verb in ("check", "link-of", "random"):
        assert re.search(rf"^\s+{verb}\s", err, re.M)


def test_writer_matches_the_json_module_property():
    # the writer is byte-identical to json.dumps(v, sort_keys=True, indent=2)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    scalars = (
        st.none() | st.booleans() | st.floats() | st.text()
        | st.integers() | st.sampled_from([2**100, -(2**70), -1, 0])
        | st.text(alphabet='"\\\x00\x1f\x7f\n\té€\U0001f600', max_size=6)
    )
    values = st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), kids, max_size=4),
        max_leaves=25,
    )

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @hyp.given(values)
    def check(v):
        assert cli._json(v) == json.dumps(v, sort_keys=True, indent=2)

    check()


# ---------------------------------------------------------------------------
# One operation table behind argv and the session runner.

def test_session_and_argv_routes_agree(tmp_path, capsys):
    # every session verb, once as a session task and once as an argv command
    texts = {"a": "x", "b": "y", "z0": "0"}
    verbs = {name: session_shape(op) for name, op in OPS.items() if session_shape(op)}
    assert {"colon", "intersect", "cd", "linkage check", "depth", "cm", "att-top"} <= set(verbs)
    tasks, argvs = [], []
    for name, shape in verbs.items():
        op = OPS[name]
        ideals = iter(texts)
        words, argv = [name], [*name.split(), "--ring", "x,y"]
        for o in op.operands:
            if o.kind == SWITCH:
                continue
            if o.kind == MODULE:
                words += ["M"] if shape == ("module",) else ["over", "M"]
                argv += [o.flag, "x*y"]
            else:
                ideal = next(ideals)
                words.append(ideal)
                argv += [o.flag, texts[ideal]]
        tasks.append(" ".join(words))
        argvs.append(argv)
    # a session leaves --close off; here the double link of q is not q
    tasks.append("linkage link-of q s over N")
    argvs.append(["linkage", "link-of", "--ring", "x,y", "--a", "x^2, x*y", "--I", "x^2"])
    p = tmp_path / "routes.session"
    p.write_text(
        "ring x, y\nideal a = x\nideal b = y\nideal z0 = 0\nideal c = x*y\n"
        "ideal q = x^2, x*y\nideal s = x^2\nmodule M = R / c\nmodule N = R\n"
        + "".join(f"task {t}\n" for t in tasks),
        encoding="utf-8",
    )
    results = doc_of(capsys, "session", str(p))["tasks"]
    assert [r["task"] for r in results] == tasks
    for result, argv in zip(results, argvs):
        doc = doc_of(capsys, *argv)
        del doc["schema_version"]
        assert result["result"] == doc, argv
    by_task = {r["task"]: r["result"] for r in results}
    assert by_task["colon a b"] == {"quotient": ["x"]}
    assert by_task["intersect a b"] == {"intersection": ["x*y"]}
    assert by_task["linkage check a b z0 over M"]["linked"] is True


def test_help_lists_every_table_entry(capsys):
    for name in OPS:
        *group, last = name.split()
        code, out, err = invoke(capsys, *group, "--help")
        assert code == 0
        assert re.search(rf"^\s+{re.escape(last)}\s", out, re.M), name
