"""Built degenerate witnesses: triples whose curve meets the diagonal, and
zeros of det M.

The sampler never reaches these loci, so they are built here.  The curve
of a triple meets the diagonal at a point p when each restricted equation
a_target - (u1*a1 + u2*a2 + u3*a3) vanishes at p; that is one linear
condition on the row (u1, u2, u3), solved for one coordinate after the
other two are drawn.  The point may lie at s = infinity, where a form of
degree 2 in s takes the value of its s^2 part.  A zero of det M fixes
eight coordinates and takes a rational root of the cubic that det M is
in the ninth.
"""

import json
import random
from fractions import Fraction

import pytest

from prymcert import CheckFailed, certify
from prymcert import weil_model as wm
from prymcert.cli import main
from prymcert.exactnum import IMAG_UNIT
from prymcert.multipoly import Polynomial, VariableRegistry
from substitution_reference import substitute

ROWS = (("a4", "a"), ("a5", "b"), ("a6", "c"))


def at_point(s0, t0):
    """The value of a restricted form at the diagonal point (s0, t0)."""
    return lambda form: form.evaluate({"s": s0, "t": t0})


def at_s_infinity(t0):
    """The value of a restricted form at s = infinity, t = t0: its s^2 part at t0."""
    return lambda form: sum(c * t0 ** k for (j, k), c in form.terms() if j == 2)


def meeting_triple(value, rng):
    """A triple whose three restricted equations all vanish where value is taken."""
    forms = wm.diagonal_generators()
    basis = [value(forms[name]) for name in ("a1", "a2", "a3")]
    solved = next(k for k, b in enumerate(basis) if b)
    rows = []
    for target, _ in ROWS:
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        u[solved] = 0
        u[solved] = (value(forms[target]) - sum(x * b for x, b in zip(u, basis))) / basis[solved]
        rows += u
    return wm.CoefficientTriple.from_rationals(rows)


def restricted_equations(triple):
    """The unscaled equations of a triple, restricted to the diagonal."""
    forms = wm.diagonal_generators()
    return [forms[target] - sum((u * forms[name] for u, name
                                 in zip(getattr(triple, part), ("a1", "a2", "a3"))),
                                Polynomial.zero(wm.diagonal_registry()))
            for target, part in ROWS]


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _rational_root(coeffs):
    """A rational root of a nonconstant integer polynomial (ascending coefficients), or None."""
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    if len(coeffs) < 2:
        return None
    if not coeffs[0]:
        return Fraction(0)
    for p in _divisors(coeffs[0]):
        for q in _divisors(coeffs[-1]):
            for root in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * root ** e for e, c in enumerate(coeffs)) == 0:
                    return root
    return None


def det_zero_triple(rng):
    """Fix eight coordinates at small integers and take a rational root in the ninth."""
    det = wm.elimination_determinant()
    while True:
        name = rng.choice(wm.COEFF_VARS)
        fixed = {n: rng.randint(-3, 3) for n in wm.COEFF_VARS if n != name}
        reg = VariableRegistry((name,))
        cubic = substitute(det, {n: Polynomial.constant(reg, v) for n, v in fixed.items()})
        assert cubic.total_degree() <= 3
        root = _rational_root([cubic.coefficient((e,)) for e in range(4)])
        if root is not None:
            return wm.CoefficientTriple.from_rationals(
                [fixed.get(n, root) for n in wm.COEFF_VARS])


POINTS = {
    "finite": at_point(Fraction(2), Fraction(-1, 3)),
    "s-equals-t": at_point(1, 1),
    "a1-vanishes": at_point(1, -1),
    "s-zero": at_point(0, 5),
    "s-infinity": at_s_infinity(Fraction(3, 2)),
}


def meeting_triples():
    rng = random.Random(2)
    return {f"{kind}-{k}": meeting_triple(value, rng)
            for kind, value in POINTS.items() for k in range(3)}


MEETING = meeting_triples()
DET_ZERO = {f"seed-{seed}": det_zero_triple(random.Random(seed)) for seed in range(3)}


def text(triple):
    return ",".join(str(v) for v in triple.values())


@pytest.mark.parametrize("name", sorted(MEETING))
def test_curve_meeting_the_diagonal_is_not_certified_empty(name):
    triple = MEETING[name]
    value = POINTS[name.rsplit("-", 1)[0]]
    assert all(value(equation) == 0 for equation in restricted_equations(triple))
    assert wm.fixed_point_free_check(triple) != wm.CERTIFIED_EMPTY


def test_built_meetings_meet_the_diagonal():
    # a random rational point (s0, t0) and random u1, u2 in each row, with u3
    # solved so that the row's restricted equation vanishes there
    rng = random.Random(11)
    forms = wm.diagonal_generators()
    built = list(MEETING.values())
    while len(built) < len(MEETING) + 30:
        value = at_point(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)))
        a1, a2, a3 = (value(forms[name]) for name in ("a1", "a2", "a3"))
        if not a3:
            continue
        rows = []
        for target, _ in ROWS:
            u1, u2 = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
            rows += [u1, u2, (value(forms[target]) - u1 * a1 - u2 * a2) / a3]
        triple = wm.CoefficientTriple.from_rationals(rows)
        assert all(value(equation) == 0 for equation in restricted_equations(triple))
        built.append(triple)
    for triple in built:
        assert wm.fixed_point_free_check(triple) == wm.MEETS_DIAGONAL, text(triple)


@pytest.mark.parametrize("name", sorted(DET_ZERO))
def test_det_m_vanishes_at_built_zeros(name):
    triple = DET_ZERO[name]
    assert wm.determinant_at(triple) == 0
    wm.cross_check_determinant(triple, Fraction(0))  # Gauss-Jordan over Q agrees


@pytest.fixture(scope="module")
def seed0_document():
    return json.loads(certify.run_pipeline(0, 100).to_json())


@pytest.mark.parametrize("triple", [MEETING["finite-0"], MEETING["s-infinity-0"],
                                    DET_ZERO["seed-0"]],
                         ids=["meets-diagonal", "meets-at-infinity", "det-zero"])
def test_recheck_rejects_built_witness(seed0_document, tmp_path, capsys, triple):
    # every witness field holds its true recomputed value; a condition fails
    conditions = list(certify._witness_conditions(triple))
    values = {field: value for field, value, _, _ in conditions}
    failing = next(field for field, _, holds, _ in conditions if not holds)
    document = {**seed0_document, "witness_triple": text(triple).split(","),
                "witness_det_m": str(values["witness_det_m"]),
                "witness_quadric_kernel_dim": values["witness_quadric_kernel_dim"],
                "fixed_point_free": values["fixed_point_free"], "overall": "Pass"}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(document))
    assert main(["recheck", "--cert", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("Fail recheck:") and f"field {failing!r}" in out
    assert "witness condition" in out


@pytest.mark.parametrize("name", ["finite-0", "s-infinity-0"])
def test_fpf_exit_code_on_a_built_meeting(name, capsys):
    at = f"--at={text(MEETING[name])}"
    assert main(["fpf", at, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"fixed_point_free": wm.MEETS_DIAGONAL}
    assert main(["fpf", at]) == 1
    assert capsys.readouterr().out == "MeetsDiagonal\n"


def test_detm_exit_code_on_a_built_zero(capsys):
    at = f"--at={text(DET_ZERO['seed-1'])}"
    assert main(["detm", at, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"det_m_value": "0"}
    assert main(["detm", at]) == 1
    assert capsys.readouterr().out == "0\n"


def _multiples_of_one_grid():
    """Six multiples of the restricted a2: every pairwise resultant is zero."""
    grid = wm.diagonal_grids()["a2"]
    return {name: [[k * c for c in row] for row in grid]
            for k, name in enumerate(wm.INVARIANT_NAMES, start=1)}


def _grids_through_one_one():
    """Six random (2,2)-grids that all vanish at (s, t) = (1, 1)."""
    rng = random.Random(5)
    grids = {}
    for name in wm.INVARIANT_NAMES:
        grid = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        grid[0][0] -= sum(map(sum, grid))
        grids[name] = grid
    return grids


BASE_POINT_GRIDS = {"multiples-of-one-grid": _multiples_of_one_grid(),
                    "common-zero-at-one-one": _grids_through_one_one()}


def assert_one_fail_line(argv, check, capsys):
    """A failed check of the model: exit 1, one stdout line "Fail <check>: ...",
    {"error": ...} under --json, and nothing on stderr.  Returns the line."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"Fail {check}: "), captured.out
    assert captured.err == ""
    assert main(argv + ["--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": lines[0].split(": ", 1)[1]}
    assert captured.err == ""
    return lines[0]


@pytest.mark.parametrize("name", sorted(BASE_POINT_GRIDS))
def test_verify_diagonal_finds_a_built_base_point(name, seed0_document, tmp_path, capsys,
                                                  monkeypatch):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(seed0_document))
    out = tmp_path / "out.json"
    assert main(["certify", "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    written = out.read_bytes()
    assert len(written) == 967
    new = tmp_path / "new.json"
    monkeypatch.setattr(wm, "diagonal_grids", lambda: BASE_POINT_GRIDS[name])
    with pytest.raises(CheckFailed, match="the pairwise resultants do not exclude"):
        wm.verify_diagonal()
    for argv, check in [(["verify", "diagonal"], "diagonal"),
                        (["verify", "freeness"], "freeness"),
                        (["certify", "--seed", "0"], "certify"),
                        (["certify", "--seed", "0", "--out", str(out)], "certify"),
                        (["certify", "--seed", "0", "--out", str(new)], "certify"),
                        (["recheck", "--cert", str(path)], "recheck")]:
        line = assert_one_fail_line(argv, check, capsys)
        assert line == f"Fail {check}: the pairwise resultants do not exclude a common zero"
    assert out.read_bytes() == written  # a failed certify leaves the old certificate
    assert not new.exists()  # and creates no new one


def _wrong_restrictions():
    """(generator, restricted form, message of the Fail line): one per raise
    of diagonal_restriction_factors."""
    reg = wm.diagonal_registry()
    s, t = Polynomial.variables(reg, "s", "t")
    return {"zero-form": ("a2", Polynomial.zero(reg),
                          "'a2' restricts to zero on the diagonal"),
            "gaussian-factor": ("a2", IMAG_UNIT * (s * t), "'a2' on the diagonal is not "
                                "a rational multiple of its reference form"),
            "not-proportional": ("a1", s + 2 * t,
                                 "identity 'a1|diag' has nonzero residual t")}


WRONG_RESTRICTIONS = _wrong_restrictions()


@pytest.mark.parametrize("case", sorted(WRONG_RESTRICTIONS))
def test_verify_diagonal_fails_on_a_wrong_restriction(case, capsys, monkeypatch):
    name, form, message = WRONG_RESTRICTIONS[case]
    changed = {**wm.diagonal_generators(), name: form}
    monkeypatch.setattr(wm, "diagonal_generators", lambda: changed)
    assert assert_one_fail_line(["verify", "diagonal"], "diagonal", capsys) == \
        f"Fail diagonal: {message}"


def test_certify_fails_on_a_wrong_symbolic_determinant(capsys, monkeypatch):
    # the cofactor expansion itself is off by a constant term, so a check that
    # reruns the expansion shares the fault; only Gauss-Jordan over Q can object
    real = wm.det_expansion

    def off_by_one(matrix):
        det = real(matrix)
        return det + 1 if isinstance(det, Polynomial) else det

    monkeypatch.setattr(wm, "det_expansion", off_by_one)
    wm.elimination_determinant.cache_clear()
    try:
        line = assert_one_fail_line(["certify", "--seed", "0"], "certify", capsys)
    finally:  # later tests see the true determinant again
        monkeypatch.undo()
        wm.elimination_determinant.cache_clear()
    assert line == ("Fail certify: det M at 0, 0, 0, 0, 0, 0, 0, 0, 0: "
                    "symbolic value 2, Gauss-Jordan value 1")


def test_certify_and_recheck_fail_on_a_wrong_gauss_jordan_determinant(
        seed0_document, tmp_path, capsys, monkeypatch):
    # the elimination over Q behind determinant_at is off by one; only the
    # symbolic det M, evaluated at the same triple, can object
    real = wm.det_rref
    monkeypatch.setattr(wm, "det_rref", lambda matrix: real(matrix) + 1)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(seed0_document))
    for argv, check in [(["certify", "--seed", "0"], "certify"),
                        (["recheck", "--cert", str(path)], "recheck")]:
        line = assert_one_fail_line(argv, check, capsys)
        assert line == (f"Fail {check}: det M at 0, 0, 0, 0, 0, 0, 0, 0, 0: "
                        "symbolic value 1, Gauss-Jordan value 2")


def test_verify_genus_fails_on_a_wrong_intersection_number(capsys, monkeypatch):
    monkeypatch.setattr(wm, "chow_coefficient", lambda factors: 22)
    with pytest.raises(CheckFailed):
        wm.genus_check()
    assert assert_one_fail_line(["verify", "genus"], "genus", capsys) == \
        "Fail genus: top intersection number 22, expected 24"


def test_detm_symbolic_fails_on_a_remainder(capsys, monkeypatch):
    real = wm._relation_tables

    def with_a_cubic_term(a):
        tables = [list(rows) for rows in real(a)]
        name, rhs = tables[1][4]
        tables[1][4] = (name, rhs + a["a1"] * a["a2"] * a["a3"])
        return tables

    monkeypatch.setattr(wm, "_relation_tables", with_a_cubic_term)
    wm.eliminate.cache_clear()
    wm.elimination_determinant.cache_clear()
    try:
        line = assert_one_fail_line(["detm", "--symbolic"], "detm", capsys)
    finally:  # later tests see the true elimination again
        monkeypatch.undo()
        wm.eliminate.cache_clear()
        wm.elimination_determinant.cache_clear()
    assert line == "Fail detm: c1*d3+c3*d1: remainder a1*a2*a3"


@pytest.fixture
def cleared_caches():
    """Empty the cached identity residuals and elimination before and after a test."""
    cached = (wm.identity_residuals, wm.eliminate, wm.elimination_determinant)
    for function in cached:
        function.cache_clear()
    yield
    for function in cached:
        function.cache_clear()


def test_check_identities_names_every_nonzero_residual(monkeypatch, cleared_caches):
    residuals = {**wm.identity_residuals(), "c1*d1": wm.generators()["a1"],
                 "cubic": wm.generators()["a2"]}
    monkeypatch.setattr(wm, "identity_residuals", lambda: residuals)
    with pytest.raises(CheckFailed, match=r"^nonzero residual in cubic, c1\*d1$"):
        wm.check_identities()  # in IDENTITY_NAMES order


@pytest.mark.parametrize("run", ["verify", "certify", "certify-out", "recheck"])
def test_a_failed_identity_stops_the_run(run, seed0_document, tmp_path, capsys, monkeypatch,
                                         cleared_caches):
    residuals = {**wm.identity_residuals(), "cubic": wm.generators()["a2"]}
    monkeypatch.setattr(wm, "identity_residuals", lambda: residuals)
    # a run whose cubic identity failed, recorded as such: recheck must not pass it
    document = {**seed0_document, "overall": "Fail",
                "identity_verdicts": {**seed0_document["identity_verdicts"], "cubic": "Fail"}}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "out.json"
    argv, check = {"verify": (["verify", "identities"], "identities"),
                   "certify": (["certify", "--seed", "0"], "certify"),
                   "certify-out": (["certify", "--seed", "0", "--out", str(out)], "certify"),
                   "recheck": (["recheck", "--cert", str(path)], "recheck")}[run]
    line = assert_one_fail_line(argv, check, capsys)
    assert line == f"Fail {check}: nonzero residual in cubic"
    assert not out.exists()  # a failed certify writes no certificate


def test_certify_fails_on_det_m_two_at_the_origin(seed0_document, tmp_path, capsys,
                                                  monkeypatch, cleared_caches):
    # a doubled row doubles det M on both routes, so the cross-check agrees;
    # only the claim det M(0) = 1 can object
    wm.identity_residuals()  # the identities keep the true tables
    real = wm._relation_tables

    def with_a_doubled_row(a):
        b_rows, cd_rows = real(a)
        (name, rhs), *rest = cd_rows
        return b_rows, [(name, 2 * rhs), *rest]

    monkeypatch.setattr(wm, "_relation_tables", with_a_doubled_row)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(seed0_document))
    for argv, check in [(["certify", "--seed", "0"], "certify"),
                        (["recheck", "--cert", str(path)], "recheck")]:
        line = assert_one_fail_line(argv, check, capsys)
        assert line == f"Fail {check}: det M at the origin is 2, expected 1"
