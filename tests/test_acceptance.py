"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6's uniform-mesh half is implemented faithfully and is expected to
fail at desk scale: the benchmark's corner coefficient (|c| = 0.402, recovered
independently by an extraction functional) is small against the smooth energy,
so the measured H1 rate sits near 0.9 at every feasible level, although the
same pipeline reproduces the 2/3 rate exactly when fed the pure singular
solution. The failure message carries the measured data; everything else in
this module is a hard criterion.

Run `pytest tests/test_acceptance.py -s` to watch the lines live; a copy is
written to the path in VENTTSEL_ACCEPTANCE_REPORT, by default
acceptance_report.txt at the repository root.
"""
import math
import os
import time
import warnings

import numpy as np
import pytest

from venttsel.analysis import (
    boundary_h2_diagnostic,
    friedrichs_ratio,
    weighted_hessian_diagnostic,
)
from venttsel.assembly import (
    NodalField,
    ProblemSpec,
    assemble_system,
    nonlocal_matrix,
)
from venttsel import verify
from venttsel.meshing import refine, triangulate
from venttsel.singular import fit_coefficient, make_singular_term, singular_value
from venttsel.solver import min_eigenpair, solve
from venttsel.verify import (
    convergence_study,
    lshape_benchmark,
    make_manufactured,
    operator_laws,
    random_smooth_fields,
    rate_estimate,
)

S_VALUES = (0.25, 0.5, 0.7)
RESULTS = []


def _report(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:>3} {name}: {'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    RESULTS.append(line)
    return passed


@pytest.fixture(scope="module", autouse=True)
def _acceptance_report():
    yield
    default = os.path.join(os.path.dirname(__file__), os.pardir, "acceptance_report.txt")
    path = os.environ.get("VENTTSEL_ACCEPTANCE_REPORT", default)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(sorted(RESULTS)) + "\n")


@pytest.fixture(scope="module")
def bench():
    return lshape_benchmark()


@pytest.fixture(scope="module")
def square_studies(square):
    """Cubic and harmonic presets on the unit square, s in {0.25, 0.7}."""
    out = {}
    for preset in ("cubic", "harmonic"):
        for s in (0.25, 0.7):
            prob = make_manufactured(preset, square, s, 1.0)
            out[(preset, s)] = convergence_study(prob, 4, h0=0.25)
    return out


@pytest.fixture(scope="module")
def uniform_table(bench):
    """Criterion-6 setup exactly as stated: 4 levels, reference 2 levels down."""
    return convergence_study(bench, 4, h0=0.5, q=1.0)


@pytest.fixture(scope="module")
def graded_table(bench):
    return convergence_study(bench, 4, h0=0.5, q=1.0 / (1.0 - 0.42))


@pytest.fixture(scope="module")
def uniform_chain(bench):
    """Solutions of the benchmark on the refine chain, levels 1..5."""
    meshes = [triangulate(bench.polygon, 0.5)]
    for _ in range(5):
        meshes.append(refine(meshes[-1]))
    sols = {}
    for lvl in range(1, 6):
        u, _ = solve(assemble_system(meshes[lvl], bench.spec()), tol=1e-10)
        sols[lvl] = u
    return sols


def test_criterion_1_patch(square, lshape):
    worst = 0.0
    for poly in (square, lshape):
        mesh = triangulate(poly, 0.25)
        for s in S_VALUES:
            prob = make_manufactured("constant", poly, s, 1.0)
            u, _ = solve(assemble_system(mesh, prob.spec()), tol=1e-13)
            worst = max(worst, float(np.abs(u.values - 1.0).max()))
    ok = worst <= 1e-10
    assert _report(1, "patch test", ok, f"max |u - 1| = {worst:.2e}")


@pytest.fixture(scope="module")
def law_records(square_bm, square_bm8, lshape_bm8, entry_oracles):
    """`operator_laws` on each boundary and s, once, and the seconds it took;
    the entry oracles it builds (inside the timing) go into `entry_oracles`."""
    build = verify.theta_entry_oracle

    def keep(bm, s, tol):
        entry_oracles[bm, s, tol] = build(bm, s, tol)
        return entry_oracles[bm, s, tol]

    t0 = time.time()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "theta_entry_oracle", keep)
        records = [
            rec
            for bm in (square_bm, square_bm8, lshape_bm8)
            for s in S_VALUES
            for rec in operator_laws(bm, s, nonlocal_matrix(bm, s))
        ]
    return records, time.time() - t0


def _worst(records, name):
    return max(rec["value"] for rec in records if rec["name"] == name)


def test_criterion_2_operator_laws(law_records):
    records = [rec for rec in law_records[0] if rec["name"] != "theta_oracle_equivalence"]
    ok = all(rec["passed"] for rec in records)
    assert _report(
        2,
        "operator laws",
        ok,
        f"sym {_worst(records, 'theta_symmetric'):.1e}, "
        f"theta@1 {_worst(records, 'theta_annihilates_constants'):.1e}, "
        f"psd {_worst(records, 'theta_psd'):.1e}, "
        f"scaling {_worst(records, 'theta_scaling_law'):.1e}, "
        f"orders {_worst(records, 'theta_orders'):.1e}",
    )


def test_criterion_3_oracle_equivalence(law_records):
    records, runtime = law_records
    oracle = [rec for rec in records if rec["name"] == "theta_oracle_equivalence"]
    worst = _worst(records, "theta_oracle_equivalence")
    ok = len(oracle) == 6 and all(rec["passed"] for rec in oracle) and runtime < 120.0
    assert _report(
        3, "oracle equivalence", ok, f"worst rel dev {worst:.2e} in {runtime:.0f}s"
    )


def test_criterion_4_coercivity(square, lshape):
    lam_pos = math.inf
    lam_zero = 0.0
    cos_min = 1.0
    for poly in (square, lshape):
        for h in (0.25, 0.125):
            mesh = triangulate(poly, h)
            sys1 = assemble_system(mesh, ProblemSpec(s=0.5, b=1.0, f=0.0, g=0.0))
            lam_pos = min(lam_pos, min_eigenpair(sys1)[0])
            sys0 = assemble_system(mesh, ProblemSpec(s=0.5, b=0.0, f=0.0, g=0.0))
            lam, vec = min_eigenpair(sys0)
            lam_zero = max(lam_zero, abs(lam))
            cos_min = min(
                cos_min,
                abs(vec @ np.ones(len(vec))) / (np.linalg.norm(vec) * math.sqrt(len(vec))),
            )
    ok = lam_pos > 0 and lam_zero <= 1e-10 and cos_min >= 1 - 1e-8
    assert _report(
        4,
        "coercivity spectrum",
        ok,
        f"min lambda(b=1) {lam_pos:.3e}, |lambda(b=0)| {lam_zero:.1e}, cosine {cos_min:.10f}",
    )


def test_criterion_5_convex_signature(square_studies):
    t0 = time.time()
    ok = True
    details = []
    for (preset, s), table in square_studies.items():
        h1 = rate_estimate(table, "err_h1_bulk")[-1]
        l2 = rate_estimate(table, "err_l2_bulk")[-1]
        h1b = rate_estimate(table, "err_h1_bdry")[-1]
        diag = table.column("bdry_h2_diag")
        drift = max(diag) / min(diag)
        v1_err = [
            math.sqrt(
                row["err_h1_bulk"] ** 2 + row["err_h1_bdry"] ** 2 + row["err_l2_bdry"] ** 2
            )
            for row in table.rows
        ]
        monotone = all(b <= 1.05 * a for a, b in zip(v1_err, v1_err[1:]))
        good = (
            0.85 <= h1 <= 1.15
            and 1.75 <= l2 <= 2.25
            and h1b >= 0.85
            and drift < 2.0
            and monotone
        )
        ok = ok and good
        details.append(f"{preset}/s={s}: H1 {h1:.2f} L2 {l2:.2f} H1b {h1b:.2f} drift {drift:.2f}")
    runtime = time.time() - t0
    assert _report(5, "convex regularity signature", ok, "; ".join(details))


def test_criterion_6_nonconvex_uniform(uniform_table):
    """Faithful implementation of the stated uniform-rate window.

    Expected to fail: see the module docstring and the decisions ledger. The
    graded companion (next test) carries the non-convex signature.
    """
    rates = rate_estimate(uniform_table, "err_h1_bulk")
    last = rates[-1]
    ok = 0.55 <= last <= 0.80
    _report(6, "non-convex signature (uniform window)", ok, f"H1 rates {['%.3f' % r for r in rates]}")
    assert ok, (
        f"uniform benchmark H1 rate {last:.3f} outside [0.55, 0.80]; measured rates "
        f"{['%.3f' % r for r in rates]}. The corner coefficient of this data is "
        "|c| = 0.402 (recovered by an extraction functional) against a dominant "
        "smooth error component, so the asymptotic 2/3 regime is out of reach at "
        "this scale; the same pipeline measures rate 0.666 on the pure singular "
        "solution, and the graded companion test carries the non-convex signature."
    )


def test_criterion_6_nonconvex_graded(graded_table):
    rates = rate_estimate(graded_table, "err_h1_bulk")
    last = rates[-1]
    ok = 0.85 <= last <= 1.15
    assert _report(
        6, "non-convex signature (graded q = 1/(1-sigma))", ok, f"H1 rates {['%.3f' % r for r in rates]}"
    )


def test_criterion_7_singular_coefficient(bench, uniform_chain, lshape):
    term = make_singular_term(bench.polygon, 3)
    c4 = fit_coefficient(uniform_chain[4], term)
    c5 = fit_coefficient(uniform_chain[5], term)
    change = abs(c5 - c4) / abs(c5)
    mesh16 = uniform_chain[4].mesh  # level-4 chain mesh has h = 1/32
    synth = NodalField(2.0 * singular_value(term, mesh16.nodes), mesh16)
    c_synth = fit_coefficient(synth, term)
    ok = change < 0.10 and abs(c_synth - 2.0) <= 1e-2
    assert _report(
        7,
        "singular coefficient stability",
        ok,
        f"c = {c4:.4f} -> {c5:.4f} ({100 * change:.2f}%), synthetic {c_synth:.6f}",
    )


def test_criterion_8_stability_witness(square_studies, uniform_table):
    ok = True
    details = []
    for name, table in list(
        {f"{p}/s={s}": t for (p, s), t in square_studies.items()}.items()
    ) + [("lshape", uniform_table)]:
        ratios = table.column("stability_ratio")
        drift = max(ratios) / min(ratios)
        ok = ok and drift < 2.0
        details.append(f"{name}: drift {drift:.3f}")
    assert _report(8, "stability-estimate witness", ok, "; ".join(details))


def test_criterion_9_friedrichs_witness(square):
    mesh = triangulate(square, 0.25)
    fine = refine(mesh)
    maxima = []
    for m in (mesh, fine):
        maxima.append(max(friedrichs_ratio(u) for u in random_smooth_fields(m, 1000, 101)))
    drift = abs(maxima[1] - maxima[0]) / maxima[0]
    ok = drift < 0.5
    assert _report(
        9,
        "Friedrichs witness",
        ok,
        f"max ratio {maxima[0]:.4f} -> {maxima[1]:.4f} (drift {100 * drift:.1f}%)",
    )


def test_criterion_10_weight_window_probe(uniform_chain):
    """Diagnostic criterion: reported, and a failure warns rather than rejects
    (the recovered-Hessian surrogate backs it only heuristically)."""
    levels = [1, 2, 3, 4]
    inside = [weighted_hessian_diagnostic(uniform_chain[k], 0.42) for k in levels]
    below = [weighted_hessian_diagnostic(uniform_chain[k], 0.0) for k in levels]
    drift = max(inside) / min(inside)
    monotone = all(b > a for a, b in zip(below, below[1:]))
    growth = below[-1] / below[0]
    ok = drift < 2.0 and monotone and growth >= 1.5
    _report(
        10,
        "weight-window probe",
        ok,
        f"sigma=0.42 drift {drift:.3f}; sigma=0 growth {growth:.3f} (monotone={monotone})",
    )
    if not ok:
        warnings.warn(
            "weight-window probe outside its expected envelope: "
            f"drift {drift:.3f}, growth {growth:.3f}; investigate",
            stacklevel=1,
        )
