"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything runs on vectors of dimension <= 256 and images up to
16x16; the suite is budgeted well under five minutes.
"""
import json

import numpy as np
import pytest

from proxsplit import suite
from proxsplit.certify import (
    CheckReport,
    gradient_step_contraction,
    prox_contraction,
)
from proxsplit.cli import main as cli_main


def verdict(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def _flatten(reports):
    if isinstance(reports, CheckReport):
        return [reports]
    return list(reports)


def test_criterion_01_gd_sublinear_certificate():
    rep = suite._check_gd_sublinear(0)
    verdict(1, "objective gap bounded by L d0^2/(2n) with a monotone "
               "Lyapunov sequence over 10^4 steps", rep.passed,
            f"worst margin {rep.worst_margin:.2e}")


def test_criterion_02_gd_linear_certificate():
    rep = suite._check_gd_linear(0)
    verdict(2, "linear decay (1 - a/L)^n on the conditioned quadratic, "
               "500 steps", rep.passed, f"worst margin {rep.worst_margin:.2e}")


def test_criterion_03_contraction_factors():
    f = suite.anisotropic_quadratic()
    rep_grad = gradient_step_contraction(f, 0.9 / f.lipschitz, dim=2,
                                         trials=1000, seed=0)
    from proxsplit.funcs import Quadratic
    from proxsplit.linops import IdentityOperator
    fn = Quadratic(IdentityOperator(3), np.zeros(3), scale=2.0)
    rep_prox = prox_contraction(fn, 0.7, dim=3, trials=1000, seed=0)
    ok = rep_grad.passed and rep_prox.passed
    verdict(3, "gradient-step ratio <= sqrt(1-ga) and prox ratio <= "
               "1/(1+ag) over 10^3 pairs", ok)


def test_criterion_04_fista_and_vfista_certificates():
    rep_f = suite._check_fista_rate(0)
    rep_v = suite._check_vfista_rate(0)
    fitted = next(d for d in rep_f.details if "fitted_inv_n2_constant" in d)
    ok = rep_f.passed and rep_v.passed
    verdict(4, "inertial gap <= 2 d0^2/(g (n+1)^2) over 10^4 steps, fitted "
               "constant under the theorem constant, linear strongly convex "
               "variant", ok,
            f"fitted {fitted['fitted_inv_n2_constant']:.3f} <= "
            f"{fitted['theorem_constant']:.3f}")


def test_criterion_05_property_suites_and_controls():
    reports = suite._property_checks(0)
    positives_ok = all(r.passed for r in reports)
    control_reports = [
        suite._control_ascending(0),
        suite._control_fake_convex(0),
        suite._control_corrupted_adjoint(0),
        suite._control_broken_prox(0),
    ]
    controls_flagged = all(not r.passed for r in control_reports)
    verdict(5, "Moreau / firm nonexpansiveness / reflected-prox / "
               "cocoercivity / descent suites at 200 trials; all negative "
               "controls flagged", positives_ok and controls_flagged,
            f"{len(reports)} suites, {len(control_reports)} controls")


def test_criterion_06_equivalence_harnesses():
    reports = _flatten(suite._check_equiv_dr_cp(0))
    reports += _flatten(suite._check_equiv_dr_admm(0))
    ok = all(r.passed for r in reports)
    worst = max(d["max_defect"] for r in reports for d in r.details)
    verdict(6, "splitting <-> primal-dual and splitting <-> multiplier "
               "mappings hold per iteration", ok, f"max defect {worst:.2e}")


def test_criterion_07_cp_gap_certificates():
    rep_scalar = suite._check_gap_scalar(0)
    rep_tv = suite._check_gap_tv(0)
    ok = rep_scalar.passed and rep_tv.passed
    pairs = [(d["N"], d["gap"], d["bound"]) for d in rep_tv.details]
    verdict(7, "ergodic partial gap under the 1/N bound at N in "
               "{10,100,1000} plus per-iteration boundedness", ok,
            "; ".join(f"N={n}: {g:.2e}<={b:.2e}" for n, g, b in pairs))


def test_criterion_08_admm_consensus():
    reports = _flatten(suite._check_admm_consensus(0))
    ok = all(r.passed for r in reports)
    hits = [r.details[0]["first_hit"] for r in reports]
    verdict(8, "coupling residual below 1e-6 within 5000 iterations and "
               "objective within 1e-6 of the reference", ok,
            f"residual first below tol at iterations {hits}")


def test_criterion_09_cross_recipe_agreement():
    rep_tv = suite._check_recipes_tv_denoise(0)
    rep_inv = suite._check_recipes_tv_inverse(0)
    ok = rep_tv.passed and rep_inv.passed
    gaps = max(d["rel_gap"] for d in rep_tv.details + rep_inv.details)
    verdict(9, "all reformulation recipes within 1e-4 relative objective",
            ok, f"largest relative gap {gaps:.2e}")


def test_criterion_10_nonconvex_monitors():
    reports = _flatten(suite._check_nonconvex_double_well(0))
    reports += _flatten(suite._check_nonconvex_hard_threshold(0))
    ok = all(r.passed for r in reports)
    consts = [d["scaled_constant"] for r in reports for d in r.details
              if "scaled_constant" in d]
    verdict(10, "sufficient-decrease margins nonnegative and the min "
                "residual obeys the 1/sqrt(N) envelope at all horizons", ok,
            f"sqrt(N)-scaled constants {['%.2e' % c for c in consts]}")


def test_criterion_11_km_averaging():
    rep = suite._check_km_rotation(0)
    final = rep.details[0]["final_residual"]
    verdict(11, "averaged rotation: fixed-point residual strictly "
                "decreasing and below 1e-8 within 100 iterations",
            rep.passed and final <= 1e-8, f"final residual {final:.2e}")


def test_criterion_12_determinism(tmp_path):
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"kind": "lasso", "dims": [6, 10],
                                   "sigma": 0.02, "seed": 3, "lambda": 0.15}))
    bundle = tmp_path / "bundle"
    assert cli_main(["generate", str(gen_cfg), "--out", str(bundle)]) == 0
    solve_cfg = tmp_path / "solve.json"
    solve_cfg.write_text(json.dumps({
        "problem": {"kind": "lasso", "fixture": str(bundle)},
        "recipe": "fista",
        "solver": {"max_iter": 800},
    }))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["solve", str(solve_cfg), "--out", str(out1)]) == 0
    assert cli_main(["solve", str(solve_cfg), "--out", str(out2)]) == 0
    same = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    bundle2 = tmp_path / "bundle2"
    assert cli_main(["generate", str(gen_cfg), "--out", str(bundle2)]) == 0
    same_fixture = ((bundle / "y.csv").read_bytes()
                    == (bundle2 / "y.csv").read_bytes())
    verdict(12, "repeated runs with one seed produce byte-identical traces "
                "and fixtures", same and same_fixture)
