"""End-to-end acceptance checks, one verdict line printed per criterion.

Run with plain pytest; the ACCEPTANCE lines appear on the terminal even
without -s. Criterion 3 pins reference mode indices (40 and 35) that the
exact stationary computation contradicts (39 and 37, confirmed in exact
rational arithmetic); it prints FAIL and fails honestly rather than
loosening the check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from alleechain import (
    ModelParams,
    build_generator,
    converge_to_stationary,
    discrete_markov_exponent,
    ensemble,
    equilibria,
    integrate,
    limit_distribution_diagnostic,
    markov_exponent,
    mode_profile,
    mode_scaling_check,
    psd_nullspace_oracle,
    psd_product,
    total_variation,
)
from alleechain.errors import ConvergenceBudgetError
from alleechain.model import rate_arrays

from conftest import FIG_A, FIG_B, make_params


def _verdict(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        print(line, flush=True)


def test_criterion_01_equilibria_golden_values(capsys):
    eq_a = equilibria(make_params(FIG_A, 5000))
    eq_b = equilibria(make_params(FIG_B, 5000))
    checks = [
        abs(eq_a.x_plus - 0.413621) <= 1e-5,
        abs(eq_a.x_minus - 0.104324) <= 1e-5,
        abs(eq_b.x_plus - 0.375266) <= 1e-5,
        abs(eq_b.x_minus - 0.0522505) <= 1e-5,
    ]
    ok = all(checks)
    _verdict(capsys, 1, "equilibria-golden-values", ok)
    assert ok


def test_criterion_02_exponent_golden_values(capsys):
    value_a = markov_exponent(make_params(FIG_A, 5000)).integral_value
    value_b = markov_exponent(make_params(FIG_B, 5000)).integral_value
    ok = abs(value_a + 0.00611319) <= 1e-6 and abs(value_b - 0.0207001) <= 1e-6
    _verdict(capsys, 2, "markov-exponent-golden-values", ok,
             f"a={value_a:.8f} b={value_b:.8f}")
    assert ok


def test_criterion_03_bimodal_profile_indices(capsys):
    prof_a = mode_profile(psd_product(make_params(FIG_A, 100)))
    prof_b = mode_profile(psd_product(make_params(FIG_B, 100)))
    got = (prof_a.major_mode, prof_a.minor_mode, prof_b.major_mode, prof_b.minor_mode)
    pinned = (0, 40, 35, 0)
    ok = got == pinned
    detail = f"computed major/minor a={got[0]}/{got[1]} b={got[2]}/{got[3]}, pinned {pinned}"
    _verdict(capsys, 3, "bimodal-profile-indices", ok, detail)
    if not ok:
        pytest.fail(
            "reference mode indices disagree with the exact computation: " + detail
        )


def test_criterion_04_oracle_equivalence(capsys, corpus):
    worst = 0.0
    for entry in corpus:
        for n in (10, 50, 200):
            p = ModelParams.from_constants(capacity_n=n, **entry)
            tv = total_variation(psd_product(p).probs, psd_nullspace_oracle(p).probs)
            worst = max(worst, tv)
    ok = worst <= 1e-9
    _verdict(capsys, 4, "oracle-equivalence", ok, f"worst TV {worst:.3e} over 150 runs")
    assert ok


def test_criterion_05_detailed_balance(capsys, corpus):
    worst = 0.0
    cases = [make_params(FIG_A, 100_000), make_params(FIG_B, 100_000)]
    cases += [ModelParams.from_constants(capacity_n=100_000, **e) for e in corpus]
    for p in cases:
        b, d = rate_arrays(p)
        lw = psd_product(p).log_weights
        gap = (np.log(b[:-1]) + lw[:-1]) - (np.log(d[1:]) + lw[1:])
        worst = max(worst, float(np.abs(np.expm1(gap)).max()))
    ok = worst <= 1e-10
    _verdict(capsys, 5, "detailed-balance", ok,
             f"worst relative flux error {worst:.3e} at N=100000")
    assert ok


def test_criterion_06_global_stability_witness(capsys):
    distances, horizons, witnesses = [], [], []
    budget_hit = False
    for base in (FIG_A, FIG_B):
        p = make_params(base, 50)
        gen = build_generator(p)
        target = psd_product(p).probs
        starts = (
            np.eye(gen.dimension)[0],
            np.eye(gen.dimension)[-1],
            np.full(gen.dimension, 1.0 / gen.dimension),
        )
        for p0 in starts:
            try:
                witness, horizon, _ = converge_to_stationary(gen, p0, 1e-8)
            except ConvergenceBudgetError as err:
                budget_hit = True
                witness, horizon = err.witness, err.horizon
            distances.append(total_variation(witness, target))
            horizons.append(horizon)
            witnesses.append(witness)
    pairwise = max(
        total_variation(witnesses[i], witnesses[j])
        for block in (0, 3)
        for i in range(block, block + 3)
        for j in range(i + 1, block + 3)
    )
    ok = (not budget_hit and max(distances) <= 1e-8) or pairwise <= 1e-8
    _verdict(capsys, 6, "global-stability-witness", ok,
             f"max TV {max(distances):.2e}, horizons {sorted(set(horizons))}, "
             f"pairwise {pairwise:.2e}")
    assert ok


def test_criterion_07_mode_scaling(capsys):
    details = []
    ok = True
    for label, base in (("a", FIG_A), ("b", FIG_B)):
        rows = mode_scaling_check(make_params(base, 100), [100, 200, 400, 800, 1600])
        gaps = [r[3] for r in rows]
        bounded = max(gaps) <= 3.0
        # a growth trend would show up as the tail of the sweep drifting up
        no_trend = (gaps[-1] + gaps[-2]) / 2 <= (gaps[0] + gaps[1]) / 2 + 1.0
        ok = ok and bounded and no_trend
        details.append(f"{label}: max gap {max(gaps):.3f}")
    _verdict(capsys, 7, "mode-scaling", ok, "; ".join(details))
    assert ok


def test_criterion_08_discrete_to_continuum_exponent(capsys):
    details = []
    ok = True
    for label, base in (("a", FIG_A), ("b", FIG_B)):
        target = markov_exponent(make_params(base, 100)).integral_value
        gaps = [
            abs(discrete_markov_exponent(make_params(base, n)) - target)
            for n in (1000, 10_000, 100_000)
        ]
        ok = ok and gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 5e-3
        details.append(f"{label}: |gap| at 1e5 = {gaps[2]:.2e}")
    _verdict(capsys, 8, "discrete-to-continuum-exponent", ok, "; ".join(details))
    assert ok


def test_criterion_09_limit_threshold_tails(capsys):
    details = []
    ok = True
    for label, base in (("a", FIG_A), ("b", FIG_B)):
        diag = limit_distribution_diagnostic(
            make_params(base, 100), [500, 1000, 2000, 5000], 0.05
        )
        tails = [r[1] for r in diag.rows]
        decreasing = all(x > y for x, y in zip(tails, tails[1:]))
        ok = ok and decreasing and tails[-1] <= 1e-3
        details.append(f"{label}: tail at N=5000 is {tails[-1]:.2e}")
    _verdict(capsys, 9, "limit-threshold-tails", ok, "; ".join(details))
    assert ok


def test_criterion_10_simulation_consistency(capsys):
    details = []
    ok = True
    for label, base in (("a", FIG_A), ("b", FIG_B)):
        p = make_params(base, 30)
        psd = psd_product(p).probs
        summary = ensemble(p, 24, 15, 8000.0, 0, burn_in=500.0, epsilon=0.05)
        tv = total_variation(summary.mean_occupation, psd)
        runs = summary.run_frequencies
        k = runs.shape[0]
        jack = np.array([
            total_variation(np.delete(runs, j, axis=0).mean(axis=0), psd)
            for j in range(k)
        ])
        se = math.sqrt((k - 1) / k * float(((jack - jack.mean()) ** 2).sum()))
        ok = ok and tv <= 3.0 * se
        details.append(f"{label}: TV {tv:.4f} vs 3SE {3 * se:.4f}")
    _verdict(capsys, 10, "simulation-consistency", ok, "; ".join(details))
    assert ok


def test_criterion_11_deterministic_basin_dichotomy(capsys):
    details = []
    ok = True
    for label, base in (("a", FIG_A), ("b", FIG_B)):
        p = make_params(base, 100)
        eq = equilibria(p)
        wrong = 0
        for x0 in np.linspace(0.0, 1.0, 100):
            if abs(x0 - eq.x_minus) <= 1e-4:
                continue
            expected = "to_zero" if x0 < eq.x_minus else "to_x_plus"
            if integrate(p, float(x0), 1000.0).classification != expected:
                wrong += 1
        ok = ok and wrong == 0
        details.append(f"{label}: {wrong} misclassified")
    _verdict(capsys, 11, "deterministic-basin-dichotomy", ok, "; ".join(details))
    assert ok
