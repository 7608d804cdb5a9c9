"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``[acceptance] Cxx name: PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -v -s``) and then asserts, so a red run
still reports the full scoreboard.
"""
import math
import time

import numpy as np

from complement_opt import (
    DegenerateOutcomeError,
    MeasurementBasis,
    Objective,
    TwoQubitPure,
    complementarity_after,
    delta_d_total,
    gamma_coefficients,
    grid_reference_maximum,
    maximize,
    objective_value,
    oracle_evolve,
    per_qubit_distinguishability,
    postselected_state,
    project_oracle,
    triple,
)
from complement_opt.collisions import continuous_limit_gap
from complement_opt.experiments import (
    ExperimentSpec,
    preset_config,
    run_experiment,
    run_table_states,
)
from helpers import random_basis, random_coupling


def _report(cid: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {cid} {name}: {status}{suffix}")


def test_c01_closure_after_measurement():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    evaluated = 0
    while evaluated < 1000:
        cfg, n = random_coupling(rng)
        try:
            gt = gamma_coefficients(cfg, random_basis(rng, n), n)
        except DegenerateOutcomeError:
            continue
        worst = max(worst, abs(complementarity_after(gt).closure_residual))
        evaluated += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    _report("C01", "closure-after-measurement", ok,
            f"max residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_c02_postselection_dual_route():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    worst = 0.0
    evaluated = 0
    while evaluated < 500:
        cfg, n = random_coupling(rng, n_cap=10)
        basis = random_basis(rng, n)
        try:
            gt = gamma_coefficients(cfg, basis, n)
            pure, prob = project_oracle(oracle_evolve(cfg, n), basis)
        except DegenerateOutcomeError:
            continue
        expected = postselected_state(gt)
        worst = max(
            worst,
            abs(prob - gt.outcome_probability),
            abs(pure.c00 - expected.c00),
            abs(pure.c01 - expected.c01),
            abs(pure.c10 - expected.c10),
        )
        evaluated += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    _report("C02", "postselection-dual-route", ok,
            f"max gap {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_c03_distinguishability_budget(strong, weak):
    worst = 0.0
    for cfg in (strong, weak):
        for n in range(21):
            total = cfg.a ** (2 * n) + sum(
                per_qubit_distinguishability(cfg, i) for i in range(1, n + 1)
            )
            worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-12
    _report("C03", "distinguishability-budget", ok, f"max |budget-1| {worst:.2e}")
    assert worst <= 1e-12


# Tabulated reference states for the eighteen (objective, preset, n) cells,
# amplitudes in (c00, c01, c10) order.  The comparison is on amplitude moduli
# after phase canonicalization: a shared shift of every phi multiplies c00 by
# an arbitrary phase while changing nothing observable, so the printed phases
# of any particular optimizer run are not identifiable.
REFERENCE_TABLE = {
    ("predictability", "strong", 1): (-0.05 + 0.99j, 0.0, 0.0),
    ("predictability", "strong", 2): (0.0, 0.10, 0.99),
    ("predictability", "strong", 10): (0.0, 0.0, 1.0),
    ("predictability", "weak", 1): (-0.73 + 0.68j, 0.0, 0.0),
    ("predictability", "weak", 2): (-0.45 + 0.89j, 0.0, 0.0),
    ("predictability", "weak", 10): (-0.15 + 0.98j, 0.0, 0.0),
    ("visibility", "strong", 1): (0.23 - 0.66j, 0.21, 0.67),
    ("visibility", "strong", 2): (0.17 - 0.68j, 0.06, 0.70),
    ("visibility", "strong", 10): (-0.43 + 0.55j, 0.0, 0.70),
    ("visibility", "weak", 1): (0.61 - 0.35j, -0.50, -0.50),
    ("visibility", "weak", 2): (0.47 - 0.52j, 0.49, 0.49),
    ("visibility", "weak", 10): (0.40 - 0.58j, -0.49, -0.50),
    ("concurrence", "strong", 1): (0.0, 0.29, 0.95),
    ("concurrence", "strong", 2): (0.0, 0.10, 0.99),
    ("concurrence", "strong", 10): (0.0, 0.0, 1.0),
    ("concurrence", "weak", 1): (0.0, 0.71, 0.71),
    ("concurrence", "weak", 2): (0.0, 0.70, 0.71),
    ("concurrence", "weak", 10): (0.0, 0.69, 0.72),
}


# Paper errata: cells whose tabulated state is not an optimum of its
# objective, each with a witness basis (theta_i, phi_i) that does better.
# The tabulated (predictability, strong, n=2) state, 0.10|01> + 0.99|10>, is
# the x = 0 branch (the same state as the concurrence cell), with
# P = (1 - a^4)/(1 + a^4) = 0.982 at a = cos(0.4 pi).  Projecting probe 1 with
# theta_1 = pi/2 post-selects the excitation into it and leaves exactly |00>,
# P = 1, at outcome probability 0.45.  P = 1 forces some alpha_i = 0, which
# leaves c01 = c10 = 0, so moduli (1, 0, 0) are the only optimum.
TABLE_ERRATA = {
    ("predictability", "strong", 2): ((math.pi / 2, 0.0), (0.0, 0.0)),
}


def _erratum_reference(key, witness_angles):
    """Witness moduli for an erratum cell, the witness's objective value and
    the tabulated state's, both from the independent oracle route."""
    objective_name, preset, n = key
    objective = Objective(objective_name)
    state, _ = project_oracle(
        oracle_evolve(preset_config(preset), n),
        MeasurementBasis.from_angles(witness_angles),
    )
    # The tabulated amplitudes are rounded to two digits (norm 0.995 for this
    # cell), so they are renormalized before their objective is evaluated.
    tabulated = np.array(REFERENCE_TABLE[key], dtype=complex)
    tabulated /= np.linalg.norm(tabulated)
    return (
        (abs(state.c00), abs(state.c01), abs(state.c10)),
        objective_value(triple(state), objective),
        objective_value(triple(TwoQubitPure(*tabulated)), objective),
    )


def test_c04_table_reproduction():
    # An erratum replaces its tabulated cell only when its witness beats the
    # tabulated state by more than 0.01; the paper's table stays as printed.
    references = dict(REFERENCE_TABLE)
    errata_notes = []
    unjustified = []
    for key, witness_angles in TABLE_ERRATA.items():
        moduli, witness, tabulated = _erratum_reference(key, witness_angles)
        symbol = key[0][0].upper()
        errata_notes.append(f"{symbol} {tabulated:.3f} -> {witness:.3f}")
        if witness - tabulated > 0.01:
            references[key] = moduli
        else:
            unjustified.append(
                f"{key}: witness {symbol} {witness:.3f} does not beat "
                f"tabulated {symbol} {tabulated:.3f} by more than 0.01"
            )
    started = time.perf_counter()
    rows = run_table_states()
    elapsed = time.perf_counter() - started
    mismatches = []
    for row in rows:
        reference = references[(row.objective, row.preset, row.n)]
        ours = (row.c00, row.c01, row.c10)
        gaps = [abs(abs(a) - abs(b)) for a, b in zip(ours, reference)]
        if max(gaps) > 0.03:
            mismatches.append(
                f"({row.objective}, {row.preset}, n={row.n}): "
                f"moduli {[f'{abs(a):.3f}' for a in ours]} vs "
                f"{[f'{abs(b):.3f}' for b in reference]}"
            )
    ok = not mismatches and not unjustified and elapsed < 600.0
    errata = f"{len(errata_notes)} paper erratum: " + ", ".join(errata_notes)
    _report("C04", "table-reproduction", ok,
            f"{18 - len(mismatches)}/18 cells ({errata}), {elapsed:.1f}s")
    assert not unjustified, "unjustified errata: " + "; ".join(unjustified)
    assert elapsed < 600.0
    assert not mismatches, "cells outside 0.03: " + "; ".join(mismatches)


def test_c05_strong_concurrence_collapse(optimized_curves):
    results = optimized_curves[("strong", Objective.CONCURRENCE)]
    c_values = [r.achieved.C for r in results]
    c10 = c_values[9]
    monotone = all(
        c_values[i + 1] <= c_values[i] + 1e-9 for i in range(1, len(c_values) - 1)
    )
    ok = c10 <= 0.05 and monotone
    _report("C05", "strong-concurrence-collapse", ok,
            f"C(10) = {c10:.3e}, non-increasing from n=2: {monotone}")
    assert c10 <= 0.05
    assert monotone


def test_c06_weak_concurrence_preservation(optimized_curves):
    results = optimized_curves[("weak", Objective.CONCURRENCE)]
    worst = min(r.achieved.C for r in results)
    ok = worst >= 0.98
    _report("C06", "weak-concurrence-preservation", ok, f"min C = {worst:.4f}")
    assert worst >= 0.98


def test_c07_visibility_maximization(optimized_curves):
    strong_v4 = optimized_curves[("strong", Objective.VISIBILITY)][3].achieved.V
    weak_max = max(r.achieved.V for r in optimized_curves[("weak", Objective.VISIBILITY)])
    ok = strong_v4 >= 0.95 and 0.65 <= weak_max <= 0.75
    _report("C07", "visibility-maximization", ok,
            f"strong V(4) = {strong_v4:.4f}, weak max V = {weak_max:.4f}")
    assert strong_v4 >= 0.95
    assert 0.65 <= weak_max <= 0.75


def test_c08_weak_eraser_keeps_half_concurrence(optimized_curves):
    results = optimized_curves[("weak", Objective.VISIBILITY)]
    tail = [r.achieved.C for r in results if r.n >= 10]
    ok = all(abs(c - 0.5) <= 0.1 for c in tail)
    _report("C08", "weak-eraser-residual-concurrence", ok,
            f"C(n>=10) in [{min(tail):.3f}, {max(tail):.3f}]")
    assert all(abs(c - 0.5) <= 0.1 for c in tail)


def test_c09_information_variation(optimized_curves):
    conserving_worst = 0.0
    for preset in ("strong", "weak"):
        for objective in (Objective.PREDICTABILITY, Objective.CONCURRENCE):
            for r in optimized_curves[(preset, objective)]:
                dd = delta_d_total(min(r.achieved.V, 1.0))
                conserving_worst = max(conserving_worst, abs(dd))
    eraser_dd4 = delta_d_total(
        min(optimized_curves[("strong", Objective.VISIBILITY)][3].achieved.V, 1.0)
    )
    ok = conserving_worst <= 0.02 and eraser_dd4 <= -0.9
    _report("C09", "information-variation", ok,
            f"max |dD_T| conserving = {conserving_worst:.2e}, eraser dD_T(4) = {eraser_dd4:.4f}")
    assert conserving_worst <= 0.02
    assert eraser_dd4 <= -0.9


def test_c10_continuous_limit_convergence():
    schedule = [64, 128, 256, 512, 1024, 2048, 4096]
    gaps = {n: continuous_limit_gap(3.0, 1.0, n) for n in schedule}
    values = [gaps[n] for n in schedule]
    monotone = all(b < a for a, b in zip(values, values[1:]))
    # The leading error term scales as 1/N, so each four-fold increase in N
    # shrinks the gap by about 4; checked on the last three such pairs.
    ratios = [gaps[4 * n] / gaps[n] for n in (256, 512, 1024)]
    within = all(0.2 <= r <= 0.3 for r in ratios)
    ok = monotone and within
    _report("C10", "continuous-limit-convergence", ok,
            "ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    assert monotone
    assert within


def test_c11_small_n_optimizer_reference(strong, weak):
    started = time.perf_counter()
    worst = 0.0
    for cfg in (strong, weak):
        for n in (1, 2):
            for objective in Objective:
                reference, _ = grid_reference_maximum(cfg, n, objective)
                achieved = objective_value(maximize(cfg, n, objective).achieved, objective)
                worst = max(worst, abs(achieved - reference))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-3 and elapsed < 30.0
    _report("C11", "small-n-optimizer-reference", ok,
            f"max gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 30.0


def test_c12_experiment_determinism(tmp_path, weak, strong):
    specs = [
        ExperimentSpec(
            name="quantity-vs-n", cfg=weak, preset="weak",
            objective=Objective.CONCURRENCE, n_max=2,
        ),
        ExperimentSpec(name="distinguishability", cfg=strong, preset="strong"),
    ]
    identical = True
    for spec in specs:
        first = run_experiment(spec, out_dir=tmp_path / "a")
        second = run_experiment(spec, out_dir=tmp_path / "b")
        identical &= first["csv"].read_bytes() == second["csv"].read_bytes()
    _report("C12", "experiment-determinism", identical,
            f"{len(specs)} experiments byte-compared")
    assert identical
