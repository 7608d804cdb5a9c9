"""Oracles for the package's outputs, written independently of the package.

Every formula here is derived from the physics, not read from the package:

* the single-excitation amplitudes after n collisions are a^(i-1) b / sqrt2 on
  probe i, a^n / sqrt2 on qubit B and 1 / sqrt2 on qubit A, with a = cos(g dt)
  and |b| = sin(g dt);
* with x = |gamma1 / gamma3|^2 and s = a^(2n), the post-selected pair has
  V = 2 sqrt(x) / (1 + s + x), P = |1 - s - x| / (1 + s + x) and
  C = 2 a^n / (1 + s + x), so the optima are V* = 1 / sqrt(1 + s),
  P* = 1 (b != 0) and C* = 2 a^n / (1 + s);
* for a shared basis angle theta, x = |b|^2 tan^2(theta) (sum_{i<n} a^i)^2.

An *item* is one checked output unit: a CSV row or one ``verify`` check
line.  An item fails in one of three ways:

* *wrong*: present but false (exceeds the closed form, breaks closure, or
  disagrees with the values recomputed from the reported basis or state);
* *short*: internally consistent, but the optimized value falls short of
  the closed-form optimum by more than ``OPTIMUM_TOL``;
* *refused*: left empty (NaN) although the oracle says the outcome exists.

A job fails when it exits with the wrong code, leaves malformed output, or
produces any wrong item.  Short and refused items count against the item
failure ratio but do not fail the job.
"""
from __future__ import annotations

import cmath
import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from workloads import OBJECTIVES, PRESETS, Job

#: the optimum may fall short of the closed form by at most this ...
OPTIMUM_TOL = 1e-6
#: ... and exceed it by at most this
OVERSHOOT_TOL = 1e-9
#: tolerance of V^2 + P^2 + C^2 = 1 and of values recomputed from the outputs
VALUE_TOL = 1e-9
#: tolerance of closed-form scalars (information profile, limit gaps, deltas)
FORMULA_TOL = 1e-12
#: outcome probability below which the package treats a record as impossible
LOW_PROBABILITY = 1e-28
_LOG_LOW_PROBABILITY = math.log(LOW_PROBABILITY)

TABLE_NS = (1, 2, 10)

#: thresholds the built-in suite states for its own checks
VERIFY_THRESHOLDS = {
    "closure-after-measurement": 1e-10,
    "evolution-dual-route": 1e-10,
    "postselection-dual-route": 1e-10,
    "distinguishability-budget": 1e-12,
    "small-n-optimizer-reference": 1e-3,
}
_CHECK_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)\s+(.*)$")
_LAST_NUMBER = re.compile(r"([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)\s*$")


@dataclass
class Verdict:
    """Outcome of checking one job's outputs."""

    items: int = 0
    refused: int = 0
    short: int = 0
    wrong: int = 0
    error: str = ""
    low_probability_cells: int = 0
    sweep_cells: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def failed_items(self) -> int:
        return self.refused + self.short + self.wrong

    @property
    def job_failed(self) -> bool:
        return bool(self.error) or self.wrong > 0

    def mark_wrong(self, what: str) -> None:
        self.wrong += 1
        self.note(what)

    def note(self, what: str) -> None:
        if len(self.notes) < 3:
            self.notes.append(what)


class MalformedOutput(Exception):
    """Output missing or not shaped as the job's experiment requires."""


@dataclass(frozen=True)
class Coupling:
    a: float
    b2: float
    k: float
    dt: float
    N: int

    @classmethod
    def of(cls, g: float, T: float, N: int) -> "Coupling":
        dt = T / N
        phase = g * dt
        return cls(a=math.cos(phase), b2=math.sin(phase) ** 2, k=g * g * T / N, dt=dt, N=N)


def closed_form_optimum(objective: str, c: Coupling, n: int) -> float:
    s = c.a ** (2 * n)
    if objective == "visibility":
        return 1.0 / math.sqrt(1.0 + s)
    if objective == "predictability":
        return 1.0 if c.b2 > 0.0 else (1.0 - s) / (1.0 + s)
    return 2.0 * c.a ** n / (1.0 + s)


def values_from_angles(c: Coupling, angles: list[float]) -> tuple[float, float, float, float]:
    """(V, P, C, outcome probability) of the record projected onto the basis
    (theta_1, phi_1, theta_2, phi_2, ...), by direct projection of the
    collision state."""
    n = len(angles) // 2
    alpha = [math.cos(angles[2 * i]) for i in range(n)]
    beta = [cmath.exp(1j * angles[2 * i + 1]) * math.sin(angles[2 * i]) for i in range(n)]
    g1 = 0j
    for i in range(n):
        others = math.prod(alpha[j] for j in range(n) if j != i)
        g1 += c.a ** i * beta[i] * others
    m1 = c.b2 * abs(g1) ** 2
    m3 = math.prod(alpha) ** 2
    m2 = c.a ** (2 * n) * m3
    total = m1 + m2 + m3
    return (
        2.0 * math.sqrt(m1 * m3) / total,
        abs(m3 - m1 - m2) / total,
        2.0 * math.sqrt(m2 * m3) / total,
        total / 2.0,
    )


def sweep_cell(c: Coupling, n: int, theta: float, geometric: float):
    """(V, P, C, log outcome probability) for n probes all measured at theta.

    Written with u = cos^2 theta and w = |b|^2 sin^2 theta G^2 so that
    theta = pi/2 needs no division; G = sum_{i<n} a^i.
    """
    u = math.cos(theta) ** 2
    w = c.b2 * math.sin(theta) ** 2 * geometric ** 2
    s = c.a ** (2 * n)
    den = u * (1.0 + s) + w
    values = (
        2.0 * math.sqrt(u * w) / den,
        abs(u * (1.0 - s) - w) / den,
        2.0 * c.a ** n * u / den,
    )
    # p = (1/2) u^(n-1) (u (1 + s) + w)
    if u == 0.0:
        return values, (math.log(0.5 * den) if n == 1 else -math.inf)
    return values, math.log(0.5) + (n - 1) * math.log(u) + math.log(den)


def is_exact_half_pi(theta: float) -> bool:
    return abs(theta - math.pi / 2.0) <= 4.0 * math.ulp(math.pi / 2.0)


# ---------------------------------------------------------------------------
# reading outputs

def _number(text: str) -> float:
    return math.nan if text == "" else float(text)


def read_csv(path: Path):
    """(header, iterator of row dicts); the file closes once rows run out."""
    handle = open(path, newline="", encoding="utf-8")
    reader = csv.DictReader(handle)
    header = list(reader.fieldnames or [])

    def rows():
        with handle:
            yield from reader

    return header, rows()


def _single_csv(out_dir: Path) -> Path:
    csvs = sorted(out_dir.rglob("*.csv")) if out_dir.is_dir() else []
    if len(csvs) != 1:
        raise MalformedOutput(f"expected one CSV under the output directory, found {len(csvs)}")
    manifests = list(out_dir.rglob("manifest.json"))
    if len(manifests) != 1:
        raise MalformedOutput(f"expected one manifest.json, found {len(manifests)}")
    try:
        manifest = json.loads(manifests[0].read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise MalformedOutput(f"manifest is not JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise MalformedOutput("manifest is not a JSON object")
    return csvs[0]


def _require(header: list[str], columns: tuple[str, ...]) -> None:
    missing = [c for c in columns if c not in header]
    if missing:
        raise MalformedOutput(f"CSV lacks columns {missing}")


def _integer_column(rows: list[dict[str, str]], key: str, expected: list[int]) -> None:
    try:
        got = [int(r[key]) for r in rows]
    except (TypeError, ValueError) as exc:
        raise MalformedOutput(f"column {key!r} is not integral: {exc}") from exc
    if got != expected:
        raise MalformedOutput(f"column {key!r} is {got[:5]}..., expected {expected[:5]}...")


# ---------------------------------------------------------------------------
# per-experiment checks

def _over_optimum(v: Verdict, value: float, optimum: float, where: str) -> bool:
    """Mark the item wrong if it exceeds the closed-form optimum."""
    if value > optimum + OVERSHOOT_TOL:
        v.mark_wrong(f"{where}: {value!r} exceeds the closed form {optimum!r}")
        return True
    return False


def _count_short(v: Verdict, value: float, optimum: float, where: str) -> None:
    """Count a consistent item whose optimum falls short of the closed form."""
    if value < optimum - OPTIMUM_TOL:
        v.short += 1
        v.note(f"{where}: {value!r} short of the closed form {optimum!r}")


def check_curve(v: Verdict, rows, header, params) -> None:
    """quantity-vs-n rows: optimum, closure, probability, companion column
    and, when present, the reported basis."""
    _require(header, ("n", "V", "P", "C", "reservoir_C", "outcome_probability"))
    n_max = params["n_max"]
    _integer_column(rows, "n", list(range(1, n_max + 1)))
    cp = params["coupling"]
    c = Coupling.of(cp["g"], cp["T"], cp["N"])
    objective = params["objective"]
    for row in rows:
        v.items += 1
        n = int(row["n"])
        V, P, C, res_c, prob = (_number(row[k]) for k in ("V", "P", "C", "reservoir_C", "outcome_probability"))
        where = f"n={n}"
        if not all(math.isfinite(x) for x in (V, P, C, res_c, prob)):
            v.mark_wrong(f"{where}: non-finite value")
            continue
        value = {"visibility": V, "predictability": P, "concurrence": C}[objective]
        optimum = closed_form_optimum(objective, c, n)
        if _over_optimum(v, value, optimum, where):
            continue
        if abs(V * V + P * P + C * C - 1.0) > VALUE_TOL:
            v.mark_wrong(f"{where}: closure residual {V * V + P * P + C * C - 1.0:.3e}")
            continue
        if not 0.0 < prob <= 1.0:
            v.mark_wrong(f"{where}: outcome probability {prob!r} outside (0, 1]")
            continue
        if abs(res_c - math.exp(-c.k * n * c.dt / 2.0)) > FORMULA_TOL:
            v.mark_wrong(f"{where}: reservoir_C {res_c!r}")
            continue
        if "angles" in header:
            try:
                angles = [float(x) for x in row["angles"].split()]
            except ValueError:
                angles = []
            if len(angles) != 2 * n:
                v.mark_wrong(f"{where}: {len(angles)} angles for n={n}")
                continue
            rV, rP, rC, rprob = values_from_angles(c, angles)
            if max(abs(rV - V), abs(rP - P), abs(rC - C)) > VALUE_TOL or abs(rprob - prob) > VALUE_TOL * prob:
                v.mark_wrong(f"{where}: reported basis gives V,P,C,p = {rV!r},{rP!r},{rC!r},{rprob!r}")
                continue
        _count_short(v, value, optimum, where)


def check_delta_d(v: Verdict, rows, header, params) -> None:
    """delta-d rows: V at the optimum of the job's objective, and both
    information changes recomputed from that V."""
    _require(header, ("n", "V", "delta_d_total", "delta_d_pair"))
    n_max = params["n_max"]
    _integer_column(rows, "n", list(range(1, n_max + 1)))
    cp = params["coupling"]
    c = Coupling.of(cp["g"], cp["T"], cp["N"])
    objective = params["objective"]
    for row in rows:
        v.items += 1
        n = int(row["n"])
        V, total, pair = (_number(row[k]) for k in ("V", "delta_d_total", "delta_d_pair"))
        where = f"n={n}"
        if not all(math.isfinite(x) for x in (V, total, pair)):
            v.mark_wrong(f"{where}: non-finite value")
            continue
        v_star = closed_form_optimum("visibility", c, n)
        if V < -OVERSHOOT_TOL:
            v.mark_wrong(f"{where}: negative V {V!r}")
            continue
        if _over_optimum(v, V, v_star, where):
            continue
        kept = math.sqrt(max(1.0 - min(V, 1.0) ** 2, 0.0))
        if abs(total - (kept - 1.0)) > FORMULA_TOL or abs(pair - (kept - c.a ** (2 * n))) > FORMULA_TOL:
            v.mark_wrong(f"{where}: delta_d columns {total!r}, {pair!r}")
            continue
        if objective == "visibility":
            _count_short(v, V, v_star, where)


def check_table(v: Verdict, rows, header, params) -> None:
    """table rows: every (objective, preset, n) cell once, optimum reached,
    normalized state whose own V/P/C gives the reported value."""
    amp = ("c00_re", "c00_im", "c01_re", "c01_im", "c10_re", "c10_im")
    _require(header, ("objective", "preset", "n", *amp, "achieved", "outcome_probability"))
    cells = sorted((r["objective"], r["preset"], r["n"]) for r in rows)
    expected = sorted((o, p, str(n)) for o in OBJECTIVES for p in PRESETS for n in TABLE_NS)
    if cells != expected:
        raise MalformedOutput(f"table cells {cells[:3]}... differ from the 18 expected")
    for row in rows:
        v.items += 1
        objective, preset, n = row["objective"], row["preset"], int(row["n"])
        c = Coupling.of(*PRESETS[preset])
        where = f"{objective}/{preset}/n={n}"
        re00, im00, re01, im01, re10, im10 = (_number(row[k]) for k in amp)
        achieved, prob = _number(row["achieved"]), _number(row["outcome_probability"])
        if not all(math.isfinite(x) for x in (re00, im00, re01, im01, re10, im10, achieved, prob)):
            v.mark_wrong(f"{where}: non-finite value")
            continue
        c00, c01, c10 = complex(re00, im00), complex(re01, im01), complex(re10, im10)
        optimum = closed_form_optimum(objective, c, n)
        if _over_optimum(v, achieved, optimum, where):
            continue
        norm = abs(c00) ** 2 + abs(c01) ** 2 + abs(c10) ** 2
        state_value = {
            "visibility": 2.0 * abs(c00 * c10.conjugate()),
            "predictability": abs(abs(c10) ** 2 - abs(c00) ** 2 - abs(c01) ** 2),
            "concurrence": 2.0 * abs(c01 * c10),
        }[objective]
        if abs(norm - 1.0) > VALUE_TOL or abs(state_value - achieved) > VALUE_TOL:
            v.mark_wrong(f"{where}: state norm {norm!r}, state value {state_value!r}")
            continue
        if abs(c01 - c.a ** n * c10) > VALUE_TOL:
            v.mark_wrong(f"{where}: c01 != a^n c10")
            continue
        if not 0.0 < prob <= 1.0:
            v.mark_wrong(f"{where}: outcome probability {prob!r} outside (0, 1]")
            continue
        _count_short(v, achieved, optimum, where)


def check_sweep(v: Verdict, rows, header, params) -> None:
    """uniform-sweep rows, read in one pass: the (n, theta) grid, V/P/C
    against the shared-basis formulas, and NaN only where the record is
    impossible (theta = pi/2 exactly with n >= 2)."""
    _require(header, ("n", "theta", "V", "P", "C"))
    cp = params["coupling"]
    c = Coupling.of(cp["g"], cp["T"], cp["N"])
    thetas: list[float] = []  # the grid, as the n = 1 block gives it
    n, j, geometric = 1, 0, 1.0  # geometric = sum_{i<n} a^i
    for row in rows:
        row_n, theta = int(row["n"]), float(row["theta"])
        if not (n == 1 and row_n == 1):
            if not thetas:
                raise MalformedOutput(f"sweep starts at n={row_n}")
            if j == len(thetas):
                n, j = n + 1, 0
                geometric += c.a ** (n - 1)
            if row_n != n or theta != thetas[j]:
                raise MalformedOutput(f"row (n={row_n}, theta={theta!r}) out of grid order")
        else:
            thetas.append(theta)
        j += 1
        v.items += 1
        v.sweep_cells += 1
        expected, log_p = sweep_cell(c, n, theta, geometric)
        if log_p < _LOG_LOW_PROBABILITY:
            v.low_probability_cells += 1
        got = tuple(_number(row[k]) for k in ("V", "P", "C"))
        if all(math.isnan(x) for x in got):
            if not (n >= 2 and is_exact_half_pi(theta)):
                v.refused += 1
            continue
        if any(math.isnan(x) for x in got) or max(abs(g - e) for g, e in zip(got, expected)) > VALUE_TOL:
            v.mark_wrong(f"n={n} theta={theta!r}: {got} vs {expected}")
    width = len(thetas)
    if n != params["n_max"] or j != width:
        raise MalformedOutput(f"grid ends at n={n}, theta index {j}; expected n_max={params['n_max']}")
    if params["theta_steps"] is not None and width != params["theta_steps"] + 1:
        raise MalformedOutput(f"{width} thetas per n, expected {params['theta_steps'] + 1}")
    step = math.pi / (width - 1) if width > 1 else 0.0
    if any(abs(t - k * step) > 1e-12 for k, t in enumerate(thetas)):
        raise MalformedOutput("theta grid is not a uniform grid over [0, pi]")


def check_distinguishability(v: Verdict, rows, header, params) -> None:
    """Per-probe information |a^(i-1) b|^2, pair information a^(2i) and the
    budget sum_{j<=i} + a^(2i) = 1 on every row."""
    _require(header, ("i", "d_qa_qi", "d_qa_qb"))
    cp = params["coupling"]
    c = Coupling.of(cp["g"], cp["T"], cp["N"])
    _integer_column(rows, "i", list(range(1, c.N + 1)))
    spent = 0.0
    for row in rows:
        v.items += 1
        i = int(row["i"])
        d_i, d_pair = _number(row["d_qa_qi"]), _number(row["d_qa_qb"])
        spent += d_i
        if not (math.isfinite(d_i) and math.isfinite(d_pair)):
            v.mark_wrong(f"i={i}: non-finite value")
            continue
        if abs(d_i - c.a ** (2 * (i - 1)) * c.b2) > FORMULA_TOL or abs(d_pair - c.a ** (2 * i)) > FORMULA_TOL:
            v.mark_wrong(f"i={i}: information {d_i!r}, {d_pair!r}")
            continue
        if abs(spent + d_pair - 1.0) > 1e-10:
            v.mark_wrong(f"i={i}: budget off by {spent + d_pair - 1.0:.3e}")


def check_limit(v: Verdict, rows, header, params) -> None:
    """|cos^N sqrt(kT/N) - exp(-kT/2)| for each requested N."""
    _require(header, ("N", "gap"))
    _integer_column(rows, "N", params["N_list"])
    k, T = params["k"], params["T"]
    for row in rows:
        v.items += 1
        N, gap = int(row["N"]), _number(row["gap"])
        expected = abs(math.cos(math.sqrt(k * T / N)) ** N - math.exp(-k * T / 2.0))
        if not abs(gap - expected) <= FORMULA_TOL:
            v.mark_wrong(f"N={N}: gap {gap!r} vs {expected!r}")


def check_verify(v: Verdict, stdout: str, params) -> None:
    """One item per check line.  A normal job needs every check to pass with
    its statistic within the stated threshold; the ``--perturb`` control
    needs at least one failing check."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    parsed = [_CHECK_LINE.match(ln) for ln in lines]
    if not parsed or any(m is None for m in parsed):
        raise MalformedOutput(f"unparseable verify output: {stdout[:200]!r}")
    if params["perturb"]:
        v.items += len(parsed)
        if not any(m.group(2) == "FAIL" for m in parsed):
            v.wrong += len(parsed)
            v.notes.append("--perturb negative control passed every check")
        return
    for m in parsed:
        v.items += 1
        name, status, detail = m.groups()
        if status != "PASS":
            v.mark_wrong(f"{name}: {status} {detail}")
            continue
        samples = re.match(r"(\d+) samples", detail)
        if samples and int(samples.group(1)) != params["samples"]:
            v.mark_wrong(f"{name}: ran {samples.group(1)} samples, asked {params['samples']}")
            continue
        threshold = VERIFY_THRESHOLDS.get(name)
        stat = _LAST_NUMBER.search(detail)
        if threshold is not None and (stat is None or not float(stat.group(1)) <= threshold):
            v.mark_wrong(f"{name}: statistic in {detail!r} above {threshold:g}")


_RUN_CHECKS = {
    "quantity-vs-n": check_curve,
    "delta-d": check_delta_d,
    "table": check_table,
    "uniform-sweep": check_sweep,
    "distinguishability": check_distinguishability,
    "continuous-limit": check_limit,
}


def expected_items(job: Job) -> int:
    """Items a job should produce; all count as failed when its output is
    missing or malformed."""
    p = job.params
    if job.kind == "verify":
        return len(VERIFY_THRESHOLDS)
    if job.kind == "table":
        return len(OBJECTIVES) * len(PRESETS) * len(TABLE_NS)
    if job.kind == "distinguishability":
        return p["coupling"]["N"]
    if job.kind == "continuous-limit":
        return len(p["N_list"])
    if job.kind == "uniform-sweep":
        return p["n_max"] * ((p["theta_steps"] or 60) + 1)
    return p["n_max"]


def check(job: Job, exit_code: int | None, stdout: str, out_dir: Path) -> Verdict:
    """Check one finished job against its oracle."""
    v = Verdict()
    try:
        if exit_code != job.expect_exit:
            raise MalformedOutput(f"exit code {exit_code}, expected {job.expect_exit}")
        if job.kind == "verify":
            check_verify(v, stdout, job.params)
        else:
            header, rows = read_csv(_single_csv(out_dir))
            if job.kind != "uniform-sweep":
                rows = list(rows)
            _RUN_CHECKS[job.kind](v, rows, header, job.params)
    except (MalformedOutput, KeyError, TypeError, ValueError) as exc:
        v = Verdict(items=expected_items(job), error=f"{type(exc).__name__}: {exc}")
        v.wrong = v.items
    return v
