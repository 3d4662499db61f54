#!/usr/bin/env python3
"""Build the synthetic fixture datasets and their golden reports.

The public recordings behind the two worked examples are not available
offline, so the repository ships synthetic stand-ins engineered to
reproduce the same summary statistics through the full pipeline:

- mouse_ssvep.csv: 6 units, two paired conditions. Condition indices are
  exactly 1.59 (sound) and 1.69 (light), the paired T2circ test gives
  F(2, 10) = 8.32 (p ~ 0.0075), and the pairwise Mahalanobis distance is
  2.14.
- human_ssvep.csv: 100 units, seven repeated-measures contrast conditions.
  Outlier screening at D > 3 removes exactly 11 units; on the remaining 89
  the repeated-measures ANOVA2circ gives F(12, 1056) = 38.9 and the
  baseline contrasts reach T2circ = 0.004 / 0.03 / 0.32 / 0.28 / 0.10 /
  0.40 at conditions 2/4/8/16/32/64, the last four significant under
  Bonferroni alpha/6.

Everything is seeded and exact: group geometry is constructed by whitening
and Gram-Schmidt so the target statistics hold to float precision, not by
stochastic search. Run from the repository root:

    python scripts/make_fixtures.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from phasorstats import (  # noqa: E402
    ComponentRow,
    Design,
    build_dataset,
    ci_test,
    exclude_outliers,
    pairwise_mahalanobis,
    read_components_csv,
    t2circ_paired,
)
from phasorstats.cli import main as cli_main  # noqa: E402
from phasorstats.inference import anova2circ_repeated  # noqa: E402
from phasorstats.ingest import write_components_csv  # noqa: E402

MOUSE_TARGETS = {"ci_sound": 1.59, "ci_light": 1.69, "f": 8.32, "d": 2.14}
HUMAN_T2CIRC = {"2": 0.004, "4": 0.03, "8": 0.32, "16": 0.28, "32": 0.10,
                "64": 0.40}
HUMAN_F = 38.9
HUMAN_CONDITIONS = ("0", "2", "4", "8", "16", "32", "64")


def rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def whiten(points: np.ndarray) -> np.ndarray:
    """Center and transform so the sample covariance (ddof=1) is exactly I."""
    x = points - points.mean(axis=0)
    L = np.linalg.cholesky(np.cov(x.T))
    return x @ np.linalg.inv(L).T


# ---------------------------------------------------------------------------
# Mouse fixture
# ---------------------------------------------------------------------------

def build_mouse(seed: int) -> list[ComponentRow]:
    rng = np.random.default_rng(seed)
    n = 6
    z = whiten(rng.standard_normal((n, 2)))
    w_raw = rng.standard_normal((n, 2))
    basis, _ = np.linalg.qr(np.column_stack([np.ones(n), z]))
    w = whiten(w_raw - basis @ (basis.T @ w_raw))
    assert np.allclose(z.T @ w, 0.0, atol=1e-9)

    a, b = 1.0, 1.1
    ci_s, ci_l = MOUSE_TARGETS["ci_sound"], MOUSE_TARGETS["ci_light"]
    A_s = a * rot(0.4) @ np.diag([ci_s, 1.0])
    A_l = b * rot(1.1) @ np.diag([ci_l, 1.0])
    sound_dev = z @ A_s.T
    light_dev = w @ A_l.T

    # paired T2circ: the residual power of the differences is fixed by the
    # construction, so the mean separation sets F exactly
    q_resid = a * a * (ci_s**2 + 1.0) + b * b * (ci_l**2 + 1.0)
    t2c_target = MOUSE_TARGETS["f"] / n
    delta_norm = math.sqrt(t2c_target * q_resid)

    pooled = (A_s @ A_s.T + A_l @ A_l.T) / 2.0
    lam, vec = np.linalg.eigh(pooled)
    d2_target = MOUSE_TARGETS["d"] ** 2
    lo, hi = delta_norm**2 / lam[1], delta_norm**2 / lam[0]
    assert lo < d2_target < hi, (lo, d2_target, hi)

    def gap(psi: float) -> float:
        return (
            delta_norm**2
            * (math.cos(psi) ** 2 / lam[1] + math.sin(psi) ** 2 / lam[0])
            - d2_target
        )

    psi = brentq(gap, 0.0, math.pi / 2.0, xtol=1e-15)
    delta = delta_norm * (math.cos(psi) * vec[:, 1] + math.sin(psi) * vec[:, 0])

    # equal condition amplitudes: means sit on the perpendicular bisector
    amplitude = 3.5
    perp = np.array([-delta[1], delta[0]]) / delta_norm
    offset = math.sqrt(amplitude**2 - delta_norm**2 / 4.0)
    mu_sound = -delta / 2.0 + offset * perp
    mu_light = mu_sound + delta

    sound = mu_sound + sound_dev
    light = mu_light + light_dev
    rows = []
    for i in range(n):
        unit = f"m{i + 1}"
        rows.append(ComponentRow(unit, "sound", *sound[i].tolist()))
        rows.append(ComponentRow(unit, "light", *light[i].tolist()))
    return rows


def verify_mouse(path: Path) -> dict:
    dataset = build_dataset(read_components_csv(path), Design.PAIRED)
    screened, report = exclude_outliers(dataset)
    assert report.excluded_units == (), report.excluded_units
    sound, light = screened.samples
    res_ci_s = ci_test(sound)
    res_ci_l = ci_test(light)
    res = t2circ_paired(sound, light)
    d = pairwise_mahalanobis(sound, light)
    assert abs(res_ci_s.statistic - 1.59) < 1e-9
    assert abs(res_ci_l.statistic - 1.69) < 1e-9
    assert abs(res_ci_s.p_value - 0.66) < 0.005
    assert abs(res_ci_l.p_value - 0.59) < 0.005
    assert abs(res.f_value - 8.32) < 1e-9
    assert abs(res.statistic - 1.39) < 0.01
    assert abs(res.p_value - 0.007) < 0.001
    assert abs(d - 2.14) < 1e-9
    return {
        "ci": (res_ci_s.statistic, res_ci_l.statistic),
        "ci_p": (res_ci_s.p_value, res_ci_l.p_value),
        "t2circ": res.statistic,
        "f": res.f_value,
        "p": res.p_value,
        "d": d,
    }


# ---------------------------------------------------------------------------
# Human fixture
# ---------------------------------------------------------------------------

def _real_inner(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.real(np.vdot(u, v)))


def _orthonormal_noise(rng: np.random.Generator, count: int, n: int,
                       norm_sq: float) -> list[np.ndarray]:
    """Centered complex vectors, mutually orthogonal under the real inner
    product, each with squared norm `norm_sq`."""
    out: list[np.ndarray] = []
    while len(out) < count:
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # soften tails so no single subject dominates a condition
        mod = np.abs(raw)
        raw = raw * np.minimum(1.0, 3.2 / np.maximum(mod, 1e-12))
        v = raw - raw.mean()
        for p in out:
            v = v - p * (_real_inner(v, p) / norm_sq)
        v = v - v.mean()
        norm = _real_inner(v, v)
        if norm < 1e-6:
            continue
        out.append(v * math.sqrt(norm_sq / norm))
    return out


def build_human(seed: int) -> list[ComponentRow]:
    rng = np.random.default_rng(seed)
    n_kept, n_out = 89, 11
    conditions = HUMAN_CONDITIONS
    stim = conditions[1:]

    etas = dict(zip(conditions,
                    _orthonormal_noise(rng, len(conditions), n_kept,
                                       float(n_kept - 1))))

    # mean geometry: phases drift slowly with contrast
    theta = {c: 0.9 + 0.05 * i for i, c in enumerate(stim)}
    u = {c: math.sqrt(HUMAN_T2CIRC[c]) * np.exp(1j * theta[c]) for c in stim}
    u["0"] = 0j
    u_mean = sum(u.values()) / len(conditions)
    v0 = sum(abs(u[c] - u_mean) ** 2 for c in conditions)

    # solve the noise split so the repeated-measures F lands exactly
    rho = HUMAN_F / ((n_kept * 14.0 / 12.0) * v0)
    assert 1.0 / 6.0 < rho < 1.0, rho
    beta = (1.0 - rho) / (6.0 * rho - 1.0)
    gamma0 = 1.2
    gamma_s = gamma0 * math.sqrt(beta)
    mean_scale = gamma0 * math.sqrt(1.0 + beta)

    mu = {"0": 0.35 * np.exp(1j * 0.7)}
    for c in stim:
        mu[c] = mu["0"] + mean_scale * u[c]

    noise = {"0": gamma0 * etas["0"]}
    for c in stim:
        noise[c] = gamma_s * etas[c]

    # subject effects, shared across conditions; modulus capped so no kept
    # subject can cross the screening threshold
    s_raw = 0.8 * (rng.standard_normal(n_kept) + 1j * rng.standard_normal(n_kept))
    cap = 2.1
    subj = s_raw * np.minimum(1.0, cap / np.maximum(np.abs(s_raw), 1e-12))

    kept = {c: mu[c] + subj + noise[c] for c in conditions}

    # outlier units: ordinary draws plus one wild observation each
    out_assign = [conditions[i % len(conditions)] for i in range(n_out)]
    out_subj = 0.8 * (rng.standard_normal(n_out) + 1j * rng.standard_normal(n_out))
    out_subj *= np.minimum(1.0, cap / np.maximum(np.abs(out_subj), 1e-12))
    out_values = {c: [] for c in conditions}
    for i, c_out in enumerate(out_assign):
        for c in conditions:
            base = mu[c] + out_subj[i]
            wobble = 0.35 * (rng.standard_normal() + 1j * rng.standard_normal())
            if c == c_out:
                sd = math.sqrt(
                    float(np.mean(np.abs(kept[c] - kept[c].mean()) ** 2)) / 2.0
                )
                phi = rng.uniform(0.0, 2.0 * math.pi)
                disp = rng.uniform(6.0, 7.5) * sd
                value = kept[c].mean() + disp * np.exp(1j * phi)
            else:
                value = base + wobble
            out_values[c].append(value)

    labels = [f"s{i + 1:03d}" for i in range(n_kept + n_out)]
    out_positions = sorted(rng.choice(n_kept + n_out, size=n_out, replace=False))
    kept_positions = [i for i in range(n_kept + n_out) if i not in out_positions]

    rows = []
    kept_cursor = {c: 0 for c in conditions}
    out_cursor = {c: 0 for c in conditions}
    for pos, unit in enumerate(labels):
        is_outlier = pos in out_positions
        for c in conditions:
            if is_outlier:
                value = out_values[c][out_cursor[c]]
            else:
                value = kept[c][kept_cursor[c]]
            rows.append(ComponentRow(unit, c, float(value.real), float(value.imag)))
        if is_outlier:
            for c in conditions:
                out_cursor[c] += 1
        else:
            for c in conditions:
                kept_cursor[c] += 1
    expected_excluded = {labels[i] for i in out_positions}
    return rows, expected_excluded


def verify_human(path: Path, expected_excluded: set[str]) -> dict:
    dataset = build_dataset(read_components_csv(path), Design.ONEWAY_REPEATED)
    screened, report = exclude_outliers(dataset)
    assert set(report.excluded_units) == expected_excluded, (
        sorted(set(report.excluded_units) ^ expected_excluded)
    )
    assert all(s.n == 89 for s in screened.samples)

    ci_ps = {}
    for s in screened.samples:
        res = ci_test(s)
        ci_ps[s.condition_label] = res.p_value
        assert res.p_value > 0.23, (s.condition_label, res.p_value)

    rm = anova2circ_repeated(list(screened.samples))
    assert rm.df == (12, 1056)
    assert abs(rm.f_value - HUMAN_F) < 0.05, rm.f_value

    by_label = {s.condition_label: s for s in screened.samples}
    posthoc = {}
    for c, target in HUMAN_T2CIRC.items():
        res = t2circ_paired(by_label["0"], by_label[c])
        posthoc[c] = res
        assert abs(res.statistic - target) < 1e-6, (c, res.statistic)
        significant = res.p_value < 0.05 / 6.0
        assert significant == (c in ("8", "16", "32", "64")), (c, res.p_value)
    return {
        "excluded": sorted(expected_excluded),
        "ci_p": ci_ps,
        "f": rm.f_value,
        "posthoc": {c: r.statistic for c, r in posthoc.items()},
    }


def find_seed(builder, verifier, start: int, tries: int = 200):
    last_error = None
    for seed in range(start, start + tries):
        built = builder(seed)
        rows, extra = (built, None) if not isinstance(built, tuple) else built
        tmp = FIXTURES / "_candidate.csv"
        tmp.write_text(write_components_csv(rows))
        try:
            info = verifier(tmp) if extra is None else verifier(tmp, extra)
        except AssertionError as exc:
            last_error = (seed, exc)
            tmp.unlink()
            continue
        tmp.unlink()
        return seed, rows, info
    raise SystemExit(f"no working seed found; last failure: {last_error}")


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)

    seed, rows, info = find_seed(build_mouse, verify_mouse, start=100)
    mouse_path = FIXTURES / "mouse_ssvep.csv"
    mouse_path.write_text(write_components_csv(rows))
    print(f"mouse fixture: seed {seed}")
    print(f"  CI = {info['ci'][0]:.4f} / {info['ci'][1]:.4f} "
          f"(p = {info['ci_p'][0]:.3f} / {info['ci_p'][1]:.3f})")
    print(f"  T2circ = {info['t2circ']:.4f}, F(2,10) = {info['f']:.4f}, "
          f"p = {info['p']:.5f}, D = {info['d']:.4f}")

    seed, rows, info = find_seed(build_human, verify_human, start=500)
    human_path = FIXTURES / "human_ssvep.csv"
    human_path.write_text(write_components_csv(rows))
    print(f"human fixture: seed {seed}")
    print(f"  excluded units: {', '.join(info['excluded'])}")
    print(f"  min CI p = {min(info['ci_p'].values()):.3f}")
    print(f"  RM F(12,1056) = {info['f']:.4f}")
    print("  posthoc T2circ: "
          + ", ".join(f"{c}%={v:.4f}" for c, v in info["posthoc"].items()))

    # golden reports through the real CLI
    rc = cli_main([
        "analyze", str(mouse_path), "--design", "paired", "--format", "json",
        "--seed", "0", "--out", str(FIXTURES / "mouse_report.json"),
    ])
    assert rc == 0, rc
    rc = cli_main([
        "analyze", str(human_path), "--design", "oneway-rm", "--baseline",
        "0", "--format", "json", "--seed", "0",
        "--out", str(FIXTURES / "human_report.json"),
    ])
    assert rc == 0, rc
    report = json.loads((FIXTURES / "human_report.json").read_text())
    assert report["flowchart_leaf"] == "anova2circ_repeated"
    print("golden reports written")


if __name__ == "__main__":
    main()
