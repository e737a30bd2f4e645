"""Correctness checks computed apart from the program under test.

Nothing here imports driftbias. The portfolio reference recomputes every
report field from the generated CSV files with vectorized numpy: per-year
log-price totals and ddof-1 variances, the CAPM rate, the gate, the
truncated-normal mean written out through erfcx, the smoothing recurrence
and the grid fit of alpha (ties go to the smallest alpha). The surface
reference evaluates the same closed form over the whole grid, and a
seeded sample of cells is checked again against mpmath at 40 digits.

Every check returns a list of problems; an empty list means the output
passed. Reports print 10 significant digits, so values are compared with
a relative tolerance of 2e-9 (printing alone can be off by 5e-10) and an
absolute floor of 1e-13 for values that are differences of larger ones.
"""

from __future__ import annotations

import math
import pathlib

import numpy as np
from scipy import special

RTOL = 2e-9
ATOL = 1e-13
SURFACE_ATOL = 1e-15  # the program's bias is (nu + term) - nu: one ulp of nu
MILLS_GUARD = 37.0
FIT_GRID = np.array([round(0.05 * i, 2) for i in range(1, 20)])
REPORT_HEADER = "stock_id,nu_hat,nu_tilde,sa,esa,sd_tilde,sd_sa,sd_esa"
SURFACE_HEADER = "mu,C,expectation,bias,flag"
STRICT_TERM = 1e-6  # rows must rise strictly where the Mills term is at least this

_SQRT_2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _hazard(d: np.ndarray) -> np.ndarray:
    """phi(d) / (1 - Phi(d)) through the scaled complementary error function."""
    return _SQRT_2_OVER_PI / special.erfcx(d / _SQRT_2)


def _close(program: np.ndarray, reference: np.ndarray, atol: float = ATOL) -> np.ndarray:
    return np.abs(program - reference) <= RTOL * np.abs(reference) + atol


def read_config(path: pathlib.Path) -> dict[str, str]:
    values = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


# ---------------------------------------------------------------------------
# portfolios


def portfolio_reference(prices: pathlib.Path, capm: pathlib.Path, config: pathlib.Path) -> dict:
    """Every report field, per stock in id order, from the input files."""
    settings = read_config(config)
    step = 1.0 / int(settings.get("h_per_year", "252"))
    fit = settings.get("fit_alpha", "false").lower() in ("true", "1", "yes")
    alpha = float(settings.get("alpha", "0.2"))

    rows = np.loadtxt(
        prices, delimiter=",", skiprows=1, dtype=[("id", "S16"), ("date", "S10"), ("close", "f8")]
    )
    ids = rows["id"]
    years = rows["date"].astype("S4").astype(np.int64)
    new = (ids[1:] != ids[:-1]) | (years[1:] != years[:-1])
    starts = np.concatenate(([0], np.flatnonzero(new) + 1))
    ends = np.concatenate((starts[1:], [ids.size]))

    log_price = np.log(rows["close"])
    total = log_price[ends - 1] - log_price[starts]
    n = ends - starts - 1
    nu = total / (n * step)
    within = np.delete(np.diff(log_price), ends[:-1] - 1)
    offsets = np.concatenate(([0], np.cumsum(n)[:-1]))
    mean = np.add.reduceat(within, offsets) / n
    deviation = within - np.repeat(mean, n)
    sigma2 = np.add.reduceat(deviation * deviation, offsets) / (n - 1) / step

    table = np.loadtxt(
        capm, delimiter=",", skiprows=1,
        dtype=[("id", "S16"), ("year", "i8"), ("beta", "f8"), ("rf", "f8"), ("mkt", "f8")],
    )
    if not (np.array_equal(table["id"], ids[starts]) and np.array_equal(table["year"], years[starts])):
        raise ValueError("the CAPM rows do not line up with the stock-years of the price file")
    benchmark = table["rf"] + table["beta"] * (table["mkt"] - table["rf"])

    stock_ids = ids[starts][np.concatenate(([True], ids[starts][1:] != ids[starts][:-1]))]
    periods = starts.size // stock_ids.size
    if periods * stock_ids.size != starts.size:
        raise ValueError("stocks must all cover the same number of years")
    shape = (stock_ids.size, periods)
    nu, sigma2, total, benchmark = (a.reshape(shape) for a in (nu, sigma2, total, benchmark))

    # Gate of each sample year, feeding the next record (and, for the last
    # sample year, the holdout forecast). T = 1 year.
    sample_nu, sample_sigma = nu[:, :-1], np.sqrt(sigma2[:, :-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (benchmark[:, :-1] - sample_nu) / sample_sigma
        forecast = sample_nu + sample_sigma * _hazard(d)
    opens = (total[:, :-1] > benchmark[:, :-1]) & (sample_sigma > 0) & (d <= MILLS_GUARD)
    nu_tilde = np.where(opens, forecast, 0.0)
    invested = np.zeros_like(opens)
    invested[:, 1:] = opens[:, :-1]
    bias = np.where(invested, np.concatenate((np.zeros((shape[0], 1)), nu_tilde[:, :-1]), axis=1) - sample_nu, 0.0)
    raw_next = nu_tilde[:, -1]
    holdout = nu[:, -1]

    if fit:
        sse = _smoothing_sse(bias, FIT_GRID)
        alphas = FIT_GRID[np.argmin(sse, axis=1)]  # first minimum: smallest alpha
    else:
        alphas = np.full(shape[0], alpha)
    smoothed = _smoothed_next(bias, alphas)

    simple_next = raw_next - bias[:, -1]
    es_next = raw_next - smoothed
    fields = np.column_stack((
        holdout, raw_next, simple_next, es_next,
        (raw_next - holdout) ** 2, (simple_next - holdout) ** 2, (es_next - holdout) ** 2,
    ))
    return {
        "ids": [item.decode() for item in stock_ids],
        "fields": fields,
        "totals": fields[:, 4:].sum(axis=0),
    }


def _smoothing_sse(y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """One-step squared error of the recurrence for every (stock, alpha)."""
    a = grid[None, :]
    forecast = np.repeat(y[:, :1], grid.size, axis=1)
    sse = np.zeros_like(forecast)
    for k in range(y.shape[1]):
        error = y[:, k:k + 1] - forecast
        sse += error * error
        forecast = a * y[:, k:k + 1] + (1.0 - a) * forecast
    return sse


def _smoothed_next(y: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    forecast = y[:, 0].copy()
    for k in range(y.shape[1]):
        forecast = alphas * y[:, k] + (1.0 - alphas) * forecast
    return forecast


def parse_report(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(ids, per-stock fields, TOTAL row) of a pipeline report."""
    lines = text.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError("the report does not start with the expected header")
    if not lines[-1].startswith("TOTAL,,,,,"):
        raise ValueError("the report does not end with a TOTAL row")
    ids, fields = [], []
    for line in lines[1:-1]:
        cells = line.split(",")
        ids.append(cells[0])
        fields.append([float(cell) for cell in cells[1:]])
    totals = np.array([float(cell) for cell in lines[-1].split(",")[5:]])
    return ids, np.array(fields).reshape(len(ids), 7), totals


def check_report_totals(fields: np.ndarray, totals: np.ndarray) -> list[str]:
    problems = []
    if not (np.all(np.isfinite(fields)) and np.all(np.isfinite(totals))):
        problems.append("the report holds a non-finite value")
    if totals.size != 3 or not np.all(_close(totals, fields[:, 4:].sum(axis=0))):
        problems.append("the TOTAL row is not the sum of the stock rows")
    return problems


def check_portfolio(text: str, reference: dict) -> list[str]:
    try:
        ids, fields, totals = parse_report(text)
    except ValueError as exc:
        return [str(exc)]
    problems = check_report_totals(fields, totals)
    if ids != reference["ids"]:
        return problems + ["the report's stocks differ from the input's"]
    bad = ~_close(fields, reference["fields"])
    if bad.any():
        row, column = np.argwhere(bad)[0]
        problems.append(
            f"{bad.sum()} report values differ from the reference; first: stock {ids[row]}, "
            f"column {REPORT_HEADER.split(',')[column + 1]}: {float(fields[row, column])!r} vs "
            f"{float(reference['fields'][row, column])!r}"
        )
    if not np.all(_close(totals, reference["totals"])):
        problems.append(f"TOTAL {totals.tolist()} differs from the reference {reference['totals'].tolist()}")
    return problems


def check_fixture_report(text: str) -> list[str]:
    """The shipped fixture plants sd_esa < sd_sa < sd_tilde for every stock."""
    try:
        _, fields, totals = parse_report(text)
    except ValueError as exc:
        return [str(exc)]
    problems = check_report_totals(fields, totals)
    if fields.shape[0] != 10:
        problems.append(f"expected 10 fixture stocks, got {fields.shape[0]}")
    elif not np.all((fields[:, 6] < fields[:, 5]) & (fields[:, 5] < fields[:, 4])):
        problems.append("sd_esa < sd_sa < sd_tilde does not hold for every fixture stock")
    return problems


# ---------------------------------------------------------------------------
# bias surface


def surface_grids(meta: dict) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.linspace(meta["mu_min"], meta["mu_max"], meta["steps"]),
        np.linspace(meta["c_min"], meta["c_max"], meta["steps"]),
    )


def surface_reference(meta: dict, above: bool) -> dict:
    mu, c = surface_grids(meta)
    sigma, horizon = meta["sigma"], meta["T"]
    nu = (mu - 0.5 * sigma * sigma)[:, None]
    d = (c[None, :] - nu * horizon) / (sigma * math.sqrt(horizon))
    scale = sigma / math.sqrt(horizon)
    with np.errstate(over="ignore"):
        term = scale * _hazard(d) if above else -scale * _hazard(-d)
    degenerate = d > MILLS_GUARD if above else d < -MILLS_GUARD
    return {
        "mu": np.repeat(mu, c.size),
        "C": np.tile(c, mu.size),
        "d": d.ravel(),
        "degenerate": degenerate.ravel(),
        "bias": np.where(degenerate, np.nan, term).ravel(),
        "expectation": np.where(degenerate, np.nan, nu + term + 0.5 * sigma * sigma).ravel(),
    }


def parse_surface(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != SURFACE_HEADER:
        raise ValueError("the surface CSV does not start with the expected header")
    return np.loadtxt(
        lines[1:], delimiter=",", ndmin=1,
        dtype=[("mu", "f8"), ("C", "f8"), ("expectation", "f8"), ("bias", "f8"), ("flag", "U10")],
    )


def check_surface(text: str, meta: dict, above: bool, mp_samples: int = 200) -> list[str]:
    side = "ABOVE" if above else "AT_OR_BELOW"
    try:
        cells = parse_surface(text)
    except ValueError as exc:
        return [f"{side}: {exc}"]
    ref = surface_reference(meta, above)
    if cells.size != ref["mu"].size:
        return [f"{side}: expected {ref['mu'].size} cells, got {cells.size}"]
    problems = []
    if not (np.all(_close(cells["mu"], ref["mu"])) and np.all(_close(cells["C"], ref["C"]))):
        problems.append(f"{side}: the grid coordinates differ from the requested grid")

    flagged = cells["flag"] == "degenerate"
    if not np.all(flagged | (cells["flag"] == "ok")):
        problems.append(f"{side}: a flag is neither ok nor degenerate")
    clear = np.abs(np.abs(ref["d"]) - MILLS_GUARD) > 1e-9  # no cell sits on the guard
    if np.any((flagged != ref["degenerate"]) & clear):
        problems.append(f"{side}: the degenerate cells are not exactly those with |d| > 37 on the conditioned side")
    if not np.all(np.isnan(cells["expectation"][flagged]) & np.isnan(cells["bias"][flagged])):
        problems.append(f"{side}: a degenerate cell carries a value")

    ok = ~flagged & ~ref["degenerate"]
    expectation, bias = cells["expectation"][ok], cells["bias"][ok]
    if not (np.all(np.isfinite(expectation)) and np.all(np.isfinite(bias))):
        problems.append(f"{side}: an ok cell holds a non-finite value")
    bad = ~(_close(expectation, ref["expectation"][ok], SURFACE_ATOL) & _close(bias, ref["bias"][ok], SURFACE_ATOL))
    if bad.any():
        first = np.flatnonzero(ok)[np.argmax(bad)]
        problems.append(
            f"{side}: {bad.sum()} cells differ from the closed form; first: mu={float(cells['mu'][first])!r} "
            f"C={float(cells['C'][first])!r}: {float(cells['expectation'][first])!r} vs "
            f"{float(ref['expectation'][first])!r}"
        )
    problems += _surface_properties(cells, ref, ok, above, side, meta["steps"])
    problems += _mpmath_sample(cells, ref, ok, meta, above, side, mp_samples)
    return problems


def _surface_properties(cells, ref, ok, above: bool, side: str, steps: int) -> list[str]:
    problems = []
    mu, expectation = cells["mu"], cells["expectation"]
    if above and np.any(expectation[ok] < mu[ok] - RTOL * np.abs(mu[ok])):
        problems.append(f"{side}: an expectation lies below mu")
    if not above and np.any(expectation[ok] > mu[ok] + RTOL * np.abs(mu[ok])):
        problems.append(f"{side}: an expectation lies above mu")
    wrong_sign = cells["bias"][ok] < 0 if above else cells["bias"][ok] > 0
    if np.any(wrong_sign):
        problems.append(f"{side}: a bias has the wrong sign")
    # Along each row the expectation never falls, and rises strictly where
    # the Mills term is large enough to show in 10 printed digits. Far on
    # the vacuous side the term drops below one ulp of mu and the row is
    # flat in double precision, as it must be.
    grid_ok = ok.reshape(-1, steps)
    e = np.where(grid_ok, expectation.reshape(-1, steps), np.nan)
    term = np.abs(ref["bias"]).reshape(-1, steps)
    pair = grid_ok[:, 1:] & grid_ok[:, :-1]
    rise = e[:, 1:] - e[:, :-1]
    if np.any(pair & (rise < 0)):
        problems.append(f"{side}: a row falls as C grows")
    resolved = pair & (np.fmin(term[:, 1:], term[:, :-1]) >= STRICT_TERM)
    if not resolved.any() or np.any(resolved & (rise <= 0)):
        problems.append(f"{side}: a row does not rise strictly in C where the Mills term is resolved")
    return problems


def _mpmath_sample(cells, ref, ok, meta: dict, above: bool, side: str, count: int) -> list[str]:
    import mpmath

    mpmath.mp.dps = 40
    candidates = np.flatnonzero(ok)
    rng = np.random.default_rng([meta["seed"], 1 if above else 2])
    sigma, horizon = mpmath.mpf(meta["sigma"]), mpmath.mpf(meta["T"])
    worst = 0.0
    for index in rng.choice(candidates, size=min(count, candidates.size), replace=False):
        mu = mpmath.mpf(float(ref["mu"][index]))
        nu = mu - sigma * sigma / 2
        d = (mpmath.mpf(float(ref["C"][index])) - nu * horizon) / (sigma * mpmath.sqrt(horizon))
        scale = sigma / mpmath.sqrt(horizon)
        if above:
            value = nu + scale * mpmath.npdf(d) / mpmath.ncdf(-d)
        else:
            value = nu - scale * mpmath.npdf(d) / mpmath.ncdf(d)
        exact = float(value + sigma * sigma / 2)
        error = abs(float(cells["expectation"][index]) - exact)
        worst = max(worst, error / (RTOL * abs(exact) + SURFACE_ATOL))
    return [f"{side}: a sampled cell is off the 40-digit truncated-normal mean"] if worst > 1.0 else []


def nudged(text: str, column: int, factor: float = 1.0 + 1e-6) -> str:
    """The CSV with the first finite non-zero value of ``column`` scaled by ``factor``."""
    lines = text.splitlines()
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        value = float(cells[column])
        if math.isfinite(value) and value != 0.0:
            cells[column] = repr(value * factor)
            lines[row] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise ValueError("no value to nudge")
