"""Synthetic claims portfolio generator.

Draws correlated continuous features and integer-valued categorical
features, then builds a compound Poisson-gamma response: a Poisson claim
count with log-linked rate and gamma claim sizes with a log-linked rate
parameter, both driven by separate coefficient vectors. Optional white
noise perturbs positive totals.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Column, Dataset, require_int, require_real, require_seed, write_csv

log = logging.getLogger(__name__)

CATEGORY_LEVELS = (-3.0, -2.0, 1.0, 4.0)
RATE_CAP = 1e12
# Rows of categorical levels gen_features writes per np.take call.
TAKE_BLOCK = 4096


def default_beta_poisson() -> np.ndarray:
    """Claim-count coefficients: intercept then strong/weak/null blocks."""
    return np.array(
        [-0.1] + [0.5] * 10 + [0.1] * 10 + [0.0] * 10 + [-0.5] * 10 + [0.1] * 10 + [0.0] * 10
    )


def default_beta_gamma() -> np.ndarray:
    """Claim-size coefficients: intercept then strong/weak/null blocks."""
    return np.array(
        [6.0] + [0.5] * 10 + [-0.1] * 10 + [0.0] * 10 + [0.5] * 10 + [-0.1] * 10 + [0.0] * 10
    )


@dataclass(frozen=True)
class SimConfig:
    """Portfolio generator settings.

    ``noise_sd`` of None applies the default of 5% of the standard
    deviation of the positive totals; 0 disables noise. Coefficient
    vectors carry the intercept first and must have length
    1 + p_continuous + p_categorical.
    """

    n: int = 10_000
    p_continuous: int = 30
    p_categorical: int = 30
    rho: float = 0.5
    beta_poisson: np.ndarray = field(default_factory=default_beta_poisson)
    beta_gamma: np.ndarray = field(default_factory=default_beta_gamma)
    power: float = 1.5
    phi: float = 2.0
    noise_sd: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "beta_poisson", np.asarray(self.beta_poisson, dtype=float))
        object.__setattr__(self, "beta_gamma", np.asarray(self.beta_gamma, dtype=float))
        require_int(
            n=self.n, p_continuous=self.p_continuous, p_categorical=self.p_categorical, seed=self.seed
        )
        require_real(rho=self.rho, power=self.power, phi=self.phi)
        if self.noise_sd is not None:
            require_real(noise_sd=self.noise_sd)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        require_seed(self.seed)
        for name in ("p_continuous", "p_categorical"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 1.0 < self.power < 2.0:
            raise ValueError("power must lie strictly between 1 and 2")
        if self.phi <= 0:
            raise ValueError("phi must be > 0")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        want = 1 + self.p_continuous + self.p_categorical
        for label, beta in (("beta_poisson", self.beta_poisson), ("beta_gamma", self.beta_gamma)):
            if beta.shape != (want,):
                raise ValueError(f"{label} must have length {want} (intercept first)")
        if self.noise_sd is not None and self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")

    @property
    def feature_names(self) -> list[str]:
        return [f"x{j + 1}" for j in range(self.p_continuous)] + [
            f"z{j + 1}" for j in range(self.p_categorical)
        ]

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "beta_poisson": [float(v) for v in self.beta_poisson],
            "beta_gamma": [float(v) for v in self.beta_gamma],
        }


@dataclass
class SimulatedPortfolio:
    dataset: Dataset
    lam: np.ndarray
    n_claims: np.ndarray
    gamma_shape: float
    gamma_rate: np.ndarray
    config: SimConfig


def _ar1_cholesky(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    cov = rho ** np.abs(idx[:, None] - idx[None, :])
    return np.linalg.cholesky(cov)


def gen_features(config: SimConfig, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """Feature matrix: correlated normals then iid integer categoricals.

    Continuous columns have covariance rho^|i-j| (sampled through the
    Cholesky factor); categorical columns are uniform on {-3, -2, 1, 4}.
    The draws fill ``out``, an ``(n, p_continuous + p_categorical)`` float64
    array (a column block of a wider table may be given), or a new array,
    which is returned.
    """
    n, pc, pk = config.n, config.p_continuous, config.p_categorical
    if out is None:
        out = np.empty((n, pc + pk))
    chol = _ar1_cholesky(pc, config.rho)
    # one product over all rows: a row block of one row takes another BLAS
    # path and can change the last bit
    np.matmul(rng.standard_normal((n, pc)), chol.T, out=out[:, :pc])
    # the draws rng.choice(levels, size) makes, in the same order
    codes = rng.integers(0, len(CATEGORY_LEVELS), size=(n, pk))
    levels = np.array(CATEGORY_LEVELS)
    # np.take buffers a strided ``out`` whole, so it fills row blocks
    for start in range(0, n, TAKE_BLOCK):
        rows = slice(start, start + TAKE_BLOCK)
        np.take(levels, codes[rows], out=out[rows, pc:])
    return out


def _log_link_rate(x, beta: np.ndarray, exponent: float, scale: float, label: str):
    """exp(x beta)^exponent / scale, capped at 1e12 with a logged warning.

    One feature row gives a float, a matrix gives a vector.
    """
    single = np.asarray(x).ndim == 1
    eta = beta[0] + np.atleast_2d(np.asarray(x, dtype=float)) @ beta[1:]
    with np.errstate(over="ignore", divide="ignore"):
        rate = np.exp(eta) ** exponent / scale
    if np.any(rate > RATE_CAP) or not np.all(np.isfinite(rate)):
        log.warning("%s rate overflow, capping at 1e12", label)
        rate = np.minimum(np.nan_to_num(rate, posinf=RATE_CAP), RATE_CAP)
    return float(rate[0]) if single else rate


def lambda_of(x: np.ndarray, config: SimConfig):
    """Poisson claim rate: exp(x beta)^(2-power) / (phi (2-power)).

    Accepts one feature row (returns a float) or a matrix (returns a
    vector). Rates are capped at 1e12 with a warning.
    """
    exponent = 2.0 - config.power
    return _log_link_rate(x, config.beta_poisson, exponent, config.phi * exponent, "claim")


def gamma_params_of(x: np.ndarray, config: SimConfig):
    """Gamma severity parameters (shape, per-row rate).

    Shape is (2-power)/(power-1); the rate is
    exp(x beta)^(1-power) / (phi (power-1)), so larger linear predictors
    mean larger claims.
    """
    shape = (2.0 - config.power) / (config.power - 1.0)
    return shape, _log_link_rate(
        x, config.beta_gamma, 1.0 - config.power, config.phi * (config.power - 1.0), "severity"
    )


def simulate(config: SimConfig) -> SimulatedPortfolio:
    """Generate one portfolio: features, latent rates and the claim total.

    Per row, the claim count is Poisson with the log-linked rate and the
    total is the sum of that many gamma severities (drawn as a single
    gamma with count-scaled shape). Positive totals get white noise of
    scale ``noise_sd`` and are floored at 0; rows floored to 0 count as
    zero claims downstream.
    """
    rng = np.random.default_rng(config.seed)
    # the Dataset's table: the features are drawn into it, the response set last
    values = np.empty((config.n, config.p_continuous + config.p_categorical + 1))
    X = gen_features(config, rng, out=values[:, :-1])
    lam = lambda_of(X, config)
    shape, rate = gamma_params_of(X, config)
    counts = rng.poisson(lam)
    total = np.zeros(config.n)
    pos = counts > 0
    if pos.any():
        total[pos] = rng.gamma(shape * counts[pos], 1.0 / rate[pos])
    noise_sd = config.noise_sd
    if noise_sd is None:
        noise_sd = 0.05 * (total[pos].std() if pos.sum() > 1 else 0.0)
    if noise_sd > 0 and pos.any():
        total[pos] = np.maximum(total[pos] + rng.normal(0.0, noise_sd, int(pos.sum())), 0.0)

    columns = tuple(
        [Column(name, "continuous") for name in config.feature_names]
        + [Column("claim", "response")]
    )
    values[:, -1] = total
    values.setflags(write=False)  # handed to the Dataset, which keeps it
    ds = Dataset(columns, values)
    return SimulatedPortfolio(
        dataset=ds,
        lam=lam,
        n_claims=counts,
        gamma_shape=shape,
        gamma_rate=rate,
        config=config,
    )


def save_latents_csv(portfolio: SimulatedPortfolio, path) -> None:
    """Sidecar diagnostics: per-row rate, count and severity parameters."""
    n = portfolio.config.n
    write_csv(path, ["row", "lambda", "n_claims", "gamma_shape", "gamma_rate"],
              [np.arange(n), portfolio.lam, portfolio.n_claims, np.full(n, float(portfolio.gamma_shape)),
               portfolio.gamma_rate])
