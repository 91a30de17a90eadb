"""Portfolio simulator: link formulas, feature law, compound response."""

import logging
import warnings

import numpy as np
import pytest

from claimtree.data import save_csv
from claimtree.simulate import (
    CATEGORY_LEVELS,
    SimConfig,
    default_beta_gamma,
    default_beta_poisson,
    gamma_params_of,
    gen_features,
    lambda_of,
    simulate,
)


def tiny_config(beta_p, beta_g, **kw):
    """One continuous feature, no categoricals; coefficient vectors length 2."""
    return SimConfig(
        n=kw.pop("n", 100),
        p_continuous=1,
        p_categorical=0,
        beta_poisson=np.asarray(beta_p, dtype=float),
        beta_gamma=np.asarray(beta_g, dtype=float),
        noise_sd=kw.pop("noise_sd", 0.0),
        **kw,
    )


class TestConfig:
    def test_default_beta_vectors(self):
        bp = default_beta_poisson()
        bg = default_beta_gamma()
        assert bp.shape == (61,) and bg.shape == (61,)
        assert bp[0] == -0.1 and bg[0] == 6.0
        np.testing.assert_array_equal(bp[1:11], 0.5)
        np.testing.assert_array_equal(bp[31:41], -0.5)
        np.testing.assert_array_equal(bg[11:21], -0.1)
        np.testing.assert_array_equal(bg[21:31], 0.0)

    def test_power_must_be_strictly_between_1_and_2(self):
        with pytest.raises(ValueError, match="power"):
            tiny_config([0, 0], [0, 0], power=2.5)
        with pytest.raises(ValueError, match="power"):
            tiny_config([0, 0], [0, 0], power=1.0)

    def test_beta_length_checked(self):
        with pytest.raises(ValueError, match="beta_poisson"):
            SimConfig(p_continuous=2, p_categorical=0, beta_poisson=np.zeros(2),
                      beta_gamma=np.zeros(3))

    def test_dict_round_trip(self):
        cfg = SimConfig(n=50, seed=9, noise_sd=0.5)
        again = SimConfig(**cfg.to_dict())
        assert again.n == 50 and again.seed == 9 and again.noise_sd == 0.5
        np.testing.assert_array_equal(again.beta_poisson, cfg.beta_poisson)


class TestLinkFormulas:
    def test_lambda_at_zero_predictor_is_one(self):
        cfg = tiny_config([0.0, 0.0], [0.0, 0.0])
        assert lambda_of(np.array([0.0]), cfg) == pytest.approx(1.0)

    def test_lambda_at_predictor_two_is_e(self):
        cfg = tiny_config([2.0, 0.0], [0.0, 0.0])
        assert lambda_of(np.array([0.0]), cfg) == pytest.approx(np.e)

    def test_lambda_monotone_in_predictor(self):
        cfg = tiny_config([0.0, 1.0], [0.0, 0.0])
        xs = np.linspace(-3, 3, 50)[:, None]
        lam = lambda_of(xs, cfg)
        assert (np.diff(lam) > 0).all()

    def test_gamma_shape_is_one_at_default_power(self):
        cfg = tiny_config([0.0, 0.0], [0.0, 0.0])
        shape, rate = gamma_params_of(np.array([0.0]), cfg)
        assert shape == pytest.approx(1.0)
        assert rate == pytest.approx(1.0)

    def test_severity_mean_increases_with_predictor(self):
        cfg = tiny_config([0.0, 0.0], [0.0, 1.0])
        shape, rate = gamma_params_of(np.linspace(-2, 2, 20)[:, None], cfg)
        means = shape / rate
        assert (np.diff(means) > 0).all()

    def test_overflow_capped_with_warning(self, caplog):
        cfg = tiny_config([2000.0, 0.0], [0.0, 0.0])
        with caplog.at_level(logging.WARNING, logger="claimtree.simulate"):
            lam = lambda_of(np.array([0.0]), cfg)
        assert [(rec.name, rec.levelno, rec.getMessage()) for rec in caplog.records] == [
            ("claimtree.simulate", logging.WARNING, "claim rate overflow, capping at 1e12")
        ]
        assert lam == 1e12

    def test_severity_overflow_capped_with_one_warning(self, caplog):
        # exp(eta) underflows to 0 and 0 ** (1 - power) is inf: only the cap
        # warns, through the logger, and numpy raises no warning of its own
        cfg = tiny_config([0.0, 0.0], [-2000.0, 0.0])
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="claimtree.simulate"):
            warnings.simplefilter("error")
            shape, rate = gamma_params_of(np.array([0.0]), cfg)
        assert [rec.getMessage() for rec in caplog.records] == ["severity rate overflow, capping at 1e12"]
        assert rate == 1e12


class TestFeatureLaw:
    def test_adjacent_correlation_near_rho(self):
        cfg = SimConfig(n=10_000, seed=123)
        X = gen_features(cfg, np.random.default_rng(cfg.seed))
        for j in (0, 7, 20):
            r = np.corrcoef(X[:, j], X[:, j + 1])[0, 1]
            assert abs(r - 0.5) < 0.03

    def test_distant_columns_nearly_uncorrelated(self):
        cfg = SimConfig(n=10_000, seed=7)
        X = gen_features(cfg, np.random.default_rng(cfg.seed))
        r = np.corrcoef(X[:, 0], X[:, 29])[0, 1]
        assert abs(r) < 0.05

    def test_categorical_values_and_mean(self):
        cfg = SimConfig(n=10_000, seed=5)
        X = gen_features(cfg, np.random.default_rng(cfg.seed))
        cats = X[:, 30:]
        assert set(np.unique(cats)) <= {-3.0, -2.0, 1.0, 4.0}
        np.testing.assert_allclose(cats.mean(axis=0), 0.0, atol=0.1)

    def test_empirical_covariance_converges(self):
        """Frobenius distance to the target covariance shrinks with n."""
        target = 0.5 ** np.abs(np.subtract.outer(np.arange(30), np.arange(30)))
        errs = []
        for n in (1_000, 10_000):
            dists = []
            for seed in (0, 1, 2):
                X = gen_features(SimConfig(n=n, seed=seed), np.random.default_rng(seed))
                emp = np.cov(X[:, :30], rowvar=False)
                dists.append(np.linalg.norm(emp - target))
            errs.append(np.mean(dists))
        assert errs[1] < errs[0]


class TestSimulate:
    def test_intercept_only_zero_fraction(self):
        """With all slopes zero the claim rate is exp(-0.05) for every row,
        so the zero share is exp(-exp(-0.05)) ~ 0.386."""
        beta_p = np.zeros(61)
        beta_p[0] = -0.1
        cfg = SimConfig(n=10_000, beta_poisson=beta_p, beta_gamma=np.zeros(61),
                        noise_sd=0.0, seed=31)
        port = simulate(cfg)
        zero_share = (port.dataset.response == 0).mean()
        assert abs(zero_share - np.exp(-np.exp(-0.05))) < 0.02

    def test_zero_iff_no_claims_without_noise(self):
        cfg = SimConfig(n=4_000, noise_sd=0.0, seed=2)
        port = simulate(cfg)
        y = port.dataset.response
        np.testing.assert_array_equal(y == 0.0, port.n_claims == 0)

    def test_noise_only_touches_positives(self):
        cfg = SimConfig(n=4_000, noise_sd=None, seed=2)  # default 5% of sd
        port = simulate(cfg)
        y = port.dataset.response
        assert (y[port.n_claims == 0] == 0.0).all()
        assert (y >= 0.0).all()

    def test_seed_reproducible_to_the_byte(self, tmp_path):
        a = simulate(SimConfig(n=500, seed=11))
        b = simulate(SimConfig(n=500, seed=11))
        np.testing.assert_array_equal(a.dataset.values, b.dataset.values)
        fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(a.dataset, fa)
        save_csv(b.dataset, fb)
        assert fa.read_bytes() == fb.read_bytes()

    def test_compound_mean_identity(self):
        """E[Y] = lambda * shape / rate when the rates are constant."""
        cfg = tiny_config([0.4, 0.0], [1.0, 0.0], n=20_000, seed=4)
        port = simulate(cfg)
        want = np.exp(0.2) * 1.0 / np.exp(-0.5)
        assert port.dataset.response.mean() == pytest.approx(want, abs=0.08)

    def test_schema_emits_numeric_columns_only(self):
        port = simulate(SimConfig(n=50, seed=1))
        kinds = {c.kind for c in port.dataset.columns}
        assert kinds == {"continuous", "response"}
        assert port.dataset.p == 60


def stacked_simulate(config: SimConfig):
    """The simulator as first written, kept frozen: features drawn with
    ``rng.choice``, blocks joined by ``hstack`` and the response appended by
    ``column_stack``. Returns the table, the latents and the generator."""
    rng = np.random.default_rng(config.seed)
    idx = np.arange(config.p_continuous)
    chol = np.linalg.cholesky(config.rho ** np.abs(idx[:, None] - idx[None, :]))
    cont = rng.standard_normal((config.n, config.p_continuous)) @ chol.T
    cat = rng.choice(np.array(CATEGORY_LEVELS), size=(config.n, config.p_categorical))
    X = np.hstack([cont, cat])
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
    return np.column_stack([X, total]), lam, counts, rate, rng


def narrow_config(n, p_continuous, p_categorical):
    width = 1 + p_continuous + p_categorical
    return SimConfig(n=n, p_continuous=p_continuous, p_categorical=p_categorical, seed=n,
                     beta_poisson=np.r_[-0.1, np.linspace(-0.5, 0.5, width - 1)],
                     beta_gamma=np.r_[6.0, np.linspace(0.5, -0.1, width - 1)])


class TestOneTable:
    """simulate draws into the Dataset's own table and gives, bit for bit,
    the values and generator state of the stacked formulation."""

    @pytest.mark.parametrize("config", [
        # row blocks of gen_features: one, two near-equal, and uneven splits
        *(pytest.param(SimConfig(n=n, seed=7), id=f"n={n}")
          for n in (1, 7, 4097, 2 * 4096 - 1, 8193, 3 * 4096 + 1, 20_000, 40_000)),
        pytest.param(narrow_config(300, 0, 4), id="no continuous"),
        pytest.param(narrow_config(300, 4, 0), id="no categorical"),
    ])
    def test_matches_the_stacked_formulation(self, config, monkeypatch):
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
        port = simulate(config)
        values, lam, counts, rate, rng = stacked_simulate(config)
        assert port.dataset.values.tobytes() == values.tobytes()
        assert port.lam.tobytes() == np.asarray(lam).tobytes()
        np.testing.assert_array_equal(port.n_claims, counts)
        assert port.gamma_rate.tobytes() == np.asarray(rate).tobytes()
        assert made[0].random() == rng.random()

    def test_gen_features_fills_out_as_it_allocates(self):
        cfg = SimConfig(n=5000, seed=3)
        table = np.full((cfg.n, 62), -1.0)
        filled = gen_features(cfg, np.random.default_rng(3), out=table[:, 1:-1])
        assert filled.base is table
        np.testing.assert_array_equal(filled, gen_features(cfg, np.random.default_rng(3)))
        assert (table[:, 0] == -1.0).all() and (table[:, -1] == -1.0).all()
