"""Replication studies: configs, aggregation, rate tables, emitted files."""

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrisk import (
    ConfigError,
    ConvergenceConfig,
    DepthModel,
    DomainError,
    ExperimentConfig,
    FrankGumbelConfig,
    GaussianConfig,
    GumbelMarginal,
    IoError,
    NonPositiveStatistic,
    RngStream,
    Sample,
    attach_costs,
    build_spd,
    ccte_under_model,
    config_from_json,
    config_to_json,
    convergence_config_from_json,
    emit_tables,
    LevelSetSpec,
    fit_model,
    mix64,
    radial_sym_diff_volume,
    rate_slope,
    rate_table,
    run_convergence,
    run_replications,
    sample_gaussian,
    sym_diff_volume,
)
from depthrisk.ccte import BATCH_ROWS
from depthrisk.experiments import (
    _TAG_CONV_MC,
    _TAG_CONV_SAMPLE,
    _TAG_REPLICATE,
    RATES_HEADER,
    SUMMARY_HEADER,
    cell_estimates,
    pool_size,
    rates_csv_text,
    summary_csv_text,
)
from depthrisk.sampling import law_from_json

EYE2 = ((1.0, 0.0), (0.0, 1.0))


def gaussian_cfg(**overrides):
    base = dict(
        data_cfg=GaussianConfig(mu=(0.0, 0.0), sigma=EYE2),
        n_values=(8,),
        alpha_values=(0.5,),
        replications=2,
        truth_n_mc=100_000,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def frank_cfg(**overrides):
    base = dict(
        data_cfg=FrankGumbelConfig(
            theta=5.0,
            marg1=GumbelMarginal(0.0, 0.25),
            marg2=GumbelMarginal(-0.5, 0.25),
        ),
        n_values=(64,),
        alpha_values=(0.5,),
        replications=3,
        truth_n_mc=100_000,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def gaussian_law(**overrides):
    return GaussianConfig(**dict(dict(mu=(0.0, 0.0), sigma=EYE2), **overrides))


def frank_law(**overrides):
    base = dict(theta=5.0, marg1=GumbelMarginal(0.0, 0.25), marg2=GumbelMarginal(-0.5, 0.25))
    return FrankGumbelConfig(**dict(base, **overrides))


def convergence_cfg(**overrides):
    base = dict(model=DepthModel(np.zeros(2), build_spd(EYE2)), n_values=(16,), seeds=1)
    return ConvergenceConfig(**dict(base, **overrides))


class TestConvergenceVolume:
    """The symmetric-difference rule of each convergence seed: the radial
    quadrature where it applies, else Monte Carlo on the seed's own stream."""

    @staticmethod
    def specs(cfg, n, seed):
        rng = RngStream(cfg.master_seed, mix64(_TAG_CONV_SAMPLE, n, seed))
        fitted = fit_model(sample_gaussian(n, cfg.model, rng))
        return LevelSetSpec(fitted, cfg.alpha), LevelSetSpec(cfg.model, cfg.alpha)

    def monte_carlo(self, cfg, n, seed):
        stream = RngStream(cfg.master_seed, mix64(_TAG_CONV_MC, n, seed))
        return sym_diff_volume(*self.specs(cfg, n, seed), cfg.symdiff_n_mc, stream)[0]

    def test_quadrature_in_two_dimensions(self):
        cfg = convergence_cfg(n_values=(16, 64), seeds=2, boundary_m=64, symdiff_n_mc=1000)
        got = run_convergence(cfg)["symdiff"]
        for k, n in enumerate(cfg.n_values):
            for seed in range(cfg.seeds):
                assert got[k, seed] == radial_sym_diff_volume(*self.specs(cfg, n, seed))

    def test_monte_carlo_in_three_dimensions(self):
        model = DepthModel(np.zeros(3), build_spd(np.eye(3)))
        cfg = convergence_cfg(model=model, boundary_m=64, symdiff_n_mc=1000)
        assert run_convergence(cfg)["symdiff"][0, 0] == self.monte_carlo(cfg, 16, 0)

    def test_monte_carlo_when_the_true_center_is_outside_the_fit(self):
        # at alpha = 0.99 the fitted ellipse has Mahalanobis radius 0.1,
        # smaller than the fitted mean's offset at n = 16
        cfg = convergence_cfg(alpha=0.99, boundary_m=64, symdiff_n_mc=1000)
        assert radial_sym_diff_volume(*self.specs(cfg, 16, 0)) is None
        assert run_convergence(cfg)["symdiff"][0, 0] == self.monte_carlo(cfg, 16, 0)


@pytest.fixture(scope="module")
def gaussian_sweep():
    """Twenty independent studies of the closed-form Gaussian case.

    Shared by the convergence-shape tests below; building it dominates this
    module's runtime, so it runs once.
    """
    reports = []
    for seed in range(1, 21):
        cfg = ExperimentConfig(
            data_cfg=GaussianConfig(mu=(0.0, 0.0), sigma=EYE2),
            n_values=(250, 1000, 4000, 16000),
            alpha_values=(0.1, 0.5),
            replications=100,
            delta_values=(-0.01, 0.0, 0.05),
            truth_n_mc=100_000,
            master_seed=seed,
        )
        reports.append(run_replications(cfg))
    return reports


def pooled_rmae(reports, n, alpha):
    return float(np.mean([r.cell(n, alpha).rmae for r in reports]))


class TestGaussianConfig:
    def test_bad_sigma_reported(self):
        with pytest.raises(ConfigError) as exc:
            GaussianConfig(mu=(0.0, 0.0), sigma=((1.0, 2.0), (2.0, 1.0)))
        assert "sigma" in str(exc.value)

    def test_all_problems_in_one_message(self):
        with pytest.raises(ConfigError) as exc:
            GaussianConfig(mu=(), sigma=EYE2, noise_var=-1.0)
        msg = str(exc.value)
        assert "mu" in msg
        assert "noise_var" in msg

    def test_model_round_trip(self):
        cfg = GaussianConfig(mu=(1.0, 2.0), sigma=((2.0, 0.5), (0.5, 1.0)))
        model = cfg.exact_model
        assert np.array_equal(model.mu, [1.0, 2.0])
        back = GaussianConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_from_json_missing_keys(self):
        with pytest.raises(ConfigError) as exc:
            GaussianConfig.from_json({"kind": "gaussian"})
        msg = str(exc.value)
        assert "mu: missing" in msg
        assert "sigma: missing" in msg


class TestExperimentConfig:
    def test_valid(self):
        cfg = gaussian_cfg()
        assert cfg.delta_values == ()

    def test_all_violations_in_one_message(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(
                data_cfg=GaussianConfig(mu=(0.0, 0.0), sigma=EYE2),
                n_values=(),
                alpha_values=(1.5,),
                replications=1,
                truth_n_mc=10,
                master_seed=-3,
            )
        msg = str(exc.value)
        for name in ("n_values", "alpha_values", "replications", "truth_n_mc", "master_seed"):
            assert name in msg

    def test_fractional_n_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_cfg(n_values=(10.5,))

    @pytest.mark.parametrize("field, value", [
        ("replications", 2.5),
        ("replications", 3.0),
        ("truth_n_mc", 1e6),
        ("n_values", (8.0,)),
        ("n_values", (True, 8)),
        ("master_seed", True),
        ("master_seed", 1.0),
    ])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field}: must be"):
            gaussian_cfg(**{field: value})


# every numeric field of the four config classes, given a string, and every
# float field given a bool: (config maker, field, value, field name in the
# problem)
STRING_FIELDS = [
    (gaussian_law, "mu", ("0", 0.0), "mu"),
    (gaussian_law, "sigma", (("1", 0.0), (0.0, 1.0)), "sigma"),
    (gaussian_law, "noise_var", "0.1", "noise_var"),
    (frank_law, "theta", "5", "theta"),
    (frank_law, "marg1", GumbelMarginal("0", 0.25), "marginals[0].mu"),
    (frank_law, "marg2", GumbelMarginal(-0.5, "0.25"), "marginals[1].beta"),
    (frank_law, "noise_var", "0.1", "noise_var"),
    (gaussian_cfg, "n_values", ("8",), "n_values"),
    (gaussian_cfg, "alpha_values", ("0.5",), "alpha_values"),
    (gaussian_cfg, "replications", "2", "replications"),
    (gaussian_cfg, "delta_values", ("x",), "delta_values"),
    (gaussian_cfg, "truth_n_mc", "100000", "truth_n_mc"),
    (gaussian_cfg, "master_seed", "7", "master_seed"),
    (convergence_cfg, "n_values", ("16",), "n_values"),
    (convergence_cfg, "seeds", "1", "seeds"),
    (convergence_cfg, "alpha", "0.5", "alpha"),
    (convergence_cfg, "boundary_m", "4096", "boundary_m"),
    (convergence_cfg, "symdiff_n_mc", "100000", "symdiff_n_mc"),
    (convergence_cfg, "master_seed", "0", "master_seed"),
    (gaussian_law, "mu", (True, 0.0), "mu"),
    (gaussian_law, "sigma", ((1.0, 0.0), (0.0, True)), "sigma"),
    (gaussian_law, "noise_var", True, "noise_var"),
    (frank_law, "theta", True, "theta"),
    (frank_law, "marg1", GumbelMarginal(True, 0.25), "marginals[0].mu"),
    (frank_law, "marg2", GumbelMarginal(-0.5, True), "marginals[1].beta"),
    (frank_law, "noise_var", True, "noise_var"),
    (gaussian_cfg, "delta_values", (0.0, True), "delta_values"),
]


def holds_bool(value) -> bool:
    if isinstance(value, GumbelMarginal):
        value = (value.mu, value.beta)
    if isinstance(value, tuple):
        return any(map(holds_bool, value))
    return isinstance(value, bool)


class TestStringFields:
    @pytest.mark.parametrize(
        "make, field, value, name", STRING_FIELDS,
        ids=[f"{make.__name__}-{name}" + ("-bool" if holds_bool(value) else "")
             for make, _, value, name in STRING_FIELDS],
    )
    def test_config_error_names_field(self, make, field, value, name):
        # a bool reads as the JSON readers report it
        problem = f"{name}: wrong type" if holds_bool(value) else f"{name}: "
        with pytest.raises(ConfigError, match=re.escape(problem)):
            make(**{field: value})

    def test_wrong_type_wording(self):
        with pytest.raises(ConfigError, match="^noise_var: wrong type$"):
            gaussian_law(noise_var="0.1")
        with pytest.raises(ConfigError, match="^delta_values: wrong type$"):
            gaussian_cfg(delta_values=("x",))


finite = st.floats(-1e6, 1e6)


@st.composite
def laws(draw):
    """A Gaussian law in d = 1 to 3 (an SPD sigma from a drawn seed) or a
    Frank-Gumbel law."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        r = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(d, d))
        spd = r @ r.T + 0.1 * np.eye(d)
        return GaussianConfig(
            mu=tuple(draw(st.lists(finite, min_size=d, max_size=d))),
            sigma=tuple(map(tuple, (0.5 * (spd + spd.T)).tolist())),
            noise_var=draw(st.floats(0.0, 10.0)),
        )
    margs = [GumbelMarginal(draw(finite), draw(st.floats(1e-3, 1e3))) for _ in range(2)]
    return FrankGumbelConfig(
        theta=draw(st.floats(-50.0, 50.0).filter(lambda t: t != 0.0)),
        marg1=margs[0],
        marg2=margs[1],
        noise_var=draw(st.floats(0.0, 10.0)),
    )


@st.composite
def experiment_configs(draw):
    return ExperimentConfig(
        data_cfg=draw(laws()),
        n_values=tuple(draw(st.lists(st.integers(2, 10**6), min_size=1, max_size=4))),
        alpha_values=tuple(
            draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=4))
        ),
        replications=draw(st.integers(2, 10**4)),
        delta_values=tuple(draw(st.lists(finite, max_size=3))),
        truth_n_mc=draw(st.integers(100_000, 10**8)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )


def through_text(obj):
    return json.loads(json.dumps(obj))


class TestConfigJson:
    @given(cfg=experiment_configs())
    @settings(max_examples=30, deadline=None)
    def test_config_round_trip_property(self, cfg):
        assert config_from_json(through_text(config_to_json(cfg))) == cfg

    @given(law=laws())
    @settings(max_examples=30, deadline=None)
    def test_law_round_trip_property(self, law):
        assert law_from_json(through_text(law.to_json())) == law

    def test_gaussian_round_trip(self):
        cfg = gaussian_cfg(delta_values=(0.0, 0.05), master_seed=3)
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_frank_round_trip(self):
        cfg = frank_cfg(delta_values=(-0.01,))
        obj = config_to_json(cfg)
        assert obj["data"]["kind"] == "frank_gumbel"
        assert config_from_json(obj) == cfg

    def test_missing_fields_all_named(self):
        with pytest.raises(ConfigError) as exc:
            config_from_json({"data": {"kind": "gaussian", "mu": [0.0], "sigma": [[1.0]]}})
        msg = str(exc.value)
        for name in ("n_values", "alpha_values", "replications"):
            assert f"{name}: missing" in msg

    def test_optional_defaults(self):
        cfg = config_from_json(
            {
                "data": {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
                "n_values": [8],
                "alpha_values": [0.5],
                "replications": 2,
            }
        )
        assert cfg.delta_values == ()
        assert cfg.truth_n_mc == 1_000_000
        assert cfg.master_seed == 0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as exc:
            config_from_json({"data": {"kind": "cauchy"}, "n_values": [8],
                              "alpha_values": [0.5], "replications": 2})
        assert "data.kind" in str(exc.value)

    def test_nested_errors_prefixed(self):
        with pytest.raises(ConfigError) as exc:
            config_from_json({"data": {"kind": "frank_gumbel", "marginals": [
                {"mu": 0.0, "beta": 0.25}, {"mu": -0.5, "beta": 0.25}],
                "noise_var": 0.005},
                "n_values": [8], "alpha_values": [0.5], "replications": 2})
        assert "data.theta: missing" in str(exc.value)

    @pytest.mark.parametrize("name, cfg, edit", [
        ("data.noise_var", gaussian_cfg, lambda d: d.update(noise_var="x")),
        ("data.theta", frank_cfg, lambda d: d.update(theta="abc")),
        ("data.marginals[0].mu", frank_cfg, lambda d: d["marginals"][0].update(mu="abc")),
        ("data.marginals[1].beta", frank_cfg, lambda d: d["marginals"][1].update(beta="x")),
    ], ids=["noise_var", "theta", "marginal_mu", "marginal_beta"])
    def test_non_numeric_data_field_named(self, name, cfg, edit):
        obj = config_to_json(cfg())
        edit(obj["data"])
        with pytest.raises(ConfigError, match=re.escape(f"{name}: wrong type")):
            config_from_json(obj)

    def test_unknown_keys_all_named(self):
        obj = config_to_json(frank_cfg())
        obj["truth_nmc"] = 100_000
        obj["data"]["noise_vr"] = 0.5
        obj["data"]["marginals"][0] = {"mu": 0.0, "bta": 0.25}
        with pytest.raises(ConfigError) as exc:
            config_from_json(obj)
        msg = str(exc.value)
        for problem in ("truth_nmc: unknown key", "data.noise_vr: unknown key",
                        "data.marginals[0].bta: unknown key",
                        "data.marginals[0].beta: missing"):
            assert problem in msg

    @pytest.mark.parametrize("cfg", [gaussian_cfg, frank_cfg], ids=["gaussian", "frank"])
    def test_data_seed_points_to_master_seed(self, cfg):
        obj = config_to_json(cfg())
        obj["data"]["seed"] = 3
        with pytest.raises(ConfigError, match=r"data\.seed: unknown key .*master_seed"):
            config_from_json(obj)

    def test_unknown_convergence_key(self):
        obj = {"model": {"mu": [0.0], "sigma": [[1.0]]}, "n_values": [16], "seeds": 1,
               "boundary_n": 128}
        with pytest.raises(ConfigError, match="boundary_n: unknown key"):
            convergence_config_from_json(obj)

    def test_non_finite_model_mu(self):
        obj = {"model": {"mu": [float("nan"), 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
               "n_values": [16], "seeds": 1}
        with pytest.raises(ConfigError, match=r"^model: mu must be finite"):
            convergence_config_from_json(obj)

    def test_unknown_model_key(self):
        obj = {"model": {"mu": [0.0], "sigma": [[1.0]], "mean": [5.0]},
               "n_values": [16], "seeds": 1}
        with pytest.raises(ConfigError, match=r"^model\.mean: unknown key$"):
            convergence_config_from_json(obj)

    def test_wrong_type_reported(self):
        with pytest.raises(ConfigError) as exc:
            config_from_json({"data": {"kind": "gaussian", "mu": [0.0, 0.0],
                              "sigma": [[1.0, 0.0], [0.0, 1.0]]},
                              "n_values": "many", "alpha_values": [0.5],
                              "replications": 2})
        assert "n_values: wrong type" in str(exc.value)


class TestStrictIntegers:
    BASE = {
        "data": {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
        "n_values": [8],
        "alpha_values": [0.5],
        "replications": 2,
        "truth_n_mc": 100_000,
        "master_seed": 3,
    }

    @pytest.mark.parametrize("key", ["n_values", "replications", "truth_n_mc", "master_seed"])
    @pytest.mark.parametrize("bad", [250.7, 2.9, 1.5, True, float("inf"), "5"])
    def test_non_integers_rejected(self, key, bad):
        obj = dict(self.BASE, **{key: [bad] if key == "n_values" else bad})
        with pytest.raises(ConfigError) as exc:
            config_from_json(obj)
        assert f"{key}: wrong type" in str(exc.value)

    def test_integral_floats_accepted_exactly(self):
        cfg = config_from_json(
            dict(self.BASE, n_values=[250.0], replications=2.0, truth_n_mc=1e6, master_seed=5.0)
        )
        assert cfg.n_values == (250,) and type(cfg.n_values[0]) is int
        assert cfg.replications == 2 and type(cfg.replications) is int
        assert cfg.truth_n_mc == 1_000_000 and type(cfg.truth_n_mc) is int
        assert cfg.master_seed == 5 and type(cfg.master_seed) is int


class TestStrictFloats:
    CONVERGENCE = {
        "model": {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
        "n_values": [16],
        "seeds": 1,
        "alpha": 0.5,
    }

    @pytest.mark.parametrize("name, cfg, edit", [
        ("alpha_values", gaussian_cfg, lambda o: o.update(alpha_values=["0.5"])),
        ("delta_values", gaussian_cfg, lambda o: o.update(delta_values=[0.0, True])),
        ("data.mu", gaussian_cfg, lambda o: o["data"].update(mu=["0", True])),
        ("data.sigma", gaussian_cfg, lambda o: o["data"].update(sigma=[["1", 0], [0, 1]])),
        ("data.noise_var", gaussian_cfg, lambda o: o["data"].update(noise_var="0.01")),
        ("data.noise_var", frank_cfg, lambda o: o["data"].update(noise_var=False)),
        ("data.noise_var", gaussian_cfg, lambda o: o["data"].update(noise_var=10**400)),
        ("data.theta", frank_cfg, lambda o: o["data"].update(theta=True)),
        ("data.marginals[1].mu", frank_cfg, lambda o: o["data"]["marginals"][1].update(mu="0")),
    ], ids=["alpha_values", "delta_values", "mu", "sigma", "noise_var_str", "noise_var_bool",
            "noise_var_huge_int", "theta_bool", "marginal_mu_str"])
    def test_strings_and_bools_rejected(self, name, cfg, edit):
        obj = config_to_json(cfg())
        edit(obj)
        with pytest.raises(ConfigError, match=re.escape(f"{name}: wrong type")):
            config_from_json(obj)

    def test_ints_read_as_floats(self):
        obj = config_to_json(gaussian_cfg())
        obj["delta_values"] = [0, 1]
        obj["data"].update(mu=[0, 1], sigma=[[2, 0], [0, 1]], noise_var=0)
        cfg = config_from_json(obj)
        assert cfg.delta_values == (0.0, 1.0) and type(cfg.delta_values[0]) is float
        assert cfg.data_cfg.mu == (0.0, 1.0) and type(cfg.data_cfg.noise_var) is float

    @pytest.mark.parametrize("name, edit", [
        ("alpha: wrong type", lambda o: o.update(alpha="0.5")),
        ("alpha: wrong type", lambda o: o.update(alpha=True)),
        ("model.mu: wrong type",
         lambda o: o.update(model={"mu": ["0", True], "sigma": [[1, 0], [0, 1]]})),
    ], ids=["alpha_str", "alpha_bool", "model_mu"])
    def test_convergence_fields(self, name, edit):
        obj = json.loads(json.dumps(self.CONVERGENCE))
        edit(obj)
        with pytest.raises(ConfigError, match=re.escape(name)):
            convergence_config_from_json(obj)


class TestDeltaValuesFinite:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_json_literal_rejected(self, literal):
        obj = config_to_json(gaussian_cfg())
        obj["delta_values"] = json.loads(f"[0.0, {literal}]")
        with pytest.raises(ConfigError, match="delta_values: must be finite"):
            config_from_json(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_direct_construction_rejected(self, bad):
        with pytest.raises(ConfigError, match="delta_values: must be finite"):
            gaussian_cfg(delta_values=(0.0, bad))


class TestGaussianConfigFinite:
    @pytest.mark.parametrize("noise_var", [float("nan"), float("inf")])
    def test_noise_var(self, noise_var):
        with pytest.raises(ConfigError, match="noise_var"):
            GaussianConfig(mu=(0.0, 0.0), sigma=EYE2, noise_var=noise_var)

    def test_mu(self):
        with pytest.raises(ConfigError, match="mu"):
            GaussianConfig(mu=(0.0, float("nan")), sigma=EYE2)

    def test_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            GaussianConfig(mu=(0.0, 0.0), sigma=((1.0, 0.0), (0.0, float("inf"))))


def v0_replicate(law, n, alpha, stream):
    """One replicate the unbatched way: fit_model, in_lower_set, ratio."""
    pts = law.draw(2 * n, stream)
    level = Sample(pts[:n])
    cost = attach_costs(Sample(pts[n:]), law.noise_var, stream)
    return ccte_under_model(fit_model(level), cost, alpha, n1=n)


class TestBatchedCell:
    @pytest.mark.parametrize(
        "kind, n, alpha, r",
        [
            ("gaussian", 16, 0.05, 40),  # mostly zero-hit replicates
            ("gaussian", 64, 0.5, 20),
            ("frank", 16, 0.05, 40),
            ("frank", 100, 0.1, 30),
            ("frank", 5000, 0.5, 30),  # more than one block
        ],
    )
    def test_matches_per_replicate_path(self, kind, n, alpha, r):
        law = (gaussian_cfg() if kind == "gaussian" else frank_cfg()).data_cfg
        if n == 5000:
            assert r * 2 * n > BATCH_ROWS
        streams = lambda: [RngStream(99, mix64(n, j)) for j in range(r)]
        values, hits = cell_estimates(law, n, [alpha], streams())
        assert values.shape == hits.shape == (1, r)
        expect = [v0_replicate(law, n, alpha, s) for s in streams()]
        assert list(hits[0]) == [e.hits for e in expect]
        assert [h == 0 for h in hits[0]] == [e.degenerate for e in expect]
        assert list(values[0]) == [e.value for e in expect]
        if alpha == 0.05:
            assert any(e.degenerate for e in expect)

    @pytest.mark.parametrize(
        "kind, n, r",
        [
            ("gaussian", 16, 40),  # mostly zero-hit replicates at 0.05
            ("gaussian", 64, 20),
            ("frank", 16, 40),
            ("frank", 5000, 30),  # more than one block
        ],
    )
    def test_level_sequence_matches_one_level_calls(self, kind, n, r):
        law = (gaussian_cfg() if kind == "gaussian" else frank_cfg()).data_cfg
        if n == 5000:
            assert r * 2 * n > BATCH_ROWS
        levels = (0.05, 0.5, 0.9)
        streams = lambda: [RngStream(98, mix64(n, j)) for j in range(r)]
        values, hits = cell_estimates(law, n, levels, streams())
        assert values.shape == hits.shape == (len(levels), r)
        for i, alpha in enumerate(levels):
            one_values, one_hits = cell_estimates(law, n, [alpha], streams())
            assert np.array_equal(values[i], one_values[0])
            assert np.array_equal(hits[i], one_hits[0])
        if n == 16:
            assert np.any(hits[0] == 0)

    def test_study_cells_use_replicate_streams(self):
        cfg = frank_cfg(n_values=(16, 32), alpha_values=(0.1, 0.5), replications=4)
        report = run_replications(cfg)
        for n in cfg.n_values:
            streams = [RngStream(cfg.master_seed, mix64(_TAG_REPLICATE, n, j))
                       for j in range(cfg.replications)]
            values, hits = cell_estimates(cfg.data_cfg, n, cfg.alpha_values, streams)
            for i, alpha in enumerate(cfg.alpha_values):
                cell = report.cell(n, alpha)
                assert np.array_equal(cell.estimates, values[i])
                assert cell.degenerate_count == int(np.sum(hits[i] == 0))


class ShiftedGaussian:
    """N((1, -1), I) known to the study only through the law interface."""

    noise_var = 0.005
    exact_model = None

    def draw(self, n, rng):
        return np.array([1.0, -1.0]) + rng.normals(2 * n).reshape(n, 2)

    def to_json(self):
        return {"kind": "shifted_gaussian"}


class TestLawInterface:
    def test_duck_typed_law_runs_the_study(self, tmp_path):
        study = dict(n_values=(16, 64), alpha_values=(0.1, 0.5), replications=4,
                     delta_values=(0.0,), truth_n_mc=100_000, master_seed=5)
        report = run_replications(ExperimentConfig(data_cfg=ShiftedGaussian(), **study))
        paths = emit_tables(report, None, tmp_path)
        assert len(paths["summary"].read_text().splitlines()) == 1 + 4
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["config"]["data"] == {"kind": "shifted_gaussian"}
        # the same draws as the closed-form law: equal replicates, and a truth
        # from estimated moments close to the exact-model truth
        closed = run_replications(ExperimentConfig(
            data_cfg=GaussianConfig(mu=(1.0, -1.0), sigma=EYE2), **study))
        for cell, exact in zip(report.cells, closed.cells):
            assert np.array_equal(cell.estimates, exact.estimates)
            assert cell.truth == pytest.approx(exact.truth, abs=4.0 * exact.truth_se)


class TestPool:
    def test_cap_uses_core_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert pool_size(10_000, 10) == 2
        assert pool_size(10_000, 1) == 1
        assert pool_size(1, 10) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_size(4, 10) == 1

    def test_cap_rejects_nonpositive(self):
        for threads in (0, -1):
            with pytest.raises(DomainError):
                pool_size(threads, 3)

    def test_study_builds_one_capped_pool(self, monkeypatch):
        import depthrisk.experiments as experiments

        made = []

        class Recording(experiments.ThreadPoolExecutor):
            def __init__(self, max_workers):
                made.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Recording)
        cfg = gaussian_cfg(n_values=(8, 16), alpha_values=(0.2, 0.5))
        threaded = run_replications(cfg, threads=10_000)
        assert made == [2]
        assert summary_csv_text(threaded) == summary_csv_text(run_replications(cfg))

    def test_one_task_per_sample_size(self, monkeypatch):
        import depthrisk.experiments as experiments

        counts = []
        run_tasks = experiments._run_tasks

        def counting(tasks, threads):
            counts.append(len(tasks))
            return run_tasks(tasks, threads)

        monkeypatch.setattr(experiments, "_run_tasks", counting)
        run_replications(gaussian_cfg(n_values=(8, 16, 32), alpha_values=(0.2, 0.5)))
        assert counts == [1 + 3]


class TestRunReplications:
    def test_cell_statistics_definitions(self):
        report = run_replications(gaussian_cfg(replications=5, n_values=(32,)))
        cell = report.cell(32, 0.5)
        est = cell.estimates
        assert est.shape == (5,)
        assert cell.mean == float(np.mean(est))
        assert cell.sigma_hat == float(
            np.sqrt(np.sum((est - cell.mean) ** 2) / 4)
        )
        assert cell.rmae == float(np.mean(np.abs(est - cell.truth)) / abs(cell.truth))
        assert cell.degenerate_count == 0

    def test_two_replicate_bessel(self):
        report = run_replications(gaussian_cfg())
        cell = report.cells[0]
        e1, e2 = cell.estimates
        assert cell.sigma_hat == pytest.approx(abs(e1 - e2) / math.sqrt(2.0), rel=1e-12)

    def test_deterministic_rerun(self):
        a = run_replications(gaussian_cfg(replications=4, n_values=(16, 32)))
        b = run_replications(gaussian_cfg(replications=4, n_values=(16, 32)))
        assert summary_csv_text(a) == summary_csv_text(b)

    def test_thread_count_does_not_change_results(self):
        cfg = frank_cfg(replications=6, n_values=(32, 64), delta_values=(0.0,))
        serial = run_replications(cfg, threads=1)
        threaded = run_replications(cfg, threads=3)
        assert summary_csv_text(serial) == summary_csv_text(threaded)
        assert rates_csv_text(rate_table(serial)) == rates_csv_text(rate_table(threaded))

    def test_master_seed_changes_results(self):
        a = run_replications(gaussian_cfg(master_seed=1))
        b = run_replications(gaussian_cfg(master_seed=2))
        assert summary_csv_text(a) != summary_csv_text(b)

    def test_truth_shared_across_n(self):
        report = run_replications(gaussian_cfg(n_values=(16, 64), replications=2))
        assert report.cell(16, 0.5).truth == report.cell(64, 0.5).truth
        assert report.cell(16, 0.5).truth_se == report.cell(64, 0.5).truth_se

    def test_thread_validation(self):
        with pytest.raises(DomainError):
            run_replications(gaussian_cfg(), threads=0)

    def test_progress_callback(self):
        messages = []
        run_replications(frank_cfg(), progress=messages.append)
        assert any("moments" in m for m in messages)
        assert any("truth" in m for m in messages)
        assert any("cell" in m for m in messages)

    def test_cell_lookup_missing(self):
        report = run_replications(gaussian_cfg())
        with pytest.raises(KeyError):
            report.cell(999, 0.5)

    def test_gaussian_estimates_near_truth(self):
        cfg = gaussian_cfg(n_values=(4000,), replications=100, master_seed=5)
        report = run_replications(cfg)
        cell = report.cell(4000, 0.5)
        # closed form: 1/alpha + 1 = 3
        assert abs(cell.mean - 3.0) < 3.0 * cell.sigma_hat / math.sqrt(100)
        assert abs(cell.truth - 3.0) < 4.0 * cell.truth_se

    def test_frank_small_study_sane(self):
        cfg = frank_cfg(n_values=(1000,), replications=100, master_seed=13)
        report = run_replications(cfg)
        cell = report.cell(1000, 0.5)
        assert 0.01 < cell.rmae < 0.12
        assert cell.degenerate_count == 0
        assert cell.truth > 0.0


class TestRateTable:
    def _synthetic_report(self, rmae=0.0381, n=1000, deltas=(0.0,)):
        from depthrisk import CellResult, ReplicationReport

        cfg = gaussian_cfg(n_values=(n,), delta_values=deltas)
        cell = CellResult(
            n=n, alpha=0.5, truth=3.0, truth_se=0.001,
            estimates=np.array([3.0, 3.1]), mean=3.05, sigma_hat=0.07,
            rmae=rmae, degenerate_count=0,
        )
        return ReplicationReport(config=cfg, cells=(cell,))

    def test_pinned_value(self):
        # V = n^(1/2 - delta) * rmae at delta = 0: sqrt(1000) * 0.0381
        report = self._synthetic_report()
        rows = rate_table(report)
        assert rows == [(1000, 0.5, 0.0, pytest.approx(1.2048277885241525, abs=1e-12))]

    def test_delta_half_is_identity(self):
        report = self._synthetic_report(deltas=(0.5,))
        rows = rate_table(report)
        assert rows[0][3] == 0.0381

    def test_zero_rmae_passes_through(self):
        report = self._synthetic_report(rmae=0.0)
        assert rate_table(report)[0][3] == 0.0

    def test_defaults_to_config_deltas(self):
        report = self._synthetic_report()
        rows = rate_table(report)
        assert [r[2] for r in rows] == [0.0]

    def test_row_order(self):
        from depthrisk import CellResult, ReplicationReport

        cfg = gaussian_cfg(n_values=(100, 200), delta_values=(0.0, 0.1))
        cells = tuple(
            CellResult(n=n, alpha=0.5, truth=3.0, truth_se=0.001,
                       estimates=np.array([3.0, 3.1]), mean=3.05,
                       sigma_hat=0.07, rmae=0.01, degenerate_count=0)
            for n in (100, 200)
        )
        report = ReplicationReport(config=cfg, cells=cells)
        rows = rate_table(report)
        assert [(r[0], r[2]) for r in rows] == [
            (100, 0.0), (100, 0.1), (200, 0.0), (200, 0.1)
        ]


class TestRateSlope:
    def test_exact_half_rate(self):
        pts = [(n, 2.0 / math.sqrt(n)) for n in (100, 400, 1600, 6400)]
        assert rate_slope(pts) == pytest.approx(-0.5, abs=1e-12)

    def test_constant_statistic(self):
        assert rate_slope([(100, 0.3), (200, 0.3), (400, 0.3)]) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            rate_slope([(100, 1.0), (200, 0.5)])

    def test_nonpositive_statistic(self):
        with pytest.raises(NonPositiveStatistic):
            rate_slope([(100, 1.0), (200, 0.0), (400, 0.1)])

    def test_equal_sizes_rejected(self):
        with pytest.raises(DomainError):
            rate_slope([(100, 1.0), (100, 0.5), (100, 0.2)])

    def test_nonpositive_n_rejected(self):
        with pytest.raises(DomainError):
            rate_slope([(0, 1.0), (200, 0.5), (400, 0.2)])


class TestEmitTables:
    def test_files_and_headers(self, tmp_path):
        report = run_replications(gaussian_cfg(delta_values=(0.0, 0.05)))
        paths = emit_tables(report, None, tmp_path / "out")
        summary = paths["summary"].read_text().splitlines()
        rates = paths["rates"].read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert rates[0] == RATES_HEADER
        assert len(summary) == 2  # one cell
        assert len(rates) == 3  # one cell x two deltas
        assert not list((tmp_path / "out").glob("*.tmp"))

    def test_empty_deltas_header_only(self, tmp_path):
        report = run_replications(gaussian_cfg())
        paths = emit_tables(report, None, tmp_path)
        assert paths["rates"].read_text() == RATES_HEADER + "\n"

    def test_values_round_trip_through_text(self, tmp_path):
        report = run_replications(gaussian_cfg(replications=3))
        paths = emit_tables(report, None, tmp_path)
        line = paths["summary"].read_text().splitlines()[1].split(",")
        cell = report.cells[0]
        assert int(line[0]) == cell.n
        assert float(line[1]) == cell.alpha
        assert float(line[2]) == cell.truth
        assert float(line[3]) == cell.truth_se
        assert float(line[4]) == cell.mean
        assert float(line[5]) == cell.sigma_hat
        assert float(line[6]) == cell.rmae
        assert int(line[7]) == cell.degenerate_count

    def test_manifest_contents(self, tmp_path):
        cfg = gaussian_cfg(master_seed=99)
        report = run_replications(cfg)
        paths = emit_tables(report, None, tmp_path)
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["config"] == config_to_json(cfg)
        assert manifest["master_seed"] == 99
        assert manifest["wall_clock_seconds"] >= 0.0
        from depthrisk import __version__

        assert manifest["version"] == __version__

    def test_explicit_rate_rows(self, tmp_path):
        report = run_replications(gaussian_cfg(delta_values=(0.25,)))
        rows = rate_table(report)
        paths = emit_tables(report, rows, tmp_path)
        rates = paths["rates"].read_text().splitlines()
        assert len(rates) == 2
        assert rates[1].split(",")[2] == "0.25"

    def test_unwritable_destination(self, tmp_path):
        report = run_replications(gaussian_cfg())
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory\n")
        with pytest.raises(IoError):
            emit_tables(report, None, blocker / "sub")

    def test_byte_identical_rerun(self, tmp_path):
        cfg = gaussian_cfg(replications=3, delta_values=(0.0,))
        emit_tables(run_replications(cfg), None, tmp_path / "a")
        emit_tables(run_replications(cfg, threads=2), None, tmp_path / "b")
        for name in ("summary.csv", "rates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestConvergenceShape:
    """Statistical shape of the estimator error across the 20-study sweep."""

    N_VALUES = (250, 1000, 4000, 16000)

    def test_rmae_decreases_with_n(self, gaussian_sweep):
        for alpha in (0.1, 0.5):
            monotone = 0
            for r in gaussian_sweep:
                vals = [r.cell(n, alpha).rmae for n in self.N_VALUES]
                monotone += all(a > b for a, b in zip(vals, vals[1:]))
            assert monotone >= 18

    def test_smaller_alpha_is_harder(self, gaussian_sweep):
        # a deeper tail region has fewer cost points, so its relative error
        # is larger, seed by seed and at every n
        for n in self.N_VALUES:
            for r in gaussian_sweep:
                assert r.cell(n, 0.1).rmae > r.cell(n, 0.5).rmae

    def test_pooled_rate_near_root_n(self, gaussian_sweep):
        pts = [
            (n, pooled_rmae(gaussian_sweep, n, 0.5)) for n in self.N_VALUES
        ]
        slope = rate_slope(pts)
        assert -0.65 <= slope <= -0.35

    def test_v_statistic_drift(self, gaussian_sweep):
        # V = n^(1/2-delta) * rmae: flat at delta=0 for a root-n method,
        # drifting down for delta > 0 and up for delta < 0
        def v_slope(alpha, delta):
            pts = [
                (n, n ** (0.5 - delta) * pooled_rmae(gaussian_sweep, n, alpha))
                for n in self.N_VALUES
            ]
            return rate_slope(pts)

        assert abs(v_slope(0.1, 0.0)) <= 0.15
        assert abs(v_slope(0.5, 0.0)) <= 0.15
        assert v_slope(0.5, 0.05) < 0.0
        assert v_slope(0.5, -0.01) > 0.0

    def test_degenerate_pattern(self, gaussian_sweep):
        # the alpha=0.1 region holds ~1.1% of the mass (exp(-4.5)), so at
        # n=250 roughly 6% of replicates see no member points; by n=4000
        # the miss probability is below 1e-19
        for r in gaussian_sweep:
            for n in self.N_VALUES:
                assert r.cell(n, 0.5).degenerate_count == 0
            for n in (4000, 16000):
                assert r.cell(n, 0.1).degenerate_count == 0
        small = sum(r.cell(250, 0.1).degenerate_count for r in gaussian_sweep)
        assert 1 <= small <= 170
        assert sum(r.cell(1000, 0.1).degenerate_count for r in gaussian_sweep) <= 5

    def test_truths_near_closed_form(self, gaussian_sweep):
        # 1/alpha + 1: 11 at alpha=0.1, 3 at alpha=0.5
        hits = 0
        total = 0
        for r in gaussian_sweep:
            for alpha, expect in ((0.1, 11.0), (0.5, 3.0)):
                cell = r.cell(250, alpha)
                total += 1
                hits += abs(cell.truth - expect) < 3.0 * cell.truth_se
        assert hits >= total - 2
