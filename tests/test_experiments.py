"""Replication studies: configs, aggregation, rate tables, emitted files."""

import hashlib
import json
import math
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrisk import (
    ConfigError,
    ConvergenceConfig,
    DegenerateSample,
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
    gaussian_population,
    hausdorff_report,
    mhd,
    mix64,
    rate_slope,
    rate_table,
    run_convergence,
    run_replications,
    sup_norm_distance,
)
from depthrisk import experiments, levelset
from depthrisk.depth import fit_columns
from depthrisk.experiments import (
    _TAG_CONV_SAMPLE,
    _TAG_REPLICATE,
    BLOCK_ROWS,
    RATES_HEADER,
    SUMMARY_HEADER,
    _blocks,
    cell_estimates,
    convergence_csv_text,
    pool_size,
    rates_csv_text,
    summary_csv_text,
)
from depthrisk.io import load_json_object
from depthrisk.levelset import RADIAL_ANGLES
from depthrisk.sampling import law_from_json
from one_pair import radial_volume

EYE2 = ((1.0, 0.0), (0.0, 1.0))
SHIPPED_CONVERGENCE = Path(__file__).resolve().parent.parent / "configs" / "convergence_smoke.json"


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
    base = dict(data_cfg=gaussian_law(), n_values=(16,), seeds=1)
    return ConvergenceConfig(**dict(base, **overrides))


class TestConvergenceVolume:
    """The symmetric-difference volume of each convergence seed: the radial
    quadrature about the true center, in any dimension and wherever that
    center lies.  Seeds are taken in blocks, and every entry has the bits of
    the one-pair functions on that seed's own fit."""

    @staticmethod
    def specs(cfg, n, seed):
        rng = RngStream(cfg.master_seed, mix64(_TAG_CONV_SAMPLE, n, seed))
        fitted = fit_model(Sample(cfg.data_cfg.draw(n, [rng])[0].T))
        return LevelSetSpec(fitted, cfg.alpha), LevelSetSpec(cfg.data_cfg.exact_model, cfg.alpha)

    def test_quadrature_in_two_dimensions(self):
        cfg = convergence_cfg(n_values=(16, 64), seeds=2, boundary_m=64)
        got = run_convergence(cfg)["symdiff"]
        for k, n in enumerate(cfg.n_values):
            for seed in range(cfg.seeds):
                assert got[k, seed] == radial_volume(*self.specs(cfg, n, seed))

    @pytest.mark.parametrize("d, alpha", [(2, 0.99), (3, 0.5), (4, 0.5)])
    def test_no_monte_carlo(self, d, alpha, monkeypatch):
        # at alpha = 0.99 the fitted ellipse has Mahalanobis radius 0.1,
        # smaller than the fitted mean's offset at n = 16
        def refuse(*args):
            raise AssertionError("sym_diff_volume called")

        for module in (levelset, experiments):  # at its home, and where a study may import it
            monkeypatch.setattr(module, "sym_diff_volume", refuse, raising=False)
        law = gaussian_population(DepthModel(np.zeros(d), build_spd(np.eye(d))))
        cfg = convergence_cfg(data_cfg=law, alpha=alpha, boundary_m=64)
        fit, truth = self.specs(cfg, 16, 0)
        assert (d == 2) == (mhd(truth.model.mu, fit.model) < alpha)
        assert run_convergence(cfg)["symdiff"][0, 0] == radial_volume(fit, truth)

    def test_intervals_are_exact(self):
        # in d = 1 each volume is the length of the symmetric difference of
        # two intervals, read off both roots with no quadrature error; at
        # alpha = 0.99 and n = 16 some fitted intervals miss the true center
        law = gaussian_population(DepthModel(np.array([0.5]), build_spd([[2.0]])))
        cfg = convergence_cfg(data_cfg=law, alpha=0.99, seeds=40, boundary_m=64)
        r = math.sqrt(1.0 / cfg.alpha - 1.0)
        got = run_convergence(cfg)["symdiff"][0]
        outside = 0
        for seed, volume in enumerate(got):
            fit, truth = self.specs(cfg, 16, seed)
            (lo_a, hi_a), (lo_b, hi_b) = (
                (s.model.mu[0] - r * s.model.sigma.chol[0, 0],
                 s.model.mu[0] + r * s.model.sigma.chol[0, 0]) for s in (fit, truth))
            outside += not lo_a < truth.model.mu[0] < hi_a
            common = max(0.0, min(hi_a, hi_b) - max(lo_a, lo_b))
            assert volume == pytest.approx((hi_a - lo_a) + (hi_b - lo_b) - 2.0 * common,
                                           rel=1e-12, abs=1e-15)
        assert 0 < outside < cfg.seeds

    @pytest.mark.parametrize("model, alpha", [
        # at alpha = 0.9 and n = 16 the true center lies outside about half the fits
        (DepthModel(np.zeros(2), build_spd(EYE2)), 0.9),
        (DepthModel(np.array([0.5, -1.0, 2.0]),
                    build_spd([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])), 0.5),
    ])
    def test_entries_are_the_one_pair_values(self, model, alpha, monkeypatch):
        outside = self.check_entries(gaussian_population(model), alpha, monkeypatch)
        assert 0 < outside < 14 if model.dim == 2 else outside == 0

    def test_frank_entries_are_the_one_pair_values(self, monkeypatch):
        assert 0 < self.check_entries(frank_law(), 0.9, monkeypatch) < 14

    def check_entries(self, law, alpha, monkeypatch):
        """Check each entry of a run against the one-pair values on that
        seed's own fit; return the count of fits that leave the true center
        outside."""
        # three seeds per block, so seven seeds end in a block of one
        monkeypatch.setattr(experiments, "BLOCK_ROWS", 3 * RADIAL_ANGLES)
        cfg = convergence_cfg(data_cfg=law, alpha=alpha, n_values=(16, 64), seeds=7,
                              boundary_m=64, master_seed=2)
        got = run_convergence(cfg)
        outside = 0
        for k, n in enumerate(cfg.n_values):
            for seed in range(cfg.seeds):
                fit, truth = self.specs(cfg, n, seed)
                outside += mhd(truth.model.mu, fit.model) < alpha
                assert got["supnorm"][k, seed] == sup_norm_distance(fit.model, truth.model)
                assert got["hausdorff"][k, seed] == hausdorff_report(
                    fit, truth, cfg.boundary_m).distance
                assert got["symdiff"][k, seed] == radial_volume(fit, truth)
        return outside

    def test_degenerate_fit_in_a_block_is_named(self, monkeypatch):
        draw = GaussianConfig.draw

        def flat_second_sample(law, n, streams, out=None):
            cols = draw(law, n, streams, out)
            if len(streams) > 1:
                cols[1, 1] = 0.0  # one coordinate of one sample is constant
            return cols

        monkeypatch.setattr(GaussianConfig, "draw", flat_second_sample)
        with pytest.raises(DegenerateSample, match="matrix 1 of the stack"):
            run_convergence(convergence_cfg(seeds=3, boundary_m=64))


class TestConvergenceOfAnyLaw:
    def test_frank_slopes_near_root_n(self):
        # the plug-in level set of the dependent, non-elliptical acceptance-07
        # law: slopes -0.497, -0.486 and -0.516, in about 0.4 s on a 2-core host
        cfg = convergence_cfg(data_cfg=frank_law(), n_values=(200, 800, 3200, 12800),
                              seeds=40, master_seed=3)
        distances = run_convergence(cfg)
        for name in ("supnorm", "hausdorff", "symdiff"):
            medians = np.median(distances[name], axis=1)
            assert abs(rate_slope(list(zip(cfg.n_values, medians))) + 0.5) <= 0.1, name


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

    @pytest.mark.parametrize("field, value", [
        ("n_values", (16, 16)),
        ("n_values", (8, 16, 8)),
        ("alpha_values", (0.5, 0.5)),
        ("alpha_values", (0.1, 0.5, 0.1)),
        ("delta_values", (0.0, 0.0)),
    ])
    def test_repeats_rejected(self, field, value):
        # a repeated size or level would make cells that report.cell cannot
        # tell apart, a repeated delta duplicate rate rows
        with pytest.raises(ConfigError, match=f"^{field}: must be .*list of distinct"):
            gaussian_cfg(**{field: value})
        obj = dict(config_to_json(gaussian_cfg()), **{field: list(value)})
        with pytest.raises(ConfigError, match=f"^{field}: must be .*list of distinct"):
            config_from_json(obj)

    def test_convergence_repeats_rejected(self):
        # equal rows and an undefined slope otherwise
        with pytest.raises(ConfigError, match="^n_values: must be a nonempty list of distinct"):
            convergence_cfg(n_values=(200, 200, 200))
        obj = {"data": gaussian_law().to_json(), "n_values": [200, 200, 200], "seeds": 1}
        with pytest.raises(ConfigError, match="^n_values: must be a nonempty list of distinct"):
            convergence_config_from_json(obj)

    @pytest.mark.parametrize("make", [gaussian_cfg, convergence_cfg])
    def test_seeds_past_64_bits_rejected(self, make):
        # the streams read a seed's low 64 bits: 5 + 2**64 ran seed 5's
        # study and recorded the larger seed in the manifest
        want = r"^master_seed: must be an integer in \[0, 2\*\*64\)$"
        for seed in (2**64, 5 + 2**64):
            with pytest.raises(ConfigError, match=want):
                make(master_seed=seed)
        for seed in (2**64 - 1, np.uint64(2**64 - 1)):
            assert make(master_seed=seed).master_seed == 2**64 - 1
        read = config_from_json if make is gaussian_cfg else convergence_config_from_json
        obj = config_to_json(gaussian_cfg()) if make is gaussian_cfg else {
            "data": gaussian_law().to_json(), "n_values": [16], "seeds": 1}
        with pytest.raises(ConfigError, match=want):
            read(dict(obj, master_seed=5 + 2**64))

    def test_sizes_below_a_fit_rejected(self):
        # a 3-d fit needs 4 points: the study used to compute the truths and
        # then raise DegenerateSample
        law = GaussianConfig(mu=(0.0, 0.0, 0.0), sigma=tuple(map(tuple, np.eye(3).tolist())))
        want = r"^n_values: must be integers >= d \+ 1 = 4 for a 3-dimensional model$"
        with pytest.raises(ConfigError, match=want):
            gaussian_cfg(data_cfg=law, n_values=(64, 3))
        obj = dict(config_to_json(gaussian_cfg(data_cfg=law, n_values=(64, 4))), n_values=[64, 3])
        with pytest.raises(ConfigError, match=want):
            config_from_json(obj)
        assert gaussian_cfg(n_values=(3,)).n_values == (3,)
        with pytest.raises(ConfigError, match=r"^n_values: must be integers >= d \+ 1 = 3 "):
            gaussian_cfg(n_values=(2, 8))

    def test_convergence_sizes_below_a_fit_rejected(self):
        # a 3-d fit needs 4 points: the study used to run the smaller sizes
        # and then raise DegenerateSample
        law = GaussianConfig(mu=(0.0, 0.0, 0.0), sigma=tuple(map(tuple, np.eye(3).tolist())))
        want = r"^n_values: must be integers >= d \+ 1 = 4 for a 3-dimensional model$"
        with pytest.raises(ConfigError, match=want):
            convergence_cfg(data_cfg=law, n_values=(64, 3))
        obj = {"data": law.to_json(), "n_values": [3, 64], "seeds": 1}
        with pytest.raises(ConfigError, match=want):
            convergence_config_from_json(obj)
        assert convergence_cfg(data_cfg=law, n_values=(4, 64)).n_values == (4, 64)
        with pytest.raises(ConfigError, match="^data_cfg: must be a law with "):
            convergence_cfg(data_cfg="standard", n_values=(3,))


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
        # a count where a list of counts belongs
        with pytest.raises(ConfigError, match="^n_values: wrong type$"):
            gaussian_cfg(n_values=8)


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
    law = draw(laws())
    return ExperimentConfig(
        data_cfg=law,
        n_values=tuple(draw(st.lists(st.integers(law.exact_model.dim + 1, 10**6),
                                     min_size=1, max_size=4, unique=True))),
        alpha_values=tuple(
            draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=4, unique=True))
        ),
        replications=draw(st.integers(2, 10**4)),
        delta_values=tuple(draw(st.lists(finite, max_size=3, unique=True))),
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

    def test_hints_are_the_readers(self):
        # each reader hints at the keys it refuses that a user may expect:
        # a study at its top level, a law in data; a bare depth model none
        obj = dict(config_to_json(gaussian_cfg()), seed=3, model={})
        with pytest.raises(ConfigError, match=re.escape(
                "seed: unknown key (a study is seeded by its master_seed); "
                "model: unknown key (a study reads its population law from data)")):
            config_from_json(obj)
        obj = config_to_json(gaussian_cfg())
        obj["data"]["model"] = {}
        with pytest.raises(ConfigError, match=r"^data\.model: unknown key$"):
            config_from_json(obj)
        with pytest.raises(ConfigError, match=r"^model: unknown key; seed: unknown key$"):
            DepthModel.from_json({"mu": [0.0], "sigma": [[1.0]], "model": {}, "seed": 3})

    CONVERGENCE = {"data": {"kind": "gaussian", "mu": [0.0], "sigma": [[1.0]]},
                   "n_values": [16], "seeds": 1}

    def test_unknown_convergence_key(self):
        obj = dict(self.CONVERGENCE, boundary_n=128)
        with pytest.raises(ConfigError, match="boundary_n: unknown key"):
            convergence_config_from_json(obj)

    def test_non_finite_model_mu(self):
        # the mean of the population law, read as the experiment's is
        obj = dict(self.CONVERGENCE, data={"kind": "gaussian", "mu": [float("nan"), 0.0],
                                           "sigma": [[1.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(ConfigError, match=r"^data\.mu: must be nonempty and finite$"):
            convergence_config_from_json(obj)
        obj["n_values"], obj["alpha_values"], obj["replications"] = [16], [0.5], 2
        del obj["seeds"]
        with pytest.raises(ConfigError, match=r"^data\.mu: must be nonempty and finite$"):
            config_from_json(obj)

    def test_unknown_model_key(self):
        # the population is read from data: the key the convergence config
        # used to read it from is refused, with a hint, beside the missing data
        with pytest.raises(ConfigError, match=re.escape(
                "model: unknown key (a study reads its population law from data); "
                "data: missing")):
            convergence_config_from_json({"model": {"mu": [0.0], "sigma": [[1.0]]},
                                          "n_values": [16], "seeds": 1})
        obj = dict(self.CONVERGENCE, data=dict(self.CONVERGENCE["data"], mean=[5.0]))
        with pytest.raises(ConfigError, match=r"^data\.mean: unknown key$"):
            convergence_config_from_json(obj)

    def test_symdiff_n_mc_refused_with_a_hint_by_the_convergence_reader(self):
        # the key of the Monte Carlo volume the convergence study no longer runs
        with pytest.raises(ConfigError, match=re.escape(
                "symdiff_n_mc: unknown key (the symmetric-difference volume takes no draws)")):
            convergence_config_from_json(dict(self.CONVERGENCE, symdiff_n_mc=100_000))
        obj = dict(config_to_json(gaussian_cfg()), symdiff_n_mc=100_000)
        with pytest.raises(ConfigError, match=r"^symdiff_n_mc: unknown key$"):
            config_from_json(obj)
        obj = dict(self.CONVERGENCE, data=dict(self.CONVERGENCE["data"], symdiff_n_mc=1000))
        with pytest.raises(ConfigError, match=r"^data\.symdiff_n_mc: unknown key$"):
            convergence_config_from_json(obj)

    def test_wrong_type_reported(self):
        with pytest.raises(ConfigError) as exc:
            config_from_json({"data": {"kind": "gaussian", "mu": [0.0, 0.0],
                              "sigma": [[1.0, 0.0], [0.0, 1.0]]},
                              "n_values": "many", "alpha_values": [0.5],
                              "replications": 2})
        assert "n_values: wrong type" in str(exc.value)
        with pytest.raises(ConfigError, match="^data: wrong type$"):
            config_from_json({"data": [1, 2], "n_values": [8], "alpha_values": [0.5],
                              "replications": 2})


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
        "data": {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
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
        # the mean of the population's model, read from the data law
        ("data.mu: wrong type", lambda o: o["data"].update(mu=["0", True])),
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

    # finite entries whose moments overflow: |mu|^2 and tr(Sigma) of the exact truth
    BIG_MU = ((1e160, 0.0), EYE2, r"^mu: its squared norm must be finite$")
    BIG_DIAGONAL = ((0.0, 0.0), ((1e308, 0.0), (0.0, 1e308)), r"^sigma: ")
    BIG_TRACE = ((0.0,) * 3, tuple(map(tuple, 8e307 * np.eye(3))),
                 r"^sigma: its trace must be finite$")

    @pytest.mark.parametrize("mu, sigma, message", [BIG_MU, BIG_DIAGONAL, BIG_TRACE])
    def test_overflowing_moments(self, mu, sigma, message):
        with pytest.raises(ConfigError, match=message):
            GaussianConfig(mu=mu, sigma=sigma)
        obj = {"kind": "gaussian", "mu": list(mu), "sigma": [list(row) for row in sigma]}
        with pytest.raises(ConfigError, match=message):
            law_from_json(obj)

    def test_both_moments_named(self):
        with pytest.raises(ConfigError, match="^mu: .*; sigma: its trace"):
            GaussianConfig(mu=(1e160, 0.0, 0.0), sigma=self.BIG_TRACE[1])

    def test_overflowing_truth(self):
        law = GaussianConfig(mu=(0.0, 0.0), sigma=((1e307, 0.0), (0.0, 1e307)))
        assert law.exact_truth([0.5]) == [3e307]
        with pytest.raises(DomainError, match="^sigma: .*alpha=0.01"):
            law.exact_truth([0.01])


def v0_replicate(law, n, alpha, stream):
    """One replicate the unbatched way: fit_model, in_lower_set, ratio.  The
    level sample is C-ordered, and its fit has the block core's bits."""
    cols = law.draw(2 * n, [stream])[0]
    level = Sample(cols[:, :n].T)
    cost = attach_costs(Sample(cols[:, n:].T), law.noise_var, stream)
    model = fit_model(level)
    core_mu, _, core_low = fit_columns(cols[None, :, :n])
    assert level.points.flags.c_contiguous
    assert np.array_equal(model.mu, core_mu[0])
    assert np.array_equal(model.sigma.chol, core_low[0])
    return ccte_under_model(model, cost, alpha, n1=n)


class TestBatchedCell:
    @pytest.mark.parametrize(
        "kind, n, alpha, r",
        [
            ("gaussian", 16, 0.05, 40),  # mostly zero-hit replicates
            ("gaussian", 64, 0.5, 20),
            ("frank", 16, 0.05, 40),
            ("frank", 100, 0.1, 30),
            ("frank", 5000, 0.5, 30),  # more points than one study block
        ],
    )
    def test_matches_per_replicate_path(self, kind, n, alpha, r):
        law = (gaussian_cfg() if kind == "gaussian" else frank_cfg()).data_cfg
        if n == 5000:
            assert r * 2 * n > BLOCK_ROWS
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
            ("frank", 5000, 30),  # more points than one study block
        ],
    )
    def test_level_sequence_matches_one_level_calls(self, kind, n, r):
        law = (gaussian_cfg() if kind == "gaussian" else frank_cfg()).data_cfg
        if n == 5000:
            assert r * 2 * n > BLOCK_ROWS
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

    def test_study_frees_each_block_before_the_next(self):
        # a study draws, fits and scores one block of replicates per task
        # and frees it before the next, so three blocks peak as one does
        # (drawing all the replicates at once would peak about 3x higher)
        n = 5000
        per_block = BLOCK_ROWS // (2 * n)

        def peak(r):
            cfg = frank_cfg(n_values=(n,), replications=r)
            run_replications(cfg)
            tracemalloc.start()
            try:
                run_replications(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3 * per_block) <= 1.15 * peak(per_block)

    def test_study_cells_use_replicate_streams(self):
        # the second study cuts its replicates into two blocks
        for n_values, r in (((16, 32), 4), ((5000,), 8)):
            cfg = frank_cfg(n_values=n_values, alpha_values=(0.1, 0.5), replications=r)
            assert len(_blocks(r, 2 * max(n_values))) == (2 if r == 8 else 1)
            report = run_replications(cfg)
            for n in cfg.n_values:
                streams = [RngStream(cfg.master_seed, mix64(_TAG_REPLICATE, n, j))
                           for j in range(r)]
                values, hits = cell_estimates(cfg.data_cfg, n, cfg.alpha_values, streams)
                for i, alpha in enumerate(cfg.alpha_values):
                    cell = report.cell(n, alpha)
                    assert np.array_equal(cell.estimates, values[i])
                    assert cell.degenerate_count == int(np.sum(hits[i] == 0))


class ShiftedGaussian:
    """N((1, -1), I) known to the study only through the law interface."""

    noise_var = 0.005
    exact_model = DepthModel((1.0, -1.0), build_spd(EYE2))

    def draw(self, n, streams):
        cols = np.empty((len(streams), 2, n))
        for c, rng in zip(cols, streams):
            c[...] = rng.normals(2 * n).reshape(n, 2).T
        cols += np.array([1.0, -1.0])[:, None]
        return cols

    def exact_truth(self, alphas):
        # |mu|^2 + 2 (1 + r^2 / 2) with r^2 = 1/alpha - 1
        return [3.0 + 1.0 / a for a in alphas]

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
        assert manifest["population_model"] == ShiftedGaussian.exact_model.to_json()
        # the same draws and the same model as the closed-form law: equal
        # replicates, and the law's own truths
        closed = run_replications(ExperimentConfig(
            data_cfg=GaussianConfig(mu=(1.0, -1.0), sigma=EYE2), **study))
        for cell, exact in zip(report.cells, closed.cells):
            assert np.array_equal(cell.estimates, exact.estimates)
            assert cell.truth == 3.0 + 1.0 / cell.alpha
            assert cell.truth == pytest.approx(exact.truth, rel=1e-12, abs=0.0)
            assert cell.truth_se == exact.truth_se == 0.0

    def test_law_without_exact_model_refused(self):
        # refused when the config is built, not later in a pool thread
        for model in (None, "model", ((1.0, -1.0), EYE2)):
            law = ShiftedGaussian()
            law.exact_model = model
            with pytest.raises(ConfigError, match="^data_cfg: "):
                gaussian_cfg(data_cfg=law)
        with pytest.raises(ConfigError, match="^data_cfg: "):
            gaussian_cfg(data_cfg=object())
        law = ShiftedGaussian()
        law.exact_truth = None
        with pytest.raises(ConfigError, match="^data_cfg: .*exact_truth"):
            gaussian_cfg(data_cfg=law)

    @pytest.mark.parametrize("make", [gaussian_cfg, convergence_cfg], ids=["experiment",
                                                                          "convergence"])
    def test_law_without_draw_refused(self, make):
        # both studies check a law by one rule: without a draw method the
        # replication study used to fail mid-run with a bare AttributeError
        for draw in (None, "draw"):
            law = ShiftedGaussian()
            law.draw = draw
            with pytest.raises(ConfigError, match="^data_cfg: .* a draw "):
                make(data_cfg=law)

    def test_duck_typed_law_runs_the_convergence_study(self):
        # the same draws and the same model as the closed-form law: equal
        # distances, with no truth read
        study = dict(n_values=(16, 64), seeds=3, boundary_m=64)
        got = run_convergence(convergence_cfg(data_cfg=ShiftedGaussian(), **study))
        want = run_convergence(convergence_cfg(data_cfg=gaussian_law(mu=(1.0, -1.0)), **study))
        assert all(np.array_equal(got[name], want[name]) for name in want)

    def test_truth_failure_raised_by_the_study(self):
        # a law whose truth cannot be computed round-trips as a config and
        # fails loudly when a study runs it, naming theta
        cfg = frank_cfg(data_cfg=frank_law(theta=150.0))
        assert config_from_json(through_text(config_to_json(cfg))) == cfg
        with pytest.raises(DomainError, match="^theta: "):
            run_replications(cfg)


class TestPool:
    def test_cap_uses_core_count(self, monkeypatch):
        # the cores this process may use, not the machine's
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert pool_size(10_000, 10) == 2
        assert pool_size(10_000, 1) == 1
        assert pool_size(1, 10) == 1
        # where the platform cannot tell, the machine's count, else one
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert pool_size(10_000, 10) == 10
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

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Recording)
        cfg = gaussian_cfg(n_values=(8, 16), alpha_values=(0.2, 0.5))
        threaded = run_replications(cfg, threads=10_000)
        assert made == [2]
        assert summary_csv_text(threaded) == summary_csv_text(run_replications(cfg))

    def test_one_task_per_block_largest_n_first(self, monkeypatch):
        # one pool: the truths, then each n's blocks of replicates, largest
        # n first; a smaller block size changes the schedule, not the tables
        cfg = gaussian_cfg(n_values=(16, 8, 32), alpha_values=(0.2, 0.5), replications=7)
        want = summary_csv_text(run_replications(cfg))
        counts, drawn = [], []
        run_tasks, draw = experiments._run_tasks, GaussianConfig.draw

        def counting(tasks, threads):
            counts.append(len(tasks))
            return run_tasks(tasks, threads)

        def recording(law, n, streams, out=None):
            drawn.append((n // 2, len(streams)))
            return draw(law, n, streams, out)

        monkeypatch.setattr(experiments, "BLOCK_ROWS", 200)
        monkeypatch.setattr(experiments, "_run_tasks", counting)
        monkeypatch.setattr(GaussianConfig, "draw", recording)
        assert summary_csv_text(run_replications(cfg)) == want
        per_block = {n: max(1, 200 // (2 * n)) for n in cfg.n_values}
        assert counts == [1 + sum(-(-7 // k) for k in per_block.values())] == [7]
        assert drawn == [(32, 3), (32, 3), (32, 1), (16, 6), (16, 1), (8, 7)]


class TestSchedule:
    def test_results_do_not_depend_on_completion_order(self, monkeypatch, tmp_path):
        study, summary, rates = PINNED_STUDIES["frank"]
        cfg = ExperimentConfig(**study)
        assert max(1, BLOCK_ROWS // (2 * 5000)) < cfg.replications  # n = 5000 spans blocks
        sizes = []

        def reversed_pool(tasks, threads):
            # last task first, results still by task index
            sizes.append(len(tasks))
            return [task() for task in reversed(tasks)][::-1]

        monkeypatch.setattr(experiments, "_run_tasks", reversed_pool)
        paths = emit_tables(run_replications(cfg), None, tmp_path)
        digest = lambda key: hashlib.sha256(paths[key].read_bytes()).hexdigest()
        assert (digest("summary"), digest("rates")) == (summary, rates)
        assert sizes == [1 + 1 + 2]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_truth_failure_comes_first(self, threads, monkeypatch):
        futures, draws = [], []
        draw = FrankGumbelConfig.draw

        class Recording(experiments.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                futures.append(super().submit(fn, *args, **kwargs))
                return futures[-1]

        def counting(law, n, streams, out=None):
            draws.append(n)
            return draw(law, n, streams, out)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(FrankGumbelConfig, "draw", counting)
        cfg = frank_cfg(data_cfg=frank_law(theta=150.0), n_values=(5000,), replications=200)
        blocks = -(-200 // max(1, BLOCK_ROWS // (2 * 5000)))
        with pytest.raises(DomainError, match="^theta: ") as want:
            cfg.data_cfg.exact_truth(cfg.alpha_values)
        before = set(threading.enumerate())
        with pytest.raises(DomainError) as got:
            run_replications(cfg, threads=threads)
        assert str(got.value) == str(want.value)
        assert set(threading.enumerate()) == before
        if threads == 1:
            assert draws == [] and futures == []
        else:
            # the pending blocks were cancelled, and nothing is left running
            assert len(futures) == 1 + blocks
            assert all(f.done() for f in futures)
            assert any(f.cancelled() for f in futures)
            assert len(draws) < blocks


PINNED_STUDIES = {
    # the SHA-256 digests of the tables, as printed when each replicate was
    # drawn on its own, re-recorded for the half-angle Box-Muller normals
    "frank": (
        dict(data_cfg=FrankGumbelConfig(5.0, GumbelMarginal(0.0, 0.25),
                                         GumbelMarginal(-0.5, 0.25)),
             n_values=(16, 5000), alpha_values=(0.1, 0.5, 0.9), replications=8,
             delta_values=(0.0, 0.05), master_seed=11),
        "ce0ac658a20c4d314341807e34298a67fa871f594bb131f7c6b27fd9b3e3be7d",
        "21dfb6cb110ee0bc629859a38b947cdee18514459aeb9ddcad0effb01171523b",
    ),
    "gaussian": (
        dict(data_cfg=GaussianConfig(mu=(0.5, -1.0, 2.0), sigma=(
                 (2.0, 0.3, 0.1), (0.3, 1.0, 0.2), (0.1, 0.2, 0.5))),
             n_values=(32, 4000), alpha_values=(0.2, 0.5), replications=10,
             delta_values=(0.0,), master_seed=12),
        "e3099b49c0c63a3f2065059cf413611282503e2532d939b10500a188a6196514",
        "dc63c5b00334d12ceb8511eb50ebcc9c22cbd60f531de60a000da414465732f0",
    ),
}


PINNED_CONVERGENCE = {
    # the SHA-256 digests of convergence.csv, as printed when each seed was
    # fitted and measured on its own (d = 3 when its volume became the radial
    # rule's), re-recorded for the half-angle Box-Muller normals
    "d2": (
        dict(data_cfg=GaussianConfig((0.3, -1.0), ((2.0, 0.4), (0.4, 0.7))),
             n_values=(64, 512), seeds=5, boundary_m=256, master_seed=5),
        "ab516aa2e6f1111e46aa6aa2106bd1126338663f072dfb6ff71c0d84d35f5ce7",
    ),
    "d3": (
        dict(data_cfg=GaussianConfig((0.5, -1.0, 2.0), (
                 (2.0, 0.3, 0.1), (0.3, 1.0, 0.2), (0.1, 0.2, 0.5))),
             n_values=(16, 200), seeds=3, boundary_m=128, master_seed=9),
        "9f13adc740d7320956bf18eecea2504b82daa11b793e5dc51f9ebd4ca6bcfc00",
    ),
}


class TestPinnedOutputs:
    """Every printed bit of two small replication studies, across more than
    one block of replicates at the larger n, and of two small convergence
    studies."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(PINNED_STUDIES))
    def test_table_digests(self, name, threads, tmp_path):
        study, summary, rates = PINNED_STUDIES[name]
        cfg = ExperimentConfig(**study)
        assert cfg.replications * 2 * max(cfg.n_values) > BLOCK_ROWS
        paths = emit_tables(run_replications(cfg, threads=threads), None, tmp_path)
        digest = lambda key: hashlib.sha256(paths[key].read_bytes()).hexdigest()
        assert (digest("summary"), digest("rates")) == (summary, rates)

    @pytest.mark.parametrize("name", sorted(PINNED_CONVERGENCE))
    def test_convergence_digests(self, name):
        study, want = PINNED_CONVERGENCE[name]
        cfg = ConvergenceConfig(**study)
        text = convergence_csv_text(cfg.n_values, run_convergence(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == want

    def test_shipped_convergence_config_digest(self):
        # configs/convergence_smoke.json, as printed when it named its
        # population by a bare "model" rather than a "data" law, re-recorded
        # for the half-angle Box-Muller normals
        cfg = convergence_config_from_json(load_json_object(SHIPPED_CONVERGENCE, "config"))
        text = convergence_csv_text(cfg.n_values, run_convergence(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0bf3df41bc85afa7457a3b5c53cf0505c37f8fa3e3e873174d035b0393fb7a32")


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
        assert report.cell(16, 0.5).truth_se == report.cell(64, 0.5).truth_se == 0.0

    def test_thread_validation(self):
        with pytest.raises(DomainError):
            run_replications(gaussian_cfg(), threads=0)

    def test_progress_callback(self):
        messages = []
        run_replications(frank_cfg(), progress=messages.append)
        assert not any("moments" in m for m in messages)
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
        assert cell.truth == pytest.approx(3.0, rel=1e-12, abs=0.0)
        assert cell.truth_se == 0.0

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
        assert manifest["population_model"] == cfg.data_cfg.exact_model.to_json()
        assert manifest["truth"] == "exact"
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
        # 1/alpha + 1: 11 at alpha=0.1, 3 at alpha=0.5, in every cell
        for r in gaussian_sweep:
            for n in self.N_VALUES:
                for alpha, expect in ((0.1, 11.0), (0.5, 3.0)):
                    cell = r.cell(n, alpha)
                    assert cell.truth == pytest.approx(expect, rel=1e-12, abs=0.0)
                    assert cell.truth_se == 0.0
