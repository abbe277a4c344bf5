"""Config parsing, experiment artifacts, comparison tables, and the CLI."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from threepoint import cli, diagnostics, harness, optimizers, render
from threepoint.harness import (
    CSV_HEADER,
    ConfigError,
    build_is_vectors,
    build_objective,
    build_x0,
    compare_methods,
    load_config,
    parse_config,
    run_experiment,
    run_once,
)
from threepoint.optimizers import NonFiniteObjectiveError

QUAD_BASE = "\n".join([
    "method = smtp",
    "beta = 0.5",
    "objective = quadratic",
    "dimension = 4",
    "coord_L = logspace:1,4",
    "distribution = sphere",
    "schedule.kind = solution_dependent",
    "max_iters = 80",
    "seeds = 3",
])

NOISY_DEPENDENT = (r"schedule.kind = solution_dependent steps by f\(z\) - f_star, which noise "
                   "leaves undefined near the optimum: it takes no noise.sigma > 0$")
# QUAD_BASE under a constant rule: solution_dependent takes no noise.sigma > 0
NOISY_BASE = QUAD_BASE.replace("schedule.kind = solution_dependent",
                               "schedule.kind = constant\nschedule.gamma = 0.01")

SHARED_STEP = "\n".join([
    "objective = quadratic",
    "dimension = 10",
    "coord_L = logspace:1,10",
    "distribution = sphere",
    "schedule.kind = constant",
    "schedule.gamma = 0.05",
    "epsilon = 0.5",
    "max_iters = 4000",
    "seeds = 5",
])

RIGGED_ENVELOPE = "\n".join([
    "method = smtp",
    "objective = quadratic",
    "dimension = 5",
    "distribution = sphere",
    "schedule.kind = constant",
    "schedule.gamma = 1e-06",
    "max_iters = 400",
    "seeds = 3",
    "theorem = NC",
    "track_grad_norm = true",
])


FULL_SURFACE = "\n".join([
    "label = demo",
    "method = smtp_is",
    "beta = 0.25",
    "seeds = 7,9",
    "max_iters = 50",
    "epsilon = 0.001",
    "eval_budget = 900",
    "track_grad_norm = yes",
    "retain_internals = false",
    "x0 = zeros",
    "x0_scale = 2.5",
    "objective = quadratic",
    "dimension = 3",
    "coord_L = 1,2,3",
    "noise.sigma = 0.1",
    "noise.k = 4",
    "is.p = prop_L",
    "is.w = ones",
    "schedule.kind = constant",
    "schedule.gamma = 0.01",
    "theorem = IS-NC",
    "checkpoints = 10,25,50",
    "jobs = 2",
])


def _summary(run_dir) -> dict:
    return dict(line.split("=", 1) for line in (run_dir / "summary.txt").read_text().splitlines())


class TestParsing:
    def test_full_surface(self):
        cfg = parse_config(FULL_SURFACE)
        assert cfg.label == "demo"
        assert cfg.method == "smtp_is"
        assert cfg.beta == 0.25
        assert cfg.seeds == (7, 9)
        assert cfg.epsilon == 0.001
        assert cfg.eval_budget == 900
        assert cfg.track_grad_norm is True
        assert cfg.retain_internals is False
        assert cfg.x0 == "zeros" and cfg.x0_scale == 2.5
        assert cfg.noise_sigma == 0.1 and cfg.noise_obs == 4
        assert cfg.is_p == "prop_L" and cfg.is_w == "ones"
        assert cfg.checkpoints == (10, 25, 50)
        assert cfg.jobs == 2

    def test_seed_count_form(self):
        cfg = parse_config(QUAD_BASE)
        assert cfg.seeds == (0, 1, 2)

    def test_comments_and_blank_lines(self):
        text = QUAD_BASE + "\n\n# trailing comment\nepsilon = 0.1  # inline\n"
        assert parse_config(text).epsilon == 0.1

    def test_label_key_beats_argument(self):
        cfg = parse_config(QUAD_BASE + "\nlabel = fromkey", label="fromfile")
        assert cfg.label == "fromkey"
        assert parse_config(QUAD_BASE, label="fromfile").label == "fromfile"

    def test_load_config_uses_stem(self, tmp_path):
        path = tmp_path / "my_run.cfg"
        path.write_text(QUAD_BASE + "\n")
        assert load_config(str(path)).label == "my_run"

    def test_unknown_key_reports_line(self):
        text = QUAD_BASE + "\nbogus = 1"
        with pytest.raises(ConfigError, match="line 10: unknown key 'bogus'"):
            parse_config(text)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1: expected key=value"):
            parse_config("method smtp")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value for 'epsilon'"):
            parse_config(QUAD_BASE + "\nepsilon =")

    def test_bad_scalar_reports_line(self):
        with pytest.raises(ConfigError, match="line 1: bad value for max_iters"):
            parse_config("max_iters = soon\n" + QUAD_BASE)

    def test_beta_range(self):
        with pytest.raises(ConfigError, match=r"beta must lie in \[0,1\)"):
            parse_config(QUAD_BASE.replace("beta = 0.5", "beta = 1.0"))

    def test_stp_takes_beta_zero_alone(self, tmp_path, capsys):
        stp = QUAD_BASE.replace("method = smtp", "method = stp")
        assert parse_config(stp.replace("beta = 0.5", "beta = 0.0")).beta == 0.0
        assert parse_config(stp.replace("beta = 0.5\n", "")).method == "stp"
        path = tmp_path / "stp.cfg"
        path.write_text(stp.replace("beta = 0.5", "beta = 0.9") + "\n")
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert "error: line 2: method stp has no momentum" in capsys.readouterr().err

    def test_fixed_horizon_at_max_iters_0_cites_its_line(self, tmp_path, capsys):
        text = QUAD_BASE.replace("schedule.kind = solution_dependent",
                                 "schedule.kind = fixed_horizon\nschedule.gamma0 = 0.5")
        path = tmp_path / "fh.cfg"
        path.write_text(text.replace("max_iters = 80", "max_iters = 0") + "\n")
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert "error: line 9: schedule.kind = fixed_horizon takes its horizon from max_iters" \
            in capsys.readouterr().err
        # an explicit horizon makes a run of no iterations valid
        cfg = parse_config(text.replace("max_iters = 80", "max_iters = 0\nschedule.horizon = 5"))
        assert [r.iterations for r in run_experiment(cfg, write=False).seed_results] == [0, 0, 0]

    def test_unknown_names(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config(QUAD_BASE.replace("method = smtp", "method = sgd"))
        with pytest.raises(ConfigError, match="unknown objective"):
            parse_config(QUAD_BASE.replace("objective = quadratic", "objective = cubic"))
        with pytest.raises(ConfigError, match="unknown schedule.kind"):
            parse_config(QUAD_BASE.replace("schedule.kind = solution_dependent",
                                           "schedule.kind = warmup"))
        with pytest.raises(ConfigError, match="unknown theorem"):
            parse_config(QUAD_BASE + "\ntheorem = SC-???")
        with pytest.raises(ConfigError, match="unknown distribution"):
            parse_config(QUAD_BASE.replace("distribution = sphere", "distribution = cauchy"))

    def test_objective_requirements(self):
        with pytest.raises(ConfigError, match="needs dimension"):
            parse_config(QUAD_BASE.replace("dimension = 4\n", ""))
        with pytest.raises(ConfigError, match="objective lqr needs horizon"):
            parse_config(QUAD_BASE.replace("objective = quadratic", "objective = lqr"))

    def test_is_takes_no_distribution(self):
        # is.p is smtp_is's coordinate law, so even a coordinate kind would go unused
        text = QUAD_BASE.replace("method = smtp", "method = smtp_is")
        for kind in ("coord_uniform", "coord_weighted"):
            with pytest.raises(ConfigError, match="^line 6: distribution is set, but nothing this config runs reads it; "
                               "smtp_is draws coordinates by is.p"):
                parse_config(text.replace("distribution = sphere", f"distribution = {kind}"))

    def test_solution_free_rejects_gaussian(self):
        text = QUAD_BASE.replace("distribution = sphere", "distribution = gaussian")
        text = text.replace("schedule.kind = solution_dependent",
                            "schedule.kind = solution_free\nschedule.t = 0.01")
        with pytest.raises(ConfigError, match="unit-norm"):
            parse_config(text)

    def test_empty_seed_list(self):
        with pytest.raises(ConfigError, match="at least one seed"):
            parse_config(QUAD_BASE.replace("seeds = 3", "seeds = 0"))

    def test_duplicate_key_cites_both_lines(self):
        with pytest.raises(ConfigError, match="line 10: duplicate key 'beta', first set on line 2"):
            parse_config(QUAD_BASE + "\nbeta = 0.9")

    @pytest.mark.parametrize("old, new, line, message", [
        ("seeds = 3", "seeds = 3\njobs = 0", 10, "jobs must be >= 1"),
        ("max_iters = 80", "max_iters = -1", 8, "max_iters must be >= 0"),
        ("seeds = 3", "seeds = 0", 9, "need at least one seed"),
        ("seeds = 3", "seeds = 3\nnoise.sigma = -0.1", 10, "noise.sigma must be >= 0"),
        ("dimension = 4\n", "", 3, "objective 'quadratic' needs dimension"),
        ("objective = quadratic", "objective = lqr", 3, "objective lqr needs horizon"),
        ("distribution = sphere\n", "", 1, "method 'smtp' needs a distribution"),
        ("method = smtp", "method = smtp_is", 6,
         "distribution is set, but nothing this config runs reads it; smtp_is draws coordinates by is.p"),
        ("seeds = 3", "seeds = 3,3", 9, "seeds must not repeat"),
        ("seeds = 3", "seeds = 2,-1", 9, "seeds must be >= 0"),
        ("seeds = 3", "seeds = 3\ntheorem = NC", 10,
         "theorem 'NC' bounds the gradient norm: it needs track_grad_norm = true"),
        ("max_iters = 80", "max_iters = 0\ntheorem = SC-DEP", 8,
         "an envelope check needs max_iters >= 1"),
        ("objective = quadratic",
         "objective = lqr\nhorizon = 3\nd_state = 2\nd_ctrl = 1\ntrack_grad_norm = true", 7,
         "objective lqr has no gradient oracle for track_grad_norm"),
        ("seeds = 3", "seeds = 3\nr0 = one", 10, "r0 must be a number or 'auto', got 'one'"),
        ("seeds = 3", "seeds = 3\nschedule.gamma0 = auto", 10,
         "schedule.gamma0 must be a number or 'optimal', got 'auto'"),
        ("seeds = 3", "seeds = 3\nschedule.alpha = 1/2", 10,
         "schedule.alpha must be a number or 'auto', got '1/2'"),
        ("seeds = 3", "seeds = 3\nschedule.theta = abc", 10,
         "schedule.theta must be a number or 'auto', got 'abc'"),
        ("seeds = 3", "seeds = 3\nschedule.t = optimal", 10,
         "schedule.t must be a number or 'auto', got 'optimal'"),
        ("distribution = sphere", "distribution = gaussian\nweights = 0.25,0.25,0.25,0.25", 7,
         "weights is set, but nothing this config runs reads it$"),
        (QUAD_BASE, QUAD_BASE.replace("method = smtp", "method = smtp_is")
         .replace("distribution = sphere", "weights = 0.25,0.25,0.25,0.25"), 6,
         "weights is set, but nothing this config runs reads it; smtp_is draws coordinates by is.p"),
        ("distribution = sphere", "distribution = gaussian\nbasis = random:3", 7,
         "basis is set, but nothing this config runs reads it$"),
        ("distribution = sphere",
         "distribution = coord_weighted\nweights = 0.25,0.25,0.25,0.25\nbasis = random:3", 8,
         "basis is set, but nothing this config runs reads it$"),
        ("schedule.kind = solution_dependent\nmax_iters = 80",
         "schedule.kind = fixed_horizon\nschedule.gamma0 = 0.5\nmax_iters = 0", 9,
         "schedule.kind = fixed_horizon takes its horizon from max_iters, which is 0 here"),
        ("schedule.kind = solution_dependent",
         "schedule.kind = fixed_horizon\nschedule.gamma0 = 0.5\nschedule.horizon = 0", 9,
         "schedule.horizon must be >= 1"),
        ("method = smtp", "method = stp", 2, "method stp has no momentum and reads no beta"),
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4",
         "objective = rosenbrock\ndimension = 1", 4, "rosenbrock needs d >= 2"),
        ("coord_L = logspace:1,4", "coord_L = 1,2", 5, "coord_L has 2 entries, expected 4"),
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4\ndistribution = sphere\n"
         "schedule.kind = solution_dependent",
         "objective = lqr\nhorizon = 3\nd_state = 2\nd_ctrl = 1\ncoord_L = logspace:1,4\n"
         "distribution = sphere\nschedule.kind = constant\nschedule.gamma = 0.001", 7,
         "coord_L is set, but nothing this config runs reads it$"),
        ("schedule.kind = solution_dependent", "schedule.kind = constant", 7,
         "schedule.kind = constant needs schedule.gamma"),
        ("schedule.kind = solution_dependent", "schedule.kind = solution_free", 7,
         "schedule.kind = solution_free needs schedule.t"),
        ("seeds = 3", "seeds = 3\nis.p = prop_L", 10, "is.p is set, but nothing this config runs reads it$"),
        (QUAD_BASE, QUAD_BASE.replace("method = smtp", "method = stp")
         .replace("beta = 0.5", "beta = 0.0") + "\nis.w = ones", 10, "is.w is set, but nothing this config runs reads it$"),
        ("seeds = 3", "seeds = 3\nhorizon = 5", 10, "horizon is set, but nothing this config runs reads it$"),
        ("seeds = 3", "seeds = 3\nd_state = 2", 10, "d_state is set, but nothing this config runs reads it$"),
        ("seeds = 3", "seeds = 3\nd_ctrl = 1", 10, "d_ctrl is set, but nothing this config runs reads it$"),
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4\ndistribution = sphere\n"
         "schedule.kind = solution_dependent",
         "objective = lqr\ndimension = 2\nhorizon = 3\nd_state = 2\nd_ctrl = 1\n"
         "distribution = sphere\nschedule.kind = constant\nschedule.gamma = 0.001", 4,
         "dimension is set, but nothing this config runs reads it$"),
        ("seeds = 3", "seeds = 3\nnoise.k = 3", 10, "noise.k is set, but nothing this config runs reads it$"),
        ("seeds = 3", "seeds = 3\ncheckpoints = 10,20", 10, "checkpoints is set, but nothing this config runs reads it$"),
        ("seeds = 3", "seeds = 3\nr0 = 1.5", 10, "r0 is set, but nothing this config runs reads it$"),
        ("coord_L = logspace:1,4", "coord_L = -1,2,3,4", 5, "coord_L must be strictly positive"),
        ("dimension = 4", "dimension = 0", 4, "dimension must be >= 1"),
        ("seeds = 3", "seeds = 3\nshift = 1,2", 10, "shift has 2 entries, expected 4"),
        ("seeds = 3", "seeds = 3\nnoise.sigma = 0.1\nnoise.k = 0", 11, "noise.k must be >= 1"),
        ("seeds = 3", "seeds = 3\nx0 = 1,2", 10, "x0 has 2 entries, expected 4"),
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4",
         "objective = lqr\nhorizon = 3\nd_state = 3\nd_ctrl = 2\nx0 = 1,2,3", 7,
         "x0 has 3 entries, expected 6"),
        ("distribution = sphere", "distribution = coord_weighted\nweights = 0.5,0.5", 7,
         "weights has 2 entries, expected 4"),
        ("distribution = sphere", "distribution = coord_weighted", 6,
         "distribution 'coord_weighted' needs weights"),
        (QUAD_BASE, QUAD_BASE.replace("method = smtp", "method = smtp_is").replace("distribution = sphere\n", "") + "\nis.p = 0.5,0.5", 9,
         "is.p has 2 entries, expected 4"),
        (QUAD_BASE, QUAD_BASE.replace("method = smtp", "method = smtp_is").replace("distribution = sphere\n", "") + "\nis.w = 1,2,3", 9,
         "is.w has 3 entries, expected 4"),
        (QUAD_BASE, QUAD_BASE.replace("method = smtp", "method = smtp_is").replace("distribution = sphere\n", "")
         .replace("solution_dependent", "solution_free\nschedule.t = 0.3") + "\nis.w = 5,6,7,8", 10,
         "schedule.kind = solution_free takes no is.w: its steps scale by coord_L$"),
        ("distribution = sphere",
         "distribution = orthonormal_weighted\nweights = 0.25,0.25,0.25,0.25\nbasis = foo", 8,
         "bad basis spec 'foo'"),
        ("seeds = 3", "seeds = 3\ntheorem = CVX-CONST", 10, "theorem = CVX-CONST needs r0"),
        ("schedule.kind = solution_dependent", "schedule.kind = decreasing\nschedule.alpha = auto",
         8, "schedule.alpha = auto needs r0"),
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4",
         "objective = rosenbrock\ndimension = 4\nr0 = auto\ntheorem = CVX-CONST", 5,
         "r0 = auto is only available for the quadratic objective"),
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4",
         "objective = lqr\nhorizon = 0\nd_state = 2\nd_ctrl = 1", 4, "horizon must be >= 1"),
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4",
         "objective = lqr\nhorizon = 3\nd_state = 2\nd_ctrl = 3", 6,
         "need 1 <= d_ctrl <= d_state"),
        ("distribution = sphere", "distribution = coord_weighted\nweights = 0.1,0.2,0.3,0.5", 7,
         r"bad weights: weights must sum to 1 within 1e-12, got 1.1"),
        ("distribution = sphere", "distribution = orthonormal_weighted\nweights = 0.5,0.5,0.5,-0.5",
         7, "bad weights: weights must be strictly positive"),
        (QUAD_BASE, QUAD_BASE.replace("method = smtp", "method = smtp_is").replace("distribution = sphere\n", "") + "\nis.p = 0.1,0.2,0.3,0.5", 9,
         r"bad is.p: weights must sum to 1 within 1e-12, got 1.1"),
        # a stepsize rule's own check cites schedule.kind
        ("schedule.kind = solution_dependent", "schedule.kind = constant\nschedule.gamma = -1", 7,
         "schedule.kind = constant: gamma must be > 0$"),
        ("schedule.kind = solution_dependent",
         "schedule.kind = decreasing\nschedule.alpha = 1\nschedule.theta = 0.5", 7,
         "schedule.kind = decreasing: theta must be >= 2/alpha$"),
        # theta = auto is 2 / alpha: alpha = 0 reaches the rule's own check
        ("schedule.kind = solution_dependent", "schedule.kind = decreasing\nschedule.alpha = 0", 7,
         "schedule.kind = decreasing: alpha must be > 0$"),
        ("schedule.kind = solution_dependent", "schedule.kind = solution_dependent\n"
         "schedule.theta_k = 3", 7,
         r"schedule.kind = solution_dependent: theta_k must lie in \(0,2\), got 3.0 at k=0$"),
        ("schedule.kind = solution_dependent",
         "schedule.kind = fixed_horizon\nschedule.gamma0 = optimal\nx0 = zeros", 7,
         "schedule.kind = fixed_horizon: gamma0 must be > 0$"),
        # smtp_is reads is.w = coord_L, its default, which needs coordinate metadata
        (QUAD_BASE, "method = smtp_is\nobjective = rosenbrock\ndimension = 4\n"
         "schedule.kind = constant\nschedule.gamma = 0.001", 1,
         "is.w = coord_L needs coordinate smoothness metadata$"),
        # a rotated basis has no level-set radius for r0 = auto
        ("distribution = sphere\nschedule.kind = solution_dependent",
         "distribution = orthonormal_weighted\nweights = 0.25,0.25,0.25,0.25\nbasis = random:3\n"
         "schedule.kind = constant\nschedule.gamma = 0.01\nr0 = auto\ntheorem = CVX-CONST", 11,
         "r0 = auto: level radius for a rotated basis is not supported$"),
        # NC reads no theta_k, and CVX-DEC none over a decreasing rule
        ("schedule.kind = solution_dependent", "schedule.kind = constant\nschedule.gamma = 0.01\n"
         "track_grad_norm = true\ntheorem = NC\nschedule.theta_k = 0.5", 11,
         "schedule.theta_k is set, but nothing this config runs reads it$"),
        ("schedule.kind = solution_dependent", "schedule.kind = decreasing\nschedule.alpha = 1\n"
         "r0 = 1\ntheorem = CVX-DEC\nschedule.theta_k = 0.5", 11,
         "schedule.theta_k is set, but nothing this config runs reads it$"),
        # the rule steps by f(z) - f_star, which noise leaves undefined near the optimum
        ("seeds = 3", "seeds = 3\nnoise.sigma = 0.5", 10, NOISY_DEPENDENT),
        (QUAD_BASE, "method = smtp_is\nobjective = quadratic\ndimension = 4\ncoord_L = 1,2,3,4\n"
         "noise.sigma = 0.5\nnoise.k = 2\nschedule.kind = solution_dependent", 5, NOISY_DEPENDENT),
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4\ndistribution = sphere\n"
         "schedule.kind = solution_dependent", "objective = rosenbrock\ndimension = 4\n"
         "distribution = sphere\nschedule.kind = solution_free\nschedule.t = auto\nepsilon = 1e-6",
         7, "schedule.t = auto needs mu and L metadata$"),
        # solution_free under smtp_is scales by coord_L and reads no is.w
        (QUAD_BASE, "method = smtp_is\nobjective = rosenbrock\ndimension = 4\n"
         "schedule.kind = solution_free\nschedule.t = 1e-3", 4,
         "objective 'rosenbrock' has no coordinate smoothness constants$"),
        (QUAD_BASE, "method = smtp_is\nobjective = lqr\nhorizon = 3\nd_state = 2\nd_ctrl = 1\n"
         "schedule.kind = solution_free\nschedule.t = auto\nepsilon = 1e-6", 7,
         "schedule.t = auto needs mu and coord_L metadata$"),
        # f(x0) overflows: the envelope is inf, and no numpy warning comes first
        ("seeds = 3", "seeds = 3\nx0_scale = 1e160\ntheorem = SC-DEP", 11,
         "envelope must be finite and nonnegative$"),
        # a budget that buys no step and a target no gap can reach
        ("seeds = 3", "seeds = 3\neval_budget = 0", 10, "eval_budget must be >= 1$"),
        ("seeds = 3", "seeds = 3\nepsilon = 0", 10, "epsilon must be > 0$"),
    ], ids=["jobs", "max_iters", "seeds", "noise.sigma", "dimension", "lqr_size", "distribution",
            "smtp_is_distribution", "repeated_seeds", "negative_seed", "nc_needs_grad_norm", "envelope_max_iters",
            "lqr_grad_norm", "r0", "gamma0", "alpha", "theta", "t", "gaussian_weights",
            "smtp_is_weights", "gaussian_basis", "coord_weighted_basis",
            "fixed_horizon_without_horizon", "fixed_horizon_horizon_0", "stp_beta",
            "rosenbrock_dimension", "coord_L_entries", "lqr_coord_L",
            "constant_without_gamma", "solution_free_without_t", "smtp_is_p", "stp_is_w",
            "horizon_off_lqr", "d_state_off_lqr", "d_ctrl_off_lqr", "lqr_dimension",
            "noise_k_without_sigma", "checkpoints_without_theorem", "unread_r0",
            "coord_L_positive", "dimension_0", "shift_entries", "noise_k_0", "x0_entries",
            "lqr_x0_entries", "weights_entries", "weights_missing", "is_p_entries",
            "is_w_entries", "is_w_solution_free", "basis_spec", "cvx_without_r0", "alpha_auto_without_r0",
            "r0_auto_off_quadratic", "lqr_horizon_0", "lqr_d_ctrl", "weights_sum",
            "weights_positive", "is_p_sum", "negative_gamma", "theta_below_2_over_alpha",
            "alpha_zero", "theta_k_3", "optimal_gamma0_at_minimiser", "default_is_w_off_quadratic",
            "r0_auto_rotated_basis", "theta_k_under_nc", "theta_k_under_cvx_dec",
            "noisy_solution_dependent", "noisy_is_solution_dependent", "t_auto_off_quadratic",
            "is_solution_free_off_quadratic", "is_t_auto_off_quadratic", "envelope_overflow",
            "eval_budget_0", "epsilon_0"])
    def test_validation_errors_name_their_line(self, old, new, line, message):
        with pytest.raises(ConfigError, match=f"^line {line}: {message}"):
            parse_config(QUAD_BASE.replace(old, new))

    @pytest.mark.parametrize("key, value, kind", [
        ("schedule.gamma", "5", "constant"),
        ("schedule.gamma0", "0.5", "fixed_horizon"),
        ("schedule.horizon", "100", "fixed_horizon"),
        ("schedule.alpha", "1", "decreasing"),
        ("schedule.theta", "4", "decreasing"),
        ("schedule.theta_k", "0.5", "solution_dependent"),
        ("schedule.t", "0.3", "solution_free"),
    ])
    def test_unread_schedule_key_cites_its_line(self, key, value, kind, tmp_path, capsys):
        # QUAD_BASE's solution_dependent reads theta_k alone, fixed_horizon reads gamma0 and
        # horizon: every other key is set for nothing
        base = QUAD_BASE if kind != "solution_dependent" else QUAD_BASE.replace(
            "schedule.kind = solution_dependent",
            "schedule.kind = fixed_horizon\nschedule.gamma0 = 0.5")
        line = base.count("\n") + 2
        text = f"{base}\n{key} = {value}"
        with pytest.raises(ConfigError, match=f"^line {line}: {key} is set, but nothing this config runs reads it$"):
            parse_config(text)
        path = tmp_path / "unread.cfg"
        path.write_text(text + "\n")
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert "is set, but nothing this config runs reads it" in capsys.readouterr().err
        # under its own kind the key is read
        needed = {"fixed_horizon": "schedule.gamma0 = 0.5", "decreasing": "schedule.alpha = 1"}
        own = f"schedule.kind = {kind}\n{key} = {value}"
        if not needed.get(kind, key).startswith(key):
            own += "\n" + needed[kind]
        cfg = parse_config(QUAD_BASE.replace("schedule.kind = solution_dependent", own))
        assert float(getattr(cfg, harness._KEY_TO_FIELD[key])) == float(value)

    def test_noisy_envelope_reads_the_noise_free_gap(self, tmp_path, capsys):
        # the envelope's gap is f(x0) - f_star of the noise-free objective, the
        # same whatever the first seed: one noisy draw of f(x0) made it -0.075
        # for FULL_SURFACE, whose envelope then took its square root
        path = tmp_path / "full.cfg"
        path.write_text(FULL_SURFACE + "\n")
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok label=demo")
        plain = FULL_SURFACE.replace("noise.sigma = 0.1\nnoise.k = 4\n", "")
        noisy_nc = RIGGED_ENVELOPE + "\nnoise.sigma = 0.1"
        for noisy, clean in ((FULL_SURFACE, plain), (noisy_nc, RIGGED_ENVELOPE)):
            ks, bounds = harness.prepare(parse_config(clean))
            for seed in (1, 2, 3):
                got = harness.prepare(parse_config(re.sub("seeds = .*", f"seeds = {seed},99", noisy)))
                assert got[0] == ks and got[1].tobytes() == bounds.tobytes()

    def test_sc_dep_envelope_takes_theta_k_not_a_decreasing_theta(self):
        # a decreasing rule's theta is its stepsize's offset, not the SC-DEP
        # contraction theta the envelope builds from theta_k: the envelope over
        # a decreasing rule is the one over any other rule
        for theta_k in (0.5, 0.9):
            bounds = [harness.prepare(parse_config(QUAD_BASE.replace(
                "schedule.kind = solution_dependent", rule)
                + f"\ntheorem = SC-DEP\nschedule.theta_k = {theta_k}"))[1].tobytes()
                for rule in ("schedule.kind = decreasing\nschedule.alpha = 0.5",
                             "schedule.kind = constant\nschedule.gamma = 0.01",
                             "schedule.kind = solution_dependent")]
            assert bounds[0] == bounds[1] == bounds[2]
        assert harness.prepare(parse_config(QUAD_BASE + "\ntheorem = SC-DEP\nschedule.theta_k = 0.5"))[1] \
            .tobytes() != bounds[0]

    def test_sc_dep_envelope_reads_theta_k(self):
        # the SC-DEP envelope reads theta_k whatever the rule
        text = QUAD_BASE.replace("schedule.kind = solution_dependent",
                                 "schedule.kind = constant\nschedule.gamma = 0.01")
        cfg = parse_config(text + "\ntheorem = SC-DEP\nschedule.theta_k = 0.5")
        assert cfg.schedule_theta_k == 0.5

    @pytest.mark.parametrize("method, theorem", [
        ("smtp", "IS-SC-DEP"), ("stp", "IS-NC"), ("smtp_is", "SC-DEP")])
    def test_theorem_must_match_method(self, method, theorem, tmp_path, capsys):
        text = QUAD_BASE.replace("method = smtp", f"method = {method}") + f"\ntheorem = {theorem}"
        if method == "stp":
            text = text.replace("beta = 0.5", "beta = 0.0")  # stp takes beta 0 alone
        line = 10
        if method == "smtp_is":
            text, line = text.replace("distribution = sphere\n", ""), 9
        with pytest.raises(ConfigError, match=f"line {line}: theorem '{theorem}' does not apply"):
            parse_config(text)
        path = tmp_path / "mismatch.cfg"
        path.write_text(text + "\n")
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert "does not apply" in capsys.readouterr().err

    def test_keys_match_readme_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Config keys", 1)[1].split("\n## ", 1)[0]
        documented = set()
        for row in table.splitlines():
            if row.startswith("| `"):
                documented.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
        assert documented == set(harness._KEY_TO_FIELD)
        # a key is not its field's name
        for key, value in [("schedule_gamma", "0.1"), ("noise_obs", "2"), ("is_p", "uniform")]:
            with pytest.raises(ConfigError, match=f"^line 10: unknown key '{key}'"):
                parse_config(f"{QUAD_BASE}\n{key} = {value}")

    def test_fingerprint_ignores_execution_keys(self):
        a = parse_config(QUAD_BASE, label="a")
        b = parse_config(QUAD_BASE + "\nout = elsewhere\njobs = 8", label="b")
        assert a.fingerprint() == b.fingerprint()
        c = parse_config(QUAD_BASE.replace("max_iters = 80", "max_iters = 81"))
        assert c.fingerprint() != a.fingerprint()
        assert len(a.fingerprint()) == 12


class TestBuilders:
    def test_x0_forms(self):
        cfg = parse_config(QUAD_BASE)
        np.testing.assert_array_equal(build_x0(cfg, 4), np.ones(4))
        cfg.x0 = "zeros"
        np.testing.assert_array_equal(build_x0(cfg, 4), np.zeros(4))
        cfg.x0 = "1,2,3,4"
        cfg.x0_scale = 2.0
        np.testing.assert_array_equal(build_x0(cfg, 4), [2.0, 4.0, 6.0, 8.0])

    def test_x0_size_mismatch(self):
        cfg = parse_config(QUAD_BASE)
        cfg.x0 = "1,2"
        with pytest.raises(ConfigError, match="x0 has 2 entries, expected 4"):
            build_x0(cfg, 4)

    def test_is_vector_forms(self):
        text = QUAD_BASE.replace("method = smtp", "method = smtp_is")
        text = text.replace("distribution = sphere\n", "")
        cfg = parse_config(text)
        obj = build_objective(cfg, 0)
        coord_L = obj.smoothness.coord_L

        p, w = build_is_vectors(cfg, obj)  # defaults: uniform, coord_L
        np.testing.assert_allclose(p, np.full(4, 0.25))
        np.testing.assert_array_equal(w, coord_L)

        cfg.is_p, cfg.is_w = "prop_L", "ones"
        p, w = build_is_vectors(cfg, obj)
        np.testing.assert_allclose(p, coord_L / coord_L.sum())
        np.testing.assert_array_equal(w, np.ones(4))

        cfg.is_p, cfg.is_w = "0.1,0.2,0.3,0.4", "1,2,3,4"
        p, w = build_is_vectors(cfg, obj)
        np.testing.assert_array_equal(p, [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(w, [1.0, 2.0, 3.0, 4.0])

    def test_is_p_must_be_a_distribution(self, tmp_path, capsys):
        # caught by validate, before any run starts
        text = QUAD_BASE.replace("method = smtp", "method = smtp_is")
        text = text.replace("distribution = sphere\n", "") + "\nis.p = 0.1,0.2,0.3,0.5"
        with pytest.raises(ConfigError, match="bad is.p: weights must sum to 1"):
            run_once(parse_config(text), 0)
        path = tmp_path / "bad_p.cfg"
        path.write_text(text + "\n")
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert "bad is.p" in capsys.readouterr().err

    def test_prop_L_needs_coordinate_metadata(self):
        text = "\n".join([
            "method = smtp_is",
            "objective = rosenbrock",
            "dimension = 4",
            "is.p = prop_L",
            "schedule.kind = constant",
            "schedule.gamma = 0.001",
        ])
        with pytest.raises(ConfigError, match="^line 4: is.p = prop_L needs coordinate"):
            parse_config(text)

    def test_run_once_deterministic(self):
        cfg = parse_config(QUAD_BASE)
        t1, _ = run_once(cfg, seed=0)
        t2, _ = run_once(cfg, seed=0)
        assert [(r.k, r.f_z_after, r.branch) for r in t1.records] == \
               [(r.k, r.f_z_after, r.branch) for r in t2.records]
        np.testing.assert_array_equal(t1.final_state.z, t2.final_state.z)

    @pytest.mark.parametrize("method", ["stp", "smtp", "smtp_is"])
    def test_run_once_equals_the_public_preset(self, method):
        # run_once runs every method through smtp_run; the preset a library
        # caller reaches for must give the same run
        text = QUAD_BASE.replace("method = smtp", f"method = {method}") + "\ntrack_grad_norm = true"
        if method == "stp":
            text = text.replace("beta = 0.5", "beta = 0.0")
        if method == "smtp_is":
            text = text.replace("distribution = sphere\n", "") + "\nis.p = prop_L"
        cfg = parse_config(text)
        trace, obj = run_once(cfg, 5)
        preset_obj = build_objective(cfg, 5)
        x0 = build_x0(cfg, preset_obj.dimension)
        parts = harness.build_run(cfg, preset_obj, x0)
        args = (parts.schedule, cfg.beta, x0, cfg.max_iters)
        if method == "stp":
            preset = optimizers.stp_run(preset_obj, parts.dist, parts.schedule, x0, cfg.max_iters,
                                        seed=5, track_grad_norm=True)
        elif method == "smtp":
            preset = optimizers.smtp_run(preset_obj, parts.dist, *args, seed=5, track_grad_norm=True)
        else:
            preset = optimizers.smtp_is_run(preset_obj, parts.p, *args, seed=5, track_grad_norm=True)
        assert trace.grad_norm is not None and (trace.index is not None) == (method == "smtp_is")
        columns = ("f_z", "gamma", "branch", "evals", "grad_norm", "index", "stop_reason", "f0")
        assert [getattr(preset, c) for c in columns] == [getattr(trace, c) for c in columns]
        assert [getattr(preset.final_state, a).tobytes() for a in "zvx"] == \
            [getattr(trace.final_state, a).tobytes() for a in "zvx"]
        assert (preset.final_state.f_z, preset.final_state.k, preset_obj.eval_counter) == \
            (trace.final_state.f_z, trace.final_state.k, obj.eval_counter)

    def test_noisy_budget_counts_oracle_calls(self):
        # noise.k = 4 makes every query 4 oracle calls: f(x0) and 2 per
        # iteration cost 4 + 8 k, so a budget of 40 stops after 5 iterations
        cfg = parse_config(NOISY_BASE.replace("max_iters = 80", "max_iters = 1000")
                           + "\nnoise.sigma = 0.01\nnoise.k = 4\neval_budget = 40")
        trace, obj = run_once(cfg, seed=0)
        assert trace.stop_reason == "eval_budget"
        assert list(trace.evals) == [12, 20, 28, 36, 44]
        assert obj.eval_counter == 44
        result = run_experiment(cfg, write=False).seed_results[0]
        assert (result.iterations, result.evals) == (5, 44)

    def test_noise_seeding(self):
        cfg = parse_config(NOISY_BASE + "\nnoise.sigma = 0.05")
        a, _ = run_once(cfg, seed=0)
        b, _ = run_once(cfg, seed=0)
        c, _ = run_once(cfg, seed=1)
        assert a.records[-1].f_z_after == b.records[-1].f_z_after
        assert a.records[-1].f_z_after != c.records[-1].f_z_after

    @pytest.mark.parametrize("rule, name, value", [
        ("fixed_horizon\nschedule.gamma0 = optimal", "gamma0", 0.7544552319288876),
        ("decreasing\nschedule.alpha = auto\nr0 = auto", "alpha", 0.13219547811388085),
    ], ids=["gamma0_optimal", "alpha_auto"])
    def test_derived_stepsize_constants_read_the_noise_free_objective(self, rule, name, value):
        # one noisy draw of f(x0) made each seed's constant its own; the
        # noise-free f(x0) is no query of the noisy run, so it leaves its
        # evals and noise draws alone
        text = QUAD_BASE.replace("solution_dependent", rule)
        assert getattr(harness._build_row(parse_config(text), 0)[2].schedule, name) == value
        noisy = parse_config(text + "\nnoise.sigma = 0.5")
        for seed in (0, 1, 2):
            obj, _, parts = harness._build_row(noisy, seed)
            assert getattr(parts.schedule, name) == value
            assert obj.eval_counter == 0

    @pytest.mark.parametrize("method, text, t", [
        ("smtp", "distribution = sphere", 9.973557010035818e-05),
        ("smtp_is", "is.p = prop_L", 0.00039322075156801876),
    ])
    def test_solution_free_t_auto(self, method, text, t, tmp_path, capsys):
        # t = auto takes the largest probe offset that reaches epsilon
        # (schedules.solution_free_t_max and its IS form)
        base = (QUAD_BASE.replace("method = smtp", f"method = {method}")
                .replace("distribution = sphere", text)
                .replace("solution_dependent", "solution_free\nschedule.t = auto\nepsilon = 1e-6"))
        assert harness._build_row(parse_config(base), 0)[2].schedule.t == t
        # and the SC-FREE envelope holds for it
        theorem = "IS-SC-FREE" if method == "smtp_is" else "SC-FREE"
        path = tmp_path / "auto.cfg"
        path.write_text(base + f"\ntheorem = {theorem}\n")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "envelope: pass"

    @pytest.mark.parametrize("rule", ["constant\nschedule.gamma = 0.05",
                                      "solution_free\nschedule.t = 1e-3",
                                      "fixed_horizon\nschedule.gamma0 = optimal"])
    def test_identity_basis_equals_the_coordinate_law(self, rule, tmp_path):
        # orthonormal_weighted over the identity draws the coordinates
        # coord_weighted draws, as vectors: four seeds make a block of each
        # kind of law wherever the block takes the rule
        text = (QUAD_BASE.replace("solution_dependent", rule).replace("seeds = 3", "seeds = 4")
                + "\nweights = 0.1,0.2,0.3,0.4")
        traces = []
        for law in ("coord_weighted", "orthonormal_weighted\nbasis = identity"):
            cfg = parse_config(text.replace("sphere", law), label="law")
            out = tmp_path / law[:5]
            run_experiment(cfg, out_dir=str(out))
            traces.append([(out / "law" / f"trace_seed{s}.csv").read_bytes() for s in range(4)])
        assert traces[0] == traces[1]


class TestRunExperiment:
    def test_artifacts_and_roundtrip(self, tmp_path):
        cfg = parse_config(QUAD_BASE, label="art")
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        run_dir = tmp_path / "art"
        assert summary.out_dir == str(run_dir)
        assert (run_dir / "summary.txt").exists()
        for seed in cfg.seeds:
            assert (run_dir / f"trace_seed{seed}.csv").exists()

        lines = (run_dir / "trace_seed0.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        trace, _ = run_once(cfg, 0)
        assert len(lines) - 1 == len(trace.records)
        for line, rec in zip(lines[1:], trace.records):
            k, f_z, gamma, branch, evals, grad = line.split(",")
            assert int(k) == rec.k
            assert float(f_z) == rec.f_z_after  # .17g survives the roundtrip
            assert float(gamma) == rec.gamma
            assert branch in ("plus", "minus", "stay")
            assert int(evals) == rec.evals_cumulative
            assert grad == ""

        text = (run_dir / "summary.txt").read_text()
        assert "label=art" in text
        assert f"fingerprint={cfg.fingerprint()}" in text
        assert "envelope=none" in text
        assert "seed2.stop=max_iters" in text

    @pytest.mark.parametrize("fields, message", [
        (dict(schedule_kind="constant"), "schedule.kind = constant needs schedule.gamma"),
        (dict(schedule_kind="steepest"), "unknown schedule.kind 'steepest'"),
        (dict(distribution="coord_weighted"), "distribution 'coord_weighted' needs weights"),
    ], ids=["no_gamma", "unknown_kind", "no_weights"])
    def test_directly_built_configs_are_checked(self, fields, message, monkeypatch):
        # a config built without parse_config gets parse_config's checks
        # before any seed runs: the builders trust them
        cfg = harness.ExperimentConfig(**{
            "objective": "quadratic", "dimension": 4, "distribution": "sphere",
            "schedule_kind": "solution_dependent", "max_iters": 20, **fields})
        with pytest.raises(ConfigError) as one_seed:
            run_once(cfg, 0)
        monkeypatch.setattr(harness, "_run_seeds", None)
        with pytest.raises(ConfigError) as raised:
            run_experiment(cfg, write=False)
        assert str(raised.value) == str(one_seed.value) == message

    @pytest.mark.parametrize("fields, message", [
        (dict(schedule_kind="steepest"), "unknown schedule.kind 'steepest'"),
        (dict(schedule_kind="constant"), "schedule.kind = constant needs schedule.gamma"),
    ], ids=["unknown_kind", "no_gamma"])
    def test_build_schedule_checks_a_direct_config(self, fields, message):
        # build_schedule called on its own checks schedule.kind as parse_config does
        cfg = harness.ExperimentConfig(objective="quadratic", dimension=3, distribution="sphere",
                                       **fields)
        obj = build_objective(cfg, 0)
        nc = harness.directions.constants(harness.directions.DirectionDistribution("sphere", 3))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            harness.build_schedule(cfg, obj, build_x0(cfg, 3), nc)

    @pytest.mark.parametrize("fields, message", [
        (dict(distribution="coord_weighted"), "distribution 'coord_weighted' needs weights"),
        (dict(distribution="orthonormal_weighted", weights="0.25,0.25,0.25,0.25", basis="foo"),
         "bad basis spec 'foo': expected identity or random:<seed>"),
    ], ids=["no_weights", "bad_basis"])
    def test_build_distribution_checks_a_direct_config(self, fields, message):
        # build_distribution called on its own checks the weights and basis
        # spec as parse_config does
        cfg = harness.ExperimentConfig(objective="quadratic", dimension=4, **fields)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            harness.build_distribution(cfg, 4)

    @pytest.mark.parametrize("track, long_double", [
        pytest.param(False, True, id="False"), pytest.param(True, True, id="True"),
        pytest.param(False, False, id="False-double"), pytest.param(True, False, id="True-double"),
    ])
    def test_trace_csv_chunks(self, tmp_path, monkeypatch, track, long_double):
        # the writer formats CSV_CHUNK rows at a time; the bytes must equal
        # one join over every row, at and across a chunk boundary.  With the
        # powers of ten in double, as where long double is double (macOS
        # arm64, Windows), every float is formatted by Python's fallback
        if not long_double:
            with np.errstate(over="ignore"):
                monkeypatch.setattr(render, "_POW10", render._POW10.astype(float))
        for n in (0, harness.CSV_CHUNK, harness.CSV_CHUNK + 1):
            text = QUAD_BASE.replace("max_iters = 80", f"max_iters = {n}")
            cfg = parse_config(text + ("\ntrack_grad_norm = true" if track else ""))
            trace, _ = run_once(cfg, 0)
            rows = [CSV_HEADER] + [
                f"{r.k},{format(r.f_z_after, '.17g')},{format(r.gamma, '.17g')},{r.branch},"
                f"{r.evals_cumulative},{harness._format(r.grad_norm_D)}"
                for r in trace.records]
            path = tmp_path / f"trace{n}.csv"
            harness._write_trace(trace, str(path))
            assert len(rows) == n + 1
            assert path.read_bytes() == ("\n".join(rows) + "\n").encode()

    @pytest.mark.parametrize("long_double", [True, False], ids=["long_double", "double"])
    def test_traces_written_back_to_back_share_no_bytes(self, tmp_path, monkeypatch, long_double):
        # one process writes four traces in turn, each over more than two
        # chunks with a partial last one, grad_norm_D set on every other one;
        # k crosses 999 -> 1000 and evals 9999 -> 10000 inside a chunk.  Each
        # file must be the plain join of its own columns
        if not long_double:
            with np.errstate(over="ignore"):
                monkeypatch.setattr(render, "_POW10", render._POW10.astype(float))
        steps = 5003
        assert steps > 2 * harness.CSV_CHUNK and steps % harness.CSV_CHUNK
        for i, track in enumerate([True, False, True, False]):
            text = QUAD_BASE.replace("max_iters = 80", f"max_iters = {steps}")
            trace, _ = run_once(parse_config(text + f"\ntrack_grad_norm = {str(track).lower()}"), i)
            grad = trace.grad_norm if track else [None] * steps
            rows = [CSV_HEADER] + [
                f"{k},{format(f, '.17g')},{format(g, '.17g')},{optimizers.BRANCHES[b]},{'%d' % e},"
                f"{harness._format(n)}"
                for k, (f, g, b, e, n) in enumerate(zip(trace.f_z, trace.gamma, trace.branch,
                                                        trace.evals, grad))]
            path = tmp_path / f"trace{i}.csv"
            harness._write_trace(trace, str(path))
            assert len(rows) == steps + 1 and trace.evals[-1] > 10**4 > trace.evals[0]
            assert path.read_bytes() == ("\n".join(rows) + "\n").encode()

    def test_written_tail_works_in_a_small_set(self, tmp_path):
        # _seed_result writes one 20,000-row trace of quad_run's shape and
        # summarises it: its traced peak above the trace it holds stays within
        # a few chunks' cells (about 1 MB when each chunk's cells were copied)
        text = "\n".join(["method = smtp", "beta = 0.5", "objective = quadratic", "dimension = 10",
                          "coord_L = logspace:1,10", "distribution = sphere",
                          "schedule.kind = solution_dependent", "max_iters = 20000"])
        cfg = parse_config(text)
        trace, obj = run_once(cfg, 1)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            result, _ = harness._seed_result(cfg, 1, trace, obj, 0.0, str(tmp_path), None)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert result.contraction is not None and (tmp_path / "trace_seed1.csv").exists()
        assert peak < 512 * 1024

    @pytest.mark.parametrize("iters, rate", [(9, None), (10, 0.97872), (11, 0.97874)])
    def test_summary_reports_every_rate_the_fit_gives(self, tmp_path, iters, rate):
        # fit_linear_rate alone decides: 10 and 11 iterations leave 10 and 11
        # points after the 10% burn-in, 9 iterations too few
        text = "\n".join(["method = smtp", "beta = 0.5", "objective = quadratic",
                          "dimension = 10", "coord_L = logspace:1,10", "distribution = sphere",
                          "schedule.kind = solution_dependent", f"max_iters = {iters}",
                          "seeds = 1"])
        cfg = parse_config(text, label="short")
        run_experiment(cfg, out_dir=str(tmp_path))
        summary = _summary(tmp_path / "short")
        trace, obj = run_once(cfg, 0)
        if rate is None:
            assert summary["seed0.contraction"] == summary["seed0.r_squared"] == ""
            with pytest.raises(ValueError, match=">= 10"):
                diagnostics.fit_linear_rate(trace, obj.smoothness.f_star)
        else:
            fit = diagnostics.fit_linear_rate(trace, obj.smoothness.f_star)
            assert float(summary["seed0.contraction"]) == fit.rate == pytest.approx(rate, abs=5e-6)
            assert float(summary["seed0.r_squared"]) == fit.r_squared

    def test_written_runs_call_no_lapack(self, tmp_path, monkeypatch):
        # the rate fit is a closed form: LAPACK's first lstsq call alone
        # raised a written run's resident peak by about 1.5 MB.  polyfit binds
        # lstsq at import, so both names are patched
        def no_lapack(*args, **kwargs):
            raise AssertionError("a written run called LAPACK")

        monkeypatch.setattr(np, "polyfit", no_lapack)
        monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
        for label, seeds in (("block", "1,2,3"), ("alone", "1")):
            cfg = parse_config(QUAD_BASE.replace("seeds = 3", f"seeds = {seeds}"), label=label)
            run_experiment(cfg, out_dir=str(tmp_path))
            summary = _summary(tmp_path / label)
            assert all(0.0 < float(summary[f"seed{seed}.contraction"]) < 1.0 for seed in cfg.seeds)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(QUAD_BASE, label="x")
        run_experiment(cfg, out_dir=str(tmp_path / "a"))
        run_experiment(cfg, out_dir=str(tmp_path / "b"))
        for seed in cfg.seeds:
            fa = (tmp_path / "a" / "x" / f"trace_seed{seed}.csv").read_bytes()
            fb = (tmp_path / "b" / "x" / f"trace_seed{seed}.csv").read_bytes()
            assert fa == fb

    def test_parallel_matches_serial(self, tmp_path):
        cfg = parse_config(QUAD_BASE, label="x")
        run_experiment(cfg, out_dir=str(tmp_path / "serial"), jobs=1)
        run_experiment(cfg, out_dir=str(tmp_path / "par"), jobs=2)
        for seed in cfg.seeds:
            fa = (tmp_path / "serial" / "x" / f"trace_seed{seed}.csv").read_bytes()
            fb = (tmp_path / "par" / "x" / f"trace_seed{seed}.csv").read_bytes()
            assert fa == fb

    def test_env_var_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv(harness.ENV_OUT, str(tmp_path / "envout"))
        cfg = parse_config(QUAD_BASE, label="e")
        run_experiment(cfg)
        assert (tmp_path / "envout" / "e" / "summary.txt").exists()

    def test_out_precedence(self, tmp_path):
        cfg = parse_config(QUAD_BASE + f"\nout = {tmp_path / 'cfgout'}", label="p")
        run_experiment(cfg, out_dir=str(tmp_path / "param"))
        assert (tmp_path / "param" / "p" / "summary.txt").exists()
        assert not (tmp_path / "cfgout").exists()

    def test_envelope_pass(self):
        cfg = parse_config(QUAD_BASE.replace("max_iters = 80", "max_iters = 400")
                           + "\ntheorem = SC-DEP")
        summary = run_experiment(cfg, write=False)
        assert summary.envelope_ok is True
        assert all(r.envelope_ok for r in summary.seed_results)

    def test_cvx_const_over_fixed_horizon_reads_its_constant_step(self, monkeypatch):
        # a fixed-horizon rule is the constant gamma0 / sqrt(horizon) over the
        # run, and CVX-CONST's envelope reads that gamma
        seen, bound = [], diagnostics.bound_envelope

        def bound_envelope(theorem_id, params, n_iters):
            seen.append(params)
            return bound(theorem_id, params, n_iters)

        monkeypatch.setattr(harness.diagnostics, "bound_envelope", bound_envelope)
        cfg = parse_config(QUAD_BASE.replace("max_iters = 80", "max_iters = 400")
                           .replace("seeds = 3", "seeds = 0,1,2")
                           .replace("schedule.kind = solution_dependent",
                                    "schedule.kind = fixed_horizon\nschedule.gamma0 = 0.02")
                           + "\nr0 = auto\ntheorem = CVX-CONST")
        summary = run_experiment(cfg, write=False)
        assert seen and all(params["gamma"] == 0.02 / math.sqrt(400) for params in seen)
        assert summary.envelope_ok is True

    def test_envelope_fail_detected(self):
        # a near-zero constant step makes no progress, so the running mean of
        # gradient norms cannot track the 1/sqrt(k) envelope
        cfg = parse_config(RIGGED_ENVELOPE)
        summary = run_experiment(cfg, write=False)
        assert summary.envelope_ok is False

    def test_no_theorem_means_no_verdict(self):
        summary = run_experiment(parse_config(QUAD_BASE), write=False)
        assert summary.envelope_ok is None

    def test_checkpoints_validated(self):
        with pytest.raises(ConfigError, match=r"^line 11: checkpoints must lie in \[1, max_iters\]"):
            parse_config(QUAD_BASE + "\ntheorem = SC-DEP\ncheckpoints = 10,5000")


class TestCompare:
    def test_median_equals_np_median_bitwise(self):
        # odd and even counts from 1 to 9, with inf present (a seed that never
        # reaches the target) or not, and with ties
        rng = np.random.default_rng(0)
        for n in range(1, 10):
            for _ in range(20):
                a = rng.choice([0.1, 3.0, 7.25, 1e300, rng.random(), rng.random() * 1e6], n)
                for b in (a, np.where(rng.random(n) < 0.3, math.inf, a)):
                    got, want = harness._median(b.copy()), np.median(b)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == want.tobytes(), b

    def test_momentum_wins_at_shared_step(self):
        # same constant gamma on an ill-conditioned quadratic: the momentum
        # form takes an effective step gamma/(1-beta) and needs fewer evals
        stp = parse_config(SHARED_STEP + "\nmethod = stp", label="stp")
        smtp = parse_config(SHARED_STEP + "\nmethod = smtp\nbeta = 0.5", label="smtp")
        rows = compare_methods([stp, smtp])
        assert rows[0]["label"] == "stp" and rows[1]["label"] == "smtp"
        assert rows[0]["n_reached"] == 5 and rows[1]["n_reached"] == 5
        assert rows[1]["median_evals"] < rows[0]["median_evals"]

    def test_beta_zero_is_identical_to_plain(self, tmp_path):
        short = SHARED_STEP.replace("max_iters = 4000", "max_iters = 500")
        stp = parse_config(short + "\nmethod = stp", label="a")
        zero = parse_config(short + "\nmethod = smtp\nbeta = 0.0", label="b")
        rows = compare_methods([stp, zero], out_dir=str(tmp_path))
        for key in ("n_reached", "median_evals", "min_evals", "max_evals"):
            assert rows[0][key] == rows[1][key]
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "label,n_seeds,n_reached,median_evals,min_evals,max_evals"
        assert lines[1].startswith("a,5,") and lines[2].startswith("b,5,")

    def test_unreached_counts_as_inf(self):
        text = SHARED_STEP.replace("max_iters = 4000", "max_iters = 3")
        a = parse_config(text + "\nmethod = stp", label="a")
        b = parse_config(text + "\nmethod = smtp", label="b")
        rows = compare_methods([a, b])
        assert rows[0]["n_reached"] == 0
        assert math.isinf(rows[0]["median_evals"])

    def test_table_prints_inf_and_half_medians(self, tmp_path):
        # four seeds of the probing rule give a median between two evaluation
        # counts; three iterations reach no target, so every count is inf
        text = SHARED_STEP.replace("seeds = 5", "seeds = 4").replace("max_iters = 4000", "")
        probe = parse_config(text.replace("constant\nschedule.gamma = 0.05",
                                          "solution_free\nschedule.t = 0.1")
                             + "\nmax_iters = 4000\nmethod = smtp", label="probe")
        short = parse_config(text + "\nmax_iters = 3\nmethod = smtp", label="short")
        compare_methods([probe, short], out_dir=str(tmp_path))
        assert (tmp_path / "compare.csv").read_bytes() == (
            b"label,n_seeds,n_reached,median_evals,min_evals,max_evals\n"
            b"probe,4,4,278.5,154,334\nshort,4,0,inf,inf,inf\n")

    def test_requires_shared_objective(self):
        a = parse_config(SHARED_STEP + "\nmethod = stp", label="a")
        b = parse_config(SHARED_STEP.replace("dimension = 10", "dimension = 9")
                         .replace("coord_L = logspace:1,10", "coord_L = logspace:1,9")
                         + "\nmethod = smtp", label="b")
        with pytest.raises(ValueError, match="mismatched objectives"):
            compare_methods([a, b])

    def test_requires_shared_epsilon(self):
        a = parse_config(SHARED_STEP + "\nmethod = stp", label="a")
        b = parse_config(SHARED_STEP.replace("epsilon = 0.5", "epsilon = 0.25")
                         + "\nmethod = smtp", label="b")
        with pytest.raises(ValueError, match="same epsilon"):
            compare_methods([a, b])
        c = parse_config(QUAD_BASE, label="c")
        d = parse_config(QUAD_BASE.replace("method = smtp\nbeta = 0.5", "method = stp"), label="d")
        with pytest.raises(ValueError, match="epsilon"):
            compare_methods([c, d])

    def test_honours_jobs(self, monkeypatch):
        pools = []
        process_pool = harness._process_pool

        def recording_pool(workers):
            pools.append(workers)
            return process_pool(workers)

        monkeypatch.setattr(harness, "_process_pool", recording_pool)
        short = SHARED_STEP.replace("max_iters = 4000", "max_iters = 500")
        configs = [parse_config(short + f"\nmethod = {m}", label=m) for m in ("stp", "smtp")]
        rows = compare_methods(configs)
        assert pools == []
        for cfg in configs:
            cfg.jobs = 2
        assert compare_methods(configs) == rows
        assert pools == [2]  # one pool for the rows of every config

    def test_fits_no_rate(self, monkeypatch):
        # compare reads evals and stop reasons; a rate fit would be thrown away
        def no_fit(*args, **kwargs):
            raise AssertionError("compare fitted a rate")

        monkeypatch.setattr(harness.diagnostics, "fit_linear_rate", no_fit)
        short = SHARED_STEP.replace("max_iters = 4000", "max_iters = 500")
        configs = [parse_config(short + f"\nmethod = {m}", label=m) for m in ("stp", "smtp")]
        rows = compare_methods(configs)
        assert [row["label"] for row in rows] == ["stp", "smtp"]
        assert all(row["n_reached"] == 5 for row in rows)

    def test_requires_two_configs(self):
        with pytest.raises(ValueError, match="at least two"):
            compare_methods([parse_config(QUAD_BASE)])


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text + "\n")
        return str(path)

    def test_run_ok(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, "demo.cfg", QUAD_BASE)
        code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "label=demo" in out
        assert "seed 0:" in out and "stop=max_iters" in out
        assert (tmp_path / "out" / "demo" / "trace_seed1.csv").exists()

    def test_run_summary_branch_mix_and_gamma_range(self, tmp_path):
        cfg_path = self._write(tmp_path, "obs.cfg", QUAD_BASE.replace("seeds = 3", "seeds = 3,4"))
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "obs" / "summary.txt").read_text()
        summary = dict(line.split("=", 1) for line in text.splitlines())
        cfg = load_config(cfg_path)
        for seed in (3, 4):
            trace, _ = run_once(cfg, seed)
            branches = [r.branch for r in trace.records]
            gammas = sorted(r.gamma for r in trace.records)
            rates = [float(summary[f"seed{seed}.branch.{b}"]) for b in ("plus", "minus", "stay")]
            assert rates == [branches.count(b) / 80 for b in ("plus", "minus", "stay")]
            assert math.isclose(sum(rates), 1.0)
            assert float(summary[f"seed{seed}.gamma.min"]) == gammas[0]
            assert float(summary[f"seed{seed}.gamma.median"]) == np.median(gammas)
            assert float(summary[f"seed{seed}.gamma.max"]) == gammas[-1]

        # a seed that ran no iteration leaves the six values empty
        cfg_path = self._write(tmp_path, "empty.cfg", QUAD_BASE.replace("max_iters = 80",
                                                                        "max_iters = 0"))
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "empty" / "summary.txt").read_text().splitlines()
        for key in ("branch.plus", "branch.minus", "branch.stay",
                    "gamma.min", "gamma.median", "gamma.max"):
            assert f"seed0.{key}=" in lines

    def test_noisy_run_summary_reports_the_noise_free_gap(self, tmp_path):
        # a noisy run compares fresh draws with one cached noisy f(z): seed 0
        # freezes after its move at k = 590 with a cached gap of 0.80 where the
        # true gap is 4.26
        noisy = NOISY_BASE.replace("max_iters = 80", "max_iters = 2000").replace("seeds = 3",
                                                                                  "seeds = 0,1")
        cfg_path = self._write(tmp_path, "noisy.cfg", noisy + "\nnoise.sigma = 1")
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "noisy" / "summary.txt").read_text()
        summary = dict(line.split("=", 1) for line in text.splitlines())
        cfg = load_config(cfg_path)
        for seed in (0, 1):
            trace, obj = run_once(cfg, seed)
            true_gap = obj.base.value(trace.final_state.z) - obj.smoothness.f_star
            assert float(summary[f"seed{seed}.final_gap_noise_free"]) == true_gap
            assert float(summary[f"seed{seed}.final_gap"]) == trace.f_z[-1]
            # read outside the run: its evals are the trace's
            assert int(summary[f"seed{seed}.evals"]) == trace.evals[-1]
            moves = [k for k, branch in enumerate(trace.branch) if branch != optimizers.STAY]
            assert int(summary[f"seed{seed}.last_move"]) == moves[-1]
        assert round(float(summary["seed0.final_gap"]), 2) == 0.80
        assert round(float(summary["seed0.final_gap_noise_free"]), 2) == 4.26
        assert (summary["seed0.last_move"], summary["seed1.last_move"]) == ("590", "644")
        # a seed that never moved leaves last_move empty
        cfg_path = self._write(tmp_path, "still.cfg",
                               noisy.replace("max_iters = 2000", "max_iters = 0") + "\nnoise.sigma = 1")
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        assert "seed0.last_move=" in (tmp_path / "out" / "still" / "summary.txt").read_text().splitlines()
        # a noise-free run writes no such keys
        cfg_path = self._write(tmp_path, "plain.cfg", QUAD_BASE)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "plain" / "summary.txt").read_text()
        assert "final_gap_noise_free" not in text and "last_move" not in text

    def test_run_seed_override(self, tmp_path):
        cfg_path = self._write(tmp_path, "demo.cfg", QUAD_BASE)
        code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out"),
                         "--seed", "7"])
        assert code == 0
        run_dir = tmp_path / "out" / "demo"
        assert (run_dir / "trace_seed7.csv").exists()
        assert not (run_dir / "trace_seed0.csv").exists()

    def test_run_envelope_violation_exits_2(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, "rig.cfg", RIGGED_ENVELOPE)
        code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "envelope: fail" in capsys.readouterr().out

    def test_validate_ok(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, "demo.cfg", QUAD_BASE)
        assert cli.main(["validate", "--config", cfg_path]) == 0
        assert capsys.readouterr().out.startswith("ok label=demo")

    def test_sc_dep_over_decreasing_validates(self, tmp_path, capsys):
        # SC-DEP reads theta_k alone, which every rule's config has
        text = QUAD_BASE.replace("schedule.kind = solution_dependent",
                                 "schedule.kind = decreasing\nschedule.alpha = 0.5\ntheorem = SC-DEP")
        cfg_path = self._write(tmp_path, "dec.cfg", text)
        assert cli.main(["validate", "--config", cfg_path]) == 0
        assert capsys.readouterr().out.startswith("ok label=dec")

    def test_validate_catches_metadata_errors(self, tmp_path, capsys):
        # parses fine, but the schedule needs a mu the objective lacks
        text = QUAD_BASE.replace("objective = quadratic", "objective = rosenbrock")
        text = text.replace("coord_L = logspace:1,4\n", "")
        cfg_path = self._write(tmp_path, "bad.cfg", text)
        assert cli.main(["validate", "--config", cfg_path]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("seeds = 3", "seeds = 3\ntheorem = CVX-CONST", "needs r0"),
        ("seeds = 3", "seeds = 3\ntheorem = SC-DEP\ncheckpoints = 10,5000",
         "line 11: checkpoints must lie in [1, max_iters]"),
        ("seeds = 3", "seeds = 3,3", "line 9: seeds must not repeat"),
        # x0 at the minimiser: the level-set radius is 0, and alpha = auto divides by it
        ("schedule.kind = solution_dependent",
         "schedule.kind = decreasing\nschedule.alpha = auto\nr0 = auto\nx0 = zeros",
         "error: line 9: r0 = auto resolves to 0.0; r0 must be > 0"),
        # and the CVX envelope divides by it
        ("seeds = 3", "seeds = 3\nx0 = zeros\nr0 = auto\ntheorem = CVX-CONST",
         "error: line 11: r0 = auto resolves to 0.0; r0 must be > 0"),
        # errors found while the run is prepared cite the key that needs the value
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4",
         "objective = rosenbrock\ndimension = 4",
         "error: line 6: objective 'rosenbrock' has no strong convexity constant mu"),
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4",
         "objective = lqr\nhorizon = 3\nd_state = 2\nd_ctrl = 1",
         "error: line 8: objective 'lqr' has no strong convexity constant mu"),
        ("schedule.kind = solution_dependent", "schedule.kind = solution_free\nschedule.t = auto",
         "error: line 8: schedule.t = auto needs epsilon"),
        ("method = smtp\nbeta = 0.5\nobjective = quadratic\ndimension = 4\n"
         "coord_L = logspace:1,4\ndistribution = sphere\nschedule.kind = solution_dependent",
         "method = smtp_is\nbeta = 0.5\nobjective = rosenbrock\ndimension = 4\n"
         "is.p = prop_L\nschedule.kind = constant\nschedule.gamma = 0.01",
         "error: line 5: is.p = prop_L needs coordinate smoothness metadata"),
        ("method = smtp\nbeta = 0.5\nobjective = quadratic\ndimension = 4\n"
         "coord_L = logspace:1,4\ndistribution = sphere\nschedule.kind = solution_dependent",
         "method = smtp_is\nbeta = 0.5\nobjective = rosenbrock\ndimension = 4\n"
         "is.w = coord_L\nschedule.kind = constant\nschedule.gamma = 0.01",
         "error: line 5: is.w = coord_L needs coordinate smoothness metadata"),
        ("schedule.kind = solution_dependent",
         "schedule.kind = constant\nschedule.gamma = 10\nr0 = 1\ntheorem = CVX-CONST",
         "error: line 10: stepsize gamma = 10.0 outside the contractive range"),
        ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,4\ndistribution = sphere\n"
         "schedule.kind = solution_dependent",
         "objective = lqr\nhorizon = 3\nd_state = 2\nd_ctrl = 1\ndistribution = sphere\n"
         "schedule.kind = constant\nschedule.gamma = 0.001\ntheorem = SC-DEP",
         "error: line 10: bound_envelope('SC-DEP') missing parameter 'mu'"),
        # a theorem that reads a stepsize constant the rule does not have names both
        ("schedule.kind = solution_dependent",
         "schedule.kind = solution_dependent\nr0 = 1\ntheorem = CVX-CONST",
         "error: line 9: theorem 'CVX-CONST' reads the stepsize's gamma, which "
         "schedule.kind = solution_dependent lacks"),
        ("schedule.kind = solution_dependent",
         "schedule.kind = constant\nschedule.gamma = 0.01\nr0 = 1\ntheorem = CVX-DEC",
         "error: line 10: theorem 'CVX-DEC' reads the stepsize's alpha, which "
         "schedule.kind = constant lacks"),
        ("schedule.kind = solution_dependent", "schedule.kind = solution_dependent\ntheorem = SC-FREE",
         "error: line 8: theorem 'SC-FREE' reads the stepsize's t, which "
         "schedule.kind = solution_dependent lacks"),
    ], ids=["cvx_without_r0", "checkpoints_range", "repeated_seeds", "r0_auto_at_minimiser",
            "r0_auto_at_minimiser_cvx", "rosenbrock_without_mu", "lqr_without_mu",
            "t_auto_without_epsilon", "prop_L_without_coord_L", "coord_L_w_without_coord_L",
            "non_contractive_envelope", "envelope_without_mu", "cvx_const_without_gamma",
            "cvx_dec_without_alpha", "sc_free_without_t"])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, old, new, message):
        cfg_path = self._write(tmp_path, "bad.cfg", QUAD_BASE.replace(old, new))
        assert cli.main(["validate", "--config", cfg_path]) == 1
        assert message in capsys.readouterr().err
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    def test_a_probe_that_overflows_fails_the_run(self, tmp_path, capsys):
        # solution_free probes f(z + t s) before the candidates: at t = 1e200 the
        # probe overflows at the first step, which the error names
        text = ("method = smtp\nobjective = rosenbrock\ndimension = 4\ndistribution = sphere\n"
                "schedule.kind = solution_free\nschedule.t = 1e200\nmax_iters = 20\nseeds = 2")
        cfg_path = self._write(tmp_path, "probe.cfg", text)
        assert cli.main(["validate", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: probe seed 0: non-finite objective value inf "
                                           "at iteration 0, from z with ||z||_2 = 2.0\n")

    def test_readme_example_runs(self, tmp_path, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        text = readme.split("# quadratic.cfg\n", 1)[1].split("```", 1)[0]
        cfg_path = self._write(tmp_path, "quadratic.cfg", text)
        assert cli.main(["validate", "--config", cfg_path]) == 0
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "runs")]) == 0
        assert "envelope: pass" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_errors(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert cli.main(["run"]) == 1  # --config is required
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_compare_cli(self, tmp_path, capsys):
        short = SHARED_STEP.replace("max_iters = 4000", "max_iters = 500")
        a = self._write(tmp_path, "stp.cfg", short + "\nmethod = stp")
        b = self._write(tmp_path, "smtp0.cfg", short + "\nmethod = smtp\nbeta = 0.0")
        code = cli.main(["compare", "--configs", a, b, "--out", str(tmp_path / "cmp")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "label,n_seeds,n_reached,median_evals,min_evals,max_evals"
        assert (tmp_path / "cmp" / "compare.csv").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_compare_names_the_failing_seed(self, tmp_path, capsys, jobs):
        # a step of 1e300 overflows f at the first candidate of every seed; the
        # error names the first failing row, also through a process pool
        short = SHARED_STEP.replace("max_iters = 4000", "max_iters = 50") + f"\njobs = {jobs}"
        ok = self._write(tmp_path, "ok.cfg", short + "\nmethod = smtp")
        big = self._write(tmp_path, "big.cfg", short.replace("schedule.gamma = 0.05",
                                                             "schedule.gamma = 1e300")
                          .replace("seeds = 5", "seeds = 4,7") + "\nmethod = smtp")
        assert cli.main(["compare", "--configs", ok, big]) == 1
        error = ("big seed 4: non-finite objective value inf at iteration 0, "
                 "from z with ||z||_2 = 3.1622776601683795")  # x0 = ones in R^10
        assert capsys.readouterr().err == f"error: {error}\n"
        message = f"^{re.escape(error)}$"
        with pytest.raises(NonFiniteObjectiveError, match=message) as raised:
            compare_methods([load_config(ok), load_config(big)])
        assert (raised.value.k, raised.value.value) == (0, math.inf)

    def test_overflow_prints_the_error_line_alone(self, tmp_path):
        # numpy's overflow warning would reach stderr before the error line
        short = SHARED_STEP.replace("max_iters = 4000", "max_iters = 50")
        ok = self._write(tmp_path, "ok.cfg", short + "\nmethod = smtp")
        big = self._write(tmp_path, "big.cfg", short.replace("schedule.gamma = 0.05",
                                                             "schedule.gamma = 1e300")
                          .replace("seeds = 5", "seeds = 4,7") + "\nmethod = smtp")
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "threepoint.cli", "compare", "--configs", ok,
                               big], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert done.stderr == ("error: big seed 4: non-finite objective value inf at iteration 0, "
                               "from z with ||z||_2 = 3.1622776601683795\n")

    def test_run_and_compare_leave_numpy_ma_unimported(self, tmp_path):
        # np.median's NaN check imports numpy.ma, about 15 ms and 1 MB of a CLI
        # run; harness._median gives its values without it
        run = self._write(tmp_path, "run.cfg", QUAD_BASE + "\ntheorem = SC-DEP")
        # validate builds the first seed's run, and scipy loads for lqr alone
        short = SHARED_STEP.replace("max_iters = 4000", "max_iters = 300")
        a = self._write(tmp_path, "stp.cfg", short + "\nmethod = stp")
        b = self._write(tmp_path, "smtp.cfg", short + "\nmethod = smtp\nbeta = 0.5")
        # and the trace renderer is imported by the first trace written, so
        # that validate and compare skip its import
        script = ("import sys\nfrom threepoint import cli\n"
                  f"assert cli.main(['validate', '--config', {run!r}]) == 0\n"
                  f"assert cli.main(['compare', '--configs', {a!r}, {b!r}]) == 0\n"
                  "assert 'threepoint.render' not in sys.modules\n"
                  f"assert cli.main(['run', '--config', {run!r}, '--out', {str(tmp_path)!r}]) == 0\n"
                  "assert 'threepoint.render' in sys.modules\n"
                  "assert 'numpy.ma' not in sys.modules\n"
                  "assert 'scipy' not in sys.modules\n")
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    # the rate fit, then the descent checks and the envelope, both holding
    assert capsys.readouterr().out.splitlines()[1:] == ["True", "True"]
