"""Golden digests of trace CSVs: the parity oracle for refactors of the loop.

Each case writes trace_seed*.csv through run_experiment and compares their
sha256 digests with values recorded before any such refactor.  A change to
the optimizers, the direction draws, the stepsize rules or the CSV format
that moves a single bit of a trace fails here.  Refresh a digest only with a
change that means to alter traces and says so.
"""

from __future__ import annotations

import hashlib

import pytest

from threepoint import harness, optimizers
from threepoint.harness import parse_config, run_experiment

BASE = "\n".join([
    "objective = quadratic",
    "dimension = 10",
    "coord_L = logspace:1,10",
    "max_iters = 1500",  # past the first chunk of directions drawn ahead
    "seeds = 0,1",
    "track_grad_norm = true",
])

WEIGHTS = "0.05,0.05,0.05,0.05,0.1,0.1,0.1,0.1,0.2,0.2"

DISTRIBUTIONS = {
    "sphere": "distribution = sphere",
    "coord_weighted": f"distribution = coord_weighted\nweights = {WEIGHTS}",
    "orthonormal_weighted": ("distribution = orthonormal_weighted\n"
                             f"weights = {WEIGHTS}\nbasis = random:3"),
}

SCHEDULES = {
    "constant": "schedule.kind = constant\nschedule.gamma = 0.01",
    "solution_free": "schedule.kind = solution_free\nschedule.t = 0.001",
}

# the remaining rules, pinned on one plain and one importance-sampling case each,
# and on every stp law
MORE_SCHEDULES = {
    "decreasing": "schedule.kind = decreasing\nschedule.alpha = 1\nschedule.theta = 4",
    "fixed_horizon": "schedule.kind = fixed_horizon\nschedule.gamma0 = optimal",
    "solution_dependent": "schedule.kind = solution_dependent",
}

# stp is pinned on every law x rule cell; SolutionFree needs unit directions
STP_DISTRIBUTIONS = {
    "gaussian": "distribution = gaussian",
    "coord_uniform": "distribution = coord_uniform",
    **DISTRIBUTIONS,
}

DIGESTS = {
    "smtp-coord_weighted-constant": (
        "f200a16482bbfaedb473702c437bc99c4ebea0f9552f81f5ea653328ac977d17",
        "0fc41b4246e0b60ce3a225cba985c7c945d07ed24064054aeea629995f7b3f5f"),
    "smtp-coord_weighted-solution_free": (
        "df082e4a1c9c899a9f191dd33888f27b50cac3c90a04ed43e66cea429b79a6fa",
        "0f82eeb718c5573ffd1d062d20ca10a2701e0ce3a4082711b3d8829ae5733808"),
    "smtp-orthonormal_weighted-constant": (
        "23bdb6227834e6ad7dcde31ddeee61b25503b92ec59334ff1d2b209fbc788af6",
        "61c72da9fbe90cd48d9ef90b7c407792136c01a0c03170497fd1cf02fcc061c9"),
    "smtp-orthonormal_weighted-solution_free": (
        "767493230655cee9903456a665759e1ec690ebd584f0d44de641a07afc98cf74",
        "691f9090af126adf37cc90ef26aae3adc783d1909a20dd3a3f73931863726a18"),
    "smtp-sphere-constant": (
        "e15989f77ed220399cb6302457979e750b1592696f90af27efbe345ebd7a498f",
        "d78c7996648c97b3e74e5fe1af2352b450c5c7c9d58df0b94d7e84da6f987ee5"),
    "smtp-sphere-solution_free": (
        "3b5bc7f64e2ab349f3e3cf907671e6dc4fe0f7a12067672aa66715fc867ac636",
        "460223efbe8c874013f8d48c3c21999b44c5cc8a057b75e63ec6c87a1cfaf17b"),
    "smtp-sphere-decreasing": (
        "e8b445f37c5b26d91bc06955fd3e6343ec568ee9ad9a0bf25e9d06b3c278bb3e",
        "98fe34eed599ea17db5a3fe594aac9a85af3a23428c276b7d22dde1288ad0177"),
    "smtp-sphere-fixed_horizon": (
        "dc746bb2446a8066f89c49ac74f6df22c7fb002755b28b8648cca15534a1ae8a",
        "3dc19b6475928f400de3c5cd3aa5f71da7d360044ebf14839cce545ff44791be"),
    "smtp-sphere-solution_dependent": (
        "f2ea2e42205c4c46ea08bc604b17ff8eac2cc62d4998c7a34f86b4a718c5163d",
        "f98eb1d2b3d977ab2254cd6ed34c6df91c2bee416ced77087ae69bead9326b37"),
    "smtp_is-prop_L-constant": (
        "076db70f74908c1c901f2e040a00d2e354743b2537154e76ce73b29d823d6a2c",
        "7c16333cea5c85cd45dbf3408befbb7dafd1e4bcb638e180443add67e43a4435"),
    "smtp_is-prop_L-solution_free": (
        "04f9f069021ed281d3dad90f9bc23ad8c92d22645dace7cca9d3439eb6f0ed1a",
        "5a96d5978b4404a60f18e60e99632cb0ec29b4043f2b731c211dbcc52fe6a2d8"),
    "smtp_is-prop_L-decreasing": (
        "d208c8c268bb6cfd1ea1b0e20bbd3400206c6347dbb8537dbe4f3a9c2d42fe64",
        "cec79409073bd29f7c81e4780e2455384afc02cfe5f28255896ca093bc852851"),
    "smtp_is-prop_L-fixed_horizon": (
        "df31ec728084393f5175edda95d6f23a234c5b63a93d05b532407888f04032f7",
        "643aa2f43fb04f4af893e1e8e3268564bb349077b1067b7baf324a6ec4a85c6f"),
    "smtp_is-prop_L-solution_dependent": (
        "8811801cdda18251ff38b440a8dcb806caae2de70eb4d6648c6ad3ec4474e588",
        "69db62aa38d7ab6e3788bc3d31cc05f3a8d9214d9cffcc0b1208fe26e5c9aa85"),
    "smtp_is-uniform-constant": (
        "555fad8502e357763e8482004cb39857dbb60312a93582a617da9f6b3ecbb6c8",
        "468cdfa4d31d4eb6215f150035a122312a012e15554b3c24d1ea604efb05152b"),
    "smtp_is-uniform-solution_free": (
        "a7589601067cef6e4e85b130e52b329647c2f13e08f80e6496f68da47e268195",
        "a2795b01be426c5152a339400af70ebe037d8d74464322296e2b9bc05c7124d6"),
    "stp-coord_uniform-constant": (
        "ccbfb8e3af18ce3853b13d45f6ea6f660a7b1281b1155b03060438c2398ea7bf",
        "9f8fab1c82ce41402ca819d3efb4323a1d0c6f13153da81f5358a117ef438b8f"),
    "stp-coord_uniform-decreasing": (
        "1e6c538becf01e27515f1d05ca3c6ad032ddc3ab4e20c63728f19f3a05a9920f",
        "f3f9e6fc62ed6efa33aa8f2ff78887095903378926d590821f422bdc28d7c7f4"),
    "stp-coord_uniform-fixed_horizon": (
        "1679504a211f6cbe62b44ad8b21a127adec1525d7f0ffa5c805b26f9ff1a50b4",
        "af861db1210876d77b81474577310ddc4049a0b4805a9f2b3860eca09d77006b"),
    "stp-coord_uniform-solution_dependent": (
        "645188e3a2f09c635266980f57cf2caa60d5c09b01e76e74a13eef9faba942ac",
        "ee1a602fc4d2e56ff7d73fe84de70bc8ec4217c29362fac009d0bfbcf4101afd"),
    "stp-coord_uniform-solution_free": (
        "ce8bc0c831af48fe004286197f11637a7341a9320f203ef6099f9e3b949ec0df",
        "15ac0e7d362f00698f1ddc3efcb5aa56f93fcbc41421d8dd75721fc96d15f01b"),
    "stp-coord_weighted-constant": (
        "f355c81b1b01ad318e3cb676d1674b7636f3e308851673ddd99b4a0daa687b68",
        "9bde3c965b42020b305c67021e816887ce631e4bda6b8df1e64d5f9b430ee442"),
    "stp-coord_weighted-decreasing": (
        "71fb1d1578dd967630e890cc09c2347eb3a6b1d6207e81440723e8a97876e75b",
        "43c46216cb230cb24fa83af71cafdee56bf7fa7d6eab0ece3f2ca8b73cb7ace9"),
    "stp-coord_weighted-fixed_horizon": (
        "df09672943ae8d72c92f7704defcc7340b19387546d3cbcc4696e57adf101138",
        "0e96694175e696a2459fc7c581e0524453b43e474f17d6e69259c21553f9c640"),
    "stp-coord_weighted-solution_dependent": (
        "8cf6166c52d3fa0d07482ec46f33577fd6faf22968497bb7c739ca5d323d4710",
        "1363bb27ab8e3996f7b9fdc180b72274a90cbb7dd294b9bddc3f43d471be86ec"),
    "stp-coord_weighted-solution_free": (
        "c6daf2d6cb4a23acdb166bbdf9d45f31034b5b625fb3b9015661253cfaa207f0",
        "1a689fa4c98440fdeed4193fe6e269f0705dd75140da1f59ad9852e437aca7b6"),
    "stp-gaussian-constant": (
        "347fbafa6b453f2321361c72e66e85c1ee53565ad53b0d0a406460ce3296615c",
        "8471995492c437f64c3bd5088ccfa33a3f1c31983b9f0e8f066d7982f39caa1b"),
    "stp-gaussian-decreasing": (
        "e11d6f1b78c43cde999870254452a25f3476bf4091a0441b9737826c1100ae69",
        "2c65f8f9d8f6c14fc53468e95004fcc2929a02fb5d08ade225c8c9967e5070ff"),
    "stp-gaussian-fixed_horizon": (
        "e16d778ab862ced39290527b2c524ff93cc93adb25e30f4dc2e438e6d09421e5",
        "c4960a76fb2feefb0b677e5c02957d3613ce5142e3b55fc1cd4374a5ef831ecc"),
    "stp-gaussian-solution_dependent": (
        "c8f19253949eb0cd08a5d3318bd1971c43c34f4ea67d517bea3944ef18fb721d",
        "14a6f2ac8785b9859af6e213f3cd85a70121c2209bce7ee94c8004537454c0f8"),
    "stp-orthonormal_weighted-constant": (
        "c235714ef119ad713573290e99cd5c0d30c4ecb431252a6b55e3f4c7b4d4cfa5",
        "2d636b905543f455e791044dd46f4c720051c596c19192a7075cab4b0827f479"),
    "stp-orthonormal_weighted-decreasing": (
        "cc03c958ffb873db80d99f537c65b64811b4e0e9afd9b305409e973df15ea727",
        "b347298fefc83de600999dce5b087e9c19c39f217b9b4bee2dd0e40d7073de1b"),
    "stp-orthonormal_weighted-fixed_horizon": (
        "4511e89c79d10131ef439c1a416c765c43cbc7f39453c4233751f3b518bb68f1",
        "3e81e5489e6e6d04dac77462de9308f6eb0b96e9d6af9b7449c29637048b88fc"),
    "stp-orthonormal_weighted-solution_dependent": (
        "e90ce4f27d7bd784f7aa33247132bca8544b3c550dc25934e9fba66a6931c785",
        "e8da1d08b5ebe02ea7a79c845ce0be21690ad7512fce1de737fb6862701f984d"),
    "stp-orthonormal_weighted-solution_free": (
        "6f5392cbf672f1491671ed1d98fef509bca476c7e742b4b39b78058b7b4c3d90",
        "8f0e084074bd84432d6d13ed0fc047943d44aa954697940e3660cf8038659735"),
    "stp-sphere-constant": (
        "686f4b2ae4886915cc6ed4b68eb5671f869d5f1abc1dbada216e5aaab988f0a6",
        "af1a0235de22308752c68eb3a74c0ef67a054ed7c984104f84ec22d171c1c261"),
    "stp-sphere-decreasing": (
        "b90d06752eff37af417d89ece92eba4af10a35a6851fbc4e998b9d0d106afdd2",
        "9c3a9e24443545a6c735981f42e18ce9e49ed9d18bf844606ed598641e5aa0e4"),
    "stp-sphere-fixed_horizon": (
        "b89ac0b01dea600bfd508c117c3aacaa6a01681a7bcb9d3d03930d7dc711474f",
        "8adf4bb7bbd7f0b7271fbbcd2553488c95fff52638088492fd6439228ec72870"),
    "stp-sphere-solution_dependent": (
        "f1f889d3890de611fac49a70f5907dff9c553eca586e81b3b1228664dd613268",
        "eef9a334c2f60f639a7e2bfb3b51df2e85ad55166ee43890f7f26b01952146b4"),
    "stp-sphere-solution_free": (
        "144c71bc1187112c6a97ca08050bc8087f0c1d02b51016960c1b1a586693d95b",
        "969504cb95a79eae64099f84d9963cb3120b1540ecf5f04daec2f205687cc248"),
}


def _cases():
    for dist, dist_lines in DISTRIBUTIONS.items():
        for sched, sched_lines in SCHEDULES.items():
            yield f"smtp-{dist}-{sched}", f"method = smtp\nbeta = 0.5\n{dist_lines}\n{sched_lines}"
    for dist, dist_lines in STP_DISTRIBUTIONS.items():
        for sched, sched_lines in {**SCHEDULES, **MORE_SCHEDULES}.items():
            if (dist, sched) != ("gaussian", "solution_free"):
                yield f"stp-{dist}-{sched}", f"method = stp\nbeta = 0.0\n{dist_lines}\n{sched_lines}"
    for p in ("uniform", "prop_L"):
        for sched, sched_lines in SCHEDULES.items():
            text = f"method = smtp_is\nbeta = 0.5\nis.p = {p}\nis.w = coord_L\n{sched_lines}"
            yield f"smtp_is-{p}-{sched}", text
    for sched, sched_lines in MORE_SCHEDULES.items():
        yield (f"smtp-sphere-{sched}",
               f"method = smtp\nbeta = 0.5\n{DISTRIBUTIONS['sphere']}\n{sched_lines}")
        yield (f"smtp_is-prop_L-{sched}",
               f"method = smtp_is\nbeta = 0.5\nis.p = prop_L\nis.w = coord_L\n{sched_lines}")


CASES = dict(_cases())


@pytest.mark.parametrize("label", sorted(CASES))
def test_trace_digests(label, tmp_path):
    cfg = parse_config(BASE + "\n" + CASES[label], label=label)
    run_experiment(cfg, out_dir=str(tmp_path), jobs=1)
    got = tuple(
        hashlib.sha256((tmp_path / label / f"trace_seed{seed}.csv").read_bytes()).hexdigest()
        for seed in cfg.seeds)
    assert got == DIGESTS[label], label


@pytest.mark.parametrize("label", sorted(CASES))
def test_lockstep_trace_digests(label, tmp_path, monkeypatch):
    # the same digests with both seeds sent to a block.  A case the block
    # admits runs as one, with run_once gone so that a block that raised could
    # not fall back to it; every other case runs each seed through run_once
    cfg = parse_config(BASE + "\n" + CASES[label], label=label)
    obj = harness.build_objective(cfg, cfg.seeds[0])
    parts = harness.build_run(cfg, obj, harness.build_x0(cfg, obj.dimension))
    admitted = optimizers.block_supports(obj, parts.schedule, parts.dist)
    monkeypatch.setattr(optimizers, "BLOCK_MIN_ROWS", 1)
    once, calls = harness.run_once, []
    monkeypatch.setattr(harness, "run_once", None if admitted else
                        lambda c, seed: calls.append(seed) or once(c, seed))
    test_trace_digests(label, tmp_path)
    assert calls == ([] if admitted else list(cfg.seeds))
