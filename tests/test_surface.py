"""The names the traced benchmark in bench/ reads, and the package exports.

The benchmark's tracer skips any name it cannot find, so a cleanup that
drops one of these would silently empty a traced layer or break its replay
check; these tests fail first.  ``mimodet.__all__`` is pinned as a set, so
an export is added or dropped only on purpose.
"""

import numpy as np

import mimodet
from mimodet import channel, cli, detect, montecarlo
from mimodet.constellation import make_constellation


def test_replay_api_draws_and_detects_one_instance():
    c = make_constellation("qam", 16)
    assert isinstance(channel.substream(3, 1, 7), np.random.Generator)
    for rng in (channel.substream(3, 1, 7), np.random.default_rng(5)):
        inst = channel.sample_instance(6, 2, c, 0.5, rng)
        for det in (detect.detect_zf, detect.detect_ml_exhaustive, detect.detect_ml_sphere):
            out = det(inst.H, inst.r, c)
            assert isinstance(out, detect.DetectionOutcome)
            assert out.x_hat.shape == (2,) and out.x_hat.dtype == np.int64


def test_cli_and_sweep_entry_points_exist():
    for name in ("load_config", "cmd_sweep", "cmd_fit", "sweep"):
        assert callable(getattr(cli, name))
    assert cli.sweep is montecarlo.sweep


def test_package_exports_resolve():
    assert set(mimodet.__all__) == {
        "Constellation",
        "ConstellationKind",
        "make_constellation",
        "sigma2_from_snr",
        "SystemParams",
        "antenna_efficiency_ml",
        "antenna_efficiency_zf",
        "ExperimentConfig",
        "SlopeFit",
        "VepCurve",
        "estimate_vep",
        "fit_slope",
        "sweep",
    }
    missing = [name for name in mimodet.__all__ if not hasattr(mimodet, name)]
    assert missing == []
