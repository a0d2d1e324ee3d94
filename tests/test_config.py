import pytest

import mvreins as mv
from mvreins.config import ConfigError, load_config

BASE = """\
[model]
info_mode = full

[claim]
a = 1.0
b = 1.0
theta = 0.3
eta = 0.2

[market]
r = 0.04
sigma = 1.0

[drift]
h = 0.0
l = 0.0
z = 0.0
m0 = 0.06
n0 = 0.0

[objective]
x0 = 50.0
T = 100.0
d = 10000.0
"""


def write(tmp_path, text, name="model.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_roundtrip(tmp_path):
    model, overrides = load_config(write(tmp_path, BASE))
    assert model.claim.theta == 0.3
    assert model.market.r(10.0) == 0.04
    assert model.objective.T == 100.0
    assert model.info_mode == "full"
    assert overrides == {}
    assert mv.validate(model).ok


def test_curve_values(tmp_path):
    text = BASE.replace("r = 0.04", "r = 0:0.04, 50:0.05")
    text = text.replace("info_mode = full", "info_mode = partial")
    text = text.replace("theta = 0.3", "theta = 0.2")
    model, _ = load_config(write(tmp_path, text))
    assert model.market.r(10.0) == 0.04
    assert model.market.r(60.0) == 0.05


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, BASE + "bogus = 1\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write(tmp_path, BASE + "\n[plotting]\ncolor = red\n"))


def test_missing_key_rejected(tmp_path):
    broken = BASE.replace("d = 10000.0\n", "")
    with pytest.raises(ConfigError, match="missing keys"):
        load_config(write(tmp_path, broken))


def test_missing_section_rejected(tmp_path):
    broken = BASE.split("[objective]")[0]
    with pytest.raises(ConfigError, match="missing section"):
        load_config(write(tmp_path, broken))


def test_non_numeric_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not a number"):
        load_config(write(tmp_path, BASE.replace("a = 1.0", "a = one")))


def test_curve_must_start_at_zero(tmp_path):
    with pytest.raises(ConfigError, match="start at t=0"):
        load_config(write(tmp_path, BASE.replace("r = 0.04", "r = 1:0.04")))


def test_overrides_parsed(tmp_path):
    model, overrides = load_config(
        write(tmp_path, BASE + "\n[overrides]\na1 = -0.5\n"))
    assert overrides == {"a1": -0.5}


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/nowhere.cfg")


@pytest.mark.parametrize("old, new", [
    ("T = 100.0", "T = inf"),
    ("d = 10000.0", "d = nan"),
    ("x0 = 50.0", "x0 = -inf"),
    ("r = 0.04", "r = 0:0.04, inf:0.05"),
    ("r = 0.04", "r = 0:0.04, 50:nan"),
    ("sigma = 1.0", "sigma = 0:inf"),
], ids=["T-inf", "d-nan", "x0-minus-inf", "curve-time-inf", "curve-value-nan",
        "curve-value-inf"])
def test_non_finite_number_rejected(tmp_path, old, new):
    with pytest.raises(ConfigError, match="not a finite number|is not finite"):
        load_config(write(tmp_path, BASE.replace(old, new)))


def test_non_finite_override_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[overrides\] a1 = 'nan'"):
        load_config(write(tmp_path, BASE + "\n[overrides]\na1 = nan\n"))


@pytest.mark.parametrize("curve", ["0:0.04, 50:0.05, 50:0.06",
                                   "0:0.04, 50:0.05, 20:0.06"],
                         ids=["repeated-time", "decreasing-time"])
def test_curve_times_must_increase(tmp_path, curve):
    with pytest.raises(ConfigError,
                       match=r"^\[market\] r: curve times must be strictly increasing$"):
        load_config(write(tmp_path, BASE.replace("r = 0.04", f"r = {curve}")))
