import dataclasses

from mvreins.config import load_config
from mvreins.curves import SampledCurve
from mvreins.partialinfo import solve_partial
from mvreins.validation import _riccati_oracle_check

from test_conelq import BENCH_PARTIAL_CFG


def test_riccati_oracle_check_catches_a_wrong_pair():
    model = load_config(BENCH_PARTIAL_CFG)[0]
    riccati = solve_partial(model).riccati
    assert _riccati_oracle_check(model, riccati).passed
    p_minus = riccati.p_minus
    scaled = dataclasses.replace(
        riccati, p_minus=SampledCurve(p_minus.grid, p_minus.values * (1 + 1e-6)))
    result = _riccati_oracle_check(model, scaled)
    assert result.name == "riccati-rk4-oracle"
    assert not result.passed
