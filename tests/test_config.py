"""Params range checks, on construction, on dataclasses.replace and through
config overrides."""

from dataclasses import replace

import pytest

from cutlab.config import DESK, PAPER, PHI_MIN, Params, load_config_overrides
from cutlab.oracle import QueryInputError

BAD = {
    "phi": [0, 0.0, -0.5, float("inf"), float("nan"), 1e-300, 1.5, "0.1", True],
    "beta": [-0.1, float("inf"), float("nan")],
    "bad_fraction": [None, -0.1, 1.5, float("inf")],
    "rounds_base": [-1, 1.0, None],
    "profile": [None, 3],
}

GOOD = {
    "phi": [None, PHI_MIN, 1e-12, 1, 1.0],
    "beta": [None, 0, 0.0, 1e9],
    "bad_fraction": [0, 0.0, 1.0],
    "rounds_base": [0, 7],
}


@pytest.mark.parametrize("key", sorted(BAD))
def test_params_refuse_values_out_of_range(key):
    for val in BAD[key]:
        with pytest.raises(QueryInputError, match=key):
            Params(**{key: val})
        for base in (DESK, PAPER):
            with pytest.raises(QueryInputError, match=key):
                replace(base, **{key: val})


@pytest.mark.parametrize("key", sorted(GOOD))
def test_params_accept_the_ends_of_each_range(key):
    for val in GOOD[key]:
        assert getattr(Params(**{key: val}), key) == val
        assert getattr(replace(PAPER, **{key: val}), key) == val


def test_config_overrides_are_checked(tmp_path):
    cfg = tmp_path / "knobs.cfg"
    for text in ("phi = 0\n", "phi = nan\n", "bad_fraction = none\n"):
        cfg.write_text(text)
        with pytest.raises(QueryInputError, match=text.split()[0]):
            load_config_overrides(cfg, DESK)
    cfg.write_text("phi = 1\nbeta = 2\nrounds_base = 0\n")
    params = load_config_overrides(cfg, DESK)
    assert (params.phi, params.beta, params.rounds_base) == (1.0, 2.0, 0)
