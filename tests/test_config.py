import pytest

from mssvar.config import ModelConfig, parse_config
from mssvar.patterns import build_pattern_set

SAMPLE = """
[model]
variables = gdp, cpi, ffr
lags = 2
regimes = 2
det_columns = crisis

[priors]
nu_B = 10
nu_gamma_B = 10
s_s_B = 100
nu_s_B = 1
d_m = 11
omega_shape = 1
omega_scale = 1

[chain]
draws = 200
burnin = 100
thin = 2
seed = 7
chains = 2

[transforms]
gdp = logdiff_x100
cpi = logdiff_x100

[patterns]
eq3 = ***, **0
"""


def test_defaults_match_benchmark_setup():
    c = ModelConfig(N=3)
    assert (c.nu_B, c.nu_gamma_B, c.s_s_B, c.nu_s_B) == (10.0, 10.0, 100.0, 1.0)
    assert (c.nu_A, c.nu_gamma_A, c.s_s_A, c.nu_s_A) == (10.0, 10.0, 10.0, 10.0)
    assert c.d_m == 11.0
    assert (c.omega_shape, c.omega_scale) == (1.0, 1.0)
    assert (c.draws, c.burnin, c.thin) == (10_000, 5_000, 1)
    assert c.M == 1 and c.p == 1
    # default identification is the triangular cascade
    assert [eq[0].spec for eq in c.patterns.equations] == ["*00", "**0", "***"]


def test_parse_config_full():
    c = parse_config(SAMPLE)
    assert c.N == 3
    assert c.variables == ("gdp", "cpi", "ffr")
    assert c.p == 2 and c.M == 2
    assert c.det_columns == ("crisis",)
    assert c.d_dim == 2
    assert c.draws == 200 and c.burnin == 100 and c.thin == 2
    assert c.seed == 7 and c.chains == 2
    assert c.patterns.K(2) == 2
    assert c.patterns.equations[2][1].spec == "**0"
    # undeclared equations fall back to the triangular rows
    assert c.patterns.equations[0][0].spec == "*00"
    tm = c.transform_map()
    assert tm["gdp"].kind == "logdiff" and tm["gdp"].scale100


def test_digest_sensitivity():
    a = ModelConfig(N=2, seed=1)
    b = ModelConfig(N=2, seed=2)
    assert a.digest() != b.digest()
    assert a.digest() == ModelConfig(N=2, seed=1).digest()


def test_dict_round_trip():
    c = parse_config(SAMPLE)
    assert ModelConfig.from_dict(c.to_dict()) == c


def test_digests_are_pinned():
    # a digest names the config in every store manifest; stores written
    # earlier must keep loading under the same config
    assert ModelConfig(N=2, seed=1).digest() == (
        "a8bb857e232d6aed099ccde086493159c4315d497401e1d92de029b2244ff0d9"
    )
    assert parse_config(SAMPLE).digest() == (
        "b45d127a8ee8b234e72efa458f657a300b05b19f2b6771ef44a7b48df7d7f357"
    )


def test_invalid_configs_rejected():
    with pytest.raises(ValueError, match="variables"):
        parse_config("[chain]\ndraws = 10\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("[model]\nvariables = a\n\n[priors]\nbogus = 1\n")
    with pytest.raises(ValueError, match="unknown key"):  # lags belongs to [model]
        parse_config("[model]\nvariables = a\n\n[chain]\nlags = 2\n")
    with pytest.raises(ValueError, match="eq<i>"):
        parse_config("[model]\nvariables = a\n\n[patterns]\nrow1 = *\n")
    with pytest.raises(ValueError, match="unknown variable"):
        parse_config("[model]\nvariables = a\n\n[transforms]\nb = log\n")
    with pytest.raises(ValueError):
        ModelConfig(N=0)
    with pytest.raises(ValueError):
        ModelConfig(N=2, draws=0)
    with pytest.raises(ValueError, match="nu_B"):
        ModelConfig(N=2, nu_B=-1.0)
    with pytest.raises(ValueError, match="pattern set"):
        ModelConfig(N=3, patterns=build_pattern_set(None, 2))


@pytest.mark.parametrize("key", ["lag", "regime", "variable", "det_column", "draws"])
def test_unknown_model_key_is_named(key):
    with pytest.raises(ValueError, match=f"unknown key '{key}' in \\[model\\]"):
        parse_config(f"[model]\nvariables = a, b\n{key} = 2\n")


@pytest.mark.parametrize("section", ["prior", "Priors", "chains", "pattern", "misc"])
def test_unknown_section_is_named(section):
    # a misspelled [priors] must not leave nu_B at its default unnoticed
    with pytest.raises(ValueError, match=f"unknown section \\[{section}\\]"):
        parse_config(f"[model]\nvariables = a, b\n\n[{section}]\nnu_B = -5\n")
