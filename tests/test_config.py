import pytest

from idpfem.config import ConfigError, RunConfig, eval_fraction, parse_config


class TestParsing:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.limiter == "mcl.cs"
        assert cfg.rk == "ssp2"
        assert cfg.cfl == 0.5
        assert cfg.benchmark == "constant"

    def test_minimal_config(self):
        cfg = parse_config("benchmark = advected_gaussian\nh = 1/32\n"
                           "t_end = 0.25\n")
        assert cfg.benchmark == "advected_gaussian"
        assert cfg.h == pytest.approx(1 / 32)
        assert cfg.t_end == 0.25

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\ncfl = 0.9  # inline comment\n")
        assert cfg.cfl == 0.9

    def test_limiter_selection(self):
        assert parse_config("limiter = fct.cs\n").limiter == "fct.cs"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config("cfl = 0.5\nbananas = 3\n")

    def test_removed_rs_operator_is_unknown(self):
        # the product rule has one R_S (scaling); the key selected between two
        with pytest.raises(ConfigError, match="line 1.*unknown key"):
            parse_config("rs_operator = clip\n")

    def test_removed_bounds_is_unknown(self):
        # the driver fixes the bounds: bar states for mcl.*, stencil for fct.*
        with pytest.raises(ConfigError, match="line 1.*unknown key"):
            parse_config("bounds = stencil\n")

    def test_invalid_enum_lists_valid_values(self):
        with pytest.raises(ConfigError, match="mcl.cs"):
            parse_config("limiter = banana\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("cfl = 0.5\ncfl = 0.6\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("this is not a key value pair\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="bad number"):
            parse_config("cfl = fast\n")

    @pytest.mark.parametrize("text", [
        "h = 1/0\n", "h = 0/0\n", "h = 1/\n", "h = nan\n", "h = inf\n",
        "dt_max = -inf\n", "t_end = 1/nan\n", "audit_bound_tol = 1e999\n"])
    def test_every_float_is_finite(self, text):
        with pytest.raises(ConfigError, match="line 1: bad number"):
            parse_config(text)

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="bad integer"):
            parse_config("audit_every = 1.5\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config("cfl =\n")


class TestValidation:
    def test_cfl_range(self):
        with pytest.raises(ConfigError, match="cfl"):
            parse_config("cfl = 1.2\n")

    def test_gamma_range(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config("gamma = 0.9\n")

    def test_h_positive(self):
        with pytest.raises(ConfigError, match="h"):
            parse_config("h = -0.1\n")

    @pytest.mark.parametrize("text", ["t_end = 0\n", "t_end = -1\n"])
    def test_t_end_positive(self, text):
        with pytest.raises(ConfigError, match="t_end must be positive"):
            parse_config(text)

    @pytest.mark.parametrize("text", ["dt_max = 0\n", "dt_max = -1e-3\n"])
    def test_dt_max_positive(self, text):
        with pytest.raises(ConfigError, match="dt_max must be positive"):
            parse_config(text)

    def test_audit_bound_tol_nonnegative(self):
        with pytest.raises(ConfigError, match="audit_bound_tol must be >= 0"):
            parse_config("audit_bound_tol = -1\n")
        assert parse_config("audit_bound_tol = 0\n").audit_bound_tol == 0.0

    def test_audit_cons_tol_nonnegative(self):
        with pytest.raises(ConfigError, match="audit_cons_tol must be >= 0"):
            parse_config("audit_cons_tol = -1e-12\n")
        assert parse_config("audit_cons_tol = 0\n").audit_cons_tol == 0.0

    def test_audit_every_nonnegative(self):
        with pytest.raises(ConfigError, match="audit_every"):
            parse_config("audit_every = -1\n")

    def test_output_every_t_nonnegative(self):
        with pytest.raises(ConfigError, match="output_every_t"):
            parse_config("output_every_t = -0.01\n")
        assert parse_config("output_every_t = 0\n").output_every_t == 0.0


class TestFractions:
    def test_plain_float(self):
        assert eval_fraction("0.25") == 0.25

    def test_fraction(self):
        assert eval_fraction("1/64") == pytest.approx(1 / 64)

    @pytest.mark.parametrize("val", ["1/0", "nan", "-inf", "2/inf/3", "x"])
    def test_rejects_with_value_error(self, val):
        with pytest.raises(ValueError):
            eval_fraction(val)


def test_effective_text_roundtrips():
    cfg = RunConfig(benchmark="burgers_riemann", h=1 / 32, limiter="fct.scale",
                    cfl=0.8, t_end=0.5, rk="ssp3")
    back = parse_config(cfg.effective_text())
    assert back == cfg
