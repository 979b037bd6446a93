"""Config parsing, sweep orchestration, CSV/report contracts, CLI exit codes."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from critquench import DEFAULT_SETTINGS, QuenchProtocol, auxbath, cli, moments, sweep
from critquench.config import _DEFAULTS, _KNOWN_KEYS, build_config, env_overrides, load_config, parse_config_text
from critquench.errors import ConfigError, IntegrationFailure
from critquench.model import ModelKind

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE = """
model.kind = thermodynamic
bath.type = markovian
bath.kappa = 1e-3
bath.n_th = 2.0
protocol.g_final = 1.0
sweep.tau_min = 10
sweep.tau_max = 100
sweep.points_per_decade = 5
observables = e_r, dp
"""


def write_config(tmp_path, text=BASE, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_defaults_and_values(self):
        cfg = build_config(parse_config_text(BASE))
        assert cfg.model.kind is ModelKind.THERMODYNAMIC
        assert cfg.model.eta == math.inf
        assert cfg.bath.kappa == 1e-3
        assert cfg.bath.n_th == 2.0
        assert cfg.points_per_decade == 5
        assert cfg.observables == ("e_r", "dp")
        assert cfg.fit_window == (10.0, 100.0)

    def test_readme_table_names_every_key(self):
        # the key table in the README lists exactly the keys the parser accepts
        readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        documented = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
        assert documented == _KNOWN_KEYS
        # and every default in its row, as the parser applies it
        for key, default in _DEFAULTS.items():
            if default:
                (row,) = [row for row in rows if f"`{key}`" in row.split("|")[1]]
                assert f"`{default}`" in row.split("|")[2], key

    def test_omega_is_not_the_unit_of_time(self):
        # tau_q, a Markovian kappa and the temperature are in the units
        # omega is given in: doubling omega, kappa and T while halving
        # tau_q leaves e_r / omega unchanged.  A structured bath's omega_c
        # and oscillator table scale with omega, and its kappa is
        # dimensionless
        def residual_per_omega(text, omega, tau):
            cfg = build_config(parse_config_text(f"{text}model.omega = {omega}\n"))
            v = moments.integrate(QuenchProtocol(1.0, tau), cfg.model, cfg.bath, cfg.settings, samples=0).final
            return float(moments.observables_from_covariance(v, 1.0, omega)["e_r"]) / omega

        markovian = "bath.kappa = {}\nbath.temperature = {}\n"
        structured = "bath.type = structured\n"
        for slow, fast in ((markovian.format(1e-3, 2.0), markovian.format(2e-3, 4.0)), (structured, structured)):
            want = residual_per_omega(slow, 1.0, 100.0)
            assert residual_per_omega(fast, 2.0, 50.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_empty_config_takes_the_integrator_defaults(self):
        # the config's integrator defaults are the library's, declared once
        assert build_config(parse_config_text("")).settings == DEFAULT_SETTINGS

    def test_comments_and_blank_lines(self):
        raw = parse_config_text("# heading\n\nmodel.kind = qrm  # trailing\nmodel.eta = 50\n")
        assert raw["model.kind"] == "qrm"

    def test_repeated_key_rejected(self, tmp_path, monkeypatch):
        # a key set twice in one file is an error, not "the last line wins"
        with pytest.raises(ConfigError, match=re.escape("set more than once (exp.cfg:1 and 3)")) as err:
            parse_config_text("bath.kappa = 1e-3\nbath.n_th = 1\nbath.kappa = 2e-3\n", source="exp.cfg")
        assert err.value.field == "bath.kappa"
        # environment and explicit overrides still replace a file key
        monkeypatch.setenv("CRITQUENCH_BATH_KAPPA", "2e-3")
        assert load_config(write_config(tmp_path)).bath.kappa == 2e-3
        assert load_config(write_config(tmp_path), overrides={"bath.kappa": "3e-3"}).bath.kappa == 3e-3

    def test_unknown_key_rejected(self):
        # a config that still sets a removed sweep switch must fail, not be ignored
        for key in ("model.size", "sweep.workers", "sweep.chunk_size", "run.isolated"):
            with pytest.raises(ConfigError) as err:
                parse_config_text(f"{key} = 3\n")
            assert err.value.field == key

    @pytest.mark.parametrize(
        "override, field",
        [
            ("sweep.tau_min = 100\nsweep.tau_max = 100", "sweep.tau_min"),
            ("sweep.points_per_decade = 3", "sweep.points_per_decade"),
            ("fit.window_min = 1", "fit.window_min"),
            ("protocol.g_final = 1.2", "protocol.g_final"),
            ("protocol.r_n = 0", "protocol.r_n"),
            ("bath.kappa = -1", "bath.kappa"),
            ("bath.temperature = 1", "bath.temperature"),
            ("observables = purity", "observables"),
            ("observables = e_r, e_r", "observables"),
            ("model.kind = ising", "model.kind"),
            ("model.eta = 100", "model.eta"),
            ("integrator.rtol = 0", "integrator.rtol"),
            ("integrator.atol = 0", "integrator.atol"),
            ("integrator.rtol = nan", "integrator.rtol"),
            ("bath.kappa = nan", "bath.kappa"),
            ("sweep.tau_max = inf", "sweep.tau_max"),
        ],
    )
    def test_field_level_validation(self, override, field):
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text(BASE + override + "\n"))
        assert err.value.field == field

    def test_structured_rejects_temperature(self):
        text = BASE.replace("bath.type = markovian", "bath.type = structured")
        with pytest.raises(ConfigError):
            build_config(parse_config_text(text))
        # the chain is damped at T = 0: the error names the key actually given
        for key in ("bath.temperature", "bath.n_th"):
            with pytest.raises(ConfigError, match="zero-temperature") as err:
                build_config(parse_config_text(f"bath.type = structured\n{key} = 1\n"))
            assert err.value.field == key

    def test_structured_rejects_explicit_zero_kappa(self):
        text = "bath.type = structured\nbath.kappa = 0\n"
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text(text))
        assert err.value.field == "bath.kappa"
        # an omitted key still means "the table's kappa"
        cfg = build_config(parse_config_text("bath.type = structured\n"))
        assert cfg.bath.kappa == auxbath.DEFAULT_OHMIC.kappa

    def test_structured_zero_kappa_exit_two(self, tmp_path, capsys):
        # each bad structured-bath value fails at load and names its key
        for key, value in (("bath.kappa", "0.0"), ("bath.omega_c", "-1"), ("bath.omega_c", "0")):
            text = f"bath.type = structured\n{key} = {value}\nsweep.tau_min = 10\nsweep.tau_max = 100\n"
            path = write_config(tmp_path, text)
            assert cli.main(["sweep", "--config", str(path)]) == 2
            assert key in capsys.readouterr().err

    def test_structured_bath_takes_finite_size_model(self):
        # the chain reads the model's quadrature form: a huge QRM is the
        # thermodynamic limit, a small one is not
        def open_leg(extra):
            cfg = build_config(parse_config_text("bath.type = structured\n" + extra))
            return sweep._open_leg(cfg, np.array([5.0]))

        thermo = open_leg("")
        huge = open_leg("model.kind = qrm\nmodel.eta = 1e12\n")
        small = open_leg("model.kind = qrm\nmodel.eta = 100\n")
        for obs, value in thermo.items():
            assert huge[obs][0] == pytest.approx(value[0], rel=1e-10)
            assert small[obs][0] != pytest.approx(value[0], rel=1e-4)

    def test_markovian_rejects_oscillator_keys(self):
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text(BASE + "bath.omega_c = 20\n"))
        assert err.value.field == "bath.params_file"

    def test_integrator_settings_reach_every_propagation(self, tmp_path, monkeypatch):
        # integrator.* drives every propagation of a config
        seen = []
        for module in (moments, auxbath):
            real = module.solve_to

            def solve_to(rhs, t0, t1, y0, settings, _module=module.__name__, _real=real, **carry):
                seen.append((_module.rsplit(".", 1)[1], settings.rtol, settings.atol))
                return _real(rhs, t0, t1, y0, settings=settings, **carry)

            monkeypatch.setattr(module, "solve_to", solve_to)
        collocate, real_stepper = moments.collocate_to, moments.ChainFrame.stepper

        def collocate_to(attempt, t0, t1, u0, step):
            seen.append(("collocate_to", step.settings.rtol, step.settings.atol))
            return collocate(attempt, t0, t1, u0, step)

        def stepper(frame, active, system, rtol, atol):
            seen.append(("stepper", rtol, atol))
            return real_stepper(frame, active, system, rtol, atol)

        monkeypatch.setattr(moments, "collocate_to", collocate_to)
        monkeypatch.setattr(moments.ChainFrame, "stepper", stepper)
        tight = "integrator.rtol = 1e-9\nintegrator.atol = 1e-11\nsweep.points_per_decade = 5\nobservables = e_r\n"
        markovian = build_config(parse_config_text("bath.kappa = 1e-3\n" + tight))
        structured = build_config(parse_config_text("bath.type = structured\n" + tight))
        taus = np.array([5.0, 10.0])
        config_tols = ("moments", 1e-9, 1e-11)

        sweep.compute_chunk(markovian, taus)
        assert seen == [config_tols]
        seen.clear()
        sweep.compute_chunk(structured, taus)
        # one collocation span per quench time; the stepper is built per set of members
        assert seen == [("stepper", 1e-9, 1e-11), ("collocate_to", 1e-9, 1e-11)] * taus.size
        seen.clear()
        path = write_config(tmp_path, "bath.kappa = 1e-3\n" + tight)
        out = tmp_path / "traj.tsv"
        assert cli.main(["dump-trajectory", "--config", str(path), "--tau", "5", "--out", str(out)]) == 0
        assert seen == [config_tols] * 200  # one solve per span between the 201 default samples

    def test_env_overrides(self):
        env = {"CRITQUENCH_SWEEP_TAU_MIN": "20", "CRITQUENCH_OBSERVABLES": "n"}
        assert env_overrides(env) == {"sweep.tau_min": "20", "observables": "n"}
        with pytest.raises(ConfigError):
            env_overrides({"CRITQUENCH_SWEEP_BOGUS": "1"})
        with pytest.raises(ConfigError) as err:
            env_overrides({"CRITQUENCH_SWEEP_WORKERS": "2"})
        assert err.value.field == "CRITQUENCH_SWEEP_WORKERS"

    def test_env_override_applies(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        monkeypatch.setenv("CRITQUENCH_SWEEP_TAU_MAX", "200")
        cfg = load_config(path)
        assert cfg.tau_max == 200.0

    def test_hash_tracks_content(self, tmp_path):
        a = build_config(parse_config_text(BASE))
        b = build_config(parse_config_text(BASE.replace("1e-3", "2e-3")))
        assert a.config_hash != b.config_hash
        assert len(a.config_hash) == 12
        assert a.config_hash == build_config(parse_config_text(BASE)).config_hash


class TestTauGrid:
    def test_log_spacing(self):
        grid = sweep.tau_grid(1e3, 1e4, 20)
        assert grid.size == 21
        assert grid[0] == 1e3 and grid[-1] == 1e4
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_fractional_decades(self):
        grid = sweep.tau_grid(100.0, 316.0, 10)
        assert grid.size == 6


class TestRunSweep:
    def test_deterministic_csv(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        first = sweep.run_sweep(cfg)
        second = sweep.run_sweep(cfg)
        assert first.csv_text == second.csv_text
        assert first.report_text == second.report_text

    def test_csv_schema_and_precision(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        result = sweep.run_sweep(cfg)
        lines = result.csv_text.strip().split("\n")
        assert lines[0] == "tau_q,e_r_isolated,e_r_open,e_r_delta,dp_isolated,dp_open,dp_delta"
        assert len(lines) == 1 + 6
        row = lines[1].split(",")
        # 17 significant digits survive a float round trip
        assert float(row[3]) == float(row[2]) - float(row[1])

    def test_isolated_run_fits_observable_itself(self, tmp_path):
        text = BASE.replace("bath.kappa = 1e-3", "bath.kappa = 0.0")
        cfg = load_config(write_config(tmp_path, text))
        result = sweep.run_sweep(cfg)
        for row in result.rows:
            iso, opn, delta = row.values["e_r"]
            assert iso == opn and delta == 0.0
        fit = result.fit_for("e_r")
        assert fit.prediction.regime.value == "kz-isolated"

    def test_isolated_column_follows_the_bath_within_1e_8(self, tmp_path):
        # the isolated members share the open members' step sequence, so
        # the isolated column moves with the bath, but only at the level
        # of the error control
        cfg_a = load_config(write_config(tmp_path, BASE, "a.cfg"))
        cfg_b = load_config(write_config(tmp_path, BASE.replace("n_th = 2.0", "n_th = 4.0"), "b.cfg"))
        res_a = sweep.run_sweep(cfg_a)
        res_b = sweep.run_sweep(cfg_b)
        for row_a, row_b in zip(res_a.rows, res_b.rows):
            for obs in cfg_a.observables:
                iso_a, iso_b = row_a.values[obs][0], row_b.values[obs][0]
                assert abs(iso_a - iso_b) <= 1e-8 * abs(iso_a)

    @pytest.mark.parametrize("r_n", ["1", "0.5"])
    def test_markovian_legs_are_one_batch(self, tmp_path, monkeypatch, r_n):
        # one propagation: the isolated block, then the open block, kappa
        # per member; the two columns are that call's halves bit for bit
        cfg = load_config(write_config(tmp_path, BASE + f"protocol.r_n = {r_n}\n"))
        taus = sweep.tau_grid(cfg.tau_min, cfg.tau_max, cfg.points_per_decade)
        real = sweep.moments.propagate_moments_batch
        calls = []

        def spy(tau_q, g_final, r_n, model, kappa, *args, **kwargs):
            ss, vs = real(tau_q, g_final, r_n, model, kappa, *args, **kwargs)
            calls.append((np.asarray(tau_q), np.asarray(kappa), vs[-1]))
            return ss, vs

        monkeypatch.setattr(sweep.moments, "propagate_moments_batch", spy)
        iso, opn, errors = sweep.compute_chunk(cfg, taus)
        assert not errors
        ((tau_q, kappa, v_final),) = calls
        b = taus.size
        assert kappa.ndim == 1 and kappa.tolist() == [0.0] * b + [cfg.bath.kappa] * b
        assert tau_q.tolist() == taus.tolist() * 2
        for column, half in ((iso, v_final[:b]), (opn, v_final[b:])):
            obs = sweep.moments.observables_from_covariance(half, cfg.g_final, cfg.model.omega)
            assert column["e_r"].tobytes() == obs["e_r"].tobytes()
            assert column["dp"].tobytes() == obs["dp"].tobytes()

    def test_size_crossover_is_one_batch(self, monkeypatch):
        # every size and quench time of both legs is one member of one call
        cfg = load_config(CONFIG_DIR / "qrm_size_crossover.cfg")
        seen = []

        class Stop(Exception):
            pass

        def spy(tau_q, g_final, r_n, model, kappa, n_th, eta=None, **kwargs):
            seen.append((np.asarray(tau_q), np.asarray(kappa), np.asarray(eta)))
            raise Stop

        monkeypatch.setattr(sweep.moments, "propagate_moments_batch", spy)
        with pytest.raises(Stop):
            sweep.run_size_crossover(cfg)
        ((tau_q, kappa, eta),) = seen
        b = 44
        assert kappa.ndim == 1 and kappa.tolist() == [0.0] * b + [cfg.bath.kappa] * b
        assert tau_q.shape == eta.shape == (2 * b,)
        assert tau_q[:b].tolist() == tau_q[b:].tolist() and eta[:b].tolist() == eta[b:].tolist()
        assert sorted(set(eta.tolist())) == sorted(set(cfg.eta_list))

    def test_failed_rows_marked_and_run_continues(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(tmp_path))
        real = sweep.moments.propagate_moments_batch

        def flaky(tau_q, *args, **kwargs):
            # a row run alone is one batch of its isolated and open member
            taus = np.unique(np.asarray(tau_q, dtype=float))
            if taus.size == 1 and abs(taus[0] - 100.0) < 1e-9:
                raise IntegrationFailure("forced", t_last=0.5)
            if taus.size > 1:
                raise IntegrationFailure("forced batch", t_last=0.0)
            return real(tau_q, *args, **kwargs)

        monkeypatch.setattr(sweep.moments, "propagate_moments_batch", flaky)
        sweep._ISOLATED_CACHE.clear()
        result = sweep.run_sweep(cfg)
        assert result.n_failed_rows == 1
        failed = [r for r in result.rows if r.failed]
        assert len(failed) == 1 and failed[0].tau_q == 100.0
        assert math.isnan(failed[0].values["e_r"][1])
        assert "failed rows = 1" in result.report_text

    def test_unphysical_member_is_a_failed_row(self, monkeypatch):
        # a member that ends with V + iJ not positive fails its row; the rest stay finite
        text = "bath.type = structured\nsweep.tau_min = 5\nsweep.tau_max = 10\nsweep.points_per_decade = 5\nobservables = e_r\n"
        cfg = build_config(parse_config_text(text))
        taus = sweep.tau_grid(cfg.tau_min, cfg.tau_max, cfg.points_per_decade)
        real = moments.collocate_to

        def collocate_to(attempt, t0, t1, u0, step):
            y = real(attempt, t0, t1, u0, step)
            if t1 == taus[1]:
                # the isolated member of taus[1]: a propagator of 0.5 I, so a
                # system block of 0.25 I
                y[0] = 0.5 * np.eye(*u0.shape[-2:])
            return y

        monkeypatch.setattr(moments, "collocate_to", collocate_to)
        iso, opn, errors = sweep.compute_chunk(cfg, taus)
        assert list(errors) == [1] and "unphysical state" in errors[1]
        for leg in (iso, opn):
            assert np.isnan(leg["e_r"][1]) and np.all(np.isfinite(np.delete(leg["e_r"], 1)))

    def test_sweeps_leave_numpy_ma_unimported(self):
        # np.unique imports numpy.ma lazily, at about 1 MB of resident memory
        code = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
from critquench import sweep
from critquench.config import build_config, parse_config_text
grid = "sweep.tau_min = 10\\nsweep.tau_max = 20\\nsweep.points_per_decade = 5\\nobservables = e_r\\n"
sweep.run_sweep(build_config(parse_config_text(grid + "bath.kappa = 1e-3\\n")))
sweep.run_sweep(build_config(parse_config_text(grid + "bath.type = structured\\n")))
size = "model.kind = qrm\\nmodel.eta = 100\\nbath.kappa = 1e-3\\nsize.eta_list = 10, 100, 1000\\n"
sweep.run_size_crossover(build_config(parse_config_text(grid + size)))
print("numpy.ma" in sys.modules)
"""
        src = str(Path(sweep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        if out.stdout.strip() == "preloaded":
            pytest.skip("import numpy alone loads numpy.ma")
        assert out.stdout.strip() == "False"

    def test_lockstep_row_failure_loses_both_legs(self, tmp_path, monkeypatch):
        # the open leg fails at one quench time: the batch falls back to
        # single rows, each still one call for both legs
        cfg = load_config(write_config(tmp_path))
        taus = sweep.tau_grid(cfg.tau_min, cfg.tau_max, cfg.points_per_decade)
        bad = taus[2]
        real = sweep.moments.propagate_moments_batch

        def flaky(tau_q, g_final, r_n, model, kappa, *args, **kwargs):
            if np.any(np.asarray(kappa) != 0.0) and np.any(np.asarray(tau_q) == bad):
                raise IntegrationFailure("forced", t_last=0.5)
            return real(tau_q, g_final, r_n, model, kappa, *args, **kwargs)

        alone = [sweep.compute_chunk(cfg, [tau]) for tau in taus]
        monkeypatch.setattr(sweep.moments, "propagate_moments_batch", flaky)
        result = sweep.run_sweep(cfg)
        assert [r.failed for r in result.rows] == [tau == bad for tau in taus]
        for row, (iso, opn, _) in zip(result.rows, alone):
            for obs, (iso_v, opn_v, delta) in row.values.items():
                if row.failed:
                    assert math.isnan(iso_v) and math.isnan(opn_v) and math.isnan(delta)
                else:
                    assert (iso_v, opn_v) == (iso[obs][0], opn[obs][0])

    def test_isolated_cache_holds_structured_legs_only(self, tmp_path):
        sweep._ISOLATED_CACHE.clear()
        sweep.run_sweep(load_config(write_config(tmp_path)))
        crossover = BASE.replace("thermodynamic", "qrm").replace("sweep.tau_max = 100", "sweep.tau_max = 30")
        sweep.run_size_crossover(load_config(write_config(tmp_path, crossover + "size.eta_list = 10, 100, 1000\n")))
        assert not sweep._ISOLATED_CACHE
        text = (
            "bath.type = structured\nsweep.tau_min = 5\nsweep.tau_max = 10\n"
            "sweep.points_per_decade = 5\nobservables = e_r\n"
        )
        sweep.run_sweep(load_config(write_config(tmp_path, text)))
        assert not sweep._ISOLATED_CACHE

    def test_report_prints_the_table_kappa(self, tmp_path):
        # a structured config without bath.kappa runs with the table's value
        text = (
            "bath.type = structured\nsweep.tau_min = 5\nsweep.tau_max = 10\n"
            "sweep.points_per_decade = 5\nobservables = e_r\n"
        )
        result = sweep.run_sweep(load_config(write_config(tmp_path, text)))
        kappa = auxbath.DEFAULT_OHMIC.kappa
        assert f"bath = structured  kappa = {kappa:g}  " in result.report_text

    def test_params_file_read_once_at_load(self, tmp_path):
        # the table is resolved into the config: the sweep never reopens the file
        params = tmp_path / "bath.params"
        params.write_text((CONFIG_DIR / "ohmic_4osc.params").read_text())
        text = (
            f"bath.type = structured\nbath.params_file = {params}\n"
            "sweep.tau_min = 5\nsweep.tau_max = 10\n"
            "sweep.points_per_decade = 5\nobservables = e_r\n"
        )
        cfg = load_config(write_config(tmp_path, text))
        params.unlink()
        result = sweep.run_sweep(cfg)
        assert result.n_failed_rows == 0

    def test_requires_sweep_bounds(self):
        cfg = build_config(parse_config_text("bath.kappa = 0\n"))
        with pytest.raises(ConfigError):
            sweep.run_sweep(cfg)

    def test_report_lines_all_carry_hash(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        result = sweep.run_sweep(cfg)
        for line in result.report_text.strip().split("\n"):
            if line:
                assert f"cfg={cfg.config_hash}" in line


class TestSizeCrossoverValidation:
    def test_thermodynamic_rejected(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE + "size.eta_list = 10, 100, 1000\n"))
        with pytest.raises(ConfigError):
            sweep.run_size_crossover(cfg)

    def test_needs_three_sizes(self, tmp_path):
        text = BASE.replace("model.kind = thermodynamic", "model.kind = qrm\nmodel.eta = 100")
        # a repeated size is one size: fitting it three times proves nothing
        for sizes in ("10, 100", "10, 10, 10"):
            cfg = load_config(write_config(tmp_path, text + f"size.eta_list = {sizes}\n"))
            with pytest.raises(ConfigError) as err:
                sweep.run_size_crossover(cfg)
            assert err.value.field == "size.eta_list"

    def test_needs_dissipation(self, tmp_path):
        text = BASE.replace("model.kind = thermodynamic", "model.kind = qrm\nmodel.eta = 100")
        text = text.replace("bath.kappa = 1e-3", "bath.kappa = 0")
        cfg = load_config(write_config(tmp_path, text + "size.eta_list = 10, 100, 1000\n"))
        with pytest.raises(ConfigError):
            sweep.run_size_crossover(cfg)


class TestCli:
    def test_predict_exit_zero(self, capsys):
        assert cli.main(["predict", "--observable", "e_r", "--rn", "1"]) == 0
        out = capsys.readouterr().out
        assert "2/3" in out and "0.666" in out

    def test_predict_aliases_and_flags(self, capsys):
        assert cli.main(["predict", "--observable", "n", "--rn", "2"]) == 0
        assert "3/2" in capsys.readouterr().out
        assert cli.main(["predict", "--observable", "dx", "--off-critical"]) == 0
        assert "exponent = 1" in capsys.readouterr().out
        assert cli.main(["predict", "--observable", "e_r", "--isolated"]) == 0
        assert "-1/3" in capsys.readouterr().out
        # only the canonical names of the config's observables are accepted
        for alias in ("adaga", "er", "E_R", " dp"):
            assert cli.main(["predict", "--observable", alias]) == 2
            assert "unknown observable" in capsys.readouterr().err

    def test_predict_unknown_observable(self, capsys):
        assert cli.main(["predict", "--observable", "parity"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--rn", "inf"], ["--isolated", "--rn", "-2"], ["--isolated", "--rn", "-1"]],
        ids=["inf", "isolated-minus-two", "isolated-minus-one"],
    )
    def test_predict_rejects_bad_rn(self, capsys, flags):
        assert cli.main(["predict", "--observable", "e_r", *flags]) == 2
        assert "r_n" in capsys.readouterr().err

    def test_sweep_end_to_end(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE + f"output.path = {tmp_path / 'out'}\n")
        code = cli.main(["sweep", "--config", str(path)])
        assert code == 0
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert (tmp_path / "out" / "sweep_report.txt").exists()
        assert "verdict" in capsys.readouterr().out

    def test_sweep_enforce_fit_failures(self, tmp_path):
        # saturated bath in this window: the excess exponent misses the
        # universal value, so --enforce must flip the exit code to 4
        text = BASE.replace("bath.kappa = 1e-3", "bath.kappa = 0.5")
        path = write_config(tmp_path, text + f"output.path = {tmp_path / 'out'}\n")
        assert cli.main(["sweep", "--config", str(path), "--enforce"]) == 4
        assert cli.main(["sweep", "--config", str(path)]) == 0

    def test_missing_config_is_validation_error(self):
        assert cli.main(["sweep", "--config", "/nonexistent.cfg"]) == 2

    def test_invalid_config_exit_two(self, tmp_path):
        path = write_config(tmp_path, BASE + "sweep.points_per_decade = 2\n")
        assert cli.main(["sweep", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "name, value", [("CRITQUENCH_BATH_KAPPA", "nan"), ("CRITQUENCH_SWEEP_TAU_MAX", "inf")]
    )
    def test_non_finite_override_exit_two(self, tmp_path, monkeypatch, capsys, name, value):
        path = write_config(tmp_path)
        monkeypatch.setenv(name, value)
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_params_file_exit_two(self, tmp_path, capsys):
        params = tmp_path / "bath.params"
        auxbath.dump_params(params, auxbath.DEFAULT_OHMIC)
        params.write_text(re.sub(r"gamma = .*", "gamma = nan", params.read_text(), count=1))
        text = (
            f"bath.type = structured\nbath.params_file = {params}\n"
            "sweep.tau_min = 5\nsweep.tau_max = 10\n"
        )
        path = write_config(tmp_path, text)
        assert cli.main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{params}:" in err and "non-finite" in err

    def test_row_failure_exit_three(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, BASE + f"output.path = {tmp_path / 'out'}\n")

        def always_fail(*args, **kwargs):
            raise IntegrationFailure("forced", t_last=0.0)

        monkeypatch.setattr(sweep.moments, "propagate_moments_batch", always_fail)
        sweep._ISOLATED_CACHE.clear()
        assert cli.main(["sweep", "--config", str(path)]) == 3

    def test_dump_trajectory(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "traj.tsv"
        code = cli.main(
            ["dump-trajectory", "--config", str(path), "--tau", "25", "--samples", "9", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("t\tg\tv_qq\tv_pp\tv_qp")
        assert len(lines) == 10
        assert f"wrote 9 samples to {out}" in capsys.readouterr().out
        # fewer than two samples still writes the final state, and says so
        for samples in ("0", "1"):
            args = ["--config", str(path), "--tau", "25", "--samples", samples, "--out", str(out)]
            code = cli.main(["dump-trajectory", *args])
            assert code == 0
            assert len(out.read_text().strip().split("\n")) == 2
            assert f"wrote 1 samples to {out}" in capsys.readouterr().out

    def test_dump_trajectory_columns_are_the_extractor(self, tmp_path):
        # every observable column, to its 17 printed digits, is the one
        # extractor applied to the trajectory of the same config
        path = write_config(tmp_path)
        out = tmp_path / "traj.tsv"
        args = ["--config", str(path), "--tau", "25", "--samples", "9", "--out", str(out)]
        assert cli.main(["dump-trajectory", *args]) == 0
        header, *rows = [line.split("\t") for line in out.read_text().strip().split("\n")]
        cfg = load_config(path)
        protocol = QuenchProtocol(g_final=cfg.g_final, tau_q=25.0, r_n=cfg.r_n)
        traj = moments.integrate(protocol, cfg.model, cfg.bath, cfg.settings, 9)
        obs = moments.observables_from_covariance(traj.vs, protocol.coupling(traj.ts), cfg.model.omega)
        assert len(rows) == 9
        for name in ("n", "dx", "dp", "e_r"):
            column = [row[header.index(name)] for row in rows]
            assert column == [f"{v:.17g}" for v in obs[name]], name

    def test_dump_trajectory_rejects_negative_samples(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "traj.tsv"
        args = ["--config", str(path), "--tau", "25", "--samples", "-3", "--out", str(out)]
        assert cli.main(["dump-trajectory", *args]) == 2
        assert "--samples" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_trajectory_rejects_a_bad_out_before_propagating(self, tmp_path, monkeypatch, capsys):
        def integrate(*args, **kwargs):
            raise AssertionError("propagated before checking --out")

        monkeypatch.setattr(moments, "integrate", integrate)
        path = write_config(tmp_path)
        # a bad extension, and a file in a directory that does not exist
        bad_outs = ((tmp_path / "x.txt", ".tsv or .csv"), (tmp_path / "no" / "such" / "t.tsv", "no directory"))
        for out, message in bad_outs:
            assert cli.main(["dump-trajectory", "--config", str(path), "--tau", "25", "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
        # and an existing directory, which is left as it was
        out = tmp_path / "d.tsv"
        out.mkdir()
        assert cli.main(["dump-trajectory", "--config", str(path), "--tau", "25", "--out", str(out)]) == 2
        assert "is a directory" in capsys.readouterr().err
        assert out.is_dir() and not any(out.iterdir())

    def test_dump_trajectory_rejects_infinite_tau(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "traj.tsv"
        args = ["--config", str(path), "--tau", "inf", "--samples", "5", "--out", str(out)]
        assert cli.main(["dump-trajectory", *args]) == 2
        assert "tau_q" in capsys.readouterr().err
        assert not out.exists()

    def test_steady_state_cold_bath(self, tmp_path, capsys):
        # omega / T past the expm1 range reads as the zero-temperature bath
        outputs = []
        for temperature in ("1e-3", "1e-6", "0"):
            text = f"model.kind = thermodynamic\nbath.kappa = 1e-4\nbath.temperature = {temperature}\n"
            path = write_config(tmp_path, text)
            assert cli.main(["steady-state", "--config", str(path), "--g", "0.5"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_steady_state(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["steady-state", "--config", str(path), "--g", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "n = 2" in out  # thermal occupation at g = 0

    @pytest.mark.parametrize("config", ["critical_akz_thermal.cfg", "ohmic_critical.cfg"])
    def test_steady_state_coupling_out_of_range(self, capsys, config):
        assert cli.main(["steady-state", "--config", str(CONFIG_DIR / config), "--g", "1.5"]) == 2
        assert "coupling g" in capsys.readouterr().err

    def test_steady_state_structured(self, tmp_path, capsys):
        text = "model.kind = thermodynamic\nbath.type = structured\nbath.kappa = 1e-5\n"
        path = write_config(tmp_path, text)
        assert cli.main(["steady-state", "--config", str(path), "--g", "0.5"]) == 0
        assert "dx" in capsys.readouterr().out

    def test_steady_state_past_the_shifted_critical_point(self, tmp_path, capsys):
        # kappa > 0, but the bath moves the critical point below g = 1:
        # the error names the growing mode, not a missing damping
        path = write_config(tmp_path, "bath.type = structured\n")
        assert cli.main(["steady-state", "--config", str(path), "--g", "1"]) == 2
        err = capsys.readouterr().err
        assert "at g = 1 its largest eigenvalue real part is 8.82e-05" in err
        assert "kappa > 0" not in err

    def test_dump_trajectory_structured(self, tmp_path, capsys):
        text = (
            "model.kind = thermodynamic\nbath.type = structured\n"
            "bath.kappa = 1e-5\nprotocol.g_final = 1.0\n"
        )
        path = write_config(tmp_path, text)
        out = tmp_path / "traj.csv"
        code = cli.main(
            ["dump-trajectory", "--config", str(path), "--tau", "20", "--samples", "5", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6
        assert float(lines[-1].split(",")[1]) == 1.0  # final coupling
        assert f"wrote 5 samples to {out}" in capsys.readouterr().out

    def test_size_crossover_end_to_end(self, tmp_path, capsys):
        text = (
            "model.kind = qrm\nbath.type = markovian\nbath.kappa = 1e-3\n"
            "protocol.g_final = 1.0\nsweep.tau_min = 10\nsweep.tau_max = 30\n"
            "sweep.points_per_decade = 5\nobservables = e_r\n"
            "size.eta_list = 10, 100, 1000\n"
            f"output.path = {tmp_path / 'out'}\n"
        )
        path = write_config(tmp_path, text)
        assert cli.main(["size-crossover", "--config", str(path)]) == 0
        csv_lines = (tmp_path / "out" / "size_crossover.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "eta,observable,b,stderr_b"
        assert len(csv_lines) == 4
        assert "universal" in capsys.readouterr().out
