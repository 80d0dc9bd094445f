import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from kpdet import cli, fields, fredholm
from kpdet.kernels import KernelSpec, QuadratureFailure


GOOD_CONFIG = """
[run]
command = tw-table
tolerance = 0.5
[grid]
r_min = -6.0
r_max = 4.0
r_step = 0.1
"""


# one literal line of each kind of config key, its section and its value
KIND_LINES = [
    ("run", "command = tw-table", "tw-table"),
    ("run", "tolerance = inf", float("inf")),
    ("run", "quad_n = -1", -1),
    ("kernel", "t = -2.5e-3", -2.5e-3),
    ("kernel", "xs = -0.3", (-0.3,)),
    ("kernel", "wedges = 0:0.5,1:-0.2", ((0.0, 0.5), (1.0, -0.2))),
    ("grid", "nt = 3", 3),
    ("grid", "hr = 1e-300", 1e-300),
]


class TestConfigParsing:
    def test_malformed_line_number(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[run]\ncommand = tw-table\nbroken-line\n")
        assert "line 3" in str(err.value)

    def test_unknown_command(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("[run]\ncommand = frobnicate\n")

    def test_unset_quad_n_defaults_to_none(self):
        assert cli.parse_config("[run]\ncommand = tw-table\n").quad_n is None

    @pytest.mark.parametrize("section, line, expected", KIND_LINES)
    def test_literal_line_parses_to_its_kind(self, section, line, expected):
        key = line.split(" = ")[0]
        text = "[run]\n" + ("" if key == "command" else "command = tw-table\n")
        cfg = cli.parse_config(text + ("" if section == "run" else f"[{section}]\n") + line)
        value = getattr(cfg, key) if section == "run" else getattr(cfg, section)[key]
        assert value == expected and type(value) is type(expected)

    def test_literal_lines_cover_every_kind(self):
        kinds = {id(kind) for sect in cli._KINDS.values() for kind in sect.values()}
        covered = {id(cli._KINDS[sect][line.split(" = ")[0]]) for sect, line, _ in KIND_LINES}
        assert covered == kinds

    def test_kernel_values(self):
        cfg = cli.parse_config(
            "[run]\ncommand = det-eval\n[kernel]\nfamily = flat_fixed_point\n"
            "t = 2.0\nwedges = 0:0.5,1:0.2\n")
        assert cfg.kernel["t"] == 2.0
        assert cfg.kernel["wedges"] == ((0.0, 0.5), (1.0, 0.2))


class TestMain:
    def test_malformed_config_exit_2_no_artifacts(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nnot-a-kv\n")
        out = tmp_path / "out"
        code = cli.main(["--config", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_tw_table(self, tmp_path):
        cfgf = tmp_path / "tw.cfg"
        cfgf.write_text(GOOD_CONFIG)
        out = tmp_path / "out"
        code = cli.main(["--config", str(cfgf), "--out", str(out)])
        assert code == 0
        data = np.genfromtxt(out / "tw-table.csv", delimiter=",", names=True)
        assert np.all(np.diff(data["f_gue"]) > -1e-15)
        assert data["f_gue"][-1] > 0.9999
        report = json.loads((out / "tw-table.json").read_text())
        assert report["passed"] is True

    def test_tw_table_evaluates_the_painleve_integrals_once(self, tmp_path, monkeypatch):
        # both columns come from one log_f call, so one set of Airy tails
        from kpdet import painleve
        calls = []
        tails = painleve._airy_tails
        monkeypatch.setattr(painleve, "_airy_tails", lambda R: calls.append(R) or tails(R))
        code, _ = _run_main(tmp_path, GOOD_CONFIG)
        assert code == 0 and len(calls) == 1

    def test_warnings_counted_not_printed(self, tmp_path):
        # F_GUE(-9) ~ 3e-27: det_one_minus warns that det(I - K) < 1e-14,
        # on a worker thread of det-eval's pool
        code, err, out = _run_module(
            tmp_path, "[run]\ncommand = det-eval\ntolerance = 1e-6\n"
            "[grid]\nr0 = -9.0\nnr = 1\n")
        assert code == 0 and err == ""
        assert json.loads((out / "det-eval.json").read_text())["warnings"] == 1

    def test_deterministic_outputs(self, tmp_path):
        cfgf = tmp_path / "tw.cfg"
        cfgf.write_text(GOOD_CONFIG.replace("-6.0", "-2.0"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["--config", str(cfgf), "--out", str(out1)])
        cli.main(["--config", str(cfgf), "--out", str(out2)])
        assert (out1 / "tw-table.csv").read_bytes() == (out2 / "tw-table.csv").read_bytes()

    def test_det_eval_threshold(self, tmp_path):
        cfgf = tmp_path / "d.cfg"
        cfgf.write_text("[run]\ncommand = det-eval\nquad_n = 48\n"
                        "[kernel]\nfamily = nw_fixed_point\n"
                        "[grid]\nr0 = -1.0\nhr = 1.0\nnr = 3\n")
        out = tmp_path / "out"
        code = cli.main(["--config", str(cfgf), "--out", str(out),
                         "--tolerance", "0.5"])
        assert code == 0
        rows = np.genfromtxt(out / "det-eval.csv", delimiter=",", names=True)
        assert np.all(np.diff(rows["det"]) > 0)

    def test_threshold_exceeded_exit_1(self, tmp_path):
        cfgf = tmp_path / "h.cfg"
        cfgf.write_text("[run]\ncommand = hirota-residual\ntolerance = 1e-12\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfgf), "--out", str(out)]) == 1
        report = json.loads((out / "hirota-residual.json").read_text())
        assert report["passed"] is False

    def test_hirota_pipeline_passes(self, tmp_path):
        cfgf = tmp_path / "h.cfg"
        cfgf.write_text("[run]\ncommand = hirota-residual\ntolerance = 1e-3\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfgf), "--out", str(out)]) == 0


def _run_main(tmp_path, text, *extra):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(text)
    out = tmp_path / "out"
    return cli.main(["--config", str(cfgf), "--out", str(out), *extra]), out


def _fresh_python(*args):
    """python args in a fresh process with this checkout's src on the path,
    so nothing pytest captures in process (warnings, imports) is hidden."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_module(tmp_path, text):
    """python -m kpdet.cli on config text: (exit code, stderr, out dir)."""
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(text)
    out = tmp_path / "out"
    proc = _fresh_python("-m", "kpdet.cli", "--config", str(cfgf), "--out", str(out))
    return proc.returncode, proc.stderr, out


def test_cli_import_loads_no_scipy():
    proc = _fresh_python("-c", "import sys, kpdet.cli; print(sorted("
                         "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_importing_every_module_loads_no_argparse():
    # only cli.main parses argv; the library and cli.run import no argparse,
    # and only det-eval's pool imports concurrent.futures (and with it logging)
    proc = _fresh_python("-c", "import importlib, sys, kpdet\n"
                         "for m in kpdet.__all__: importlib.import_module(f'kpdet.{m}')\n"
                         "print([m in sys.modules for m in "
                         "('argparse', 'concurrent.futures', 'logging')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False]"


def test_run_loads_no_numpy_ma(tmp_path):
    # numpy's set routines import numpy.ma on first use, 15-20 ms inside a
    # pass; c03, c05 and c13 reach the lattice and eta-panel deduplications,
    # c12 the deduplicated x^2 rows of the closure window
    configs = pathlib.Path(__file__).resolve().parents[1] / "configs" / "acceptance"
    script = ("import sys\n"
              "from kpdet import cli\n"
              "for i, path in enumerate(sys.argv[2:]):\n"
              "    cfg = cli.parse_config(open(path).read())\n"
              "    cfg.out = f'{sys.argv[1]}/{i}'\n"
              "    assert cli.run(cfg)[0] == 0, path\n"
              "print('numpy.ma' in sys.modules)\n")
    proc = _fresh_python("-c", script, str(tmp_path),
                         *(str(configs / f"{name}.cfg")
                           for name in ("c03_hirota", "c05_matrix_kp", "c12_solve_kp",
                                       "c13_spiked")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _csv_per_value(header, rows):
    """The CSV text of header and rows, each value formatted on its own."""
    return "".join(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                   + "\n" for row in [header, *rows])


@pytest.mark.parametrize("rows", [
    [],
    [(1.0, "(-0.3, 0.4)", 0.1, 3), (2.0, "(0.1, 0.9)", -0.0, 10 ** 20)],
    [(np.float64(0.1), float("nan"), True), (1e-300, float("-inf"), False)],
    # columns that change type: one format per kind of row
    [("normalized_sup", 8.7e-4), ("passed", True), ("count", 3), ("ratio", 1 / 3)],
    [(0.1, 1), (1, 0.1), (10 ** 20, "a%s")],
], ids=["empty", "str-columns", "non-finite", "mixed-columns", "swapped"])
def test_write_csv_matches_per_value_formatting(tmp_path, rows):
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 2)]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), header, rows)
    assert path.read_text() == _csv_per_value(header, rows)


class TestConfiguredKeys:
    def test_det_eval_sweeps_r_from_grid(self, tmp_path):
        code, out = _run_main(
            tmp_path, "[run]\ncommand = det-eval\nquad_n = 48\ntolerance = 1e-6\n"
            "[kernel]\nfamily = nw_fixed_point\n"
            "[grid]\nr0 = -1.0\nhr = 1.0\nnr = 3\n")
        assert code == 0
        rows = np.genfromtxt(out / "det-eval.csv", delimiter=",", names=True)
        assert np.all(np.diff(rows["det"]) > 0.01)
        assert np.max(rows["abs_err"]) < 1e-6

    def test_kp_residual_field_uses_configured_wedges(self, tmp_path, monkeypatch):
        # a narrow wedge at (a, b) is the wedge at (0, 0) moved by x -> x - a,
        # r -> r - b, so the field at the moved lattice is the default field
        grid = "[grid]\nt0 = 1.0\nx0 = {x}\nr0 = {r}\n"
        base = (f"[run]\ncommand = kp-residual\nquad_n = 32\nout = {tmp_path}\n"
                "[kernel]\nfamily = nw_fixed_point\n")
        wedge = base + "wedges = 0.3:0.5\n"
        sweep = fields.sweep

        def field(text):
            # the log F values kp-residual reads, caught on their way out
            seen = []

            def spy(*args):
                seen.append(sweep(*args))
                return seen[-1]
            monkeypatch.setattr(fields, "sweep", spy)
            cli.run(cli.parse_config(text))
            return np.concatenate(seen)

        default = field(base + grid.format(x=0.18, r=0.44))
        moved = field(wedge + grid.format(x=0.48, r=0.94))
        same_lattice = field(wedge + grid.format(x=0.18, r=0.44))
        assert np.max(np.abs(moved - default)) < 1e-10
        assert np.min(np.abs(same_lattice - default)) > 1e-3

    def test_matrix_kp_uses_configured_quad_n(self, tmp_path):
        code, out = _run_main(
            tmp_path, "[run]\ncommand = matrix-kp\nquad_n = 56\n"
            "[kernel]\nfamily = nw_fixed_point\nxs = -0.3,0.4\nrs = 0.5,0.8\n")
        assert code == 0
        report = json.loads((out / "matrix-kp.json").read_text())
        assert report["quad_n"] == 56

    def test_spiked_check_uses_configured_t_x_anchor(self, tmp_path):
        code, out = _run_main(
            tmp_path, "[run]\ncommand = spiked-check\nquad_n = 16\n"
            "[kernel]\nspikes = 0.0\nt = 1.2\nx = 0.1\nanchor = 0.3\n")
        assert code == 0
        report = json.loads((out / "spiked-check.json").read_text())

        def det(t, x, anchor):
            spec = KernelSpec("kpz_spiked", t, (x,), (0.0,), spikes=(0.0,),
                              contour_anchor=anchor)
            return fredholm.det_one_minus(fredholm.assemble(spec, 16))

        assert abs(report["det_r0"] - det(1.2, 0.1, 0.3)) < 1e-13
        assert abs(report["det_r0"] - det(1.0, 0.0, 0.25)) > 1e-3
        assert report["quad_n"] == 16

    @pytest.mark.parametrize("command, kernel", [
        ("tail-fit", "[kernel]\nfamily = nw_fixed_point\n"),
        ("bracket-check", ""),
    ])
    def test_configured_quad_n_is_used(self, tmp_path, command, kernel):
        code, out = _run_main(tmp_path, f"[run]\ncommand = {command}\nquad_n = 48\n{kernel}")
        assert code == 0
        report = json.loads((out / f"{command}.json").read_text())
        assert report["quad_n"] == 48

    @pytest.mark.parametrize("family, expected", [("nw_fixed_point", 1.0 / 24.0),
                                                  ("flat_fixed_point", 1.0 / 12.0)],
                             ids=["nw_fixed_point", "flat_fixed_point"])
    def test_tail_fit_slope_follows_t(self, tmp_path, family, expected):
        # log F ~ -|r|^3 / (12 t) for the narrow wedge, -|r|^3 / (6 t) flat
        code, out = _run_main(tmp_path, "[run]\ncommand = tail-fit\ntolerance = 0.15\n"
                              f"[kernel]\nfamily = {family}\nt = 2.0\n")
        assert code == 0
        report = json.loads((out / "tail-fit.json").read_text())
        assert report["expected"] == expected and report["rel_dev"] < 0.15

    def test_tail_fit_off_the_wedge_fits_the_shifted_cubic(self, tmp_path):
        # at x = 1 the determinant is F_GUE(r + x^2/t): against |r|^3 the
        # slope reads 0.0606, against |r + 1|^3 it reads 1/12
        code, out = _run_main(tmp_path, "[run]\ncommand = tail-fit\ntolerance = 0.15\n"
                              "[kernel]\nfamily = nw_fixed_point\nt = 1.0\nx = 1.0\n")
        assert code == 0
        assert json.loads((out / "tail-fit.json").read_text())["rel_dev"] < 0.01

    @pytest.mark.parametrize("command, kernel", [
        ("tail-fit", "[kernel]\nfamily = flat_fixed_point\n"),
        ("bracket-check", ""),
    ])
    def test_unset_quad_n_defaults_to_96(self, tmp_path, command, kernel):
        # a flat tail-fit needs about 96 nodes for a positive determinant
        code, out = _run_main(tmp_path, f"[run]\ncommand = {command}\n{kernel}")
        assert code == 0
        report = json.loads((out / f"{command}.json").read_text())
        assert report["quad_n"] == 96

    @pytest.mark.parametrize("kernel, spec", [
        ("family = nw_fixed_point", KernelSpec("nw_fixed_point", 1.0)),
        ("family = kpz_spiked\nspikes = 0.0", KernelSpec("kpz_spiked", 1.0, spikes=(0.0,))),
    ], ids=["nw_fixed_point", "kpz_spiked"])
    def test_pooled_det_eval_equals_serial_sweep(self, tmp_path, kernel, spec):
        # det-eval maps its r values over one thread per CPU; the spiked
        # points share one set of rules across the pool
        code, out = _run_main(tmp_path, "[run]\ncommand = det-eval\nquad_n = 16\n"
                              f"[kernel]\n{kernel}\n[grid]\nnr = 3\n")
        assert code == 0
        rows = np.loadtxt(out / "det-eval.csv", delimiter=",", skiprows=1)
        specs = [replace(spec, rs=(r,)) for r in rows[:, 0].tolist()]
        assert rows[:, 1].tolist() == fields.sweep(specs, 16, fredholm.det_one_minus).tolist()

    @pytest.mark.parametrize("threads", ["0", "1", "2"])
    @pytest.mark.parametrize("kernel", ["family = nw_fixed_point"])
    def test_threads_do_not_change_outputs(self, tmp_path, monkeypatch, threads, kernel):
        # det-eval's pool has one thread per CPU that os.cpu_count reports,
        # one thread when it reports 0
        text = ("[run]\ncommand = det-eval\nquad_n = 16\n"
                f"[kernel]\n{kernel}\n[grid]\nnr = 3\n")
        (tmp_path / "serial").mkdir()
        (tmp_path / "pool").mkdir()
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        code, out = _run_main(tmp_path / "serial", text)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: int(threads))
        code_n, out_n = _run_main(tmp_path / "pool", text)
        assert code == code_n == 0
        assert (out / "det-eval.csv").read_bytes() == (out_n / "det-eval.csv").read_bytes()

    def test_solve_kp_report_records_sizes(self, tmp_path):
        code, out = _run_main(tmp_path, "[run]\ncommand = solve-kp\ntolerance = 5e-3\n")
        assert code == 0
        report = json.loads((out / "solve-kp.json").read_text())
        assert (report["n_x"], report["n_r"], report["n_steps"]) == (64, 512, 20)
        assert abs(report["dt"] - 5e-3) < 1e-15
        assert (report["soliton_n_x"], report["soliton_n_r"],
                report["soliton_n_steps"], report["soliton_dt"]) == (1, 512, 200, 1e-2)


# configs whose t * t underflows to 0, so the numerics fail
ARITHMETIC_ERRORS = [
    ("det-eval", "t = 1e-300\n[grid]\nnr = 1"),
    ("spiked-check", "spikes = 0.0\nt = 1e-300"),
]


class TestErrorContract:
    def _assert_config_error(self, capsys, code):
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:")
        assert "\n" not in err
        return err

    def test_kernel_domain_error_exit_2(self, tmp_path, capsys):
        code, out = _run_main(
            tmp_path, "[run]\ncommand = det-eval\n[kernel]\nt = -1.0\n"
            "[grid]\nnr = 2\n")
        self._assert_config_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_quad_n_out_of_range_exit_2(self, tmp_path, capsys, where):
        text = "[run]\ncommand = det-eval\n[grid]\nnr = 2\n"
        if where == "config":
            code, out = _run_main(tmp_path, text.replace("[grid]", "quad_n = 4\n[grid]"))
        else:
            code, out = _run_main(tmp_path, text, "--quad-n", "1000")
        self._assert_config_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, kind", [
        ("--tolerance", "nan", "a number"),
        ("--quad-n", "1.5", "an integer"),
    ])
    def test_flag_of_wrong_kind_exit_2(self, tmp_path, capsys, flag, value, kind):
        # a flag is parsed by its [run] key's kind, as the config line is
        code, out = _run_main(tmp_path, "[run]\ncommand = det-eval\n[grid]\nnr = 2\n",
                              flag, value)
        assert self._assert_config_error(capsys, code) == (
            f"config error: {flag} {value} is not {kind}")
        assert not out.exists()

    @pytest.mark.parametrize("where, expected", [
        ("config", "config error: line 3: [run] has no key 'threads';"),
        ("flag", "config error: unrecognized arguments: --threads 2"),
    ], ids=["config", "flag"])
    def test_threads_is_not_a_key(self, tmp_path, capsys, where, expected):
        # det-eval's pool is one thread per CPU, which no config sets
        text = "[run]\ncommand = det-eval\n[grid]\nnr = 2\n"
        if where == "config":
            code, out = _run_main(tmp_path, text.replace("[grid]", "threads = 2\n[grid]"))
        else:
            code, out = _run_main(tmp_path, text, "--threads", "2")
        assert self._assert_config_error(capsys, code).startswith(expected)
        assert not out.exists()

    def test_help_exit_0(self, capsys):
        assert cli.main(["--help"]) == 0
        printed = capsys.readouterr()
        assert printed.out.startswith("usage: kpdet") and printed.err == ""

    @pytest.mark.parametrize("argv, message", [
        (["--config", "c.cfg", "--bogus"], "unrecognized arguments: --bogus"),
        (["--config", "c.cfg", "--out"], "argument --out: expected one argument"),
        (["--out", "out"], "the following arguments are required: --config"),
    ], ids=["unknown-flag", "no-value", "no-config"])
    def test_usage_error_exit_2(self, tmp_path, capsys, monkeypatch, argv, message):
        # one config error line in place of argparse's usage message
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text(GOOD_CONFIG)
        code = cli.main(argv)
        assert self._assert_config_error(capsys, code) == f"config error: {message}"
        assert os.listdir(tmp_path) == ["c.cfg"]

    @pytest.mark.parametrize("sub", ["afile", "afile/sub"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch, sub):
        # out under a regular file: refused after the computation, not a traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        (tmp_path / "c.cfg").write_text(GOOD_CONFIG)
        code = cli.main(["--config", "c.cfg", "--out", sub])
        assert self._assert_config_error(capsys, code).startswith(
            f"config error: out = {sub} cannot be written:")
        assert sorted(os.listdir(tmp_path)) == ["afile", "c.cfg"]

    @pytest.mark.parametrize("family, key, use", [
        ("nw_fixed_point", "t", "[grid] t0"),
        ("kpz_narrow_wedge", "x", "[grid] x0"),
        ("nw_fixed_point", "rs", "[grid] r0"),
        ("airy_process", "t", "[grid] t0"),
        ("airy_process", "r", "[kernel] rs"),
    ])
    def test_kp_residual_kernel_point_exit_2(self, tmp_path, capsys, family, key, use):
        # kp-residual places its lattice by [grid]; the key would be ignored
        code, out = _run_main(
            tmp_path, "[run]\ncommand = kp-residual\nquad_n = 24\n"
            f"[kernel]\nfamily = {family}\n{key} = 2.0\n")
        assert use in self._assert_config_error(capsys, code)
        assert not out.exists()

    def test_unread_run_key_exit_2(self, tmp_path, capsys):
        # a misspelt tolerance would otherwise leave the default inf in force
        code, out = _run_main(tmp_path, "[run]\ncommand = tw-table\ntolerence = 1e-30\n")
        err = self._assert_config_error(capsys, code)
        assert "line 3" in err and "tolerence" in err
        assert not out.exists()

    def test_seed_is_not_a_key(self, tmp_path, capsys):
        # no computation read a seed; a config that sets one is refused
        code, out = _run_main(tmp_path, "[run]\ncommand = tw-table\nseed = 0\n")
        err = self._assert_config_error(capsys, code)
        assert err.startswith("config error: line 3: [run] has no key 'seed';")
        assert not out.exists()

    @pytest.mark.parametrize("command, kernel, key", [
        ("tw-table", "", "r0"),
        ("det-eval", "", "t0"),
        ("kp-residual", "family = nw_fixed_point", "hy"),
        ("kp-residual", "family = airy_process", "nr"),
        ("cyl-kdv", "", "x0"),
        ("bracket-check", "", "nr"),
        ("spiked-check", "spikes = 0.0", "h"),
    ])
    def test_unread_grid_key_exit_2(self, tmp_path, capsys, command, kernel, key):
        code, out = _run_main(
            tmp_path, f"[run]\ncommand = {command}\nquad_n = 16\n"
            f"[kernel]\n{kernel}\n[grid]\n{key} = 1\n")
        err = self._assert_config_error(capsys, code)
        assert f"{command} does not read [grid] {key};" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, kernel, key", [
        ("cyl-kdv", "t = 3.0", "t"),
        ("cyl-kdv", "family = flat_fixed_point", "family"),
        ("det-eval", "rs = 0.5", "rs"),
        ("det-eval", "r = 0.5", "r"),
        ("det-eval", "x = 0.5\nxs = 0.5", "x"),
        ("det-eval", "family = flat_fixed_point\nx = 0.5", "x"),
        ("det-eval", "family = kpz_narrow_wedge\nwedges = 0:0", "wedges"),
        ("det-eval", "spikes = 0.0", "spikes"),
        ("tail-fit", "r = 0.5", "r"),
        ("tail-fit", "family = flat_fixed_point\nrs = 0.5", "rs"),
        ("matrix-kp", "xs = -0.3,0.4\nrs = 0.5,0.8\nwedges = 0:0", "wedges"),
        ("matrix-kp", "xs = -0.3,0.4\nrs = 0.5,0.8\nspikes = 0.0", "spikes"),
        ("matrix-kp", "xs = -0.3,0.4\nrs = 0.5,0.8\nanchor = 0.3", "anchor"),
        ("matrix-kp", "family = multiwedge_extended\nxs = -0.3,0.4\nrs = 0.5,0.8", "family"),
        ("det-eval", "family = multiwedge_extended", "family"),
        ("tail-fit", "family = kpz_narrow_wedge", "family"),
        ("tail-fit", "family = kpz_spiked", "family"),
        ("kp-residual", "family = airy_process\nwedges = 0:0", "wedges"),
        ("kp-residual", "family = kpz_narrow_wedge\nwedges = 0:0", "wedges"),
        ("spiked-check", "spikes = 0.0\nr = 0.5", "r"),
        ("spiked-check", "spikes = 0.0\nfamily = nw_fixed_point", "family"),
        ("tw-table", "t = 1.0", "t"),
        ("hirota-residual", "x = 0.2", "x"),
        ("scattering-limit", "wedges = 0:0", "wedges"),
        ("path-integral-check", "xs = -0.3,0.4", "xs"),
        ("solve-kp", "family = nw_fixed_point", "family"),
        ("bracket-check", "r = 0.5", "r"),
    ])
    def test_unread_kernel_key_exit_2(self, tmp_path, capsys, command, kernel, key):
        code, out = _run_main(
            tmp_path, f"[run]\ncommand = {command}\nquad_n = 16\n[kernel]\n{kernel}\n")
        err = self._assert_config_error(capsys, code)
        # family names the one it takes where the command evaluates one family
        assert (f"{command} does not read [kernel] {key}" in err
                or f"{command} does not take family" in err)
        assert not out.exists()

    @pytest.mark.parametrize("line", ["quad_n = 64.7", "tolerance = tight"])
    def test_non_numeric_run_value_exit_2(self, tmp_path, capsys, line):
        # a non-integer quad_n is neither truncated nor a traceback
        code, out = _run_main(tmp_path, f"[run]\ncommand = tw-table\n{line}\n")
        err = self._assert_config_error(capsys, code)
        assert err == f"config error: line 3: {line} is not " + (
            "a number" if line.startswith("tolerance") else "an integer")
        assert not out.exists()

    @pytest.mark.parametrize("command, kernel, key", [
        ("det-eval", "", "t"), ("det-eval", "", "x"), ("det-eval", "", "wedges"),
        ("matrix-kp", "rs = 0.5,0.8", "xs"), ("matrix-kp", "xs = -0.3,0.4", "rs"),
        ("matrix-kp", "", "r"), ("spiked-check", "", "spikes"),
        ("spiked-check", "", "anchor"),
        *(("kp-residual", "", key) for key in ("t0", "x0", "r0", "ht", "hx", "hr",
                                                "nt", "nx", "nr")),
        ("matrix-kp", "", "hy"), ("matrix-kp", "", "ha"), ("hirota-residual", "", "h"),
        ("tw-table", "", "r_min"), ("tw-table", "", "r_max"), ("tw-table", "", "r_step"),
    ])
    def test_non_numeric_kernel_or_grid_value_exit_2(self, tmp_path, capsys, command,
                                                     kernel, key):
        sect = "kernel" if key in cli._KINDS["kernel"] else "grid"
        text = f"[run]\ncommand = {command}\nquad_n = 16\n[kernel]\n{kernel}\n"
        text += ("" if sect == "kernel" else "[grid]\n") + f"{key} = abc\n"
        code, out = _run_main(tmp_path, text)
        line = len(text.splitlines())
        err = self._assert_config_error(capsys, code)
        assert err.startswith(f"config error: line {line}: {key} = abc is not ")
        assert not out.exists()

    @pytest.mark.parametrize("command, lines, kind", [
        ("det-eval", "[kernel]\nt = inf", "a finite number"),
        ("matrix-kp", "[kernel]\nxs = -0.3,nan\nrs = 0.5,0.8", "a list of numbers"),
        ("det-eval", "[kernel]\nwedges = 0:inf", "a list of a:b pairs"),
        ("tw-table", "[grid]\nr_max = nan", "a finite number"),
        ("det-eval", "[grid]\nhr = inf", "a positive number"),
        ("det-eval", "[grid]\nnr = -1", "a positive integer"),
        ("tw-table", "tolerance = nan", "a number"),
    ])
    def test_value_outside_kind_exit_2(self, tmp_path, capsys, command, lines, kind):
        code, out = _run_main(tmp_path, f"[run]\ncommand = {command}\n{lines}\n")
        err = self._assert_config_error(capsys, code)
        assert err.startswith("config error: line ") and err.endswith(f" is not {kind}")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("[run]\ncommand = tw-table\nquad_n = 48\nquad_n = 96\n",
         "line 4: quad_n set twice in [run]"),
        ("[run]\ncommand = det-eval\n[kernel]\nt = 1.0\n[grid]\nnr = 2\n[kernel]\nt = 2.0\n",
         "line 7: section [kernel] opened twice"),
    ], ids=["key", "section"])
    def test_repeated_key_or_section_exit_2(self, tmp_path, capsys, text, message):
        # the last value would otherwise win without a word
        code, out = _run_main(tmp_path, text)
        assert self._assert_config_error(capsys, code) == f"config error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["r_step = 0.5", "r_max = -6.9"])
    def test_tail_fit_window_of_fewer_than_3_points_exit_2(self, tmp_path, capsys, grid):
        # 2 and 1 points fall in the fit window, which a line fits with r2 = 1
        code, out = _run_main(tmp_path, "[run]\ncommand = tail-fit\n"
                              f"[kernel]\nfamily = nw_fixed_point\n[grid]\n{grid}\n")
        assert "tail fit needs 3 points" in self._assert_config_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("command, kernel", ARITHMETIC_ERRORS)
    def test_arithmetic_error_exit_2(self, tmp_path, capsys, command, kernel):
        # t * t underflows, so the kernel's exponents divide by zero or overflow
        code, out = _run_main(
            tmp_path, f"[run]\ncommand = {command}\nquad_n = 16\n[kernel]\n{kernel}\n")
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical error:") and "\n" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, kernel", ARITHMETIC_ERRORS)
    def test_arithmetic_error_one_stderr_line(self, tmp_path, command, kernel):
        # the RuntimeWarnings on the way to the error are counted, not printed
        code, err, out = _run_module(
            tmp_path, f"[run]\ncommand = {command}\nquad_n = 16\n[kernel]\n{kernel}\n")
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("numerical error:")
        assert not out.exists()

    def test_non_positive_determinant_names_the_point(self, tmp_path, capsys):
        # the flat kernel's Nystrom determinant at r = -7 needs n > 64; the
        # message names cond(I - K): about 7e8 at n = 48, where the rule is
        # too coarse, and 4e13 at n = 64, at the rounding floor
        for n, low, high in ((48, 1e8, 1e10), (64, 1e12, 1e15)):
            code, out = _run_main(
                tmp_path, "[run]\ncommand = tail-fit\n"
                "[kernel]\nfamily = flat_fixed_point\n", "--quad-n", str(n))
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            head, cond = err.strip().split(", cond(I - K) = ")
            assert head == ("numerical error: non-positive determinant in a field sweep: "
                            f"flat_fixed_point at t = 1, x = 0, r = -7, n = {n}")
            assert low < float(cond) < high
            assert not out.exists()

    def test_non_finite_nystrom_matrix_names_the_point(self, tmp_path, capsys):
        # at t = 0.01 the spiked contour sums overflow on the way to the matrix
        code, out = _run_main(tmp_path, "[run]\ncommand = spiked-check\n[kernel]\nt = 0.01\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical error:") and "t = 0.01" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, lines", [
        ("det-eval", "r0 = -20.0\nnr = 2"),        # F_GUE reference below its interval
        ("tw-table", "r_min = -20.0"),
        ("hirota-residual", "h = 0.5"),            # the lattice reaches t = 0
        ("tail-fit", "r_min = -3.0\nr_max = -1.0"),
        ("kp-residual", "nt = 2"),                 # too few points for the stencil
        ("cyl-kdv", "t0 = 0.3"),
        ("det-eval", "nr = 0"),
        ("tw-table", "r_step = 0"),
        ("tail-fit", "r_min = -5.0\nr_max = -7.0"),  # an empty r range
        ("tw-table", "r_min = 4.0\nr_max = -6.0"),    # also an empty r range
        # more points than cli.MAX_POINTS, refused before any is allocated
        ("tw-table", "r_step = 1e-300"),
        ("tail-fit", "r_step = 5e-324"),           # the count overflows to inf
        ("tw-table", "r_max = 1e300"),
        ("det-eval", "nr = 100000000"),
        ("kp-residual", "nt = 1000\nnx = 1000"),
        # a spiked contour rule left with no nodes
        ("spiked-check", "[kernel]\nspikes = 0.0\nt = 1e300"),
        ("spiked-check", "[kernel]\nspikes = 0.0\nt = 1e200"),
        ("spiked-check", "[kernel]\nspikes = 0.0\nanchor = 1e300"),
        # a Fermi y-rule past 512 nodes per panel, refused before it is built
        ("det-eval", "[kernel]\nfamily = kpz_narrow_wedge\nt = 1e-9\n[grid]\nnr = 1"),
        ("spiked-check", "[kernel]\nspikes = 0.0\nt = 1e-3"),
        # a Fermi y-rule of more than 32768 nodes, or of none (its span
        # rounds to 0), refused before any array is built
        ("det-eval", "[kernel]\nfamily = kpz_narrow_wedge\nt = 1e300\n[grid]\nnr = 1"),
        ("cyl-kdv", "r0 = 1e300"),
        ("cyl-kdv", "t0 = 1e300"),
    ])
    def test_domain_error_exit_2(self, tmp_path, capsys, command, lines):
        # lines are [grid] lines, or whole sections where they start with one
        sections = lines if lines.startswith("[") else f"[grid]\n{lines}"
        code, out = _run_main(
            tmp_path, f"[run]\ncommand = {command}\nquad_n = 16\n{sections}\n")
        self._assert_config_error(capsys, code)
        assert not out.exists()

    def test_entry_point_exit_2_one_line(self, tmp_path):
        # python -m kpdet.cli in a fresh process, not only cli.main in process
        code, err, out = _run_module(
            tmp_path, "[run]\ncommand = det-eval\n[grid]\nnr = abc\n")
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: line 4: nr = abc is not ")
        assert not out.exists()

    def test_spiked_check_x_outside_light_cone_exit_2(self, tmp_path, capsys):
        code, out = _run_main(
            tmp_path, "[run]\ncommand = spiked-check\nquad_n = 16\n"
            "[kernel]\nspikes = 0.0\nt = 0.5\nx = 0.6\n")
        self._assert_config_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("error", [QuadratureFailure, fredholm.SingularOperatorError,
                                       FloatingPointError])
    @pytest.mark.parametrize("target", ["assemble", "boundary_resolvent"])
    def test_numerical_error_exit_2(self, tmp_path, capsys, monkeypatch, target, error):
        def fail(*args, **kwargs):
            raise error("forced failure")

        # the sweep reaches assemble through the name bound in fields
        monkeypatch.setattr(fredholm, target, fail)
        if target == "assemble":
            monkeypatch.setattr(fields, target, fail)
        config = ("[run]\ncommand = det-eval\n[grid]\nnr = 1\n" if target == "assemble"
                  else "[run]\ncommand = matrix-kp\n[kernel]\n"
                       "family = nw_fixed_point\nxs = -0.3,0.4\nrs = 0.5,0.8\n")
        code, out = _run_main(tmp_path, config)
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err == "numerical error: forced failure"

    def test_report_is_strict_json(self, tmp_path):
        code, out = _run_main(tmp_path, GOOD_CONFIG.replace("tolerance = 0.5\n", ""))
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads((out / "tw-table.json").read_text(), parse_constant=reject)
        assert report["tolerance"] == "inf"
        assert report["passed"] is True
