"""One config path: every subcommand is a config read by ``parse_config``,
with per-kind defaults, checks on the keys each kind reads, and a
``run_metadata.txt`` that reads back as the config it records."""

import argparse
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muonlab import ConfigError
from muonlab.cli import _build_parser, main
from muonlab.experiments import FAMILIES, KIND_KEYS, KINDS, SUITES, ExperimentConfig, _write_metadata, parse_config
from muonlab.optimizers import ALGORITHMS

POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
PREFIX = "config error:"


def names_key(err: str, key: str) -> bool:
    """True when ``err`` is a config error naming ``key`` as a whole word
    after its prefix (the prefix alone contains ``r``)."""
    return err.startswith(PREFIX) and re.search(rf"\b{re.escape(key)}\b", err[len(PREFIX):]) is not None


@st.composite
def config_texts(draw):
    """A valid config text of any kind, setting a random subset of keys.
    List items that name output files are distinct (kappa by its file label).
    Shapes have r >= 2 (a sweep's kappa > 1 needs two eigenvalues, precond_viz
    runs at kappa 5); lower_bound sets kappa, as ``--kappa`` must, to values
    >= 2 (the mf and icl families need it); scaledgd appears only where
    U_0^T U_0 is invertible, on mf_sweep with k <= d; a sweep's epsilon,
    set or default, is at most its smallest epsilons level, set or default."""
    kind = draw(st.sampled_from(KINDS))
    lines = [f"kind = {kind}"]
    d, k = ExperimentConfig.d, ExperimentConfig.k
    if draw(st.booleans()):  # the shape keys constrain each other, so set all or none
        d = draw(st.integers(2, 200))
        r = draw(st.integers(2, d))
        k = draw(st.integers(r, 300))
        lines += [f"d = {d}", f"r = {r}", f"k = {k}"]
    kappa_min = 2.0 if kind == "lower_bound" else 1.0
    # a sweep takes at most 10 kappa values, so its points keep distinct streams
    max_kappas = 10 if kind in ("mf_sweep", "icl_sweep") else None
    kappas = st.lists(st.floats(kappa_min, 1e12), min_size=1, max_size=max_kappas,
                      unique_by=lambda x: f"{x:g}")
    algorithms = [a for a in ALGORITHMS if a != "scaledgd" or (kind == "mf_sweep" and k <= d)]
    optional = {
        "kappa": kappas.map(lambda xs: ",".join(map(repr, xs))),
        "algorithms": st.lists(st.sampled_from(algorithms), min_size=1, unique=True).map(",".join),
        "schedule": st.sampled_from(("plateau", "exponential")),
        "rho": st.floats(0.5, 1.0, exclude_max=True).map(repr),
        "prefactor": st.sampled_from(("fixed", "per_iteration")),
        "eta0": POSITIVE.map(repr),
        "alpha": POSITIVE.map(repr),
        "T": st.integers(1, 10**6).map(str),
        "seed": st.integers(0, 2**63).map(str),
        "replicates": st.integers(1, 100).map(str),
        "out": st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True),
        "family": st.sampled_from(FAMILIES),
        "r0": st.floats(0.0, 1.0 / 16.0, exclude_min=True).map(repr),
        "steps": st.lists(st.integers(0, 10**6), min_size=1, unique=True)
        .map(lambda xs: ",".join(map(str, xs))),
        "suite": st.sampled_from(SUITES),
    }
    for key, values in optional.items():
        if (key, kind) == ("kappa", "lower_bound") or draw(st.booleans()):
            lines.append(f"{key} = {draw(values)}")
    epsilons = draw(st.none() | st.lists(POSITIVE, min_size=1))
    if epsilons is not None:
        lines.append(f"epsilons = {','.join(map(repr, epsilons))}")
    # a sweep's epsilon may not exceed its tightest summary level, so it is
    # set whenever the default would
    tightest = min(epsilons or ExperimentConfig.epsilons) if kind in ("mf_sweep", "icl_sweep") else 1e300
    if draw(st.booleans()) or ExperimentConfig.epsilon > tightest:
        lines.append(f"epsilon = {draw(st.floats(0.0, tightest, exclude_min=True))!r}")
    return "\n".join(draw(st.permutations(lines)))


class TestParseConfig:
    @settings(max_examples=300, deadline=None)
    @given(config_texts())
    def test_metadata_reads_back_as_its_config(self, text):
        cfg = parse_config(text)
        with tempfile.TemporaryDirectory() as out_dir:
            with open(_write_metadata(cfg, out_dir)) as fh:
                assert parse_config(fh.read()) == cfg

    def test_kind_defaults(self):
        lb = parse_config("kind = lower_bound")
        assert (lb.rho, lb.T, lb.eta0) == (0.98, 600, None)
        pv = parse_config("kind = precond_viz")
        assert (pv.d, pv.r, pv.k, pv.alpha, pv.steps, pv.seed) == (10, 5, 5, 1e-10, (0, 500, 1000), 42)
        sweep = parse_config("")
        assert (sweep.rho, sweep.T, sweep.d, sweep.alpha) == (0.5, 5000, 100, 0.1)

    def test_set_keys_beat_kind_defaults_in_any_order(self):
        cfg = parse_config("rho = 0.9\nT = 30\nkind = lower_bound\n")
        assert (cfg.rho, cfg.T) == (0.9, 30)

    @pytest.mark.parametrize("key", ["lb_rho", "lb_eta0", "ranks"])
    def test_folded_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"kind = lower_bound\n{key} = 2\n")

    def test_checks_only_the_keys_the_kind_reads(self):
        # family is read by lower_bound alone, d only by the sweeps and precond_viz
        parse_config("kind = precond_viz\nd = 10\nr = 3\nk = 5\nfamily = cubic\n")
        parse_config("kind = verify\nd = 0\nrho = 2\n")
        with pytest.raises(ConfigError, match="family"):
            parse_config("kind = lower_bound\nfamily = cubic\n")
        with pytest.raises(ConfigError, match="rho"):
            parse_config("kind = lower_bound\nrho = 0.2\n")


class TestCliConfigErrors:
    def test_names_key_needs_the_whole_word_after_the_prefix(self):
        assert names_key("config error: r must be >= 2, got r=1", "r")
        assert not names_key("config error: T must be >= 1", "r")
        assert not names_key("config error: kappa must be >= 1", "k")
        assert not names_key("r: config error: T must be >= 1", "r")

    @pytest.mark.parametrize("argv, key", [
        (["lower-bound", "--family", "quadratic", "--kappa", "abc"], "kappa"),
        (["precond-viz", "--steps", "0,x"], "steps"),
        (["lower-bound", "--family", "quadratic", "--kappa", "21", "--T", "0"], "T"),
        (["precond-viz", "--alpha", "-1", "--steps", "0,10"], "alpha"),
        (["lower-bound", "--family", "cubic", "--kappa", "21"], "family"),
        (["verify", "--suite", "nonsense"], "suite"),
        (["lower-bound", "--family", "quadratic", "--kappa", "21\nkind = verify"], "kappa"),
        # once ran kappa 21 alone: the '#' began a comment in the config line
        (["lower-bound", "--family", "quadratic", "--kappa", "21,#101"], "kappa"),
        (["lower-bound", "--family", "quadratic", "--kappa", "21,21.000001"], "kappa"),
        (["precond-viz", "--steps", "0,10,0"], "steps"),
        # accepted, each of these failed in the library after writing part of its output
        (["lower-bound", "--family", "mf", "--kappa", "41,1.5"], "kappa"),
        (["lower-bound", "--family", "icl", "--kappa", "41,1.5"], "kappa"),
    ])
    def test_bad_flag_exits_2_naming_the_key(self, argv, key, tmp_path, capsys):
        out = ["--out", str(tmp_path)] if argv[0] != "verify" else []
        assert main(argv + out) == 2
        err = capsys.readouterr().err
        assert names_key(err, key), err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("line, key", [
        ("eta0 = inf", "eta0"), ("alpha = nan", "alpha"), ("kappa = 1, inf", "kappa"),
        ("epsilon = 1e999", "epsilon"), ("epsilons = 1e-6, nan", "epsilons"), ("rho = nan", "rho"),
    ])
    def test_non_finite_float_exits_2_naming_the_key(self, line, key, tmp_path, capsys):
        # accepted, eta0 = inf runs to exit 0 after a RuntimeWarning, writing
        # an inf eta and a NaN diagnostic row
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"kind = mf_sweep\nd = 6\nkappa = 1\nalgorithms = gd\nT = 5\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert names_key(err, key), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, key", [
        ("kappa = 5, 5.000001", "kappa"), ("kappa = 5, 1, 5", "kappa"),
        ("algorithms = gd, muon, gd", "algorithms"),
    ])
    def test_cells_sharing_a_file_or_dropped_exit_2_naming_the_key(self, lines, key, tmp_path, capsys):
        # accepted, two cells wrote one CSV (the SVG lost a curve) and the
        # run exited 0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"kind = mf_sweep\nd = 6\nalgorithms = gd\nT = 5\n{lines}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert names_key(err, key), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, key", [
        ("kind = mf_sweep\nd = 6\nr = 2\nk = 2\nkappa = 1, 5\nalgorithms = gd, muon\n"
         "schedule = exponential\neta0 = 1.7e308", "eta0"),
        ("kind = icl_sweep\nd = 4\nschedule = exponential\nprefactor = per_iteration\neta0 = 9e307", "eta0"),
        ("kind = mf_sweep\nd = 6\nkappa = " + ", ".join(str(x) for x in range(1, 12)), "kappa"),
        ("kind = icl_sweep\nd = 4\nkappa = " + ", ".join(str(x) for x in range(1, 12)), "kappa"),
        ("kind = mf_sweep\nd = 6\nkappa = 1, 5\nreplicates = 1001", "replicates"),
    ])
    def test_sweep_that_would_fail_mid_run_exits_2_naming_the_key(self, text, key, tmp_path, capsys):
        # accepted, the eta0 = 1.7e308 sweep wrote its gd cell (an inf eta,
        # then a NaN row) before the muon cell's first eta raised; 11 kappa
        # values or 1,001 replicates gave two cells one random stream
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{text}\nT = 5\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert names_key(err, key), err
        assert not (tmp_path / "out").exists()

    EARLY_STOP = ("kind = mf_sweep\nd = 10\nr = 2\nk = 2\nkappa = 1, 25\nalgorithms = muon, gd\nT = 3000\n"
                  "epsilons = 1e-6, 1e-9\n")

    def test_early_stop_above_a_summary_level_exits_2_naming_epsilon(self, tmp_path, capsys):
        # accepted, every cell stopped at 1e-6 (69 to 1,267 steps) and the
        # summary wrote first_hit = inf at 1e-9, which reads as censored
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.EARLY_STOP + "epsilon = 1e-6\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert names_key(err, "epsilon"), err
        assert not (tmp_path / "out").exists()

    def test_early_stop_at_the_tightest_summary_level_hits_every_level(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.EARLY_STOP + "epsilon = 1e-9\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        first_hits = [float(row.split(",")[5]) for row in rows[1:]]
        assert len(first_hits) == 8 and max(first_hits) < 3000

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "precond.cfg"],
        ["run", "--config", "bound.cfg"],
        ["precond-viz", "--out", ""],
        ["lower-bound", "--kappa", "21", "--out", ""],
    ])
    def test_empty_out_exits_2_naming_out(self, argv, tmp_path, monkeypatch, capsys):
        # the config line 'out =' once raised FileNotFoundError (exit 1),
        # and --out "" silently wrote into results/
        configs = {"precond.cfg": "kind = precond_viz\nout =\n",
                   "bound.cfg": "kind = lower_bound\nkappa = 21\nout =\n"}
        for name, text in configs.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert names_key(err, "out") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(configs)

    def test_sweep_limits_admit_their_largest_values(self):
        kappas = ", ".join(str(x) for x in range(1, 11))
        cfg = parse_config(f"d = 6\nkappa = {kappas}\nreplicates = 1000\nschedule = exponential\neta0 = 8e307")
        assert (len(cfg.kappa), cfg.replicates) == (10, 1000)
        # the stream-id limit is a sweep's: a lower bound takes any number of kappas
        parse_config("kind = lower_bound\nkappa = " + ", ".join(str(x) for x in range(2, 14)))

    @pytest.mark.parametrize("text, key", [
        ("kind = icl_sweep\nd = 5\nalgorithms = muon, scaledgd", "algorithms"),  # Q_0 = 0 is singular
        ("kind = mf_sweep\nd = 3\nr = 2\nk = 5\nalgorithms = muon, scaledgd", "algorithms"),  # k > d
        ("kind = mf_sweep\nd = 5\nr = 1\nk = 2", "kappa"),  # one eigenvalue, kappa 5
        ("kind = icl_sweep\nd = 1", "kappa"),
        ("kind = precond_viz\nr = 1", "r"),  # it runs at kappa 5
    ])
    def test_config_that_cannot_be_built_exits_2_naming_the_key(self, text, key, tmp_path, capsys):
        # accepted, each failed in the library after making its output
        # directory, and each sweep exited 2 or 3 after its first cells' CSVs
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{text}\nkappa = 1, 5\nT = 5\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert names_key(err, key), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--eta0", "0.5", "--kappa", "21,41"], "need eta_0 <= r0"),
        (["--eta0", "0.0625", "--kappa", "21"], "leaves the r0-ball"),  # no config check predicts it
    ])
    def test_lower_bound_the_library_rejects_writes_nothing(self, flags, message, tmp_path, capsys):
        # accepted, each exited 2 after making an empty output directory
        assert main(["lower-bound", "--family", "mf", *flags, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family, first_zero", [("quadratic", 1075), ("mf", 1069), ("icl", 1075)])
    def test_lower_bound_eta_underflow_names_its_keys(self, family, first_zero, tmp_path, capsys):
        # eta0 * 0.5^t reaches 0 before T: it exited 2 with "etas must be
        # positive and non-increasing", which names no key
        argv = ["lower-bound", "--family", family, "--kappa", "21", "--rho", "0.5", "--T", "1100"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert all(names_key(err, key) for key in ("eta0", "rho", "T")), err
        assert f"t = {first_zero}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--config", os.path.join(os.path.dirname(__file__), "..", "demos", "configs", "mf_sweep_small.cfg")],
        ["lower-bound", "--family", "quadratic", "--kappa", "21"],
        ["precond-viz"],
    ])
    @pytest.mark.parametrize("below", [False, True])
    def test_out_naming_a_file_exits_2_naming_the_path(self, argv, below, tmp_path, capsys):
        # once a FileExistsError (or, below the file, NotADirectoryError)
        # traceback from the output directory's makedirs, exiting 1
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "sub" if below else blocker
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert names_key(err, "out") and repr(str(out)) in err, err
        assert len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == ["file"] and blocker.read_text() == "kept"

    @pytest.mark.parametrize("argv", [
        ["precond-viz"],
        ["lower-bound", "--family", "quadratic", "--kappa", "21"],
    ])
    @pytest.mark.parametrize("parent", ["", "nd/sub/"])
    def test_out_name_too_long_exits_2_naming_the_path(self, argv, parent, tmp_path, capsys):
        # once an OSError (File name too long) traceback from the output
        # directory's makedirs, exiting 1 as a failed suite does; below a
        # missing parent, the parents makedirs made were once left behind
        out = str(tmp_path / parent / ("a" * 300))
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert names_key(err, "out") and repr(out) in err, err
        assert len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("lines", ["kind = precond_viz", "kind = lower_bound\nfamily = quadratic\nkappa = 21"])
    @pytest.mark.parametrize("parent", ["", "nd/"])
    def test_out_holding_a_nul_exits_2_naming_the_path(self, lines, parent, tmp_path, capsys):
        # once a ValueError (embedded null byte) traceback, exiting 1; below
        # a missing parent, the parent makedirs made was once left behind
        cfg = tmp_path / "exp.cfg"
        out = str(tmp_path / parent / "a\0b")
        cfg.write_text(f"{lines}\nout = {out}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert names_key(err, "out") and repr(out) in err, err
        assert len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == ["exp.cfg"]

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"kind = mf_sweep\nd = \xff6\n"),
        lambda path: None,
    ], ids=["directory", "not-utf8", "missing"])
    def test_unreadable_config_exits_2_naming_the_path(self, make, tmp_path, capsys):
        # a directory or a non-UTF-8 file was once an IsADirectoryError or
        # UnicodeDecodeError traceback, exiting 1 as a failed suite does
        cfg = tmp_path / "exp.cfg"
        make(cfg)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert names_key(err, "config") and repr(str(cfg)) in err, err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_single_eigenvalue_and_scaledgd_run_where_they_can(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = mf_sweep\nd = 5\nr = 1\nk = 1\nkappa = 1\nalgorithms = scaledgd, muon\nT = 5\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("r", [3, 5])
    def test_precond_viz_config_runs_at_any_valid_rank(self, r, tmp_path):
        cfg = tmp_path / "pv.cfg"
        cfg.write_text(f"kind = precond_viz\nd = 10\nr = {r}\nk = 5\nsteps = 0,10\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "precond_differences.csv").exists()


class TestSubcommandFlags:
    def test_flags_are_the_keys_the_kind_reads(self):
        # the parser is built from KIND_KEYS, so no key lacks its flag
        parser = _build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        flags = {command: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
                 for command, p in commands.items()}
        assert flags.pop("run") == {"--config", "--out", "--seed"}
        assert flags == {command: {f"--{key}" for key in KIND_KEYS[command.replace("-", "_")]}
                         for command in ("lower-bound", "precond-viz", "verify")}

    def test_lower_bound_r0_flag_reaches_the_metadata(self, tmp_path):
        out = tmp_path / "out"
        assert main(["lower-bound", "--family", "mf", "--kappa", "41", "--r0", "0.03", "--out", str(out)]) == 0
        assert "r0 = 0.03\n" in (out / "run_metadata.txt").read_text()

    def test_lower_bound_without_flags_runs_the_kind_defaults(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lower-bound"]) == 0
        by_flags = capsys.readouterr().out
        (tmp_path / "exp.cfg").write_text("kind = lower_bound\n")
        assert main(["run", "--config", "exp.cfg", "--out", "file"]) == 0
        assert by_flags == capsys.readouterr().out.replace("file/", "results/")
        assert _outputs(tmp_path / "results") == _outputs(tmp_path / "file")


def _outputs(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


class TestSubcommandConfigParity:
    @pytest.mark.parametrize("flags, config", [
        (["precond-viz", "--d", "6", "--r", "3", "--k", "3", "--steps", "0,10"],
         "kind = precond_viz\nd = 6\nr = 3\nk = 3\nsteps = 0,10\n"),
        (["lower-bound", "--family", "quadratic", "--kappa", "21", "--T", "300"],
         "kind = lower_bound\nfamily = quadratic\nkappa = 21\nT = 300\n"),
    ])
    def test_same_bytes_and_report(self, flags, config, tmp_path, capsys):
        assert main(flags + ["--out", str(tmp_path / "flags")]) == 0
        by_flags = capsys.readouterr().out
        (tmp_path / "exp.cfg").write_text(config)
        assert main(["run", "--config", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "file")]) == 0
        by_file = capsys.readouterr().out
        assert _outputs(tmp_path / "flags") == _outputs(tmp_path / "file")
        assert by_flags.replace(str(tmp_path / "flags"), "") == by_file.replace(str(tmp_path / "file"), "")
