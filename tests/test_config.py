"""One config path: every subcommand is a config read by ``parse_config``,
with per-kind defaults, checks on the keys each kind reads, and a
``run_metadata.txt`` that reads back as the config it records."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muonlab import ConfigError
from muonlab.cli import main
from muonlab.experiments import FAMILIES, KINDS, SUITES, _write_metadata, parse_config
from muonlab.optimizers import ALGORITHMS

POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@st.composite
def config_texts(draw):
    """A valid config text of any kind, setting a random subset of keys.
    List items that name output files are distinct (kappa by its file label),
    and a rank sweep has one kappa."""
    kind = draw(st.sampled_from(KINDS))
    lines = [f"kind = {kind}"]
    if draw(st.booleans()):  # the shape keys constrain each other, so set all or none
        d = draw(st.integers(1, 200))
        r = draw(st.integers(1, d))
        ranks = draw(st.lists(st.integers(r, 300), min_size=1, unique=True))
        lines += [f"d = {d}", f"r = {r}", f"k = {draw(st.integers(r, 300))}",
                  "ranks = " + ",".join(map(str, ranks))]
    kappas = st.lists(st.floats(1.0, 1e12), min_size=1,
                      max_size=1 if kind == "rank_sweep" else None, unique_by=lambda x: f"{x:g}")
    optional = {
        "kappa": kappas.map(lambda xs: ",".join(map(repr, xs))),
        "algorithms": st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True).map(",".join),
        "schedule": st.sampled_from(("plateau", "exponential")),
        "rho": st.floats(0.5, 1.0, exclude_max=True).map(repr),
        "prefactor": st.sampled_from(("fixed", "per_iteration")),
        "eta0": POSITIVE.map(repr),
        "alpha": POSITIVE.map(repr),
        "T": st.integers(1, 10**6).map(str),
        "epsilon": POSITIVE.map(repr),
        "epsilons": st.lists(POSITIVE, min_size=1).map(lambda xs: ",".join(map(repr, xs))),
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
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(values)}")
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
        assert parse_config("kind = rank_sweep").kappa == (1.0,)

    def test_set_keys_beat_kind_defaults_in_any_order(self):
        cfg = parse_config("rho = 0.9\nT = 30\nkind = lower_bound\n")
        assert (cfg.rho, cfg.T) == (0.9, 30)

    @pytest.mark.parametrize("key", ["lb_rho", "lb_eta0"])
    def test_folded_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"kind = lower_bound\n{key} = 0.9\n")

    def test_checks_only_the_keys_the_kind_reads(self):
        # ranks is read by rank_sweep alone, d only by the sweeps and precond_viz
        parse_config("kind = precond_viz\nd = 10\nr = 3\nk = 5\n")
        parse_config("kind = verify\nd = 0\nrho = 2\n")
        with pytest.raises(ConfigError, match="ranks"):
            parse_config("kind = rank_sweep\nr = 3\n")
        with pytest.raises(ConfigError, match="rho"):
            parse_config("kind = lower_bound\nrho = 0.2\n")


class TestCliConfigErrors:
    @pytest.mark.parametrize("argv, key", [
        (["lower-bound", "--family", "quadratic", "--kappa", "abc"], "kappa"),
        (["precond-viz", "--steps", "0,x"], "steps"),
        (["lower-bound", "--family", "quadratic", "--kappa", "21", "--T", "0"], "T"),
        (["precond-viz", "--alpha", "-1", "--steps", "0,10"], "alpha"),
        (["lower-bound", "--family", "cubic", "--kappa", "21"], "family"),
        (["verify", "--suite", "nonsense"], "suite"),
        (["lower-bound", "--family", "quadratic", "--kappa", "21\nkind = verify"], "kappa"),
        (["lower-bound", "--family", "quadratic", "--kappa", "21,21.000001"], "kappa"),
        (["precond-viz", "--steps", "0,10,0"], "steps"),
    ])
    def test_bad_flag_exits_2_naming_the_key(self, argv, key, tmp_path, capsys):
        out = ["--out", str(tmp_path)] if argv[0] != "verify" else []
        assert main(argv + out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
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
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, key", [
        ("kappa = 5, 5.000001", "kappa"), ("kappa = 5, 1, 5", "kappa"),
        ("algorithms = gd, muon, gd", "algorithms"), ("kind = rank_sweep\nranks = 2, 3, 2", "ranks"),
        ("kind = rank_sweep\nkappa = 5, 25", "kappa"),
    ])
    def test_cells_sharing_a_file_or_dropped_exit_2_naming_the_key(self, lines, key, tmp_path, capsys):
        # accepted, two cells wrote one CSV (the SVG lost a curve) or a rank
        # sweep ran at the first kappa alone, and the run exited 0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"kind = mf_sweep\nd = 6\nalgorithms = gd\nT = 5\n{lines}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("r", [3, 5])
    def test_precond_viz_config_runs_at_any_valid_rank(self, r, tmp_path):
        cfg = tmp_path / "pv.cfg"
        cfg.write_text(f"kind = precond_viz\nd = 10\nr = {r}\nk = 5\nsteps = 0,10\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "precond_differences.csv").exists()


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
