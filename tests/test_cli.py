"""End-to-end runs of the command-line driver."""

import pytest

from kronheat.cli import _variant_path, build_parser, config_from_args, main

FAST = ["--jmax", "200000"]


class TestParsing:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "convergence" in capsys.readouterr().err

    def test_solver_flag_splits(self):
        args = build_parser().parse_args(
            ["compare", "--solver", "bs-real,fd", "--solver", "bs-complex"])
        config = config_from_args(args)
        assert config.variants == ("bs-real", "fd", "bs-complex")

    def test_unknown_solver_exits_2(self, capsys):
        assert main(["eigstudy", "--solver", "cholesky"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_level = 3\nj_max = 200000\n")
        args = build_parser().parse_args(
            ["eigstudy", "--config", str(cfg), "--max-level", "0"])
        config = config_from_args(args)
        assert config.max_level == 0  # flag wins
        assert config.j_max == 200000

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quad_order = 0\n")
        assert main(["convergence", "--config", str(cfg)]) == 2
        assert "error: quad_order" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["eigstudy", "--config", str(missing)]) == 2
        assert "error: cannot read config" in capsys.readouterr().err

    def test_missing_out_directory_exits_2_before_study(self, tmp_path,
                                                        capsys, monkeypatch):
        def study(config):
            raise AssertionError("study ran before the --out check")

        monkeypatch.setattr("kronheat.cli.run_eigstudy", study)
        dest = tmp_path / "missing" / "x.csv"
        assert main(["eigstudy", "--max-level", "0", "--out", str(dest)]) == 2
        assert "error: no directory for output file" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        # a directory in place of the file passes the directory check
        # and fails only when the table is written
        assert main(["eigstudy", "--max-level", "0", *FAST,
                     "--out", str(tmp_path)]) == 2
        assert "error: cannot write" in capsys.readouterr().err

    def test_variant_path_suffix(self):
        assert _variant_path("out.csv", "fd", many=True) == "out-fd.csv"
        assert _variant_path("out.csv", "fd", many=False) == "out.csv"
        assert _variant_path("table", "fd", many=True) == "table-fd"

    @pytest.mark.parametrize("path, expected", [
        ("table.csv", "table-fd.csv"),
        ("out/table.csv", "out/table-fd.csv"),
        ("./table", "./table-fd"),
        ("runs.v2/table", "runs.v2/table-fd"),
    ])
    def test_variant_path_splits_extension_of_file_name(self, path,
                                                        expected):
        # a dot in a directory name is not an extension
        assert _variant_path(path, "fd", many=True) == expected


class TestEigstudy:
    def test_prints_table(self, capsys):
        assert main(["eigstudy", "--max-level", "1", *FAST]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("N_t,")
        assert out[1].startswith("4,0.37500,0.03125,1.514e-02")
        assert out[2].startswith("8,")

    def test_writes_csv(self, tmp_path, capsys):
        dest = tmp_path / "eig.csv"
        assert main(["eigstudy", "--max-level", "0", *FAST,
                     "--out", str(dest)]) == 0
        capsys.readouterr()
        lines = dest.read_text().splitlines()
        assert lines[0].startswith("N_t,")
        assert len(lines) == 2


class TestConvergence:
    def test_single_variant(self, capsys):
        assert main(["convergence", "--max-level", "0",
                     "--solver", "bs-complex", *FAST]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# bs-complex"
        assert out[1].startswith("dof,")
        assert out[2].startswith("20,0.35355,0.37500,0.03125,3.701e-01,0.00")

    def test_per_variant_csv(self, tmp_path, capsys):
        dest = tmp_path / "conv.csv"
        assert main(["convergence", "--max-level", "0", *FAST,
                     "--solver", "bs-real", "--solver", "fd",
                     "--out", str(dest)]) == 0
        capsys.readouterr()
        for variant in ("bs-real", "fd"):
            lines = (tmp_path / f"conv-{variant}.csv").read_text().splitlines()
            assert lines[0].startswith("dof,")
            assert lines[1].startswith("20,")


class TestCompare:
    def test_agreeing_variants_exit_0(self, capsys):
        assert main(["compare", "--max-level", "0", *FAST]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("level,")
        assert all(line.endswith(",no") for line in lines[1:4])
        assert "# residual level 0 bs-real:" in out

    def test_single_variant_exit_2(self, capsys):
        assert main(["compare", "--solver", "fd"]) == 2
        assert "two solver variants" in capsys.readouterr().err
