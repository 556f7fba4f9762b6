"""End-to-end runs of the command-line driver."""

import argparse
import os

import pytest

from kronheat.experiments import (
    _CONFIG_KEYS,
    _note_unpinned_blas,
    build_parser,
    config_from_args,
    main,
    make_config,
    table_paths,
)


# the variables this OpenBLAS reads its thread count from
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")


def _refuse_study(config):
    raise AssertionError("study ran before the --out check")


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
        cfg.write_text("max_level = 3\nthreads = 2\n")
        args = build_parser().parse_args(
            ["eigstudy", "--config", str(cfg), "--max-level", "0"])
        config = config_from_args(args)
        assert config.max_level == 0  # flag wins
        assert config.threads == 2

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 0\n")
        assert main(["convergence", "--config", str(cfg)]) == 2
        assert "error: threads" in capsys.readouterr().err

    def test_repeated_config_key_exits_2_before_study(self, tmp_path,
                                                      capsys, monkeypatch):
        monkeypatch.setattr("kronheat.experiments.run_convergence",
                            _refuse_study)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_level = 2\nmax_level = 5\n")
        assert main(["convergence", "--config", str(cfg)]) == 2
        assert f"error: {cfg}:2: repeated key" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["eigstudy", "--config", str(missing)]) == 2
        assert "error: cannot read config" in capsys.readouterr().err

    def test_missing_out_directory_exits_2_before_study(self, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.setattr("kronheat.experiments.run_eigstudy",
                            _refuse_study)
        dest = tmp_path / "missing" / "x.csv"
        assert main(["eigstudy", "--max-level", "0", "--out", str(dest)]) == 2
        assert "error: no directory for output file" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # a directory in place of the file is refused before the study
        monkeypatch.setattr("kronheat.experiments.run_eigstudy",
                            _refuse_study)
        assert main(["eigstudy", "--max-level", "0",
                     "--out", str(tmp_path)]) == 2
        assert "error: cannot write" in capsys.readouterr().err

    def test_directory_out_for_several_variants_exits_2(self, tmp_path,
                                                        capsys, monkeypatch):
        # the per-variant tables would go to <out>-<variant>, but --out
        # names a file, so a directory is refused here too
        monkeypatch.setattr("kronheat.experiments.run_convergence",
                            _refuse_study)
        assert main(["convergence", "--max-level", "0", "--solver",
                     "bs-real,fd", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {str(tmp_path)!r}: is a directory" in err

    def test_derived_out_path_checked_before_study(self, tmp_path, capsys,
                                                   monkeypatch):
        # a directory in place of one per-variant table stops the run
        # before any study, so no other table is written either
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("kronheat.experiments.run_convergence",
                            _refuse_study)
        (tmp_path / "table-fd.csv").mkdir()
        assert main(["convergence", "--max-level", "0", "--solver",
                     "bs-real,fd", "--out", "table.csv"]) == 2
        err = capsys.readouterr().err
        assert "error: cannot write 'table-fd.csv': is a directory" in err
        assert not (tmp_path / "table-bs-real.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_empty_out_exits_2(self, source, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("kronheat.experiments.run_eigstudy",
                            _refuse_study)
        argv = ["eigstudy", "--max-level", "0"]
        if source == "flag":
            argv += ["--out", ""]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("out =\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert "error: empty output file path" in capsys.readouterr().err

    def test_jmax_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eigstudy", "--jmax", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jmax" in capsys.readouterr().err

    def test_bad_flag_value_reads_as_bad_file_value(self, tmp_path, capsys):
        # flags and config files share one parser, so one message
        assert main(["eigstudy", "--max-level", "x"]) == 2
        from_flag = capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_level = x\n")
        assert main(["eigstudy", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == from_flag
        assert from_flag == "error: bad value for 'max_level': 'x'\n"

    def test_every_setting_is_one_long_option(self):
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        for command in subparsers.choices.values():
            dests = [action.dest for action in command._actions
                     if any(option.startswith("--")
                            for option in action.option_strings)]
            settings = [dest for dest in dests
                        if dest not in ("help", "config")]
            assert sorted(settings) == sorted(_CONFIG_KEYS)

    def test_variant_path_suffix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert table_paths("out.csv", ("bs-real", "fd")) == {
            "bs-real": "out-bs-real.csv", "fd": "out-fd.csv"}
        assert table_paths("out.csv", ("fd",)) == {"fd": "out.csv"}
        assert table_paths("table", ("bs-real", "fd"))["fd"] == "table-fd"
        assert table_paths(None, ("bs-real", "fd")) == {
            "bs-real": None, "fd": None}

    @pytest.mark.parametrize("path, expected", [
        ("table.csv", "table-fd.csv"),
        ("out/table.csv", "out/table-fd.csv"),
        ("./table", "./table-fd"),
        ("runs.v2/table", "runs.v2/table-fd"),
    ])
    def test_variant_path_splits_extension_of_file_name(self, path,
                                                        expected, tmp_path,
                                                        monkeypatch):
        # a dot in a directory name is not an extension
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "runs.v2").mkdir()
        assert table_paths(path, ("bs-real", "fd"))["fd"] == expected


class TestEigstudy:
    def test_prints_table(self, capsys):
        assert main(["eigstudy", "--max-level", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("N_t,")
        assert out[1].startswith("4,0.37500,0.03125,1.514e-02")
        assert out[2].startswith("8,")

    def test_writes_csv(self, tmp_path, capsys):
        dest = tmp_path / "eig.csv"
        assert main(["eigstudy", "--max-level", "0",
                     "--out", str(dest)]) == 0
        capsys.readouterr()
        lines = dest.read_text().splitlines()
        assert lines[0].startswith("N_t,")
        assert len(lines) == 2


class TestConvergence:
    def test_single_variant(self, capsys):
        assert main(["convergence", "--max-level", "0",
                     "--solver", "bs-complex"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# bs-complex"
        assert out[1].startswith("dof,")
        assert out[2].startswith("20,0.35355,0.37500,0.03125,3.701e-01,0.00")

    def test_per_variant_csv(self, tmp_path, capsys):
        dest = tmp_path / "conv.csv"
        assert main(["convergence", "--max-level", "0",
                     "--solver", "bs-real", "--solver", "fd",
                     "--out", str(dest)]) == 0
        capsys.readouterr()
        for variant in ("bs-real", "fd"):
            lines = (tmp_path / f"conv-{variant}.csv").read_text().splitlines()
            assert lines[0].startswith("dof,")
            assert lines[1].startswith("20,")

    def test_fallback_is_written(self, forced_fd_fallback, tmp_path, capsys):
        # fd's rows are bs-complex's: the table itself must say so, and
        # the header and data rows stay those of a normal run
        dest = tmp_path / "conv.csv"
        assert main(["convergence", "--max-level", "0",
                     "--solver", "fd", "--out", str(dest)]) == 0
        note = "# fallback at dof 20: fd failed: DefectivePencil"
        lines = dest.read_text().splitlines()
        assert lines[0].startswith("dof,")
        assert lines[1] == note
        assert lines[2].startswith("20,0.35355,0.37500,0.03125,3.701e-01,")
        assert len(lines) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["# fd", lines[0]]
        assert out[2:] == lines[1:]

class TestCompare:
    def test_agreeing_variants_exit_0(self, capsys):
        assert main(["compare", "--max-level", "0"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("level,")
        assert all(line.endswith(",no") for line in lines[1:4])
        assert "# residual level 0 bs-real:" in out

    def test_fallback_exits_1(self, forced_fd_fallback, capsys):
        assert main(["compare", "--max-level", "0",
                     "--solver", "bs-complex,fd"]) == 1
        captured = capsys.readouterr()
        assert "0,20,bs-complex,fd,0.000e+00,1.0e-08,yes" in captured.out
        assert "# fallback level 0 fd: fd failed: DefectivePencil" in (
            captured.err)

    def test_writes_csv(self, tmp_path, capsys):
        # the file is the printed table without the residual notes
        dest = tmp_path / "cmp.csv"
        assert main(["compare", "--max-level", "0",
                     "--out", str(dest)]) == 0
        out = capsys.readouterr().out.splitlines()
        table = [line for line in out if not line.startswith("# residual")]
        assert len(out) - len(table) == 3
        assert table[0].startswith("level,") and len(table) == 4
        assert dest.read_text().splitlines() == table

    def test_single_variant_exit_2(self, capsys):
        assert main(["compare", "--solver", "fd"]) == 2
        assert "two solver variants" in capsys.readouterr().err


class TestUnpinnedBlasNote:
    @pytest.fixture
    def unpinned(self, monkeypatch):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        return monkeypatch

    @pytest.mark.parametrize("command", ["convergence", "compare"])
    def test_one_note_on_stderr_and_same_stdout(self, command, unpinned,
                                                capsys):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("two workers need two cores")
        argv = [command, "--max-level", "0", "--threads", "2"]
        assert main(argv) == 0
        bare = capsys.readouterr()
        unpinned.setenv("OPENBLAS_NUM_THREADS", "1")
        assert main(argv) == 0
        pinned = capsys.readouterr()
        notes = [line for line in bare.err.splitlines()
                 if line.startswith("# note:")]
        assert len(notes) == 1 and "--threads 2" in notes[0]
        assert "# note:" not in pinned.err

        def rows(out):  # the seconds column of convergence aside
            return [line.rsplit(",", 1)[0] if command == "convergence"
                    else line for line in out.splitlines()]

        assert rows(bare.out) == rows(pinned.out)

    def test_compare_notes_before_the_study(self, forced_fd_fallback,
                                            unpinned, capsys):
        # as for convergence, the note comes ahead of the study's
        # fallback lines on stderr
        assert main(["compare", "--max-level", "0", "--threads", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("# note: --threads 2")
        assert any(line.startswith("# fallback") for line in err[1:])

    @pytest.mark.parametrize("env, noted", [
        ({}, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, False),
        ({"GOTO_NUM_THREADS": "1"}, False),
        ({"OMP_NUM_THREADS": "1"}, False),
        # OpenBLAS reads the first variable set to a positive integer
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "x", "GOTO_NUM_THREADS": "1"}, False),
    ])
    def test_pinning_variables(self, env, noted, unpinned, capsys):
        for name, value in env.items():
            unpinned.setenv(name, value)
        _note_unpinned_blas(make_config({"threads": "2"}))
        assert ("# note:" in capsys.readouterr().err) == noted

    @pytest.mark.parametrize("values", [
        {"threads": "1"},
        {"threads": "2", "variants": "bs-real,bs-complex"},
    ])
    def test_no_note_without_a_pool(self, values, unpinned, capsys):
        _note_unpinned_blas(make_config(values))
        assert capsys.readouterr().err == ""
