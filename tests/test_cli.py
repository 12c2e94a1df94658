from pathlib import Path

import pytest

from syndetic.cli import EXIT_INTERNAL, entry, main
from syndetic.generators import striped_set
from syndetic.textio import dump_window1d, load_window1d
from syndetic.windows import WindowSet1D


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_set(tmp_path, name, s):
    path = tmp_path / name
    path.write_text(dump_window1d(s))
    return str(path)


class TestVdwCommand:
    def test_single_color(self, capsys):
        code, out, _ = run(capsys, "vdw", "1", "4")
        assert code == 0
        assert "n 4" in out.splitlines()
        assert out.startswith("# runconfig vdw ")

    def test_two_three(self, capsys):
        code, out, _ = run(capsys, "vdw", "2", "3")
        assert code == 0
        assert "n 9" in out.splitlines()
        assert "exhaustive 1" in out

    def test_budget_exhaustion_exits_two(self, capsys):
        code, out, _ = run(capsys, "vdw", "3", "4", "--budget", "10")
        assert code == 2
        assert "exhaustive 0" in out

    def test_malformed_args(self, capsys):
        code, _, err = run(capsys, "vdw", "two", "3")
        assert code == 64

    def test_negative_budget_is_usage_error(self, capsys):
        code, _, err = run(capsys, "vdw", "2", "3", "--budget", "0")
        assert code == 64
        assert "budget" in err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, capsys, workers):
        code, out, err = run(capsys, "vdw", "2", "3", "--workers", workers)
        assert code == 64
        assert "--workers: must be >= 1" in err
        assert out == ""


class TestCheckCommand:
    def test_full_window_witness(self, tmp_path, capsys):
        path = write_set(tmp_path, "full.set", WindowSet1D.full(0, 30))
        code, out, _ = run(capsys, "check1d", path, "1", "29")
        assert code == 0
        assert out.splitlines()[1].startswith("witness ")

    def test_empty_set_absent(self, tmp_path, capsys):
        path = write_set(tmp_path, "empty.set", WindowSet1D.empty(0, 30))
        code, out, _ = run(capsys, "check1d", path, "1", "2")
        assert code == 1
        assert out.splitlines()[1] == "ABSENT"

    def test_striped_at_design_scale(self, tmp_path, capsys):
        path = write_set(tmp_path, "s.set", striped_set((0, 100), 5, 2))
        code, out, _ = run(capsys, "check1d", path, "2", "50")
        assert code == 0
        assert "witness -2" in out

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "check1d", str(tmp_path / "nope.set"), "1", "2")
        assert code == 64


class TestConstructAndVerify:
    def test_end_to_end(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        certp = str(tmp_path / "out.fgcert")
        code, _, _ = run(capsys, "construct", setp, "2", "2", "--out", certp)
        assert code == 0
        body = Path(certp).read_text()
        assert body.startswith("# runconfig construct ")
        assert "fgcert v1" in body

        code, out, _ = run(capsys, "verify", certp, setp)
        assert code == 0
        assert out.splitlines()[1] == "PASS"

    def test_full_window_input(self, tmp_path, capsys):
        setp = write_set(tmp_path, "f.set", WindowSet1D.full(0, 60))
        code, out, _ = run(capsys, "construct", setp, "1", "1")
        assert code == 0
        assert "fgcert v1" in out

    def test_non_ps_input_exits_three(self, tmp_path, capsys):
        setp = write_set(tmp_path, "e.set", WindowSet1D.empty(0, 60))
        code, _, err = run(capsys, "construct", setp, "2", "2")
        assert code == 3
        assert "not piecewise syndetic" in err

    @pytest.mark.parametrize("command", ["construct", "check1d"])
    def test_window_outside_int64_is_usage_error(self, tmp_path, capsys, command):
        setp = tmp_path / "huge.set"
        setp.write_text(
            "window1d 100000000000000000000 100000000000000000010\n"
            "run 100000000000000000000 100000000000000000005\n"
        )
        code, out, err = run(capsys, command, str(setp), "2", "2")
        assert code == 64
        assert out == ""
        assert "error: line 1: window [100000000000000000000, " in err
        assert "leaves the int64 range" in err

    def test_tiny_budget_exits_two(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        for budget in ("3", "10"):
            code, _, err = run(capsys, "construct", setp, "2", "2", "--budget", budget)
            assert code == 2
            assert "exhausted its budget" in err

    def test_other_runtime_errors_are_not_budget_exhaustion(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("internal self-check failed")

        monkeypatch.setattr("syndetic.cli.fg_construct", broken)
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        with pytest.raises(RuntimeError, match="self-check"):
            main(["construct", setp, "2", "2"])

    def test_internal_error_exits_seventy(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("internal self-check failed")

        monkeypatch.setattr("syndetic.cli.fg_construct", broken)
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        monkeypatch.setattr("sys.argv", ["syndetic", "construct", setp, "2", "2"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == EXIT_INTERNAL == 70
        err = capsys.readouterr().err
        assert "internal error: internal self-check failed" in err
        assert "Traceback" in err

    def test_verify_detects_corruption(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        certp = str(tmp_path / "c.fgcert")
        run(capsys, "construct", setp, "2", "2", "--out", certp)
        text = Path(certp).read_text()
        a, b = text.rsplit("scale_out ", 1)
        Path(certp).write_text(a + f"scale_out {int(b) + 1}\n")
        code, out, _ = run(capsys, "verify", certp, setp)
        assert code == 1
        assert "FAIL output_scale" in out

    def test_verify_refuses_foreign_set(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        otherp = write_set(tmp_path, "o.set", striped_set((0, 200), 5, 3))
        certp = str(tmp_path / "c.fgcert")
        run(capsys, "construct", setp, "2", "2", "--out", certp)
        code, out, _ = run(capsys, "verify", certp, otherp)
        assert code == 3
        assert out.splitlines()[1].startswith("REFUSED")


class TestGenCommand:
    def test_writes_parseable_set(self, tmp_path, capsys):
        outp = str(tmp_path / "g.set")
        code, _, _ = run(
            capsys, "gen", "periodic", "--window", "0", "20",
            "--period", "2", "--residues", "0", "--out", outp,
        )
        assert code == 0
        s = load_window1d(Path(outp).read_text())
        assert s.members().tolist() == list(range(0, 20, 2))

    def test_determinism_bytes(self, tmp_path, capsys):
        outp = str(tmp_path / "a.set")
        argv = (
            "gen", "random-sparse", "--window", "0", "500",
            "--density", "0.4", "--seed", "7", "--out", outp,
        )
        runs = []
        for _ in range(2):
            code, _, _ = run(capsys, *argv)
            assert code == 0
            runs.append(Path(outp).read_bytes())
        assert runs[0] == runs[1]

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.set"), str(tmp_path / "b.set")
        for outp, seed in ((a, "7"), (b, "8")):
            run(
                capsys, "gen", "random-sparse", "--window", "0", "500",
                "--density", "0.4", "--seed", seed, "--out", outp,
            )
        assert Path(a).read_bytes() != Path(b).read_bytes()

    def test_bad_params_exit_usage(self, capsys):
        code, _, err = run(
            capsys, "gen", "random-sparse", "--window", "0", "20", "--density", "1.5"
        )
        assert code == 64
        assert "density" in err

    def test_unknown_kind_rejected_by_parser(self, capsys):
        code, _, _ = run(capsys, "gen", "mystery", "--window", "0", "20")
        assert code == 64

    def test_header_records_seed_and_budget(self, tmp_path, capsys):
        outp = str(tmp_path / "g.set")
        run(
            capsys, "gen", "ps-striped", "--window", "0", "50", "--block", "4",
            "--gap", "2", "--seed", "3", "--out", outp,
        )
        header = Path(outp).read_text().splitlines()[0]
        assert header.startswith("# runconfig gen ")
        assert "seed=3" in header
        assert "budget=" in header


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 300), 5, 2))
        certp = str(tmp_path / "out.fgcert")
        outs = []
        for _ in range(2):
            code, _, _ = run(capsys, "construct", setp, "2", "2", "--out", certp)
            assert code == 0
            outs.append(Path(certp).read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 300), 5, 2))
        docs = []
        for workers in ("1", "4"):
            certp = str(tmp_path / f"w{workers}.fgcert")
            code, _, _ = run(
                capsys, "construct", setp, "2", "2", "--workers", workers,
                "--out", certp,
            )
            assert code == 0
            text = Path(certp).read_text()
            # drop the header, which echoes the differing worker count
            docs.append(text.split("\n", 1)[1])
        assert docs[0] == docs[1]
