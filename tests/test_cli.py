import hashlib
from pathlib import Path

import pytest

from syndetic.cli import EXIT_INTERNAL, entry, main
from syndetic.generators import striped_set
from syndetic.textio import dump_window1d, load_window1d
from syndetic.vdw import DEFAULT_BUDGET
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
        path = write_set(tmp_path, "full.set", WindowSet1D.from_members(0, 30, range(30)))
        code, out, _ = run(capsys, "check1d", path, "1", "29")
        assert code == 0
        assert out.splitlines()[1].startswith("witness ")

    def test_empty_set_absent(self, tmp_path, capsys):
        path = write_set(tmp_path, "empty.set", WindowSet1D.from_members(0, 30, []))
        code, out, _ = run(capsys, "check1d", path, "1", "2")
        assert code == 1
        assert out.splitlines()[1] == "ABSENT"

    def test_striped_at_design_scale(self, tmp_path, capsys):
        path = write_set(tmp_path, "s.set", striped_set((0, 100), 5, 2))
        code, out, _ = run(capsys, "check1d", path, "2", "50")
        assert code == 0
        assert "witness -2" in out

    @pytest.mark.parametrize(
        "doc",
        [
            "window1d -9223372036854775808 -9223372036854775798\n"
            "run -9223372036854775808 -9223372036854775798\n",
            dump_window1d(striped_set((-(2**63), -(2**63) + 100), 5, 2)),
        ],
    )
    def test_window_at_int64_min(self, tmp_path, capsys, doc):
        # the shifted union starts below -2**63, and the witness with it
        path = tmp_path / "low.set"
        path.write_text(doc)
        code, out, _ = run(capsys, "check1d", str(path), "2", "8")
        assert code == 0
        assert out.splitlines()[1] == f"witness {-(2**63) - 2}"

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

    def test_window_at_int64_min(self, tmp_path, capsys):
        # the shifted union, and the pair box with it, start below -2**63
        setp, certp = tmp_path / "low.set", tmp_path / "low.fgcert"
        code, doc, _ = run(
            capsys, "gen", "ps-striped", "--window", str(-(2**63)),
            str(-(2**63) + 300), "--block", "5", "--gap", "2",
        )
        assert code == 0
        setp.write_text(doc)
        code, _, _ = run(capsys, "construct", str(setp), "2", "2", "--out", str(certp))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(certp), str(setp))
        assert code == 0
        assert out.splitlines()[1] == "PASS"

    def test_full_window_input(self, tmp_path, capsys):
        setp = write_set(tmp_path, "f.set", WindowSet1D.from_members(0, 60, range(60)))
        code, out, _ = run(capsys, "construct", setp, "1", "1")
        assert code == 0
        assert "fgcert v1" in out

    def test_non_ps_input_exits_three(self, tmp_path, capsys):
        setp = write_set(tmp_path, "e.set", WindowSet1D.from_members(0, 60, []))
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

    @pytest.mark.parametrize("command", ["construct", "check1d"])
    def test_window_too_wide_is_usage_error(self, tmp_path, capsys, command):
        setp = tmp_path / "wide.set"
        setp.write_text("window1d 0 1000000000000000000\nrun 0 5\n")
        code, out, err = run(capsys, command, str(setp), "2", "2")
        assert code == 64
        assert out == ""
        assert err == (
            "error: line 1: window [0, 1000000000000000000) is too wide to allocate\n"
        )

    @pytest.mark.parametrize("command", ["construct", "check1d"])
    def test_radius_too_large_to_allocate_is_usage_error(
        self, tmp_path, capsys, command
    ):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        code, out, err = run(capsys, command, setp, str(10**18), "2")
        assert code == 64
        assert out == ""
        assert err.startswith("error: ") and "allocate" in err

    def test_tiny_budget_exits_two(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        for budget in ("3", "10"):
            code, _, err = run(capsys, "construct", setp, "2", "2", "--budget", budget)
            assert code == 2
            assert "exhausted its budget" in err

    def test_radius_2d_checked_before_the_search(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        argv = ("construct", setp, "2", "2", "--r2d", "0", "--budget", "1")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err == "error: radius_2d must be >= 1, got 0\n"

    def test_search_past_the_node_bound_exits_two_at_once(
        self, tmp_path, capsys, no_search
    ):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        code, out, err = run(capsys, "construct", setp, "2", "31")
        assert (code, out) == (2, "")
        assert err == (
            "error: van der Waerden search for 2 colors and 32 terms "
            f"exhausted its budget of {DEFAULT_BUDGET} nodes\n"
        )

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

    def test_verify_mtilde_box_too_wide_is_usage_error(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        certp = tmp_path / "c.fgcert"
        run(capsys, "construct", setp, "2", "2", "--out", str(certp))
        lines = certp.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("window2d "))
        fields = lines[at].split()
        fields[2] = str(10**20)
        lines[at] = " ".join(fields)
        certp.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", str(certp), setp)
        assert code == 64
        assert out == ""
        assert err == f"error: line {at + 1}: mtilde box is too wide to allocate\n"

    def test_verify_mtilde_box_outside_int64_is_usage_error(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        certp = tmp_path / "c.fgcert"
        run(capsys, "construct", setp, "2", "2", "--out", str(certp))
        lines = certp.read_text().splitlines()
        at = lines.index("mtilde") + 1
        lines[at : lines.index("claims")] = [
            "window2d 10000000000000000000 10000000000000000003 0 3",
            "pt 10000000000000000001 1",
        ]
        certp.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", str(certp), setp)
        assert code == 64
        assert out == ""
        assert err == f"error: line {at + 1}: mtilde box leaves the int64 range\n"

    @pytest.mark.parametrize(
        "box,code,verdict",
        [
            ((None, 10**18, None, None), 0, "PASS"),
            ((-(10**20), 10**20, -(10**12), 10**12), 1, "FAIL pair_count"),
        ],
    )
    def test_verify_widened_pair_box_gets_a_verdict(
        self, tmp_path, capsys, box, code, verdict
    ):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        certp = tmp_path / "c.fgcert"
        run(capsys, "construct", setp, "2", "2", "--out", str(certp))
        lines = certp.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("pair_box "))
        fields = lines[at].split()[1:]
        wide = [old if new is None else new for old, new in zip(fields, box)]
        lines[at] = "pair_box {} {} {} {}".format(*wide)
        certp.write_text("\n".join(lines) + "\n")
        got, out, _ = run(capsys, "verify", str(certp), setp)
        assert got == code
        assert out.splitlines()[1].startswith(verdict)

    @pytest.mark.parametrize(
        "edits,verdict",
        [
            ({"k": "1000000000000000"}, "FAIL ap_membership"),
            ({"span": "1000000000000000", "exhaustive": "0"}, "FAIL pair_preimage"),
        ],
    )
    def test_verify_huge_term_count_gets_a_verdict(self, tmp_path, capsys, edits, verdict):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        certp = tmp_path / "c.fgcert"
        run(capsys, "construct", setp, "2", "2", "--out", str(certp))
        lines = certp.read_text().splitlines()
        for i, line in enumerate(lines):
            key = line.split()[0]
            if key in edits:
                lines[i] = f"{key} {edits[key]}"
        certp.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", str(certp), setp)
        assert code == 1
        assert out.splitlines()[1].startswith(verdict)

    def test_verify_huge_k_skips_the_vdw_search(self, tmp_path, capsys):
        # step-0 pairs pass ap_membership for any k, and W(2, k + 1) needs
        # at least 2**k - 1 nodes: the search is skipped with its own note
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        certp = tmp_path / "c.fgcert"
        run(capsys, "construct", setp, "2", "2", "--out", str(certp))
        lines = [
            line
            for line in certp.read_text().splitlines()
            if not line.startswith("pt ") or line.endswith(" 0")
        ]
        kept = sum(line.startswith("pt ") for line in lines)
        edits = {"k": 10**15, "scale_out": 0, "class_count": kept}
        for i, line in enumerate(lines):
            key = line.split()[0]
            if key in edits:
                lines[i] = f"{key} {edits[key]}"
        certp.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", str(certp), setp)
        assert code == 1
        assert out.splitlines()[1].startswith("FAIL triple_range")
        budget = DEFAULT_BUDGET
        assert f"note vdw recomputation exhausted {budget} nodes; span unchecked" in out

    def test_verify_certificate_window_outside_int64_is_usage_error(
        self, tmp_path, capsys
    ):
        # the certificate's window follows the set header's rule
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        certp = tmp_path / "c.fgcert"
        run(capsys, "construct", setp, "2", "2", "--out", str(certp))
        lines = certp.read_text().splitlines()
        at = lines.index("window1d 0 200")
        lines[at] = f"window1d 0 {10**20}"
        certp.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", str(certp), setp)
        assert code == 64
        assert out == ""
        assert err == (
            f"error: line {at + 1}: window [0, {10**20}) leaves the int64 range\n"
        )

    def test_verify_one_color_needs_no_search_at_any_budget(self, tmp_path, capsys):
        _, doc, _ = run(
            capsys, "gen", "ps-striped", "--window", "0", "200", "--block", "5", "--gap", "2"
        )
        setp = tmp_path / "s.set"
        setp.write_text(doc)
        certp = str(tmp_path / "c.fgcert")
        run(capsys, "construct", str(setp), "1", "1", "--out", certp)
        code, out, _ = run(capsys, "verify", certp, str(setp), "--budget", "1")
        assert code == 0
        assert out.splitlines()[1:] == ["PASS"]

    def test_verify_radius_too_large_to_allocate_is_usage_error(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 200), 5, 2))
        certp = tmp_path / "c.fgcert"
        run(capsys, "construct", setp, "2", "2", "--out", str(certp))
        lines = certp.read_text().splitlines()
        lines[lines.index("r 2")] = f"r {10**18}"
        certp.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", str(certp), setp)
        assert code == 64
        assert out == ""
        assert err.startswith("error: ") and "allocate" in err

    def test_verify_refuses_a_pair_box_over_the_cap(self, tmp_path, capsys):
        setp = write_set(tmp_path, "s.set", striped_set((0, 32_000), 5, 2))
        certp = tmp_path / "c.fgcert"
        run(capsys, "construct", setp, "1", "1", "--out", str(certp))
        lines = certp.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("pair_box "))
        lines[at] = "pair_box {} {} {} {}".format(*[-(10**18), 10**18] * 2)
        certp.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", str(certp), setp)
        assert code == 3
        assert out.splitlines()[1:] == [
            "REFUSED the pair box's feasible block has 2047968000 cells, "
            "over the 200000 the verifier probes"
        ]

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

    def test_negative_seed_exit_usage(self, capsys):
        code, out, err = run(
            capsys, "gen", "random-sparse", "--window", "0", "50",
            "--density", "0.5", "--seed", "-1",
        )
        assert (code, out, err) == (64, "", "error: seed must be >= 0, got -1\n")

    def test_bad_params_exit_usage(self, capsys):
        code, _, err = run(
            capsys, "gen", "random-sparse", "--window", "0", "20", "--density", "1.5"
        )
        assert code == 64
        assert "density" in err

    @pytest.mark.parametrize(
        "params",
        [
            ("ps-striped", "--block", "5", "--gap", "2"),
            ("periodic", "--period", "3", "--residues", "0"),
        ],
    )
    def test_window_too_large_to_allocate_is_usage_error(self, capsys, params):
        code, out, err = run(capsys, "gen", *params, "--window", "0", str(10**18))
        assert code == 64
        assert out == ""
        assert err.startswith("error: ") and "allocate" in err

    @pytest.mark.parametrize(
        "window",
        [
            ("9223372036854775807", "9223372036854775817"),
            # a window may end at 2**63 - 1 but not at 2**63, as in load
            ("9223372036854775805", "9223372036854775808"),
        ],
    )
    def test_window_outside_int64_is_usage_error(self, capsys, monkeypatch, window):
        monkeypatch.setattr(
            "sys.argv",
            ["syndetic", "gen", "ps-striped", "--window", *window, "--block", "5",
             "--gap", "2"],
        )
        with pytest.raises(SystemExit) as exc:
            entry()
        out, err = capsys.readouterr()
        assert exc.value.code == 64
        assert out == ""
        assert err == f"error: window [{window[0]}, {window[1]}) leaves the int64 range\n"

    def test_window_ending_at_int64_max_round_trips(self, tmp_path, capsys):
        outp = str(tmp_path / "top.set")
        code, _, _ = run(
            capsys, "gen", "ps-striped", "--window", str(2**63 - 11), str(2**63 - 1),
            "--block", "5", "--gap", "2", "--out", outp,
        )
        assert code == 0
        s = load_window1d(Path(outp).read_text())
        assert s == striped_set((2**63 - 11, 2**63 - 1), 5, 2)

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


# sha256 of the gen, construct, verify and check1d documents, written before
# rows came from one vectorized writer: negative and multi-digit fields end
# to end, on a striped window at -2**40 and a periodic one across 0.  The
# thick-blocks and random-sparse documents were taken before gen read its
# optional numbers in one loop
PINNED_DOCUMENTS = {
    "ps-striped": (
        ["--window", str(-(2**40)), str(-(2**40) + 10**4), "--block", "5", "--gap", "2"],
        {
            "s.set": "ca3fa5b342326b03fcda08652fb886cf35770f50ef63a4b0e53907226c287123",
            "c.fgcert": "d3a17dedae3aed73d4a1d54e7e4eb8c8a5a7fbb1df82c92a75bda390729690b7",
            "v.txt": "c326d6bee23d149a2671706f03e406095d5ea6f733270318a6d5bb420f8d54bf",
            "k.txt": "0b50ff2459418cb7852efc09a1930b28aab45d9938147513c1a90be8485d91b5",
        },
    ),
    "periodic": (
        ["--window", "-4999", "5001", "--period", "5", "--residues", "0,1,3"],
        {
            "s.set": "c310eb61273a65fb8857111de0609d78d49703854e35d5e0039679eb656f83b7",
            "c.fgcert": "b8207f24a7ccf7baf1d57725d7106c0beb6d14d7bd6f72051e4b774099b1725d",
            "v.txt": "c326d6bee23d149a2671706f03e406095d5ea6f733270318a6d5bb420f8d54bf",
            "k.txt": "2a606644cc619ddf0903b5a33b591fac2c319e65796adcc9f74d7892a21556f9",
        },
    ),
    "thick-blocks": (
        ["--window", "-7000", "13000", "--block", "4700", "--gap", "3"],
        {
            "s.set": "667d25e63e60a354e3036fd2bb677e05a77fadff04d26cf4e07c87a94a4e1b6e",
            "c.fgcert": "faac971b0e00afcb417eb38978213882b1dbfc845bf0662936afac080e292760",
            "v.txt": "c326d6bee23d149a2671706f03e406095d5ea6f733270318a6d5bb420f8d54bf",
            "k.txt": "cfb81fae434d0b59d15f3317f973f6480322fe62bff2c0a599e8916c22a1a06d",
        },
    ),
    "random-sparse": (
        ["--window", str(2**40), str(2**40 + 10**4), "--density", "0.995", "--seed", "0"],
        {
            "s.set": "a317982090bbd2a627f9f48057ec7fddcb0cd0b278a388e313753ffed82449f6",
            "c.fgcert": "89435c1599ae32e3dfe7d474795375111240a42e704e2a78ce7c30cb1a722b22",
            "v.txt": "c326d6bee23d149a2671706f03e406095d5ea6f733270318a6d5bb420f8d54bf",
            "k.txt": "dd8d67d5ec013525d8142187d58b237944cdcdb0dc1a42c031948297f661c2a8",
        },
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_DOCUMENTS))
def test_documents_are_pinned(tmp_path, monkeypatch, capsys, kind):
    # relative paths, since each document's runconfig line echoes them
    monkeypatch.chdir(tmp_path)
    given, pinned = PINNED_DOCUMENTS[kind]
    assert run(capsys, "gen", kind, *given, "--out", "s.set")[0] == 0
    assert run(capsys, "construct", "s.set", "2", "2", "--out", "c.fgcert")[0] == 0
    assert run(capsys, "verify", "c.fgcert", "s.set", "--out", "v.txt")[0] == 0
    assert run(capsys, "check1d", "s.set", "2", "9000", "--out", "k.txt")[0] == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in pinned
    }
    assert got == pinned


# exit code and sha256 of stdout of ``syndetic vdw``: one color, one term,
# exhaustive searches, and budget cut-offs shallow and deep (depths 1,291 and
# 8,121 at 1,500 and 10,000 nodes of W(2,21)).  The 10,000-node document was
# taken before the search checked nodes against forbidden-position masks, the
# others before it built its tail table per call
PINNED_VDW_DOCUMENTS = {
    "1 4": (0, "06114e367d4112959150f143e61a6accc1ddc7b8150ed3b46ae3dc012deaf98c"),
    "1 1": (0, "457b9239494c55423f6c0783dc5963b4c3ebcc147ce9f5d5a591c872b54a0175"),
    "3 1": (0, "4536499e933019e3144e905e8516922652c8bf0078230f35b899ec0036167ac3"),
    "5 1": (0, "3bfda55316d5c19a80407a895a50039e76bc6377987f62aa1e6162065eefb661"),
    "2 2": (0, "d04b1cad2b2672c1f45d916c82f1a31107c1491501b21d7641c0bc0a80a7cab6"),
    "10 2": (0, "7bc4f28627be29b5496d22e37034aab028995fdca204eeb0f934e5841522b211"),
    "2 3": (0, "5f2643348f0134c81b605232c31ccee304aa65500c09da55db352586e865bef7"),
    "3 3": (0, "fb6735242ffe128657ca429f1d3555e797d3675837c6417ffcfa039a71c3c26f"),
    "2 4": (0, "9ed30732de1bc3527d9cd390eb261a0b2e2f871c4763a62e9e93e88fcb645348"),
    "3 4 --budget 10": (
        2, "dd3087170e95c9475ec0e121ef5bdebf7d88914db0ca7700831beaac0d414b3f"
    ),
    "2 5 --budget 50000": (
        2, "032eb71da565e3997726dca6331719269cb30bb91b18d8d08fb93f171ce6ce45"
    ),
    "2 6 --budget 30000": (
        2, "9cb1b31d73f3567612b241e993511dbbd8e8afa4fba17fd31ca2eb9516c91659"
    ),
    "2 21 --budget 1500": (
        2, "fea9b507f0ae081869772b94ab6221c6a7d127ae4e52909797b675673c5b844f"
    ),
    "2 21 --budget 10000": (
        2, "35ed5321641273be2f005365ee77afd12c1223c6f530287020043a2832c01acd"
    ),
    "4 3 --budget 100000": (
        2, "d1d21b40de34788c7c9e954fdb3f16a543bb64c28e77c61a3261bf2dcf995bb9"
    ),
}


@pytest.mark.parametrize("given", sorted(PINNED_VDW_DOCUMENTS))
def test_vdw_documents_are_pinned(capsys, given):
    code, out, _ = run(capsys, "vdw", *given.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_VDW_DOCUMENTS[given]


# sha256 of the help texts at 80 columns, taken while the CLI still imported
# every module up front
PINNED_HELP = {
    "--help": "770e2199e2d98a9dab811ba0265c76ef9e963df02483a734fc29aa3565b3b21b",
    "gen --help": "8e5231a3e64dd8e5e312e26f9edd857dbce55cf5c5a7fa81cac26c87452c8dde",
}


@pytest.mark.parametrize("given", sorted(PINNED_HELP))
def test_help_is_pinned(capsys, monkeypatch, given):
    # argparse wraps help to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, *given.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, PINNED_HELP[given])
