"""Command-line contracts: config validation, CSV emission, exit codes."""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from lyapedit import cli, oracle
from lyapedit.cli import main
from lyapedit.errors import OracleFailure, SingularSystemError

BASE_CONFIG = """\
# exercise config
dims.d0 = 12
dims.d1 = 8
stream.n_per_batch = 3
stream.total_batches = 40
stream.seed = 17
stream.mode = planted-teacher
stream.m0 = 48
stream.teacher_drift = 0.15
alpha = 40
editor = lyaplock
record_every = 5
"""


REQUIRED_ONLY = """\
dims.d0 = 12
dims.d1 = 8
stream.n_per_batch = 3
stream.total_batches = 40
stream.seed = 17
alpha = 40
editor = lyaplock
"""

REPO = Path(__file__).resolve().parent.parent
QUICK = (REPO / "configs" / "quick.cfg").read_text(encoding="utf-8")
ACCEPTANCE = (REPO / "configs" / "acceptance.cfg").read_text(encoding="utf-8")


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def with_value(key, value, text=BASE_CONFIG):
    """``text`` with ``key`` set to ``value``, replacing any earlier line."""
    lines = [line for line in text.splitlines()
             if line.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


class TestConfigValidation:
    def test_negative_alpha_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("alpha = 40", "alpha = -1"))
        code = main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + "alhpa = 60\n")
        code = main(["simulate", "--config", str(cfg)])
        assert code == 1
        assert "alhpa" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + "alpha = 60\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("editor = lyaplock\n", ""))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "editor" in capsys.readouterr().err

    def test_bad_integer(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           BASE_CONFIG.replace("dims.d0 = 12", "dims.d0 = twelve"))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "dims.d0" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1

    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep", "dbase"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, command):
        """An --out under a missing directory exits 1 with no traceback."""
        import os
        import subprocess
        import sys

        import lyapedit

        cfg = write_config(tmp_path, with_value("sweep.alphas", "20, 60"))
        out = tmp_path / "missing" / "run.csv"
        src = str(Path(lyapedit.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "lyapedit", command, "--config", str(cfg),
             "--out", str(out), "--quiet"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"error: cannot write {out}: ")
        assert done.stderr.count("\n") == 1

    def test_bad_editor_choice(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           BASE_CONFIG.replace("editor = lyaplock", "editor = turbo"))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "editor" in capsys.readouterr().err


class TestConfigSchema:
    """Every key's rejection and every default, pinned."""

    @pytest.mark.parametrize("key,value", [
        ("dims.d0", "0"),
        ("dims.d1", "eight"),
        ("stream.n_per_batch", "0"),
        ("stream.total_batches", "1.5"),
        ("stream.seed", str(2 ** 64)),
        ("stream.seed", "-1"),
        ("stream.mode", "teacher"),
        ("stream.m0", "-4"),
        ("stream.m0", "5"),
        ("stream.key_scale", "0"),
        ("stream.key_scale", "nan"),
        ("stream.teacher_drift", "-0.1"),
        ("stream.teacher_drift", "inf"),
        ("alpha", "nan"),
        ("alpha", "-inf"),
        ("editor", "turbo"),
        ("record_every", "0"),
        ("v_weight", "0"),
        ("sweep.alphas", "20, banana"),
        ("sweep.alphas", "20, -1"),
        ("sweep.alphas", "20, inf"),
        ("compare.editors", "lyaplock, turbo"),
        ("compare.editors", "lyaplock,"),
    ])
    def test_invalid_value_exits_1_naming_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, with_value(key, value))
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("key", [line.partition("=")[0].strip()
                                     for line in REQUIRED_ONLY.splitlines()])
    def test_missing_required_key_exits_1(self, tmp_path, capsys, key):
        text = "".join(line + "\n" for line in REQUIRED_ONLY.splitlines()
                       if not line.startswith(key + " "))
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: missing required key {key}\n"

    def test_required_keys_alone_give_documented_defaults(self, tmp_path):
        from lyapedit import Dims, RunConfig, StreamSpec
        loaded = cli.load_config(write_config(tmp_path, REQUIRED_ONLY))
        spec = StreamSpec(dims=Dims(d0=12, d1=8), n_per_batch=3,
                          total_batches=40, key_scale=1.0,
                          value_mode="planted-teacher", teacher_drift=0.1,
                          seed=17, m0=48)
        expected = RunConfig(stream=spec, editor="lyaplock", alpha=40.0)
        assert loaded["run"] == expected
        assert loaded["run"].v_weight == 1.0
        assert loaded["run"].record_every == 1
        assert loaded["compare_editors"] == ["lyaplock", "baseline", "edit-only"]
        assert loaded["sweep_alphas"] is None

    def test_invalid_seed_rejected_under_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_value("stream.seed", "banana"))
        assert main(["simulate", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert "stream.seed" in capsys.readouterr().err


class TestDocumentedConfigs:
    """The README's config block, its library example and the shipped
    configs work as documented."""

    def readme_block(self, heading="### Configuration documents", lang=""):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        section = text.split(heading, 1)[1]
        return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)

    def test_readme_block_loads(self, tmp_path):
        loaded = cli.load_config(write_config(tmp_path, self.readme_block()))
        assert loaded["run"].stream.dims.d0 == 64

    def test_readme_block_names_every_key(self):
        named = set(cli.parse_config_text(self.readme_block()))
        assert named == set(cli._SCHEMA)

    @pytest.mark.parametrize("name", sorted(p.name for p in
                                            (REPO / "configs").glob("*.cfg")))
    def test_shipped_config_loads(self, name):
        cli.load_config(REPO / "configs" / name)

    def test_readme_library_use_runs(self, capsys):
        # As written: every public name it imports must still exist.
        exec(self.readme_block("## Library use", "python"), {})
        avg_pl, sep, threshold = capsys.readouterr().out.split()
        assert sep == "<=" and float(avg_pl) <= float(threshold)


class TestSimulate:
    def test_csv_shape_and_exit(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,el,pl,bl,z,avg_pl,avg_el,delta_fro,ridge,wall_ms"
        assert len(lines) == 1 + 8  # 40 steps, every 5th
        assert lines[-1].startswith("40,")

    def test_zero_edit_stream_all_pl_zero(self, tmp_path):
        cfg = write_config(
            tmp_path, BASE_CONFIG.replace("stream.teacher_drift = 0.15",
                                          "stream.teacher_drift = 0"))
        out = tmp_path / "zero.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(row[2] == "0" for row in rows)   # pl column
        assert all(row[1] == "0" for row in rows)   # el column

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_a),
                     "--quiet"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out_b),
                     "--quiet"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfg), "--out", str(out_a), "--quiet"])
        main(["simulate", "--config", str(cfg), "--out", str(out_b),
              "--seed", "99", "--quiet"])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_stdout_emission(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,el,pl,bl,z,")

    def test_summary_line_printed(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        captured = capsys.readouterr()
        assert "constraint_satisfied=" in captured.out

    def test_aborted_run_flushes_partial_csv(self, tmp_path, monkeypatch, capsys):
        """An abort at step s writes the full run's rows for steps < s."""
        import lyapedit.harness as harness

        original = harness._solve_step
        for every, s in ((5, 23), (5, 21), (1, 23)):
            cfg = write_config(tmp_path, with_value("record_every", str(every)))
            full, partial = tmp_path / "full.csv", tmp_path / "partial.csv"
            assert main(["simulate", "--config", str(cfg), "--out", str(full),
                         "--quiet"]) == 0
            calls = []

            def explode(*args):
                calls.append(None)
                if len(calls) == s:
                    raise SingularSystemError("synthetic singular abort")
                return original(*args)

            monkeypatch.setattr(harness, "_solve_step", explode)
            assert main(["simulate", "--config", str(cfg), "--out",
                         str(partial)]) == 2
            monkeypatch.setattr(harness, "_solve_step", original)
            rows = [line for line in full.read_text().splitlines()
                    if line.startswith("t,") or int(line.split(",")[0]) < s]
            status = (f"# status=aborted step={s} reason=solver aborted at step "
                      f"{s}: synthetic singular abort")
            assert partial.read_text() == "\n".join(rows + [status]) + "\n"
            assert "synthetic singular abort" in capsys.readouterr().err

    def test_record_every_filters_the_every_step_csv(self, tmp_path):
        """The CSV at stride k is the stride-1 CSV at t % k == 0 or t = T."""
        def csv(every):
            cfg = write_config(tmp_path, with_value("record_every", str(every),
                                                    text=QUICK))
            out = tmp_path / f"every{every}.csv"
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
            return out.read_bytes()

        header, *rows = csv(1).split(b"\n")[:-1]
        assert len(rows) == 200
        for every in (7, 10, 200, 201):
            kept = [row for row in rows
                    if int(row.split(b",")[0]) % every == 0 or row.startswith(b"200,")]
            assert csv(every) == b"\n".join([header] + kept) + b"\n", every


class TestCompareAndSweep:
    def test_compare_emits_row_per_editor(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "compare.editors = lyaplock,baseline\n")
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("editor,final_avg_pl,final_avg_el,"
                            "constraint_satisfied,mean_wall_ms")
        assert len(lines) == 3
        assert lines[1].startswith("lyaplock,")
        assert lines[2].startswith("baseline,")

    def test_sweep_requires_alphas(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "sweep.alphas" in capsys.readouterr().err

    def test_sweep_rows_ordered(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "sweep.alphas = 60, 20, 100\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        alphas = [float(line.split(",")[0]) for line in lines[1:]]
        assert alphas == [20.0, 60.0, 100.0]

    def test_sweep_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "sweep.alphas = 20, 40\n")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out_a), "--quiet"])
        main(["sweep", "--config", str(cfg), "--out", str(out_b), "--quiet"])
        assert out_a.read_bytes() == out_b.read_bytes()


class TestDbase:
    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["dbase", "--config", str(cfg)]) == 0
        first = capsys.readouterr().out
        assert main(["dbase", "--config", str(cfg)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("d_base=")

    def test_csv_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "dbase.csv"
        assert main(["dbase", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d_base"
        assert float(lines[1]) > 0


class TestKeyScaleOverflow:
    """A key scale beyond the range of double precision fails loudly."""

    @pytest.mark.parametrize("command", ["simulate", "dbase"])
    def test_exits_2_naming_gram_and_key_scale(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, with_value("stream.key_scale", "3.35e153",
                                                text=QUICK))
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: preserved key Gram K0 K0^T overflowed")
        assert "key_scale=3.35e+153" in err

    @pytest.mark.parametrize("command", ["simulate", "dbase"])
    @pytest.mark.parametrize("key_scale, pl", [
        ("8.379879956214684e152", "nan"),  # 2^508: the probe's loss overflows
        ("1.1e-161", "0.0"),               # the probe's edit underflows to 0
    ])
    def test_unrepresentable_probe_loss_exits_2(self, tmp_path, capsys, command,
                                                key_scale, pl):
        cfg = write_config(tmp_path, with_value("stream.key_scale", key_scale,
                                                text=QUICK))
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: the d_base probe's preservation loss is {pl} at "
            f"key_scale={float(key_scale)!r};")

    @pytest.mark.parametrize("command", ["simulate", "dbase"])
    def test_probe_loss_below_gram_resolution_names_drift(self, tmp_path, capsys,
                                                           command):
        """At drift 1e-7 the probe's PL cancels to 0 at a representable scale."""
        cfg = write_config(tmp_path, with_value("stream.teacher_drift", "1e-7",
                                                text=ACCEPTANCE))
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        match = re.match(r"error: the d_base probe's preservation loss reads 0\.0 "
                         r"at teacher_drift=1e-07: its Gram form cancels against "
                         r"tr\(V0 V0\^T\) = (\S+) and resolves no loss below "
                         r"eps \* tr\(V0 V0\^T\) = (\S+), ", err)
        assert match, err
        trace, resolution = float(match.group(1)), float(match.group(2))
        assert np.finfo(np.float64).tiny <= trace < np.inf
        assert resolution == np.finfo(np.float64).eps * trace
        assert "key_scale=" not in err

    @pytest.mark.parametrize("command", ["simulate", "dbase"])
    @pytest.mark.parametrize("exponent", [-515, -520])
    def test_underflowed_system_exits_2_naming_underflow(self, tmp_path, capsys,
                                                         command, exponent):
        """The probe's system has a subnormal mean diagonal, about 2^-1024."""
        cfg = write_config(tmp_path, with_value("stream.key_scale",
                                                repr(2.0 ** exponent), text=QUICK))
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        match = re.match(r"error: system matrix C underflowed: its mean diagonal "
                         r"tr\(C\)/dim = (\S+) is below the smallest normal double",
                         err)
        assert match, err
        assert 0.0 < float(match.group(1)) < np.finfo(np.float64).tiny
        assert "singular" not in err

    @pytest.mark.parametrize("command", ["simulate", "dbase"])
    @pytest.mark.parametrize("exponent", [-512, -513, -514])
    def test_subnormal_d_base_exits_2_naming_it(self, tmp_path, capsys, command,
                                                exponent):
        """The probe's loss is positive but below the smallest normal double."""
        key_scale = 2.0 ** exponent
        cfg = write_config(tmp_path, with_value("stream.key_scale", repr(key_scale),
                                                text=QUICK))
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        match = re.match(r"error: d_base = (\S+) at key_scale=(\S+) is below the "
                         r"smallest normal double", err)
        assert match, err
        assert 0.0 < float(match.group(1)) < np.finfo(np.float64).tiny
        assert float(match.group(2)) == key_scale

    @pytest.mark.parametrize("command", ["simulate", "dbase"])
    def test_smallest_tested_key_scale_still_runs(self, tmp_path, command):
        cfg = write_config(tmp_path, with_value("stream.key_scale", repr(2.0 ** -500),
                                                text=QUICK))
        assert main([command, "--config", str(cfg), "--quiet", "--out",
                     str(tmp_path / "o.csv")]) == 0

    def test_overflowed_loss_terms_are_not_called_cancellation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_value("stream.key_scale",
                                                repr(2.0 ** 506), text=QUICK))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.read_text().splitlines()[-1].startswith("# status=aborted step=48 ")
        err = capsys.readouterr().err
        assert "overflowed" in err and "cancellation" not in err


class TestQueueThreshold:
    """alpha sets D = alpha * d_base; extremes of either kind fail loudly."""

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_overflowing_threshold_exits_1_naming_alpha(self, tmp_path, capsys,
                                                        command):
        cfg = write_config(tmp_path, with_value("alpha", "1e308", text=QUICK))
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the threshold D = alpha * d_base is not "
                              "positive and finite: alpha=1e+308 ")
        assert err.rstrip().endswith("D=inf")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e-315", "1e-320"])
    def test_queue_overflow_aborts_with_partial_csv(self, tmp_path, capsys, alpha):
        """At step 2, a*Z(2) = 1 + PL/D overflows for a subnormal D."""
        cfg = write_config(tmp_path, with_value("record_every", "1",
                                                with_value("alpha", alpha, QUICK)))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        header, row, status = out.read_text().splitlines()
        assert header.startswith("t,") and row.startswith("1,")
        assert status.startswith("# status=aborted step=2 reason=queue overflow "
                                 "at step 2: the preservation weight a*Z = inf")
        err = capsys.readouterr().err
        assert all(f" {name}=" in err for name in ("Z", "a", "D"))

    def test_exact_stream_runs_at_subnormal_threshold(self, tmp_path, capsys):
        """An exact stream floors d_base at the smallest normal; D = d_base/2."""
        text = with_value("stream.teacher_drift", "0", with_value("alpha", "0.5",
                                                                  QUICK))
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert f"d={float(np.finfo(np.float64).tiny) / 2!r} " in capsys.readouterr().out
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 20 and all(row[2] == "0" for row in rows)


class TestVerify:
    def test_passes_and_reports(self, capsys):
        assert main(["verify", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        assert "FAIL" not in out

    def test_raising_check_reports_fail_and_continues(self, capsys, monkeypatch):
        def diverging(*args, **kwargs):
            raise OracleFailure("iterate diverged")

        monkeypatch.setattr(oracle, "minimize_iteratively", diverging)
        assert main(["verify", "--seed", "7"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert ("FAIL closed-form-optimality: OracleFailure: iterate diverged"
                in lines)
        assert sum(line.startswith("PASS ") for line in lines) == 5
        assert lines[-1] == "verify: FAILURES detected"


class TestSeedRange:
    """--seed must fit in 64 bits; a bad one is a usage error, not a FAIL."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--seed", "-1"],
        ["verify", "--seed", str(2 ** 64)],
        ["simulate", "--config", "unused.cfg", "--seed", "-1"],
    ])
    def test_out_of_range_seed_exits_1(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --seed must be in [0, 18446744073709551615], got {argv[-1]}\n")
        assert "PASS" not in captured.out and "FAIL" not in captured.out


class TestShippedConfigs:
    def test_acceptance_config_satisfies_constraint(self, tmp_path, capsys):
        from pathlib import Path
        cfg = Path(__file__).resolve().parent.parent / "configs" / "acceptance.cfg"
        out = tmp_path / "acceptance.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "constraint_satisfied=true" in capsys.readouterr().out
        assert out.read_text().count("\n") == 1 + 200  # header + T/record_every
