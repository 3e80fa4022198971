import contextlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fescycle import biomech as bm
from fescycle import cli, offline, sac
from fescycle.errors import NonPositiveParameter, Unreachable
from fescycle.pattern import StimulationPattern, pattern_from_json, save_pattern


@pytest.fixture()
def config_path(tmp_path, nominal_2m):
    path = tmp_path / "config.json"
    path.write_text(bm.config_to_json(nominal_2m))
    return path


@pytest.fixture()
def pattern_path(tmp_path):
    pat = StimulationPattern(
        (bm.QUADRICEPS, bm.HAMSTRINGS), (((30.0, 170.0),), ((190.0, 330.0),)),
    )
    path = tmp_path / "pattern.json"
    save_pattern(pat, path)
    return path


def constant_agent(value=20.0, n_actions=2):
    """Checkpointable agent whose deterministic action saturates at ~1."""
    agent = sac.SacAgent(3 + n_actions, n_actions, sac.TrainConfig(seed=0))
    for p in agent.actor.trunk.params:
        p[:] = 0.0
    agent.actor.trunk.params[-1][:n_actions] = value
    return agent


class TestValidate:
    def test_valid_config(self, config_path, capsys):
        assert cli.main(["validate", str(config_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"valid": True}

    def test_unreachable_geometry(self, tmp_path, capsys):
        bad = bm.CyclingConfig(
            crank_hip_dx=0.9, crank_hip_dy=0.7, crank_arm=0.17,
            thigh_len=0.4, shank_len=0.4,
        )
        path = tmp_path / "bad.json"
        path.write_text(bm.config_to_json(bad))
        assert cli.main(["validate", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert "crank_angle_deg" in out

    def test_malformed_json_reports_byte_offset(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"crank_hip_dx": 0.5,, }')
        assert cli.main(["validate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse_error"
        assert isinstance(err["byte_offset"], int)

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text('{"crank_hip_dx": 0.5, "body_mass": 70}')
        assert cli.main(["validate", str(path)]) == 2


class TestExtract:
    def test_constant_agent_full_circle(self, tmp_path, config_path, capsys):
        agent_path = tmp_path / "agent.json"
        sac.save_agent(constant_agent(), agent_path)
        out = tmp_path / "pattern.json"
        svg = tmp_path / "pattern.svg"
        rc = cli.main([
            "extract", str(agent_path), str(config_path),
            "--out", str(out), "--svg", str(svg),
        ])
        assert rc == 0
        pat = pattern_from_json(out.read_text())
        assert pat.intervals == (((0.0, 360.0),), ((0.0, 360.0),))
        assert svg.read_text().startswith("<svg")
        assert (tmp_path / "pattern.json.manifest.json").exists()

    def test_missing_agent_file(self, tmp_path, config_path):
        rc = cli.main([
            "extract", str(tmp_path / "none.json"), str(config_path),
            "--out", str(tmp_path / "p.json"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(obs_dim=6),
         "net actor: layer sizes [5, 64, 64, 4] do not map 6 inputs to 4 outputs"),
        (lambda doc: doc.update(n_actions=3),
         "net actor: layer sizes [5, 64, 64, 4] do not map 5 inputs to 6 outputs"),
        (lambda doc: doc["nets"]["q1"]["params"][0].pop(),
         "net q1: parameter array 0 has 384 values, expected 448"),
        (lambda doc: doc["nets"]["q2_target"]["params"].pop(),
         "net q2_target: 5 parameter arrays, expected 6"),
        (lambda doc: doc["optimizers"]["q1"]["m"][0].pop(),
         "optimizer q1: moment m array 0 has 384 values, expected 448"),
        (lambda doc: doc["optimizers"]["actor"]["v"].pop(),
         "optimizer actor: moment v has 5 arrays, expected 6"),
        (lambda doc: doc.update(obs_dim=5.0), "obs_dim must be a positive integer, got 5.0"),
    ])
    def test_checkpoint_shape_mismatch_is_domain_error(self, tmp_path, config_path, capsys,
                                                       edit, message):
        doc = json.loads(sac.agent_to_json(constant_agent()))
        edit(doc)
        agent_path = tmp_path / "agent.json"
        agent_path.write_text(json.dumps(doc))
        out = tmp_path / "p.json"
        rc = cli.main(["extract", str(agent_path), str(config_path), "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ShapeMismatch"
        assert err["message"] == message
        assert not out.exists()


    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["nets"]["actor"]["params"][0][0].__setitem__(0, math.nan),
         "net actor: parameter array 0 has a non-finite value"),
        (lambda doc: doc["optimizers"]["q1"]["m"][1].__setitem__(3, math.inf),
         "optimizer q1: moment m array 1 has a non-finite value"),
        (lambda doc: doc.update(log_alpha=math.nan), "log_alpha has a non-finite value"),
        (lambda doc: doc["optimizers"]["q1"].update(t=math.nan),
         "optimizer q1: t must be an integer in [0, 2**63), got nan"),
    ])
    def test_checkpoint_non_finite_value_is_domain_error(self, tmp_path, config_path, capsys,
                                                         edit, message):
        doc = json.loads(sac.agent_to_json(constant_agent()))
        edit(doc)
        agent_path = tmp_path / "agent.json"
        agent_path.write_text(json.dumps(doc))
        out = tmp_path / "p.json"
        rc = cli.main(["extract", str(agent_path), str(config_path), "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "NonFiniteState", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("key", ["log_alpha", "optimizers", "train_config",
                                     "nets.q2_target"])
    def test_checkpoint_missing_key_is_bad_input(self, tmp_path, config_path, capsys, key):
        doc = json.loads(sac.agent_to_json(constant_agent()))
        *parents, last = key.split(".")
        node = doc
        for name in parents:
            node = node[name]
        del node[last]
        agent_path = tmp_path / "agent.json"
        agent_path.write_text(json.dumps(doc))
        out = tmp_path / "p.json"
        rc = cli.main(["extract", str(agent_path), str(config_path), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "bad_input",
                       "message": f"{agent_path}: checkpoint lacks key {key!r}"}
        assert not out.exists()


def _json_paths(node, path=()):
    """(key paths, array paths): the path to every object key and every
    array below `node`."""
    keys, arrays = [], []
    if isinstance(node, dict):
        keys += [path + (name,) for name in node]
        children = node.items()
    elif isinstance(node, list):
        arrays.append(path)
        children = enumerate(node)
    else:
        return keys, arrays
    for name, child in children:
        sub_keys, sub_arrays = _json_paths(child, path + (name,))
        keys += sub_keys
        arrays += sub_arrays
    return keys, arrays


@pytest.fixture(scope="module")
def saved_checkpoint():
    """The text of a saved checkpoint and its (key paths, array paths)."""
    text = sac.agent_to_json(constant_agent())
    return text, *_json_paths(json.loads(text))


class TestCorruptCheckpointFuzz:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_extract_fails_cleanly(self, nominal_2m, saved_checkpoint, data):
        """Drop a key, plant a NaN or infinity in an array, or drop an array
        value: extract exits 1 or 2 with a JSON error and writes nothing."""
        text, key_paths, array_paths = saved_checkpoint
        doc = json.loads(text)
        kind = data.draw(st.sampled_from(["drop_key", "non_finite", "drop_value"]))
        *parents, last = data.draw(st.sampled_from(key_paths if kind == "drop_key"
                                                   else array_paths))
        node = doc
        for name in parents:
            node = node[name]
        if kind == "drop_key":
            del node[last]
        else:
            array = node[last]
            index = data.draw(st.integers(0, len(array) - 1))
            if kind == "non_finite":
                array[index] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            else:
                del array[index]
        with tempfile.TemporaryDirectory() as tmp:
            agent_path, config_path = Path(tmp, "agent.json"), Path(tmp, "config.json")
            out = Path(tmp, "p.json")
            agent_path.write_text(json.dumps(doc))
            config_path.write_text(bm.config_to_json(nominal_2m))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["extract", str(agent_path), str(config_path),
                               "--out", str(out)])
            assert rc in (1, 2)
            err = json.loads(stderr.getvalue())
            assert set(err) >= {"error", "message"}
            assert "Traceback" not in stderr.getvalue()
            assert not out.exists()


# each sidecar key's corruptions; a changed config_hash is a valid value that
# differs from the other session's and dt 0.1 one that differs from the
# control interval, both of which logs_to_dataset rejects
BAD_SIDECAR_VALUES = {
    "pattern_id": [7, None, ["session00"]],
    "config_hash": ["0" * 16, 5, None],
    "dt": [0, -0.05, math.nan, math.inf, "0.05", None, True, 0.1],
    "rows": [-1, 0, 60, 62, "61", 61.0, True, None],
}


@pytest.fixture(scope="module")
def saved_session_logs(nominal_2m):
    """{file name: text} of two saved 61-row session logs and their sidecars,
    a saved constant agent and a small train config."""
    pat = StimulationPattern((bm.QUADRICEPS, bm.HAMSTRINGS),
                             (((30.0, 170.0),), ((190.0, 330.0),)))
    logs = offline.collect_sessions(nominal_2m, bm.default_muscle_set(nominal_2m), pat,
                                    n_sessions=2, duration_s=3.0, seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        for k, log in enumerate(logs):
            offline.save_session_log(log, Path(tmp, f"session{k:02d}.csv"))
        files = {path.name: path.read_text() for path in Path(tmp).iterdir()}
    files["agent.json"] = sac.agent_to_json(constant_agent())
    files["train.json"] = json.dumps({"batch": 64, "grad_steps_per_episode": 2,
                                      "cql_num_samples": 4})
    return files


class TestCorruptSessionLogFuzz:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_finetune_fails_cleanly(self, saved_session_logs, data):
        """Truncate a log to fewer lines, drop a cell, write text or a
        non-finite value into a cell, or give a sidecar key a bad value:
        finetune exits 1 or 2 with a JSON error and writes no checkpoint."""
        files = dict(saved_session_logs)
        name = data.draw(st.sampled_from(["session00.csv", "session01.csv"]))
        kind = data.draw(st.sampled_from(["truncate", "drop_cell", "bad_cell", "sidecar"]))
        lines = files[name].splitlines()
        if kind == "truncate":
            lines = lines[:data.draw(st.integers(0, len(lines) - 1))]
        elif kind == "sidecar":
            sidecar = json.loads(files[name + ".json"])
            key = data.draw(st.sampled_from(sorted(BAD_SIDECAR_VALUES)))
            sidecar[key] = data.draw(st.sampled_from(BAD_SIDECAR_VALUES[key]))
            files[name + ".json"] = json.dumps(sidecar)
        else:
            row = data.draw(st.integers(0, len(lines) - 1))
            cells = lines[row].split(",")
            col = data.draw(st.integers(0, len(cells) - 1))
            if kind == "drop_cell":
                del cells[col]
            else:
                cells[col] = data.draw(st.sampled_from(
                    ["nan", "inf", "-inf", "abc", "", "1e", "0x1"]))
            lines[row] = ",".join(cells)
        if kind != "sidecar":
            files[name] = "".join(line + "\n" for line in lines)
        with tempfile.TemporaryDirectory() as tmp:
            logs = Path(tmp, "logs")
            logs.mkdir()
            for file_name, text in files.items():
                Path(logs if file_name.startswith("session") else tmp, file_name).write_text(text)
            out = Path(tmp, "ft.json")
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["finetune", str(Path(tmp, "agent.json")), str(logs),
                               str(Path(tmp, "train.json")), "--out", str(out),
                               "--epochs", "1", "--seed", "1"])
            assert rc in (1, 2)
            err = json.loads(stderr.getvalue())
            assert set(err) >= {"error", "message"}
            assert "Traceback" not in stderr.getvalue()
            assert not out.exists()


class TestCollectFinetuneEvaluate:
    def test_collect_writes_sessions(self, tmp_path, config_path, pattern_path, capsys):
        out_dir = tmp_path / "logs"
        rc = cli.main([
            "collect", str(config_path), str(pattern_path),
            "--out", str(out_dir), "--sessions", "2", "--duration", "3",
            "--seed", "5",
        ])
        assert rc == 0
        files = sorted(out_dir.glob("session*.csv"))
        assert len(files) == 2
        rows = files[0].read_text().strip().splitlines()
        assert len(rows) == 62  # header + 61 samples for 3 s at 50 ms
        assert (out_dir / "manifest.json").exists()

    def test_collect_gap_flag(self, tmp_path, config_path, pattern_path):
        gap_path = tmp_path / "gap.json"
        gap_path.write_text(json.dumps({"seed": 3}))
        out_dir = tmp_path / "gap_logs"
        rc = cli.main([
            "collect", str(config_path), str(pattern_path),
            "--gap", str(gap_path), "--out", str(out_dir),
            "--sessions", "1", "--duration", "2", "--seed", "5",
        ])
        assert rc == 0

    def test_finetune_runs_on_collected_logs(self, tmp_path, config_path, pattern_path, capsys):
        out_dir = tmp_path / "logs"
        cli.main([
            "collect", str(config_path), str(pattern_path),
            "--out", str(out_dir), "--sessions", "3", "--duration", "6",
            "--seed", "5",
        ])
        agent_path = tmp_path / "agent.json"
        sac.save_agent(constant_agent(), agent_path)
        train_path = tmp_path / "train.json"
        train_path.write_text(json.dumps({
            "batch": 64, "grad_steps_per_episode": 5, "cql_num_samples": 4,
        }))
        out_path = tmp_path / "agent_ft.json"
        rc = cli.main([
            "finetune", str(agent_path), str(out_dir), str(train_path),
            "--out", str(out_path), "--epochs", "1", "--seed", "1",
        ])
        assert rc == 0
        loaded = sac.load_agent(out_path)
        assert loaded.tc.cql_weight == 5.0  # offline default kicks in

    def test_finetune_non_finite_log_is_domain_error(self, tmp_path, config_path,
                                                     pattern_path, capsys):
        out_dir = tmp_path / "logs"
        cli.main([
            "collect", str(config_path), str(pattern_path),
            "--out", str(out_dir), "--sessions", "2", "--duration", "4",
            "--seed", "5",
        ])
        log = out_dir / "session00.csv"
        header, *rows = log.read_text().splitlines()
        rows = [",".join(cells[:2] + ["nan"] + cells[3:])
                for cells in (row.split(",") for row in rows)]
        log.write_text("\n".join([header, *rows]) + "\n")
        agent_path = tmp_path / "agent.json"
        sac.save_agent(constant_agent(), agent_path)
        train_path = tmp_path / "train.json"
        train_path.write_text(json.dumps({
            "batch": 64, "grad_steps_per_episode": 5, "cql_num_samples": 4,
        }))
        out_path = tmp_path / "agent_ft.json"
        rc = cli.main([
            "finetune", str(agent_path), str(out_dir), str(train_path),
            "--out", str(out_path), "--epochs", "1", "--seed", "1",
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonFiniteState"
        assert "session00.csv: row 1, column cadence_rad_s: nan" in err["message"]
        assert not out_path.exists()

    def test_finetune_sidecar_without_rows_is_bad_input(self, tmp_path, config_path,
                                                        pattern_path, capsys):
        out_dir = tmp_path / "logs"
        cli.main([
            "collect", str(config_path), str(pattern_path),
            "--out", str(out_dir), "--sessions", "1", "--duration", "2",
            "--seed", "5",
        ])
        sidecar = out_dir / "session00.csv.json"
        doc = json.loads(sidecar.read_text())
        del doc["rows"]
        sidecar.write_text(json.dumps(doc))
        agent_path = tmp_path / "agent.json"
        sac.save_agent(constant_agent(), agent_path)
        out_path = tmp_path / "ft.json"
        rc = cli.main([
            "finetune", str(agent_path), str(out_dir),
            "--out", str(out_path), "--epochs", "1",
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bad_input"
        assert "session00.csv.json: sidecar lacks key 'rows'" in err["message"]
        assert not out_path.exists()

    def test_finetune_rejects_logs_at_another_dt(self, tmp_path, saved_session_logs, capsys):
        """Logs that agree with each other on dt 0.1 s still differ from the
        0.05 s control interval the agent acts at."""
        logs = tmp_path / "logs"
        logs.mkdir()
        for name, text in saved_session_logs.items():
            if name.endswith(".csv.json"):
                text = json.dumps({**json.loads(text), "dt": 0.1})
            (logs if name.startswith("session") else tmp_path).joinpath(name).write_text(text)
        out_path = tmp_path / "ft.json"
        rc = cli.main(["finetune", str(tmp_path / "agent.json"), str(logs),
                       str(tmp_path / "train.json"), "--out", str(out_path), "--epochs", "1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InconsistentConfig"
        assert "dt 0.1 s differs from the 0.05 s control interval" in err["message"]
        assert not out_path.exists()

    def test_finetune_insufficient_data(self, tmp_path, config_path, pattern_path, capsys):
        out_dir = tmp_path / "logs"
        cli.main([
            "collect", str(config_path), str(pattern_path),
            "--out", str(out_dir), "--sessions", "1", "--duration", "2",
            "--seed", "5",
        ])
        agent_path = tmp_path / "agent.json"
        sac.save_agent(constant_agent(), agent_path)
        rc = cli.main([
            "finetune", str(agent_path), str(out_dir),
            "--out", str(tmp_path / "ft.json"), "--epochs", "1",
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InsufficientData"

    def test_evaluate_empty_pattern_zero_rpm(self, tmp_path, config_path, capsys):
        pat_path = tmp_path / "empty.json"
        save_pattern(
            StimulationPattern((bm.QUADRICEPS, bm.HAMSTRINGS), ((), ())), pat_path
        )
        out = tmp_path / "eval.csv"
        rc = cli.main([
            "evaluate", str(config_path), str(pat_path),
            "--out", str(out), "--trials", "2", "--duration", "8",
        ])
        assert rc == 0
        assert "mean RPM 0.00" in capsys.readouterr().out

    def test_evaluate_pattern_in_band(self, tmp_path, config_path, pattern_path, capsys):
        out = tmp_path / "eval.csv"
        rc = cli.main([
            "evaluate", str(config_path), str(pattern_path),
            "--out", str(out), "--trials", "2", "--duration", "12",
            "--seed", "3",
        ])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "trial,step,time_s,rpm"
        assert len(rows) == 1 + 2 * 240

    def test_evaluate_time_column_steps_by_control_dt(self, tmp_path, config_path,
                                                      pattern_path):
        out = tmp_path / "eval.csv"
        rc = cli.main([
            "evaluate", str(config_path), str(pattern_path),
            "--out", str(out), "--trials", "1", "--duration", "6", "--seed", "3",
        ])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 120
        assert [r.split(",")[2] for r in (rows[1], rows[2], rows[-1])] == ["0.05", "0.1", "6"]

    def test_evaluate_reproducible_byte_for_byte(self, tmp_path, config_path, pattern_path):
        out1 = tmp_path / "eval1.csv"
        out2 = tmp_path / "eval2.csv"
        for out in (out1, out2):
            cli.main([
                "evaluate", str(config_path), str(pattern_path),
                "--out", str(out), "--trials", "2", "--duration", "6",
                "--seed", "3",
            ])
        assert out1.read_bytes() == out2.read_bytes()


    @pytest.mark.parametrize("error", [
        NonPositiveParameter("dt_control", 0.0),
        Unreachable(1.0, "d"),
    ], ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("command", ["collect", "evaluate"])
    def test_error_in_drive_worker_is_domain_error(self, tmp_path, config_path, pattern_path,
                                                   capfd, monkeypatch, command, error):
        def failing_step(*args):
            raise error

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(bm, "sim_step", failing_step)
        out = tmp_path / ("logs" if command == "collect" else "eval.csv")
        # evaluate averages after a 5 s transient, so its drive runs longer
        duration = "1" if command == "collect" else "6"
        rc = cli.main([command, str(config_path), str(pattern_path), "--out", str(out),
                       "--duration", duration, "--seed", "1"])
        assert rc == 1
        stderr = capfd.readouterr().err
        assert "Traceback" not in stderr
        assert json.loads(stderr) == {"error": type(error).__name__, "message": str(error)}
        assert multiprocessing.active_children() == []

    def test_cli_import_loads_no_process_pool(self):
        """multiprocessing and concurrent.futures load only when a pool starts."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = ("import sys, fescycle.cli; "
                 "print([m for m in ('multiprocessing', 'concurrent.futures') "
                 "if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.strip() == "[]"


class TestCompare:
    def test_identical_patterns(self, tmp_path, pattern_path, capsys):
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare", str(pattern_path), str(pattern_path), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report[bm.QUADRICEPS]["on_offset_deg"] == 0.0
        assert report[bm.QUADRICEPS]["overlap_arc"] == 140.0

    def test_rotated_copy_reports_offset(self, tmp_path, pattern_path, capsys):
        rotated = tmp_path / "rot.json"
        pat = pattern_from_json(pattern_path.read_text())
        from fescycle.pattern import PatternPerturbation, perturb_pattern, ROTATE

        save_pattern(perturb_pattern(pat, PatternPerturbation(ROTATE, 10.0)), rotated)
        out = tmp_path / "cmp.json"
        assert cli.main(["compare", str(pattern_path), str(rotated), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report[bm.QUADRICEPS]["on_offset_deg"] == 10.0
        assert report[bm.HAMSTRINGS]["on_offset_deg"] == 10.0

    @pytest.mark.parametrize("doc, message", [
        ({"source": "x"}, 'pattern has no "muscles" object'),
        ({"muscles": [1, 2]}, 'pattern has no "muscles" object'),
        ([1, 2], 'pattern has no "muscles" object'),
        ({"muscles": {bm.QUADRICEPS: 5}}, "'int' object is not iterable"),
    ], ids=["no_muscles", "muscles_list", "not_object", "intervals_not_list"])
    def test_malformed_pattern_is_bad_input_naming_file(self, tmp_path, pattern_path, capsys,
                                                        doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "cmp.json"
        rc = cli.main(["compare", str(pattern_path), str(bad), "--out", str(out)])
        assert rc == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert json.loads(stderr) == {"error": "bad_input", "message": f"{bad}: {message}"}
        assert not out.exists()

    def test_muscle_mismatch_is_domain_error(self, tmp_path, pattern_path, capsys):
        other = tmp_path / "one.json"
        save_pattern(
            StimulationPattern((bm.QUADRICEPS,), (((30.0, 150.0),),)), other
        )
        rc = cli.main(["compare", str(pattern_path), str(other), "--out", str(tmp_path / "c.json")])
        assert rc == 1


class TestTrain:
    def test_tiny_run_reproducible(self, tmp_path, config_path):
        train_path = tmp_path / "train.json"
        train_path.write_text(json.dumps({
            "batch": 64, "grad_steps_per_episode": 3,
        }))
        outs = []
        for tag in ("a", "b"):
            agent_path = tmp_path / f"agent_{tag}.json"
            curve_path = tmp_path / f"curve_{tag}.csv"
            rc = cli.main([
                "train", str(config_path), str(train_path),
                "--out", str(agent_path), "--curve", str(curve_path),
                "--max-episodes", "3", "--seed", "11",
            ])
            assert rc == 0
            outs.append((agent_path.read_bytes(), curve_path.read_bytes()))
        assert outs[0] == outs[1]
        header = outs[0][1].decode().splitlines()[0]
        assert header == "episode,train_return,test_return,norm_test_return"

    def test_zero_max_episodes_rejected(self, tmp_path, config_path, capsys):
        rc = cli.main([
            "train", str(config_path),
            "--out", str(tmp_path / "a.json"), "--curve", str(tmp_path / "c.csv"),
            "--max-episodes", "0",
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidArgument"

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--test-every", "0"]),
        ("extract", ["--resolution", "0"]),
        ("extract", ["--resolution", "inf"]),
        ("extract", ["--cadence", "nan"]),
        ("extract", ["--threshold", "nan"]),
        ("evaluate", ["--trials", "0"]),
        ("evaluate", ["--duration", "2"]),
        ("evaluate", ["--duration", "5"]),
        ("evaluate", ["--duration", "inf"]),
        ("evaluate", ["--duration", "nan"]),
        ("collect", ["--duration", "inf"]),
        ("collect", ["--duration", "nan"]),
        ("collect", ["--duration", "0.01"]),
        ("collect", ["--sessions", "-1"]),
        ("collect", ["--sessions", "0"]),
        ("collect", ["--sessions", "11"]),
        *((command, ["--start-cadence", value]) for command in ("collect", "evaluate")
          for value in ("1e308", "-50", "nan", "inf")),
        ("finetune", ["--epochs", "0"]),
        ("finetune", ["--epochs", "-3"]),
    ], ids=lambda v: v if isinstance(v, str) else "=".join(v))
    def test_bad_number_rejected(self, tmp_path, config_path, pattern_path, capsys,
                                 command, flags):
        out = tmp_path / "out"
        if command == "train":
            args = [str(config_path), "--curve", str(tmp_path / "c.csv")]
        elif command == "extract":
            agent_path = tmp_path / "agent.json"
            sac.save_agent(constant_agent(), agent_path)
            args = [str(agent_path), str(config_path)]
        elif command == "finetune":
            agent_path, logs = tmp_path / "agent.json", tmp_path / "logs"
            sac.save_agent(constant_agent(), agent_path)
            # 280 tuples after the 1 s discard window: enough for one batch
            assert cli.main(["collect", str(config_path), str(pattern_path), "--out", str(logs),
                             "--sessions", "1", "--duration", "8"]) == 0
            capsys.readouterr()
            args = [str(agent_path), str(logs)]
        else:  # collect and evaluate
            args = [str(config_path), str(pattern_path)]
        rc = cli.main([command, *args, "--out", str(out), *flags])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidArgument"
        assert not out.exists()

    def test_env_seed_override_changes_outputs(self, tmp_path, config_path):
        train_path = tmp_path / "train.json"
        train_path.write_text(json.dumps({"batch": 64, "grad_steps_per_episode": 3}))

        def run(env_seed):
            agent_path = tmp_path / f"agent_{env_seed}.json"
            curve_path = tmp_path / f"curve_{env_seed}.csv"
            old = os.environ.get("FESRL_SEED")
            os.environ["FESRL_SEED"] = env_seed
            try:
                rc = cli.main([
                    "train", str(config_path), str(train_path),
                    "--out", str(agent_path), "--curve", str(curve_path),
                    "--max-episodes", "2", "--seed", "11",
                ])
            finally:
                if old is None:
                    del os.environ["FESRL_SEED"]
                else:
                    os.environ["FESRL_SEED"] = old
            assert rc == 0
            return curve_path.read_bytes()

        assert run("101") != run("202")

    def test_manifest_written_next_to_agent(self, tmp_path, config_path):
        train_path = tmp_path / "train.json"
        train_path.write_text(json.dumps({"batch": 64, "grad_steps_per_episode": 2}))
        agent_path = tmp_path / "agent.json"
        cli.main([
            "train", str(config_path), str(train_path),
            "--out", str(agent_path), "--curve", str(tmp_path / "c.csv"),
            "--max-episodes", "2", "--seed", "1",
        ])
        manifest = json.loads((tmp_path / "agent.json.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 1
        assert str(agent_path) in manifest["outputs"]
