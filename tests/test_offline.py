import json
import math
import multiprocessing
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from fescycle import biomech as bm
from fescycle import offline, sac, training
from fescycle.env import CyclingEnv, EpisodeConfig, drive, reward
from fescycle.errors import InconsistentConfig, InsufficientData, NonFiniteState, ShapeMismatch
from fescycle.pattern import StimulationPattern, empty_pattern

TWO_MUSCLES = (bm.QUADRICEPS, bm.HAMSTRINGS)


@pytest.fixture(scope="module")
def rig(nominal_2m):
    return nominal_2m, bm.default_muscle_set(nominal_2m)


@pytest.fixture(scope="module")
def base_pattern():
    return StimulationPattern(
        TWO_MUSCLES, (((30.0, 170.0),), ((190.0, 330.0),)), source="manual"
    )


@pytest.fixture(scope="module")
def ten_sessions(rig, base_pattern):
    config, muscles = rig
    return offline.collect_sessions(config, muscles, base_pattern, seed=7)


class TestRealityGap:
    def test_perturbed_rig_still_validates(self, rig):
        config, muscles = rig
        gap = offline.RealityGapConfig(seed=123)
        gap_config, gap_muscles = offline.apply_reality_gap(config, muscles, gap)
        assert gap_config.perturbation_seed == 123
        assert gap_config.resistance_coulomb == pytest.approx(1.3 * config.resistance_coulomb)
        assert gap_config.resistance_viscous == pytest.approx(1.3 * config.resistance_viscous)
        for mp, orig in zip(gap_muscles, muscles):
            assert 0.8 * orig.t_max <= mp.t_max <= 1.2 * orig.t_max
            assert abs(mp.knee_opt - orig.knee_opt) <= math.radians(15.0) + 1e-12

    def test_gap_draw_is_deterministic(self, rig):
        config, muscles = rig
        gap = offline.RealityGapConfig(seed=5)
        first = offline.apply_reality_gap(config, muscles, gap)
        second = offline.apply_reality_gap(config, muscles, gap)
        assert first == second

    def test_unknown_gap_keys_rejected(self):
        with pytest.raises(ValueError, match="strength"):
            offline.gap_from_dict({"strength": 2.0})


class TestConfigFingerprint:
    def test_nominal_three_muscle_value_pinned(self, nominal_3m):
        muscles = bm.default_muscle_set(nominal_3m)
        assert offline.config_fingerprint(nominal_3m, muscles) == "dfc41f4adce8bb2a"

    @pytest.mark.parametrize("field", [f.name for f in fields(bm.MuscleParams)])
    def test_every_muscle_field_changes_it(self, nominal_3m, field):
        muscles = bm.default_muscle_set(nominal_3m)
        value = getattr(muscles[0], field)
        changed = replace(muscles[0],
                          **{field: value + "x" if isinstance(value, str) else value + 0.25})
        assert (offline.config_fingerprint(nominal_3m, (changed, *muscles[1:]))
                != offline.config_fingerprint(nominal_3m, muscles))


class TestCollectSessions:
    def test_default_collection_volume(self, ten_sessions):
        assert len(ten_sessions) == 10
        for log in ten_sessions:
            assert len(log) == 201  # initial row + 200 control steps
            assert log.duration_s == pytest.approx(10.0)
        total_steps = sum(len(log) - 1 for log in ten_sessions)
        assert total_steps == 2000
        assert total_steps * 0.05 == pytest.approx(100.0)

    def test_controls_are_binary(self, ten_sessions):
        for log in ten_sessions:
            assert np.all(np.isin(log.controls, (0.0, 1.0)))

    def test_timestamps_strictly_increasing(self, ten_sessions):
        for log in ten_sessions:
            assert np.all(np.diff(log.times) > 0.0)
            np.testing.assert_allclose(np.diff(log.times), 0.05, atol=1e-12)

    def test_fixed_seed_bit_identical(self, rig, base_pattern):
        config, muscles = rig
        a = offline.collect_sessions(config, muscles, base_pattern, n_sessions=2, seed=3)
        b = offline.collect_sessions(config, muscles, base_pattern, n_sessions=2, seed=3)
        for la, lb in zip(a, b):
            np.testing.assert_array_equal(la.crank_angles, lb.crank_angles)
            np.testing.assert_array_equal(la.cadences, lb.cadences)
            np.testing.assert_array_equal(la.controls, lb.controls)

    def test_empty_pattern_rolls_to_a_stop(self, rig):
        config, muscles = rig
        logs = offline.collect_sessions(
            config, muscles, empty_pattern(TWO_MUSCLES), n_sessions=1, seed=1
        )
        log = logs[0]
        assert np.all(log.controls == 0.0)
        # the assisted push decays under friction and never recovers
        assert log.cadences[0] == pytest.approx(offline.ASSIST_CADENCE)
        assert log.cadences[-1] == 0.0

    def test_first_session_unperturbed(self, rig, base_pattern, ten_sessions):
        assert ten_sessions[0].pattern_id.endswith("base")
        assert len({log.pattern_id for log in ten_sessions}) == 10

    def test_session_log_round_trip(self, ten_sessions, tmp_path):
        log = ten_sessions[0]
        path = tmp_path / "session00.csv"
        offline.save_session_log(log, path)
        again = offline.load_session_log(path)
        assert again.pattern_id == log.pattern_id
        assert again.config_hash == log.config_hash
        np.testing.assert_array_equal(again.controls, log.controls)
        # 9-significant-digit CSV round trip
        np.testing.assert_allclose(again.cadences, log.cadences, rtol=1e-8)

    def test_non_finite_log_value_rejected_at_load(self, ten_sessions, tmp_path):
        path = tmp_path / "session00.csv"
        offline.save_session_log(ten_sessions[0], path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "inf"  # data row 3, column u1
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteState, match=r"session00\.csv: row 3, column u1: inf"):
            offline.load_session_log(path)

    def test_sidecar_row_count_must_match(self, ten_sessions, tmp_path):
        path = tmp_path / "session00.csv"
        offline.save_session_log(ten_sessions[0], path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last row
        with pytest.raises(ShapeMismatch, match=r"sidecar lists 201 rows, the CSV has 200"):
            offline.load_session_log(path)

    @pytest.mark.parametrize("key", offline.SIDECAR_KEYS)
    def test_sidecar_missing_key_is_named(self, ten_sessions, tmp_path, key):
        path = tmp_path / "session00.csv"
        offline.save_session_log(ten_sessions[0], path)
        sidecar = tmp_path / "session00.csv.json"
        doc = json.loads(sidecar.read_text())
        del doc[key]
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"session00\.csv\.json: sidecar lacks key '{key}'"):
            offline.load_session_log(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [], "session00.csv: the file is empty, with no header row"),
        (lambda lines: [line.split(",")[0] for line in lines],
         "session00.csv: header 'time_s' is not time_s,crank_angle_rad,cadence_rad_s "
         "followed by control columns u0,u1,..., as many for each leg"),
        (lambda lines: [lines[0].rsplit(",", 1)[0]] + lines[1:],
         "session00.csv: header 'time_s,crank_angle_rad,cadence_rad_s,u0,u1,u2' is not "
         "time_s,crank_angle_rad,cadence_rad_s followed by control columns u0,u1,..., "
         "as many for each leg"),
        (lambda lines: lines[:3] + [lines[3] + ",0"] + lines[4:],
         "session00.csv: row 3 has 8 cells, the header has 7"),
        (lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:],
         "session00.csv: row 5 has 6 cells, the header has 7"),
        (lambda lines: lines[:2] + ["0.05,1.0,abc,0,0,0,0"] + lines[3:],
         "session00.csv: row 2, column cadence_rad_s: 'abc' is not a number"),
        (lambda lines: lines[:2] + ["1" * 200_000] + lines[3:],
         "session00.csv: line 3: field larger than field limit (131072)"),
    ])
    def test_malformed_csv_is_named(self, ten_sessions, tmp_path, edit, message):
        path = tmp_path / "session00.csv"
        offline.save_session_log(ten_sessions[0], path)
        lines = edit(path.read_text().splitlines())
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
            offline.load_session_log(path)

    def test_csv_that_is_not_utf8_names_the_file(self, ten_sessions, tmp_path):
        path = tmp_path / "session00.csv"
        offline.save_session_log(ten_sessions[0], path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:4]) + b"\xff" + b"".join(lines[4:]))
        with pytest.raises(ValueError, match=r"session00\.csv: 'utf-8' codec can't decode"):
            offline.load_session_log(path)

    def test_log_without_rows_is_insufficient_data(self, ten_sessions, tmp_path):
        path = tmp_path / "session00.csv"
        offline.save_session_log(ten_sessions[0], path)
        path.write_text(path.read_text().splitlines()[0] + "\n")
        sidecar = tmp_path / "session00.csv.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "rows": 0}))
        with pytest.raises(InsufficientData, match=r"session00\.csv: the log holds no rows$"):
            offline.load_session_log(path)

    @pytest.mark.parametrize("key, value, error, rule", [
        ("rows", "201", ValueError, "an integer >= 0"),
        ("rows", 201.0, ValueError, "an integer >= 0"),
        ("rows", -1, ValueError, "an integer >= 0"),
        ("rows", True, ValueError, "an integer >= 0"),
        ("dt", 0, ValueError, "a finite number > 0"),
        ("dt", "0.05", ValueError, "a finite number > 0"),
        ("dt", math.nan, NonFiniteState, "a finite number > 0"),
        ("dt", math.inf, NonFiniteState, "a finite number > 0"),
        ("pattern_id", 7, ValueError, "a string"),
        ("config_hash", None, ValueError, "a string"),
    ])
    def test_bad_sidecar_value_is_named(self, ten_sessions, tmp_path, key, value, error, rule):
        path = tmp_path / "session00.csv"
        offline.save_session_log(ten_sessions[0], path)
        sidecar = tmp_path / "session00.csv.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
        message = f"session00.csv.json: sidecar {key} must be {rule}, got {value!r}"
        with pytest.raises(error, match=f"{re.escape(message)}$"):
            offline.load_session_log(path)

    def test_sidecar_that_is_not_json_names_the_file(self, ten_sessions, tmp_path):
        path = tmp_path / "session00.csv"
        offline.save_session_log(ten_sessions[0], path)
        (tmp_path / "session00.csv.json").write_text('{"rows": ')
        with pytest.raises(json.JSONDecodeError, match=r"session00\.csv\.json: Expecting"):
            offline.load_session_log(path)


class TestLogsToDataset:
    def test_counting_convention(self, ten_sessions):
        # 201-row sessions: 200 transitions each, mirrored into 2x
        data = offline.logs_to_dataset(ten_sessions)
        assert len(data) == 2 * sum(len(log) - 1 for log in ten_sessions)
        assert len(data) == 4000

    def test_discard_first_second(self, ten_sessions):
        data = offline.logs_to_dataset(ten_sessions, discard_first_s=1.0)
        # 20 transitions fall inside the discard window per session
        assert len(data) == 2 * 10 * 180

    def test_rewards_recomputable_from_rows(self, ten_sessions):
        data = offline.logs_to_dataset(ten_sessions)
        for i in range(0, len(data), 97):
            want = reward(data.next_obs[i][2], data.act[i], 1.0)
            assert data.rew[i] == want

    def test_mirrored_and_plain_tuples_pair_up(self, ten_sessions):
        data = offline.logs_to_dataset(ten_sessions)
        rights = data.obs[0::2]
        lefts = data.obs[1::2]
        np.testing.assert_allclose(lefts[:, 0], -rights[:, 0], atol=1e-12)
        np.testing.assert_allclose(lefts[:, 1], -rights[:, 1], atol=1e-12)
        np.testing.assert_array_equal(lefts[:, 2], rights[:, 2])

    def test_prev_action_chains_through_rows(self, ten_sessions):
        log = ten_sessions[0]
        data = offline.logs_to_dataset([log])
        n = 2
        # right-leg tuple i>0: observation carries the previous row's control
        np.testing.assert_array_equal(data.obs[2][3:], log.controls[0][:n])
        np.testing.assert_array_equal(data.obs[0][3:], np.zeros(n))

    def test_online_episode_relogged_matches_buffer_rows(self, nominal_2m, monkeypatch):
        """A training episode, re-logged as a SessionLog, converts into the
        same bytes training wrote into its replay buffer."""
        written = []
        extend = sac.ReplayBuffer.extend

        def spy(buffer, *block):
            written.append([np.array(column) for column in block])
            extend(buffer, *block)

        monkeypatch.setattr(sac.ReplayBuffer, "extend", spy)
        episode = EpisodeConfig(seed=12, steps=60)
        tc = sac.TrainConfig(seed=2, batch=64, grad_steps_per_episode=2)
        training.train_agent(CyclingEnv(nominal_2m, episode=episode), tc, max_episodes=1)
        (rows,) = written
        act = rows[1]
        # replay the episode's plant from a fresh env's start state
        env = CyclingEnv(nominal_2m, episode=episode)
        controls = np.hstack([act[0::2], act[1::2]])
        replay = iter(controls)
        _, times, angles, cadences, _ = drive(nominal_2m, env.muscles, env.reset(), len(controls),
                                              episode.dt, lambda state: next(replay))
        log = offline.SessionLog(
            pattern_id="online", config_hash="sim", dt=episode.dt,
            times=times, crank_angles=angles, cadences=cadences,
            controls=np.vstack([controls, controls[-1:]]),
        )
        data = offline.logs_to_dataset([log], beta=episode.beta)
        for name, column in zip(("obs", "act", "rew", "next_obs"), rows):
            assert getattr(data, name).tobytes() == column.tobytes(), name

    def test_mixed_configs_rejected(self, rig, base_pattern, ten_sessions):
        config, muscles = rig
        other_config = replace(config, crank_arm=0.16)
        other = offline.collect_sessions(
            other_config, bm.default_muscle_set(other_config), base_pattern,
            n_sessions=1, seed=2,
        )
        with pytest.raises(InconsistentConfig):
            offline.logs_to_dataset([ten_sessions[0], other[0]])

    def test_mixed_dt_rejected(self, ten_sessions):
        other = replace(ten_sessions[1], dt=0.02)
        with pytest.raises(InconsistentConfig, match=rf"session {re.escape(other.pattern_id)}: dt"):
            offline.logs_to_dataset([ten_sessions[0], other])

    def test_mixed_control_width_rejected(self, ten_sessions):
        log = ten_sessions[2]
        wider = replace(log, controls=np.hstack([log.controls, log.controls[:, :2]]))
        with pytest.raises(ShapeMismatch, match=rf"session {re.escape(log.pattern_id)}: 6 control"):
            offline.logs_to_dataset([ten_sessions[0], wider])

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientData):
            offline.logs_to_dataset([])


class TestOneStore:
    def test_replay_buffer_samples_like_the_dataset(self, ten_sessions):
        """A ReplayBuffer holding a dataset's rows draws the same batches as
        the dataset from the same rng, before and after its arrays grow."""
        data = offline.logs_to_dataset(ten_sessions)
        assert offline.OfflineDataset is sac.OfflineDataset
        columns = (data.obs, data.act, data.rew, data.next_obs)
        buf = sac.ReplayBuffer(data.obs.shape[1], data.act.shape[1])
        for stop in (1000, len(data)):
            buf.extend(*(column[len(buf):stop] for column in columns))
            rows = sac.OfflineDataset(*(column[:stop] for column in columns))
            for seed in range(3):
                a = rows.sample(256, np.random.default_rng(seed))
                b = buf.sample(256, np.random.default_rng(seed))
                for name in a:
                    assert a[name].tobytes() == b[name].tobytes(), name
        # the second block grew the 1024-row backing arrays
        assert buf.rew.base.shape == (4096,)
        assert (len(buf), buf.inserted) == (len(data), len(data))


class TestFinetune:
    def test_requires_enough_tuples(self, ten_sessions):
        data = offline.logs_to_dataset(ten_sessions[:1])
        tc = sac.TrainConfig(batch=1024, cql_weight=5.0)
        agent = sac.SacAgent(5, 2, tc)
        with pytest.raises(InsufficientData):
            offline.finetune(agent, data, tc)

    def test_offline_training_never_touches_simulator(self, ten_sessions):
        data = offline.logs_to_dataset(ten_sessions)
        tc = sac.TrainConfig(seed=1, batch=64, cql_weight=5.0,
                             grad_steps_per_episode=10, cql_num_samples=4)
        agent = sac.SacAgent(5, 2, tc)
        before = bm.sim_step_count()
        offline.finetune(agent, data, tc, epochs=2)
        assert bm.sim_step_count() == before

    def test_finetune_changes_parameters_deterministically(self, ten_sessions):
        data = offline.logs_to_dataset(ten_sessions)

        def run():
            tc = sac.TrainConfig(seed=4, batch=64, cql_weight=5.0,
                                 grad_steps_per_episode=5, cql_num_samples=4)
            agent = sac.SacAgent(5, 2, tc)
            offline.finetune(agent, data, tc, epochs=1)
            return agent

        a, b = run(), run()
        for pa, pb in zip(a.actor.trunk.params, b.actor.trunk.params):
            np.testing.assert_array_equal(pa, pb)


class TestEvaluatePattern:
    def test_empty_pattern_rolls_to_zero_rpm(self, rig):
        config, muscles = rig
        result = offline.evaluate_pattern(config, muscles, empty_pattern(TWO_MUSCLES),
                                          duration_s=10.0, n_trials=2, seed=0)
        assert result["mean_rpm"] == 0.0

    def test_duplicate_seeds_identical_traces(self, rig, base_pattern):
        config, muscles = rig
        r1 = offline.evaluate_pattern(config, muscles, base_pattern,
                                      duration_s=8.0, n_trials=2, seed=9)
        r2 = offline.evaluate_pattern(config, muscles, base_pattern,
                                      duration_s=8.0, n_trials=2, seed=9)
        for t1, t2 in zip(r1["trials"], r2["trials"]):
            np.testing.assert_array_equal(t1["rpm_trace"], t2["rpm_trace"])

    def test_driven_pattern_spins_in_band(self, rig, base_pattern):
        config, muscles = rig
        result = offline.evaluate_pattern(config, muscles, base_pattern,
                                          duration_s=20.0, n_trials=3, seed=11)
        assert 30.0 < result["mean_rpm"] < 70.0
        assert result["dt"] == 0.05
        for trial in result["trials"]:
            assert trial["rpm_trace"].shape == (400,)


def _use_cpus(monkeypatch, n):
    """Make os.sched_getaffinity report n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestDrivesSideBySide:
    """collect_sessions and evaluate_pattern give the same bytes whether their
    drives run in this process (one usable CPU) or in forked workers (two)."""

    @pytest.fixture(params=[(2, False), (3, False), (2, True), (3, True)],
                    ids=["2m", "3m", "2m_gap", "3m_gap"])
    def sim(self, request):
        n_muscles, gap = request.param
        config = bm.validate_config(bm.nominal_config(n_muscles))
        muscles = bm.default_muscle_set(config)
        if gap:
            config, muscles = offline.apply_reality_gap(
                config, muscles, offline.RealityGapConfig(seed=17))
        names = bm.MUSCLE_NAMES[:n_muscles]
        arcs = (((30.0, 170.0),), ((190.0, 330.0),), ((200.0, 320.0),))[:n_muscles]
        return config, muscles, StimulationPattern(names, arcs)

    @staticmethod
    def _run(monkeypatch, n_cpus, config, muscles, pat):
        _use_cpus(monkeypatch, n_cpus)
        before = bm.sim_step_count()
        logs = offline.collect_sessions(config, muscles, pat, n_sessions=3,
                                        duration_s=2.0, seed=21)
        assert multiprocessing.active_children() == []
        result = offline.evaluate_pattern(config, muscles, pat, duration_s=3.0,
                                          n_trials=3, seed=22, transient_s=1.0)
        assert multiprocessing.active_children() == []
        return logs, result, bm.sim_step_count() - before

    def test_serial_and_pool_paths_bit_equal(self, sim, monkeypatch):
        serial_logs, serial, serial_steps = self._run(monkeypatch, 1, *sim)
        pool_logs, pool, pool_steps = self._run(monkeypatch, 2, *sim)
        # the serial drives ran here, the pool's in workers
        assert (serial_steps, pool_steps) == (3 * 40 + 3 * 60, 0)
        assert [log.pattern_id for log in pool_logs] == [log.pattern_id for log in serial_logs]
        for a, b in zip(serial_logs, pool_logs):
            assert (a.config_hash, a.dt) == (b.config_hash, b.dt)
            for name in ("times", "crank_angles", "cadences", "controls"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert serial["mean_rpm"] == pool["mean_rpm"]
        for a, b in zip(serial["trials"], pool["trials"]):
            assert (a["start_seed"], a["mean_rpm"], a["final_rpm"]) == (
                b["start_seed"], b["mean_rpm"], b["final_rpm"])
            assert a["rpm_trace"].tobytes() == b["rpm_trace"].tobytes()

    def test_single_drive_starts_no_pool(self, rig, base_pattern, monkeypatch):
        _use_cpus(monkeypatch, 2)
        config, muscles = rig
        before = bm.sim_step_count()
        offline.evaluate_pattern(config, muscles, base_pattern, duration_s=2.0, n_trials=1,
                                 transient_s=1.0)
        offline.collect_sessions(config, muscles, base_pattern, n_sessions=1, duration_s=2.0)
        # every step ran in this process
        assert bm.sim_step_count() - before == 40 + 40
        assert multiprocessing.active_children() == []
