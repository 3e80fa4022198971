"""The benchmark's span tracer (perfbench/spans.py) wraps fescycle's public
functions by name and reads their arguments and results.  A traced training
and fine-tuning run must raise nothing and record no span error, so a change
to those functions cannot silently break every traced benchmark job.

ReplayBuffer subclasses OfflineDataset and inherits its sample, so the
tracer, which wraps sample on both classes, must count each batch once and
leave neither class wrapped after uninstall.

Training episodes and pattern sessions step the plant through one loop,
env.drive, which calls biomech.sim_step and, for a session,
offline.pattern_control through their module attributes; a loop that
imported either name directly would bypass the tracer, so the traced counts
must match the plant's own counter and the session's length.

perfbench/checks.py keeps its own copy of the control interval to count the
rows of session logs and evaluation traces; it must equal the program's."""

from pathlib import Path

import fescycle
from fescycle import biomech as bm
from fescycle import offline, sac, training
from fescycle.env import CyclingEnv, EpisodeConfig
from fescycle.pattern import StimulationPattern

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_train_and_finetune_record_no_errors(nominal_2m, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install(fescycle)
    steps_before = bm.sim_step_count()
    try:
        env = CyclingEnv(nominal_2m, episode=EpisodeConfig(seed=1))
        tc = sac.TrainConfig(seed=1, batch=64, grad_steps_per_episode=3)
        agent, _ = training.train_agent(env, tc, max_episodes=1)

        pat = StimulationPattern((bm.QUADRICEPS, bm.HAMSTRINGS),
                                 (((30.0, 170.0),), ((190.0, 330.0),)))
        logs = offline.collect_sessions(nominal_2m, bm.default_muscle_set(nominal_2m), pat,
                                        n_sessions=1, duration_s=4.0)
        dataset = offline.logs_to_dataset(logs, discard_first_s=0.5)
        ft = sac.TrainConfig(seed=1, batch=64, grad_steps_per_episode=3, cql_weight=5.0,
                             cql_num_samples=4)
        agent.reconfigure(ft)
        offline.finetune(agent, dataset, ft, epochs=1)
        steps = bm.sim_step_count() - steps_before
    finally:
        tracer.uninstall()
    assert dict(tracer.errors) == {}
    assert tracer.calls["training.train_agent"] == 1
    assert tracer.calls["offline.dataset"] == 1
    assert tracer.calls["sac.update"] == 2
    # three gradient steps in training and three in fine-tuning
    assert tracer.calls["sac.sample"] == 6
    assert tracer.count["sac.update.steps"] == 6
    assert not hasattr(sac.ReplayBuffer.sample, "__wrapped__")
    assert not hasattr(offline.OfflineDataset.sample, "__wrapped__")
    # one 100-step episode and one 80-step session, which runs in this process
    assert tracer.calls["biomech.sim_step"] == steps == 100 + 80
    # both legs at each of the session's 81 logged rows
    assert tracer.calls["pattern.control"] == 2 * (80 + 1)


def test_bench_control_interval_is_the_program_s(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    assert checks.CONTROL_DT == bm.CONTROL_DT
