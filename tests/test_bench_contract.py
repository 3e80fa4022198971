"""The benchmark's span tracer (perfbench/spans.py) wraps fescycle's public
functions by name and reads their arguments and results.  A traced training
and fine-tuning run must raise nothing and record no span error, so a change
to those functions cannot silently break every traced benchmark job.

ReplayBuffer subclasses OfflineDataset and inherits its sample, so the
tracer, which wraps sample on both classes, must count each batch once and
leave neither class wrapped after uninstall."""

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
