"""Building, running, sharding or serving a world never loads networkx.

Importing networkx costs a process about 13 MB of resident memory, and
a campus runs one process per pool worker.  No simulated world builds a
graph, so the modules that use networkx import it inside the functions
that build or query one.  This test pins that: a fresh interpreter
imports the run, shard and service surfaces, runs a chaos world, a
twin-planned traffic world and a 2-hall campus, builds a served world,
and must not have loaded any of :data:`HEAVY`.  Nor may it have loaded
an experiment module other than the E17 module it imports itself, or
:mod:`dcrobot.ml`: the experiment registry lives in the command-line
module, so the world engine loads no experiment it does not run.  It
then makes the graph calls, which must load networkx and answer exactly
as they do in this process.  Only module presence is checked: no wall
clock, no RSS.
"""

import json
import os
import subprocess
import sys

import pytest

import dcrobot

#: Modules no simulated world needs.
HEAVY = ("networkx", "scipy", "matplotlib", "pandas")

#: Graph calls, run both in the child and in this process.
_GRAPH_CALLS = """
def graph_answers():
    import numpy as np

    from dcrobot.core.reconfigure import plan_rewiring
    from dcrobot.network import Fabric, HallLayout, SwitchRole
    from dcrobot.topology import build_fattree
    from dcrobot.topology.jellyfish import build_jellyfish

    fattree = build_fattree(k=4, rng=np.random.default_rng(0))
    jellyfish = build_jellyfish(rng=np.random.default_rng(3))
    # A ring of three switches rewired to the path 0-1-2 plus a
    # parallel 0-1: the removal runs through the connectivity check.
    ring = Fabric(layout=HallLayout(rows=1, racks_per_row=4),
                  rng=np.random.default_rng(0))
    ids = [ring.add_switch(SwitchRole.NODE, radix=3,
                           rack_id=ring.layout.rack_at(0, index).id).id
           for index in range(3)]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        ring.connect(ids[a], ids[b])
    plan = plan_rewiring(ring, [(ids[0], ids[1]), (ids[1], ids[2]),
                                (ids[0], ids[1])])
    return {
        "connected": fattree.is_connected(),
        "jellyfish_pairs": [list(link.endpoint_ids)
                            for link in jellyfish.fabric.links.values()],
        "rewire_steps": [[step.kind.value, step.link_id,
                          list(step.endpoints)] for step in plan.steps],
    }
"""

_CHILD = """
import json
import sys

import dcrobot.experiments.e17_twin_planning as e17
import dcrobot.experiments.runner as runner
import dcrobot.service as service
import dcrobot.shard as shard
from dcrobot.chaos.config import ChaosConfig
from dcrobot.core.automation import AutomationLevel
from dcrobot.core.controller import ControllerConfig
from dcrobot.core.resilience import ResilienceConfig
from dcrobot.network.enums import FormFactor

HEAVY = %r
DAY = 86400.0


def chaos_config(days, halls=1):
    # E13's hardened arm at moderate chaos, safety monitor on.
    return runner.WorldConfig(
        horizon_days=days, seed=0, failure_scale=3.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        chaos=ChaosConfig.moderate(), safety=True,
        stuck_after_seconds=5.0 * DAY, mute_ttl_seconds=2.0 * DAY,
        controller_config=ControllerConfig(
            resilience=ResilienceConfig()),
        halls=halls)


runner.run_world(chaos_config(1.0))
runner.run_world(runner.WorldConfig(
    topology_kwargs={"k": 4, "form_factor": FormFactor.SFP28},
    horizon_days=0.25, seed=0, failure_scale=0.0,
    dust_rate_per_day=0.0, aging_rate_per_day=0.0,
    level=AutomationLevel.L3_HIGH_AUTOMATION,
    policy=e17.MixedCampaign,
    controller_config=ControllerConfig(defer_proactive=False),
    traffic=True, traffic_window_seconds=900.0,
    traffic_sample_seconds=1.0, traffic_max_equal_paths=4,
    twin_planner=e17.TWIN))
shard.run_campus(chaos_config(1.0, halls=2), jobs=1)
service.serve_world(chaos_config(1.0),
                    service.ServiceConfig(admission=None))
worlds_loaded = [name for name in HEAVY if name in sys.modules]
experiments_loaded = sorted(
    name for name in sys.modules
    if name.startswith("dcrobot.experiments.e")
    and name != e17.__name__)
ml_loaded = sorted(name for name in sys.modules
                   if name.split(".")[:2] == ["dcrobot", "ml"])

%s

answers = graph_answers()
print(json.dumps({"worlds_loaded": worlds_loaded,
                  "experiments_loaded": experiments_loaded,
                  "ml_loaded": ml_loaded,
                  "graphs_loaded_networkx": "networkx" in sys.modules,
                  "answers": answers}))
""" % (HEAVY, _GRAPH_CALLS)


def _run_child() -> dict:
    src = os.path.dirname(os.path.dirname(dcrobot.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def report() -> dict:
    return _run_child()


def test_worlds_never_load_networkx_and_graph_calls_still_do(report):
    assert report["worlds_loaded"] == []
    assert report["graphs_loaded_networkx"]
    namespace: dict = {}
    exec(_GRAPH_CALLS, namespace)
    expected = namespace["graph_answers"]()
    assert report["answers"] == expected
    assert expected["connected"] is True
    assert expected["jellyfish_pairs"]
    assert expected["rewire_steps"]


def test_worlds_load_no_experiment_they_do_not_run(report):
    assert report["experiments_loaded"] == []
    assert report["ml_loaded"] == []
