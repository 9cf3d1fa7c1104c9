"""Golden digests of NDPExt's model-side recorder events on the tiny suite.

The ``miss_curve``, ``reconfig`` and ``hit_accuracy`` events carry the
numbers the miss-curve model produces: the smoothed curves themselves,
the predicted cost of the old and the new configuration, and each
stream's predicted hit rate next to the realized one.  Reports do not
carry them, so the report digests cannot see a change to them; these
pins do.  A refactor of the curves, the lookahead or the cost model must
leave every digest as is.

Every tiny-suite workload runs under the default policy and under
``adaptive_blocks``, whose block-size changes drop a stream's curve
history mid-run; two ``small`` workloads add runs of several epochs.

The digest is the sha256 of the run's events of those kinds, in
emission order and without their ``seq`` numbers, dumped as JSON with
sorted keys.  ``python tests/obs/test_model_event_digests.py`` prints
the current values in the layout of the tables below.
"""

import hashlib
import json

import pytest

from repro.core.runtime import NdpExtPolicy
from repro.obs import Recorder
from repro.sim import SimulationEngine
from repro.sim.params import small, tiny
from repro.workloads import SMALL, SUITE, TINY, build

KINDS = ("miss_curve", "reconfig", "hit_accuracy")

VARIANTS = {
    "ndpext": NdpExtPolicy,
    "ndpext-adaptive": lambda: NdpExtPolicy(adaptive_blocks=True),
}
SMALL_WORKLOADS = ("pr", "recsys")

TINY_EVENT_DIGESTS = {
    "recsys": {
        "ndpext": "3e444016f4ffff25e59bc94f98329d424e213a57bf40c45e42164b8a1dc808a5",
        "ndpext-adaptive": "24fa83a1b6b6c9b5858a216512ab9c68363c85ff2374a692c97e3272143896fa",
    },
    "mv": {
        "ndpext": "112bcaff3c168ab6fb3353e56fd00541ebed1236cf29c3bc0e57f358cdfd6a83",
        "ndpext-adaptive": "6b93c478030e977c7135b20f92ba4c1ce8a7069d2ef55f6e77c562deffda292e",
    },
    "gnn": {
        "ndpext": "a4d7eb923b8d49388c214336f329460d7d16b493b910cbf9321c992eeeab494a",
        "ndpext-adaptive": "df2c0bdcc42e591f374918096596d6aebc8212f724f0917213bf7c036771a375",
    },
    "backprop": {
        "ndpext": "159e9e1b472ec65aa1d4347c9b214513cd0f62d2f6653c8258f94548e3bff0bd",
        "ndpext-adaptive": "6625f3a6c0e46b10d6bce5f6eef08ad15aa2bca7198389e6d93b4c09866ccb4b",
    },
    "hotspot": {
        "ndpext": "d8d03e17dc4203d702edb1c392366b15fe9a7946b414c03e7a102c36a15fd45c",
        "ndpext-adaptive": "6823c0213d287c3cbad518a7ee5a2dfd3f4beabd0554c963a6c6ff22c91eb92d",
    },
    "lavaMD": {
        "ndpext": "8638cf6cead6813c14d700a485693867e60835c45c64e84a02c44e6cd4713e98",
        "ndpext-adaptive": "d3f9991c13f3d4de90c3fea7387091a366a175580d0debed9c09b8001c4932c8",
    },
    "lud": {
        "ndpext": "61d6eea9422d0f35e63a34d2b0ab8ed482e1d31dc62ac32303c01465b99ba131",
        "ndpext-adaptive": "dd974d6d153b75786c70caf578ed5109ed570bbec9f012a974b0ac1d6c5d20f1",
    },
    "pathfinder": {
        "ndpext": "800e6daf139412eb9f2a39f1e1f2e70ee747a027ae97102529a20b8e7bd833a2",
        "ndpext-adaptive": "e1bb89954b9d76dedf2694c1e2a29bd61696fe30c1aca9550d985ffbae33ab72",
    },
    "bfs": {
        "ndpext": "fa8da779cf87ec3f104fa6c8b933e143079e0b134e970256f480730e8720899e",
        "ndpext-adaptive": "2e31018b348363b563ecd152fd6ae61115c31064a56c687727402f8339ec0378",
    },
    "pr": {
        "ndpext": "9a8aaf0d8adf82bb09c863bfb29c897cebf8596b035cf20a8315e5275364a6e1",
        "ndpext-adaptive": "377870ad53a7c4b033a1210ae4f41b4986357f8f761465af2548d11f821b5cf4",
    },
    "cc": {
        "ndpext": "46a61198d38e928a2c988b2f59cae60722e0650c674f1d43e865aac2799c1082",
        "ndpext-adaptive": "0db2ccc342ba4980e16712fda5b2d94e14fffca55e4249b015fb5389caaa0ed9",
    },
    "bc": {
        "ndpext": "d9e7d2a3252d9eeb98db0cd6afce5a20c46fbbdfa2eb440a196f1550f3416b56",
        "ndpext-adaptive": "4d6885a2d4176c0715b06097348dac5384e94d87beca1d859ea219d8be68429a",
    },
    "tc": {
        "ndpext": "97dbcea03b4705400d388c6394c78c0e259437816f54a573d4bcabaef85b8b37",
        "ndpext-adaptive": "6241f46c9f556eaf333f9dbfc70e277172ff8d7cc2b2df87d9ec7e9b9f1f458f",
    },
}

SMALL_EVENT_DIGESTS = {
    "pr": "a92e3d6e599c03f5b6492dece6b7f3644acd0624cd8f05a630d8c1d9d35455a9",
    "recsys": "10901c173843afe273cbba5d83ba0b8ae2004cbb46941d356a2d9ddfe774d65e",
}


def event_digest(name: str, variant: str = "ndpext", preset: str = "tiny") -> str:
    config, scale = (tiny(), TINY) if preset == "tiny" else (small(), SMALL)
    recorder = Recorder()
    SimulationEngine(config, recorder=recorder).run(
        build(name, scale), VARIANTS[variant]()
    )
    events = [
        {key: value for key, value in event.items() if key != "seq"}
        for event in recorder.events
        if event["kind"] in KINDS
    ]
    payload = json.dumps(events, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(autouse=True)
def _generate_cold(monkeypatch):
    # Bypass the trace cache so every test runs the generator itself.
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")


def test_every_suite_workload_is_pinned():
    assert set(TINY_EVENT_DIGESTS) == set(SUITE)
    assert set(SMALL_EVENT_DIGESTS) == set(SMALL_WORKLOADS)


@pytest.mark.parametrize("name", SUITE)
def test_tiny_model_event_digests(name):
    got = {variant: event_digest(name, variant) for variant in VARIANTS}
    assert got == TINY_EVENT_DIGESTS[name]


@pytest.mark.parametrize("name", SMALL_WORKLOADS)
def test_small_model_event_digests(name):
    assert event_digest(name, preset="small") == SMALL_EVENT_DIGESTS[name]


if __name__ == "__main__":
    print("TINY_EVENT_DIGESTS = {")
    for name in SUITE:
        print(f"    {name!r}: {{")
        for variant in VARIANTS:
            print(f"        {variant!r}: {event_digest(name, variant)!r},")
        print("    },")
    print("}")
    print("\nSMALL_EVENT_DIGESTS = {")
    for name in SMALL_WORKLOADS:
        print(f"    {name!r}: {event_digest(name, preset='small')!r},")
    print("}")
