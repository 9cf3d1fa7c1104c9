"""Golden digests of every generated trace.

Generation is deterministic in ``(name, scale)``; these pins make any
change to a generator that alters its trace — order, addresses, write
mask or stream ids — fail loudly.  A speed change to a generator (for
instance stopping a core's loop once :meth:`WorkloadBuilder.saturated`
says every further ``emit`` is dropped) must leave every digest as is.

The digest is the sha256 of the little-endian bytes of ``core`` (int32),
``addr`` (int64), ``write`` (uint8) and ``sid`` (int32), in that order.
"""

import hashlib

import pytest

from repro.workloads import SMALL, SUITE, TINY, build

SMALL_5K = SMALL.scaled(accesses_per_core=5_000, seed=1)

TINY_DIGESTS = {
    "recsys": "24835a0e36ad7e87685fa59a0743ce03cccf0ce0892246f21a292195fc66dd1b",
    "mv": "eff6bd7e90f5619112e546ccd21a2f7980e23913fe23117bcd3b62edcc8dd536",
    "gnn": "9f6d1f8e86900d20fd521a376395489893a6a2a5a72dce8635fbf9a02f7553c8",
    "backprop": "50a876221a4117101906faf2ae6c611723b11763fc1fc502714e322bacd8adda",
    "hotspot": "ca0502af0d972e7bb38f89c94ee412f7d9234306b6c613a42f449b0f805c03c1",
    "lavaMD": "07459a566cab4240f238130c7f3d4d2c2674111fa53c5e5c9ec14b553b2f2809",
    "lud": "bded1af82353d63c00c9e55c9147c03cf6d30258137934342087f9a1857f647e",
    "pathfinder": "1aef1032c6de1146c7b12c0042f3e085427dad9a94faa039d2bde82754b82784",
    "bfs": "553fa945ef73385517006f241b84f6202ff0bef7b81836f6ba3d521a32b12a28",
    "pr": "d55a2087e3b1b1f4318b5a6b6bf4e68f7f56040de16c4d63dc9b950dfe9d680d",
    "cc": "7bd2e700909e47bfd0be6ad93c9440bdb81f96e02def084bdef1f884bcf91e97",
    "bc": "64f8636a02c676bfa3db2de2b664a6786891796ee88fb236401649725b2f5cba",
    "tc": "e82546af711e493ff6d893ad3431e6ad852cf43dbce4617e2dfae9ee06f517a8",
}

SMALL_5K_DIGESTS = {
    "recsys": "89887c4d45805860ced0078a1d9f054a4409441de7ec51e221b3463970e74ebc",
    "mv": "6d8b1d1d796addca3abe3f2241976c8567a81c9b69d84bfe49a207473b5bb581",
    "gnn": "ac9040ecc8b52627160d1f6f8659bd5b49f0e1908baf9d26c959f936a6398546",
    "backprop": "dddaf655bf30942a82230297ff35bfc0ca5495d2aadcc6d51bd24e322cca7786",
    "hotspot": "00154b179a289a8e9b29ae59b898963a792b118c5996b838b0630bc9b1822dac",
    "lavaMD": "299de3f0722d3887e7440f4813727c4c90433b4c2f4c3f815b29bc23b841e54b",
    "lud": "42d6b29e3ed800ec2ffbf5fcb27a66dec169306b4a2ee89fd08bce4292992285",
    "pathfinder": "d5c4b352ca1c8f1c477e6d019385b4cd45cfd51733a46d842bf9b8752688fe5c",
    "bfs": "5d1e6d0f22c2a93c30a87d080eb959e62f66b74f6eb3f5fc1f758ee12a701b7e",
    "pr": "ea324b0e22b9f7bd5d0757ee5ae1775d42151937890a074f14ba54b7e7191cae",
    "cc": "5fe0c7dd9b88923761903817642649ec6a884010cc73bd18d99d3827d1bb7df5",
    "bc": "eb0be98a1ef8279cb065ac85a5f5ad24e8bfa3fe0060cca647ac0e9f10e19c27",
    "tc": "9e561963f0a0137dff33162e089675e5826d029bc4589b6ecd945274b0c88ece",
}


def trace_digest(workload) -> str:
    trace = workload.trace
    h = hashlib.sha256()
    for column in (
        trace.core.astype("<i4"),
        trace.addr.astype("<i8"),
        trace.write.astype("u1"),
        trace.sid.astype("<i4"),
    ):
        h.update(column.tobytes())
    return h.hexdigest()


@pytest.fixture(autouse=True)
def _generate_cold(monkeypatch):
    # Bypass the trace cache so every test runs the generator itself.
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")


def test_every_suite_workload_is_pinned():
    assert set(TINY_DIGESTS) == set(SUITE)
    assert set(SMALL_5K_DIGESTS) == set(SUITE)


@pytest.mark.parametrize("name", SUITE)
def test_tiny_trace_digest(name):
    assert trace_digest(build(name, TINY)) == TINY_DIGESTS[name]


@pytest.mark.parametrize("name", SUITE)
def test_small_5k_trace_digest(name):
    assert trace_digest(build(name, SMALL_5K)) == SMALL_5K_DIGESTS[name]
