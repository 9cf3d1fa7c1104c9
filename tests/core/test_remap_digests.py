"""Golden report digests of the remap-table paths no other pin reaches.

``tests/baselines/test_report_digests.py`` runs NDPExt with consistent
hashing, fault-free and with one unit failure.  Two paths of the
stream-cache mapper stay outside it:

* DRAM row faults: ``quarantine_row`` searches the table for the stream
  whose rows cover the bad row, and an uncovered bad row leaves a unit
  holding more rows than it has left, which the next degraded install
  trims from the highest stream ids.  The schedule below quarantines a
  covered row of unit 0, then a row past unit 0's allocations, then a
  row of unit 1 in the same epoch (whose install trims unit 0), and one
  more row an epoch later.
* Plain hashing (``placement="hash"``): no consistent-hash rings, so
  every resized group remaps its tags by weighted buckets.

The digest is the one of the report-digest tables: the sha256 of
``SimulationReport.to_json()`` dumped as JSON with sorted keys.
``python tests/core/test_remap_digests.py`` prints the current values in
the layout of the tables below.
"""

import pytest

from repro.core.runtime import NdpExtPolicy
from repro.faults import FaultSchedule
from repro.faults.schedule import DramRowFault
from repro.sim import SimulationEngine
from repro.sim.params import tiny
from repro.workloads import SUITE, TINY, build
from tests.baselines.test_report_digests import UNIT_FAILURE, report_digest

ROW_FAULTS = FaultSchedule(
    (
        DramRowFault(epoch=1, unit=0, row=3),
        DramRowFault(epoch=1, unit=0, row=7),
        DramRowFault(epoch=1, unit=1, row=0),
        DramRowFault(epoch=2, unit=2, row=5),
    ),
    seed=1,
)

VARIANTS = {
    "ndpext-row-faults": (NdpExtPolicy, ROW_FAULTS),
    "hash": (lambda: NdpExtPolicy(placement="hash"), None),
    "hash-unit-failure": (lambda: NdpExtPolicy(placement="hash"), UNIT_FAILURE),
}

DIGESTS = {
    "recsys": {
        "ndpext-row-faults": "05a6fc61ecb86815407a5d066ed44ccccbfb6a123a78570a9c9de5d3914dd83e",
        "hash": "a8fb795589ced0da7016d30ff388a19720cfcf9aee51ca7a83ae86134d02b905",
        "hash-unit-failure": "faa553de7c4dd8c4d36ccab2d2d90d24a6a0a287b7b4b0bf0d306a68153c6977",
    },
    "mv": {
        "ndpext-row-faults": "4abbfe5cc1def3afe8e7204c45f90b53131bd7359dad12d786d3f672aba9c239",
        "hash": "e9bf59192f903578c7826cb5e1d30c9165847e8929b7dd52a367186747ac5e89",
        "hash-unit-failure": "c4b475a8832df09880b6097f970843b011ffc8a9687b0686a5449a4b9b19ea30",
    },
    "gnn": {
        "ndpext-row-faults": "faeb7b425af2c656a4d191152a684254992fe9d73985adfa4e461b40c601ffe3",
        "hash": "cf35b744863364eead157a430d21c9819e43b65dbb193d546679b39e652c35d8",
        "hash-unit-failure": "170707226f5263f459cccfff3d1921b62445a7bbf7871c57141004a5d97eeb7c",
    },
    "backprop": {
        "ndpext-row-faults": "587881cbf59387213516ce181ec5792222d4cffe266c387378ee4135ddc62bd8",
        "hash": "db3d08c96cbee8fd02f8c09e1514651a06aa3d9adc0f0f2c37822f2bcf8c2631",
        "hash-unit-failure": "06d431c450f2d766baef6eed2c39e09f79fd724a5983bd86c0295ebdfb29b689",
    },
    "hotspot": {
        "ndpext-row-faults": "b3c4075c78a7a1d60665ac0032d98afa15f1ff4729a014a75084877cf9e0cd1b",
        "hash": "6d7174b66c5ecd2b4fce1bd74cd0ac8b91e896319b0f56ba3bceeb440343e6b9",
        "hash-unit-failure": "b81d49f54d02d2913efecd5e8b375b2da43d3b14a81a84e03f65723faf50d42c",
    },
    "lavaMD": {
        "ndpext-row-faults": "438989fb5e5e19481444eb645d96fabe9a4dc294dc33eb60bd728c09a3ac3515",
        "hash": "7513fe403b373566fc02668efe0cd5b879e6078d15978b3f7f66d1a9dae161bf",
        "hash-unit-failure": "5103de6eabb128e6d848c24b5a2828a8eee3cd8ec5063c17521329a45f71994e",
    },
    "lud": {
        "ndpext-row-faults": "c67123d4eea20511c2333cfd519b6772515a32eae4a388ef2a588bb8e3b1a628",
        "hash": "1cee7204bad0e8aacccdabccf7b777b51437d447fd583bb867ae7037ed37873c",
        "hash-unit-failure": "34ef12d2eadbb12df19a7a09192241a7f265097e324489355a53d7c31f7380b3",
    },
    "pathfinder": {
        "ndpext-row-faults": "1544bb522549e75ee377f0270d6f75345a036f4788f7b895a35727fa9bd87771",
        "hash": "9f6c0505e6245304eb3661ba8eb2084a06d9c94e61c07f1f9f6eb5c250829eb9",
        "hash-unit-failure": "4cd992d1abe61121cf0c372c7fbffd08d8fd7e1ed294955a4a228536951cafe4",
    },
    "bfs": {
        "ndpext-row-faults": "ce955384f5a345e0a4438577882989136fe0accf804dd16dfb1908163dd4b7a5",
        "hash": "2cf11d7e92c6a832ffb8e56df30faad058f908f3c2ca4086ca1f3687ef8ee533",
        "hash-unit-failure": "cde943ac27344f936182cbfe88130eeb82381b59b26464a370d618e9f3ce66df",
    },
    "pr": {
        "ndpext-row-faults": "116aa3e97bb67e183002722d7f4fb2db7422afadd899c27b96c3052835b50b48",
        "hash": "1178e62851984c674d0166de91ee5fb64c996f941486fed94b2a3574b6ac7b4f",
        "hash-unit-failure": "3b6c09c672567821ec47c123b815d011d62a6321f25f364072560fbacf23fe80",
    },
    "cc": {
        "ndpext-row-faults": "722c7551fe800ef77cba49989ed521aa7665eaf3eb49b2b4ca124c1b3b3e7182",
        "hash": "70b029827a0d036123a810479488de107473fd4e3e878bfafc6b83aecbd51766",
        "hash-unit-failure": "985a7dd506698473da26d243897b5d4d92ebbaf44c41e5d7a16b2cf006f34b17",
    },
    "bc": {
        "ndpext-row-faults": "a3fc891b7ffe2140638f8677893f18dc44f32e3ccfb655e8f22b0df8b6a21283",
        "hash": "d2c6eafb849c65bbbe6921b410795f456be131f21a31f9c86046fe79170ac7f9",
        "hash-unit-failure": "f4f55487aef0f6c6ffdf7351b93a87691b6ceab7299750d77e7feb86fffaf774",
    },
    "tc": {
        "ndpext-row-faults": "5ab50ed1b45238ec5282971a9eae984706760890b8cabac80f69df401d213e64",
        "hash": "11c26706b0704e91d296da9b0a75da31e426b22ef77853c6a822a5b6b906e4c2",
        "hash-unit-failure": "1d7753acbb71f73f9f30adb08191fd34d5d144e92cc5db0093dfa505ecf4d974",
    },
}


def digests(name: str) -> dict[str, str]:
    workload = build(name, TINY)
    return {
        variant: report_digest(
            SimulationEngine(tiny(), faults=faults).run(workload, factory())
        )
        for variant, (factory, faults) in VARIANTS.items()
    }


@pytest.fixture(autouse=True)
def _generate_cold(monkeypatch):
    # Bypass the trace cache so every test runs the generator itself.
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")


def test_every_suite_workload_is_pinned():
    assert set(DIGESTS) == set(SUITE)


@pytest.mark.parametrize("name", SUITE)
def test_remap_report_digests(name):
    assert digests(name) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in SUITE:
        print(f"    {name!r}: {{")
        for variant, digest in digests(name).items():
            print(f"        {variant!r}: {digest!r},")
        print("    },")
    print("}")
