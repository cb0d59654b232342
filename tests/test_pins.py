"""The tier-1 entries of the pin table (tests/pins.json): the small runs
of each scenario, checked against their recorded sha256. CI checks every
entry with ``python tests/pins.py``."""

import pytest

import pins

TABLE = pins.load()
TIER1 = {}
for _entry in TABLE["pins"]:
    if _entry.get("tier1"):
        TIER1.setdefault(_entry["name"], []).append(_entry)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return pins.Runner(str(tmp_path_factory.mktemp("pins")))


@pytest.mark.parametrize("name", TIER1)
def test_tier1_pins(runner, name):
    entries = TIER1[name]
    assert {e["output"]: runner.digest(e) for e in entries} == \
        {e["output"]: e["sha256"] for e in entries}, pins.kernels(TABLE)
